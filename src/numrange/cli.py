"""Command-line surface.

Exit codes: 0 success, 1 check failure (duality violation, non-real line
roots, craig disagreement), 2 input error (unparseable files, bad flags,
missing viewport for an unbounded set).
"""

from __future__ import annotations

import argparse
import json
import sys

from .craig import CraigDisagreementError, craig_verdict, verdict_line
from .dualcurve import (
    DualCurve,
    dual_curve_exact,
    dual_sample,
    dual_sample_csv,
    dual_union,
)
from .exactpoly import PolyParseError, TriPoly, parse_poly
from .hermitian import (
    GaussianRationalMatrix,
    MatrixFormatError,
    is_normal,
    matrix_from_json,
    split,
)
from .pencil import (
    YVARS,
    boundary_F,
    boundary_csv,
    hyperbolicity_check,
    lmi_polytope_vertices,
    pencil_det,
)
from .rangegeom import duality_check, hulls_csv, polytope_detect, range_hulls
from .render import ViewportRequiredError, render_figure

OK, CHECK_FAILED, INPUT_ERROR = 0, 1, 2


class InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None


def _load_matrix(path) -> GaussianRationalMatrix:
    try:
        return matrix_from_json(_load_json(path))
    except MatrixFormatError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_pair(path):
    obj = _load_json(path)
    if isinstance(obj, dict) and "A1" in obj and "A2" in obj:
        try:
            return matrix_from_json(obj["A1"]), matrix_from_json(obj["A2"])
        except MatrixFormatError as exc:
            raise InputError(f"{path}: {exc}") from None
    try:
        A = matrix_from_json(obj)
    except MatrixFormatError as exc:
        raise InputError(f"{path}: {exc}") from None
    pencil = split(A)
    return pencil.A1, pencil.A2


def _load_factors(path) -> list[TriPoly]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    out = []
    for i, ln in enumerate(lines, 1):
        if not ln or ln.startswith("#"):
            continue
        try:
            out.append(parse_poly(ln, YVARS))
        except PolyParseError as exc:
            raise InputError(f"{path}:{i}: {exc}") from None
    if not out:
        raise InputError(f"{path}: no factors found")
    return out


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_viewport(spec: str):
    try:
        parts = [float(v) for v in spec.split(",")]
    except ValueError:
        raise InputError(f"bad viewport {spec!r}") from None
    if len(parts) != 4 or parts[0] >= parts[1] or parts[2] >= parts[3]:
        raise InputError(f"bad viewport {spec!r}: need x1min,x1max,x2min,x2max")
    return tuple(parts)


def cmd_decompose(args) -> int:
    A = _load_matrix(args.input)
    pencil = split(A)
    text = (
        f"A1 =\n{pencil.A1}\n"
        f"A2 =\n{pencil.A2}\n"
        f"hermitian={str(A.is_hermitian()).lower()}\n"
        f"normal={str(is_normal(A)).lower()}\n"
    )
    _write(text, args.out)
    return OK


def cmd_pencil(args) -> int:
    curve = pencil_det(split(_load_matrix(args.input)))
    _write(curve.p.to_text() + "\n", args.out)
    return OK


def cmd_dual(args) -> int:
    curve = pencil_det(split(_load_matrix(args.input)))
    if args.factors:
        factors = _load_factors(args.factors)
        comps = dual_union(curve.p, factors)
        lines = []
        for comp in comps:
            if isinstance(comp, DualCurve):
                lines.append(comp.q.to_text())
            else:
                lines.append("point " + ",".join(str(c) for c in comp))
        _write("\n".join(lines) + "\n", args.out)
        return OK
    dc = dual_curve_exact(curve.p)
    for extra in dc.extraneous:
        print(f"note: removed extraneous factor {extra.to_text()}", file=sys.stderr)
    _write(dc.q.to_text() + "\n", args.out)
    return OK


def cmd_sample_w(args) -> int:
    A = _load_matrix(args.input)
    hulls = range_hulls(A, args.grid)
    _write(hulls_csv(hulls), args.out)
    if args.curve:
        curve = pencil_det(split(A))
        _write(dual_sample_csv(dual_sample(curve, args.grid)), args.curve)
    return OK


def cmd_sample_f(args) -> int:
    pencil = split(_load_matrix(args.input))
    samples = boundary_F(pencil, args.grid)
    _write(boundary_csv(samples), args.out)
    return OK


def cmd_duality(args) -> int:
    report = duality_check(_load_matrix(args.input), N=args.grid, tol=args.tol)
    _write(report.to_text(), args.out)
    return OK if report.ok else CHECK_FAILED


def cmd_craig(args) -> int:
    A1, A2 = _load_pair(args.input)
    try:
        v = craig_verdict(A1, A2)
    except CraigDisagreementError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    _write(verdict_line(v) + "\n", args.out)
    return OK


def cmd_classify(args) -> int:
    A = _load_matrix(args.input)
    pencil = split(A)
    curve = pencil_det(pencil)
    hyp = hyperbolicity_check(curve, trials=16)
    verdict = polytope_detect(A, N=args.grid)
    lines = [
        f"n={A.n}",
        f"hermitian={str(A.is_hermitian()).lower()}",
        f"normal={str(is_normal(A)).lower()}",
        f"pencil_degree={curve.degree}",
        f"hyperbolic={str(hyp.ok).lower()}",
        f"max_eig_residual={hyp.max_eig_residual:.3e}",
        f"shape={verdict.kind}",
    ]
    if verdict.vertices:
        vs = "; ".join(f"({v[0]}, {v[1]})" for v in verdict.vertices)
        lines.append(f"vertices={vs}")
        lines.append(f"vertices_exact={str(verdict.exact).lower()}")
    if args.factors:
        factors = _load_factors(args.factors)
        comps = dual_union(curve.p, factors)
        wpts = [c for c in comps if not isinstance(c, DualCurve)]
        if wpts:
            chart = []
            for c0, c1, c2 in wpts:
                if c0 == 0:
                    chart.append("(inf)")
                else:
                    chart.append(f"({c1 / c0}, {c2 / c0})")
            lines.append("w_vertices=" + "; ".join(chart))
        if all(f.total_degree() == 1 for f in factors):
            poly = lmi_polytope_vertices(factors)
            lines.append("f_vertices=" + "; ".join(f"({v[0]}, {v[1]})" for v in poly.vertices))
            lines.append(f"f_bounded={str(poly.bounded).lower()}")
            lines.append("f_facet_frame=" + "; ".join(
                f"({v[0]}, {v[1]})" for v in poly.facet_line_vertices))
    _write("\n".join(lines) + "\n", args.out)
    return OK if hyp.ok else CHECK_FAILED


def cmd_render(args) -> int:
    A = _load_matrix(args.input)
    viewport = _parse_viewport(args.viewport) if args.viewport else None
    try:
        svg = render_figure(A, N=args.grid, viewport=viewport)
    except ViewportRequiredError as exc:
        raise InputError(str(exc)) from None
    _write(svg, args.out)
    return OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="numrange",
        description="Exact primal/dual geometry of the numerical range")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, grid_default=720):
        p.add_argument("--input", required=True, help="matrix JSON file")
        p.add_argument("--out", default=None, help="output file (stdout if omitted)")
        p.add_argument("--grid", type=int, default=grid_default, help="angle grid size")
        p.add_argument("--tol", type=float, default=1e-6, help="tolerance for checks")

    p = sub.add_parser("decompose", help="print the Hermitian splitting A1, A2")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("pencil", help="exact pencil determinant p(y)")
    common(p)
    p.set_defaults(func=cmd_pencil)

    p = sub.add_parser("dual", help="exact dual curve q(x)")
    common(p)
    p.add_argument("--factors", default=None,
                   help="file of linear/irreducible factors of p (one per line)")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("sample-w", help="hull CSV for W(A) (optionally dual-curve samples)")
    common(p)
    p.add_argument("--curve", default=None, help="also write dual-curve sample CSV here")
    p.set_defaults(func=cmd_sample_w)

    p = sub.add_parser("sample-f", help="boundary CSV for F(A)")
    common(p)
    p.set_defaults(func=cmd_sample_f)

    p = sub.add_parser("duality", help="verify the W/F pairing; exit 1 on violation")
    common(p)
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("craig", help="craig factorization verdict")
    common(p)
    p.set_defaults(func=cmd_craig)

    p = sub.add_parser("classify", help="structure report: normality, hyperbolicity, shape")
    common(p, grid_default=360)
    p.add_argument("--factors", default=None,
                   help="factors of p for exact polytope vertices")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("render", help="two-panel SVG of F(A)/P and W(A)/Q")
    common(p)
    p.add_argument("--viewport", default=None,
                   help="x1min,x1max,x2min,x2max clipping box (required if F is unbounded)")
    p.set_defaults(func=cmd_render)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "tol", 1.0) <= 0:
            raise InputError(f"tolerance must be positive (got {args.tol})")
        if getattr(args, "grid", 3) < 3:
            raise InputError(f"grid must be at least 3 (got {args.grid})")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except (PolyParseError, MatrixFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
