"""Command-line surface.

Exit codes: 0 success, 1 check failure (duality violation, non-real line
roots, craig disagreement), 2 input error (unparseable files, bad flags,
missing viewport for an unbounded set) or an eigensolver that did not converge.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .craig import RECT_TOL, CraigDisagreementError, craig_verdict, verdict_line
from .dualcurve import (
    DualCurve,
    _refuse_product_of_forms,
    dual_curve_exact,
    dual_sample,
    dual_sample_csv,
    dual_union,
)
from .exactpoly import PolyParseError, TriPoly, parse_poly
from .hermitian import (
    FloatRangeError,
    GaussianRationalMatrix,
    MatrixFormatError,
    is_normal,
    matrix_from_json,
    split,
)
from .pencil import (
    YVARS,
    SpectralGrid,
    _uniform_fan,
    boundary_F,
    boundary_csv,
    hyperbolicity_check,
    lmi_polytope_vertices,
    pencil_det,
)
from .rangegeom import (
    PAIRING_TOL,
    _certified_spectrum,
    duality_check,
    hulls_csv,
    polytope_detect,
    range_hulls,
)
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
    try:
        if isinstance(obj, dict) and "A1" in obj and "A2" in obj:
            return matrix_from_json(obj["A1"]), matrix_from_json(obj["A2"])
        pencil = split(matrix_from_json(obj))
    except MatrixFormatError as exc:
        raise InputError(f"{path}: {exc}") from None
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
    # nan fails lo < hi; an infinite bound, or a width past the largest float,
    # gives an infinite width, which scales every coordinate to nan
    if len(parts) != 4 or not all(lo < hi and math.isfinite(hi - lo)
                                  for lo, hi in (parts[:2], parts[2:])):
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
    try:
        spectrum = _certified_spectrum(curve)
    except (FloatRangeError, np.linalg.LinAlgError):   # the elimination needs no float
        spectrum = None
    if spectrum is not None and spectrum[1] is not None:
        _refuse_product_of_forms(curve.p, spectrum[1])
    dc = dual_curve_exact(curve.p)
    for extra in dc.extraneous:
        print(f"note: removed extraneous factor {extra.to_text()}", file=sys.stderr)
    _write(dc.q.to_text() + "\n", args.out)
    return OK


def cmd_sample_w(args) -> int:
    # the printed hulls solve every angle (see SpectralGrid)
    grid = SpectralGrid.at(split(_load_matrix(args.input)), *_uniform_fan(args.grid))
    # both texts are built before either is written, so a refused --curve
    # leaves no hull CSV behind
    curve = dual_sample_csv(dual_sample(grid)) if args.curve else None
    _write(hulls_csv(range_hulls(grid)), args.out)
    if curve is not None:
        _write(curve, args.curve)
    return OK


def cmd_sample_f(args) -> int:
    grid = SpectralGrid(split(_load_matrix(args.input)), args.grid)
    _write(boundary_csv(boundary_F(grid)), args.out)
    return OK


def cmd_duality(args) -> int:
    report = duality_check(_load_matrix(args.input), N=args.grid, tol=args.tol)
    _write(report.to_text(), args.out)
    return OK if report.ok else CHECK_FAILED


def cmd_craig(args) -> int:
    A1, A2 = _load_pair(args.input)
    try:
        v = craig_verdict(A1, A2, rect_tol=args.tol)
    except CraigDisagreementError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    _write(verdict_line(v) + "\n", args.out)
    return OK


def cmd_classify(args) -> int:
    A = _load_matrix(args.input)
    curve = pencil_det(split(A))
    hyp = hyperbolicity_check(curve, trials=16)
    verdict = polytope_detect(curve, N=args.grid)
    lines = [
        f"n={A.n}",
        f"hermitian={str(A.is_hermitian()).lower()}",
        f"normal={str(curve.pencil.normal).lower()}",
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
            # dual_union proved the factors multiply to p's squarefree part, and
            # p(1, 0, 0) = det(I) = 1, so no linear factor has c0 = 0
            lines.append("w_vertices=" + "; ".join(f"({c1 / c0}, {c2 / c0})"
                                                   for c0, c1, c2 in wpts))
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

    def common(p, grid=None, tol=None):
        """--input and --out; --grid and --tol, with these defaults, where the command reads them."""
        p.add_argument("--input", required=True, help="matrix JSON file")
        p.add_argument("--out", default=None, help="output file (stdout if omitted)")
        if grid:
            p.add_argument("--grid", type=int, default=grid, help="angle grid size")
        if tol:
            p.add_argument("--tol", type=float, default=tol, help="tolerance for checks")

    p = sub.add_parser("decompose", help="print the Hermitian splitting A1, A2")
    common(p)

    p = sub.add_parser("pencil", help="exact pencil determinant p(y)")
    common(p)

    p = sub.add_parser("dual", help="exact dual curve q(x)")
    common(p)
    p.add_argument("--factors", default=None,
                   help="file of linear/irreducible factors of p (one per line)")

    p = sub.add_parser("sample-w", help="hull CSV for W(A) (optionally dual-curve samples)")
    common(p, grid=720)
    p.add_argument("--curve", default=None, help="also write dual-curve sample CSV here")

    p = sub.add_parser("sample-f", help="boundary CSV for F(A)")
    common(p, grid=720)

    p = sub.add_parser("duality", help="verify the W/F pairing on an even grid; exit 1 on violation",
                       description="Verify the W/F pairing.  --grid must be even: complementary "
                                   "pairs sit at antipodal angles, which an odd grid lacks.")
    common(p, grid=720, tol=PAIRING_TOL)

    p = sub.add_parser("craig", help="craig factorization verdict")
    common(p, tol=RECT_TOL)

    p = sub.add_parser("classify", help="structure report: normality, hyperbolicity, shape")
    common(p, grid=360)
    p.add_argument("--factors", default=None,
                   help="factors of p for exact polytope vertices")

    p = sub.add_parser("render", help="two-panel SVG of F(A)/P and W(A)/Q")
    common(p, grid=720)
    p.add_argument("--viewport", default=None,
                   help="x1min,x1max,x2min,x2max clipping box (required if F is unbounded)")
    return ap


# parsing leaves no state in the parser, so one serves every call; the handler
# is looked up by name on each call, so a rebound cmd_* is the one that runs
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # exact answers and matrix files hold integers of any length, so the limit
    # on int <-> str conversion (Python 3.10.7+ and 3.11+) is lifted while the
    # command runs, and put back after it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        if not 0.0 < getattr(args, "tol", 1.0) < float("inf"):   # refuses nan too
            raise InputError(f"tolerance must be positive and finite (got {args.tol})")
        if getattr(args, "grid", 3) < 3:
            raise InputError(f"grid must be at least 3 (got {args.grid})")
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except np.linalg.LinAlgError:   # a ValueError too, but not the input's fault
        print("error: the eigensolver did not converge on this input", file=sys.stderr)
        return INPUT_ERROR
    except (InputError, PolyParseError, MatrixFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
