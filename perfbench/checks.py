"""Correctness gate for job outputs, independent of numrange's own code.

Exact outputs are compared with the pinned goldens or with text recorded
at the seed commit; generated inputs are checked against numpy: p against
det(y0 I + y1 A1 + y2 A2), q against gradient images of eigenvalue
ray-shooting points, F samples against lambda_min = 0, hulls for nesting.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import hermitian_parts

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
RECORDED_FILE = EXPECTED / "numeric.json"

P_DET_RTOL = 1e-9        # generated p against numpy det, relative to sum |term|
Q_VANISH_RTOL = 1e-6     # generated q on gradient images, relative to sum |term|
RECORDED_RTOL = 1e-7     # numeric outputs of fixtures against seed-recorded sums
RECORDED_VALUE_RTOL = 1e-6   # short outputs: each number against its recorded value,
RECORDED_VALUE_ATOL = 1e-12  # absolute floor for round-off residuals such as 1e-15
RECORDED_MAX_VALUES = 64
F_BOUNDARY_RTOL = 1e-8   # lambda_min(I + y1 A1 + y2 A2) at sampled F boundary points
HULL_RTOL = 1e-9         # inner hull vertices inside the outer hull

_TERM = re.compile(r"[+-]?[^+-]+")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|inf|nan)")


class CheckFailed(Exception):
    pass


# -- polynomial text --------------------------------------------------------------------


def parse_poly(text: str) -> dict[tuple[int, int, int], Fraction]:
    """Canonical numrange polynomial text -> {exponents: coefficient}."""
    terms: dict[tuple[int, int, int], Fraction] = {}
    body = text.replace(" ", "")
    if not body or "".join(_TERM.findall(body)) != body:
        raise CheckFailed(f"unparseable polynomial {text[:60]!r}")
    for term in _TERM.findall(body):
        sign = -1 if term[0] == "-" else 1
        coeff, exps = Fraction(sign), [0, 0, 0]
        for factor in term.lstrip("+-").split("*"):
            if factor[0].isalpha():
                var, _, power = factor.partition("^")
                exps[int(var[-1])] += int(power) if power else 1
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return {k: v for k, v in terms.items() if v}


def poly_value(terms, point) -> tuple[float, float]:
    """(value, sum of |term|) at a float point."""
    val = scale = 0.0
    for (a, b, c), coef in terms.items():
        t = float(coef) * point[0] ** a * point[1] ** b * point[2] ** c
        val += t
        scale += abs(t)
    return val, scale


def poly_sizes(terms) -> tuple[int, int, int]:
    """(terms, total degree, max coefficient bit length over numerators and denominators)."""
    if not terms:
        return 0, 0, 0
    bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for c in terms.values())
    return len(terms), max(sum(e) for e in terms), bits


# -- numeric summaries --------------------------------------------------------------------


def summarize(text: str) -> dict:
    """Order-sensitive fingerprint of every number in a text output; short
    outputs, such as duality reports, keep every number."""
    vals = [float(t) for t in _NUMBER.findall(text)]
    finite = [(i, v) for i, v in enumerate(vals) if math.isfinite(v)]
    summary = {"values": vals} if len(vals) <= RECORDED_MAX_VALUES else {}
    return summary | {
        "count": len(vals),
        "nonfinite": len(vals) - len(finite),
        "abs_sum": math.fsum(abs(v) for _, v in finite),
        "sum": math.fsum(v for _, v in finite),
        "weighted": math.fsum(v * ((i % 13) - 6) for i, v in finite),
        "lines": text.count("\n"),
    }


def compare_summary(got: dict, want: dict):
    for key in ("count", "nonfinite", "lines"):
        if got[key] != want[key]:
            raise CheckFailed(f"{key} {got[key]} != recorded {want[key]}")
    for a, b in zip(got.get("values", ()), want.get("values", ())):
        if not (a == b or abs(a - b) <= RECORDED_VALUE_RTOL * max(abs(a), abs(b))
                + RECORDED_VALUE_ATOL):
            raise CheckFailed(f"value {a!r} differs from recorded {b!r}")
    tol = RECORDED_RTOL * max(want["abs_sum"], 1e-300)
    for key in ("abs_sum", "sum", "weighted"):
        if abs(got[key] - want[key]) > tol:
            raise CheckFailed(f"{key} {got[key]!r} differs from recorded {want[key]!r}")


def load_recorded() -> dict:
    return json.loads(RECORDED_FILE.read_text()) if RECORDED_FILE.exists() else {}


# -- checks ------------------------------------------------------------------------------


def _matrix(path) -> np.ndarray:
    """Matrix JSON, entries [re, im] as ints or [num, den] pairs."""
    part = lambda v: float(Fraction(*v)) if isinstance(v, list) else float(v)
    obj = json.loads(Path(path).read_text())
    return np.array([[part(e[0]) + 1j * part(e[1]) for e in row] for row in obj["entries"]])


def _poly_lines(out, goldens):
    lines = out.strip().split("\n")
    if len(lines) != len(goldens):
        raise CheckFailed(f"{len(lines)} output lines, expected {len(goldens)}")
    for line, gpath in zip(lines, goldens):
        if parse_poly(line) != parse_poly(Path(gpath).read_text().strip()):
            raise CheckFailed(f"polynomial differs from {Path(gpath).name}")


def _pencil_numeric(out, path):
    terms = parse_poly(out.strip())
    A1, A2 = hermitian_parts(_matrix(path))
    n = A1.shape[0]
    lead = sum(c for e, c in terms.items() if e[0] == n)
    if lead != 1 or any(sum(e) != n for e in terms):
        raise CheckFailed("p(1,0,0) != 1 or p not homogeneous of degree n")
    rng = random.Random(len(out))
    for _ in range(8):
        y = [rng.uniform(-1, 1) for _ in range(3)]
        det = np.linalg.det(y[0] * np.eye(n) + y[1] * A1 + y[2] * A2).real
        val, scale = poly_value(terms, y)
        if abs(val - det) > P_DET_RTOL * max(scale, abs(det)):
            raise CheckFailed(f"p({y}) = {val!r} but det = {det!r}")


def _dual_numeric(out, path, n):
    q = parse_poly(out.strip())
    _, deg, _ = poly_sizes(q)
    if deg > n * (n - 1) or deg < 2:
        raise CheckFailed(f"deg q = {deg} outside [2, n(n-1) = {n * (n - 1)}]")
    A1, A2 = hermitian_parts(_matrix(path))
    worst = 0.0
    for k in range(16):
        th = 2 * math.pi * (k + 0.37) / 16
        lam, V = np.linalg.eigh(math.cos(th) * A1 + math.sin(th) * A2)
        gaps = np.diff(lam)
        for j in range(n):
            near = min([abs(g) for g in gaps[max(j - 1, 0):j + 1]] or [1.0])
            if abs(lam[j]) < 1e-9 or near < 1e-6:
                continue     # point at infinity or near a singular point
            v = V[:, j]
            # grad p at the ray-shooting point y = (1, -cos/lam, -sin/lam) is
            # proportional to (v*v, v*A1 v, v*A2 v)
            x = (1.0, float((v.conj() @ A1 @ v).real), float((v.conj() @ A2 @ v).real))
            val, scale = poly_value(q, x)
            worst = max(worst, abs(val) / scale)
    if worst > Q_VANISH_RTOL:
        raise CheckFailed(f"q does not vanish on gradient images (residual {worst:.2e})")


def _f_boundary(out, path):
    A1, A2 = hermitian_parts(_matrix(path))
    n = A1.shape[0]
    scale = np.abs(np.linalg.eigvalsh(A1)).max() + np.abs(np.linalg.eigvalsh(A2)).max()
    rows = out.strip().split("\n")
    if rows[0] != "theta,y1,y2,lambda_min":
        raise CheckFailed("bad sample-f header")
    ys = np.array([[float(v) for v in row.split(",")[1:3]] for row in rows[1:]])
    ys = ys[np.isfinite(ys).all(axis=1)]
    lam = np.linalg.eigvalsh(np.eye(n) + ys[:, 0, None, None] * A1 + ys[:, 1, None, None] * A2)[:, 0]
    bad = np.abs(lam) > F_BOUNDARY_RTOL * (1 + scale * np.hypot(ys[:, 0], ys[:, 1]))
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed(f"lambda_min = {lam[i]:.2e} at F sample {tuple(ys[i])}")


def _hulls_nested(out):
    rows = out.strip().split("\n")
    if rows[0] != "kind,vertex_index,x1,x2":
        raise CheckFailed("bad sample-w header")
    pts = {"inner": [], "outer": []}
    for row in rows[1:]:
        kind, _, x1, x2 = row.split(",")
        pts[kind].append((float(x1), float(x2)))
    outer = pts["outer"]
    if len(outer) < 3 or not pts["inner"]:
        raise CheckFailed("empty hull")
    area2 = sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(outer, outer[1:] + outer[:1]))
    orient = 1.0 if area2 > 0 else -1.0
    scale = max(abs(c) for p in outer for c in p)
    for p in pts["inner"]:
        for a, b in zip(outer, outer[1:] + outer[:1]):
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if orient * cross < -HULL_RTOL * scale * scale:
                raise CheckFailed(f"inner vertex {p} outside the outer hull")


def _classify_generic(out, path):
    n = _matrix(path).shape[0]
    fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
    want = {"n": str(n), "hermitian": "false", "normal": "false",
            "pencil_degree": str(n), "hyperbolic": "true"}
    for k, v in want.items():
        if fields.get(k) != v:
            raise CheckFailed(f"classify {k}={fields.get(k)}, expected {v}")


def _classify_polytope(out):
    lines = out.strip().split("\n")
    want = (EXPECTED / "classify_polytope.txt").read_text().strip().split("\n")
    strip = lambda ls: [ln for ln in ls if not ln.startswith("max_eig_residual=")]
    if strip(lines) != strip(want):
        raise CheckFailed("classify polytope output differs from the recorded text")
    resid = [float(ln.split("=")[1]) for ln in lines if ln.startswith("max_eig_residual=")]
    if len(resid) != 1 or resid[0] > 1e-9:
        raise CheckFailed("max_eig_residual missing or above 1e-9")


def _craig(out, holds):
    line = out.strip()
    flag = str(holds).lower()
    if not line.startswith(f"identity={flag} product_zero={flag} rectangle="):
        raise CheckFailed(f"craig verdict {line!r}, expected identity={flag}")
    if (line.endswith("rectangle=none")) == holds:
        raise CheckFailed("rectangle presence does not match the verdict")


def run_check(check: tuple, result: dict, recorded: dict):
    """Raise CheckFailed unless `result` passes `check`.

    `result` has the job's exit `code`, `out` and `curve` texts and `err`.
    """
    kind, args = check[0], check[1:]
    out = result["out"]
    if kind == "poly_lines":
        _poly_lines(out, args[0])
    elif kind == "golden_text":
        if out != Path(args[0]).read_text():
            raise CheckFailed(f"output differs from {Path(args[0]).name}")
    elif kind == "refusal":
        if args[0] not in result["err"]:
            raise CheckFailed(f"refusal message lacks {args[0]!r}")
    elif kind == "pencil_numeric":
        _pencil_numeric(out, args[0])
    elif kind == "dual_numeric":
        _dual_numeric(out, *args)
    elif kind == "f_boundary":
        _f_boundary(out, args[0])
    elif kind == "hulls_nested":
        _hulls_nested(out)
        if not result["curve"].startswith("theta,root_index,x1,x2,singular_flag\n"):
            raise CheckFailed("bad dual-sample header")
    elif kind == "duality_ok":
        if "\nok=true\n" not in "\n" + out:
            raise CheckFailed("duality report is not ok=true")
    elif kind == "svg":
        if not (out.startswith("<?xml") and out.rstrip().endswith("</svg>") and "<polygon" in out):
            raise CheckFailed("not a complete SVG figure")
    elif kind == "classify_generic":
        _classify_generic(out, args[0])
    elif kind == "classify_polytope":
        _classify_polytope(out)
    elif kind == "craig":
        _craig(out, args[0])
    elif kind == "recorded":
        want = recorded.get(args[0])
        if want is None:
            raise CheckFailed(f"no recorded values for {args[0]!r}")
        compare_summary(summarize(out + result["curve"]), want)
    else:
        raise ValueError(f"unknown check {kind!r}")
