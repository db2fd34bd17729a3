"""The dual curve q(x): exact defining polynomial and numeric sampling.

A line x0*y0 + x1*y1 + x2*y2 = 0 is tangent to the curve p = 0 exactly when
the restriction of p to that line has a double root.  Solving the line for y0
(chart x0 != 0), clearing the x0 denominator, and taking the binary
discriminant of the restricted form in (y1, y2) therefore eliminates y and
leaves a polynomial in x that vanishes on the dual curve.  The discriminant
also picks up known spurious components: a power of x0 and the dual lines of
singular points of p = 0; those carry multiplicity >= 2 while q itself comes
out with multiplicity one, which is how they are split off (and kept for
audit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .exactpoly import (
    BinaryForm,
    TriPoly,
    ZeroPolynomialError,
    discriminant_binary,
    gcd_squarefree,
    repeated_part,
    tri_gcd,
)
from .pencil import CurveSample, CurveSampleSet, PencilCurve, SpectralGrid, line_roots_from_eigs

__all__ = [
    "DualCurve",
    "DualPoint",
    "SingularPointError",
    "DegenerateDualError",
    "ReducibleCurveError",
    "ProductMismatchError",
    "dual_point",
    "dual_curve_exact",
    "dual_of_linear",
    "dual_union",
    "dual_sample",
    "dual_sample_csv",
    "restricted_line_form",
    "sample_real_curve_points",
]

XVARS = ("x0", "x1", "x2")

VANISH_RTOL = 1e-6
ON_CURVE_RTOL = 1e-8


class SingularPointError(ValueError):
    """The gradient vanishes: no tangent, the dual map is undefined here."""


class DegenerateDualError(ValueError):
    """p does not depend on both chart variables; exact elimination refuses."""


class ReducibleCurveError(ValueError):
    """Elimination left factors not explained by tangency; supply factors."""


class ProductMismatchError(ValueError):
    """Supplied factors do not multiply to the squarefree part of p."""


@dataclass(frozen=True)
class DualCurve:
    """Primitive defining polynomial of the dual curve plus an audit trail."""

    q: TriPoly
    provenance: str                      # exact-elimination | factor-union | numeric-only
    extraneous: tuple[TriPoly, ...] = ()
    source_degree: int | None = None

    @property
    def degree(self) -> int:
        return self.q.total_degree()


@dataclass(frozen=True)
class DualPoint:
    raw: tuple          # gradient, un-normalized (Fractions when exact)
    chart: tuple[float, float] | None   # (x1/x0, x2/x0) when |x0| is usable
    exact: bool


def restricted_line_form(p: TriPoly, out_vars=XVARS) -> BinaryForm:
    """Binary form g(z,w) = x0^n * p(-(x1 z + x2 w)/x0, z, w).

    Coefficients are polynomials in the dual variables; g has a double root
    exactly where the line cut out by x is tangent to p = 0 (or runs through
    a singular point).
    """
    n = p.total_degree()
    coeffs: list[dict] = [dict() for _ in range(n + 1)]
    for (ea, eb, ec), coef in p.terms.items():
        for j in range(ea + 1):
            wpow = j + ec
            key = (n - ea, ea - j, j)
            cc = coef * comb(ea, j) * (-1) ** ea
            d = coeffs[wpow]
            d[key] = d.get(key, Fraction(0)) + cc
    return BinaryForm(n, tuple(TriPoly(out_vars, t) for t in coeffs))


def _strip_var0_power(f: TriPoly) -> tuple[TriPoly, int]:
    a = min(e[0] for e in f.terms)
    if a == 0:
        return f, 0
    return TriPoly(f.vars, {(e[0] - a, e[1], e[2]): c for e, c in f.terms.items()}), a


def sample_real_curve_points(p: TriPoly, count: int, max_angles: int = 256):
    """Real affine points of p(1,y1,y2) = 0 collected along rays from the origin.

    Roots come from the companion matrix and are polished by a few Newton
    steps; near-singular points are dropped.
    """
    pts = []
    fl_p = [(e, float(c)) for e, c in p.terms.items()]
    grads = [p.partial(i) for i in range(3)]
    angles = 0
    k = 0
    while len(pts) < count and angles < max_angles:
        theta = math.pi * (k + 0.5) / 64 + 0.013 * (k // 64)  # shifted sweeps
        k += 1
        angles += 1
        d1, d2 = math.cos(theta), math.sin(theta)
        coeffs: dict[int, float] = {}
        for (a, b, c), _ in fl_p:
            coeffs[b + c] = 0.0
        for (a, b, c), cf in fl_p:
            coeffs[b + c] += cf * d1**b * d2**c
        deg = max(coeffs)
        poly = [coeffs.get(i, 0.0) for i in range(deg, -1, -1)]
        while poly and abs(poly[0]) < 1e-300:
            poly = poly[1:]
        if len(poly) < 2:
            continue
        roots = np.roots(poly)
        for t in roots:
            if abs(t.imag) > 1e-9 * (1 + abs(t)):
                continue
            t = float(t.real)
            # Newton polish on r(t)
            for _ in range(4):
                val = dval = 0.0
                for i, c in enumerate(reversed(poly)):
                    val += c * t**i
                    if i >= 1:
                        dval += i * c * t ** (i - 1)
                if dval == 0.0:
                    break
                t -= val / dval
            y = (1.0, t * d1, t * d2)
            value, scale = p.eval_with_scale(y)
            if scale == 0.0 or abs(value) > 1e-9 * scale:
                continue
            g = [gi.eval_with_scale(y) for gi in grads]
            gnorm = max(abs(v) for v, _ in g)
            gscale = max(s for _, s in g)
            if gscale == 0.0 or gnorm <= 1e-8 * gscale:
                continue
            pts.append(y)
            if len(pts) >= count:
                break
    return pts


def dual_point(p: TriPoly, y, rtol: float = ON_CURVE_RTOL) -> DualPoint:
    """Gradient image x = grad p(y) of a smooth point y on p = 0."""
    exact = all(isinstance(v, (int, Fraction)) for v in y)
    if exact:
        y = tuple(Fraction(v) for v in y)
        val = p.eval(y)
        if val != 0:
            fval, scale = p.eval_with_scale(tuple(float(v) for v in y))
            if scale == 0.0 or abs(fval) > rtol * scale:
                raise ValueError(f"point is not on the curve: p(y) = {val}")
        grad = tuple(p.partial(i).eval(y) for i in range(3))
        if not any(grad):
            raise SingularPointError(f"zero gradient at {y}; singular point of the curve")
        fx = tuple(float(g) for g in grad)
    else:
        yf = tuple(float(v) for v in y)
        val, scale = p.eval_with_scale(yf)
        if scale == 0.0 or abs(val) > rtol * scale:
            raise ValueError(f"point is not on the curve (relative residual {abs(val)/max(scale,1e-300):.2e})")
        pairs = [p.partial(i).eval_with_scale(yf) for i in range(3)]
        grad = tuple(v for v, _ in pairs)
        gscale = max(s for _, s in pairs)
        if gscale == 0.0 or max(abs(v) for v in grad) <= 1e-10 * gscale:
            raise SingularPointError(f"zero gradient at {y}; singular point of the curve")
        fx = grad
    mag = max(abs(v) for v in fx)
    chart = None
    if abs(fx[0]) > 1e-12 * mag:
        chart = (fx[1] / fx[0], fx[2] / fx[0])
    return DualPoint(raw=grad, chart=chart, exact=exact)


def dual_curve_exact(p: TriPoly, out_vars=XVARS) -> DualCurve:
    """Exact dual curve of p = 0 by discriminant elimination.

    p should be squarefree (repeated factors are stripped and audited); the
    result is validated against gradient-image samples and the degree bound
    deg q <= n(n-1).
    """
    if p.is_zero():
        raise ZeroPolynomialError("dual of the zero polynomial")
    if p.degree_in(1) < 1 or p.degree_in(2) < 1:
        raise DegenerateDualError(
            "p does not depend on both chart variables; dualize factors directly "
            "(dual_of_linear / dual_union) or sample numerically")
    audit: list[TriPoly] = []
    sf = gcd_squarefree(p)
    if sf != p.primitive():
        audit.append(p.primitive().divexact(sf).primitive())
    n = sf.total_degree()
    g = restricted_line_form(sf, out_vars)
    if g.coeffs[0].is_zero():
        raise DegenerateDualError(
            "restricted form loses its leading coefficient (a chart variable divides p); "
            "supply factors")
    D = discriminant_binary(g)
    if D.is_zero():
        raise ReducibleCurveError("discriminant vanished identically on squarefree input")
    D1, x0_power = _strip_var0_power(D)
    D1 = D1.primitive()
    if x0_power:
        audit.append(TriPoly(out_vars, {(x0_power, 0, 0): Fraction(1)}))
    rep = repeated_part(D1)
    if rep.is_constant():
        q_cand = D1
    else:
        S = D1.divexact(rep).primitive()
        mult2 = tri_gcd(S, rep)
        q_cand = S.divexact(mult2).primitive()
        if not mult2.is_constant():
            audit.append(mult2)
    if q_cand.is_constant():
        raise ReducibleCurveError(
            "every discriminant factor is repeated; cannot isolate the dual curve "
            "(supply factors for reducible p)")
    if q_cand.total_degree() > n * (n - 1):
        raise ReducibleCurveError("candidate dual exceeds the degree bound n(n-1)")
    # vanishing validation on gradient images of sampled smooth points
    samples = sample_real_curve_points(sf, 200)
    if len(samples) >= 8:
        worst = 0.0
        for y in samples:
            pairs = [sf.partial(i).eval_with_scale(y) for i in range(3)]
            x = tuple(v for v, _ in pairs)
            val, scale = q_cand.eval_with_scale(x)
            if scale == 0.0:
                continue
            worst = max(worst, abs(val) / scale)
        if worst > VANISH_RTOL:
            raise ReducibleCurveError(
                f"dual candidate fails to vanish on gradient images "
                f"(residual {worst:.2e}); if p is reducible, supply its factors")
    return DualCurve(q=q_cand, provenance="exact-elimination",
                     extraneous=tuple(audit), source_degree=n)


def dual_of_linear(l: TriPoly) -> tuple[Fraction, Fraction, Fraction]:
    """Dual point (c0, c1, c2) of the line c0 y0 + c1 y1 + c2 y2 = 0."""
    if l.is_zero():
        raise ZeroPolynomialError("dual of the zero form")
    if l.total_degree() != 1:
        raise ValueError("dual_of_linear expects a homogeneous linear form")
    return (l.terms.get((1, 0, 0), Fraction(0)),
            l.terms.get((0, 1, 0), Fraction(0)),
            l.terms.get((0, 0, 1), Fraction(0)))


def dual_union(p: TriPoly, factors: list[TriPoly], out_vars=XVARS):
    """Duals of the components of a reducible curve, one per supplied factor.

    The factors must be squarefree, pairwise coprime, and multiply to the
    squarefree part of p (checked by exact division).  Degree-1 factors
    dualize to points, higher degrees to curves.
    """
    if not factors:
        raise ValueError("no factors supplied")
    sf = gcd_squarefree(p)
    prod = TriPoly.constant(1, p.vars)
    for f in factors:
        if f.is_zero():
            raise ZeroPolynomialError("zero factor")
        if f.vars != p.vars:
            raise ValueError("factors must use the variable triple of p")
        if not repeated_part(f).is_constant():
            raise ValueError(f"factor {f.to_text()} is not squarefree")
        prod = prod * f
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if not tri_gcd(factors[i], factors[j]).is_constant():
                raise ValueError("factors are not pairwise coprime")
    if prod.primitive() != sf:
        raise ProductMismatchError(
            "product of factors does not match the squarefree part of p")
    out = []
    for f in factors:
        if f.total_degree() == 1:
            out.append(dual_of_linear(f))
        else:
            comp = dual_curve_exact(f, out_vars)
            out.append(DualCurve(q=comp.q, provenance="factor-union",
                                 extraneous=comp.extraneous,
                                 source_degree=comp.source_degree))
    return out


def dual_sample(curve: PencilCurve, N: int) -> CurveSampleSet:
    """Numeric samples of the dual curve: gradient images of ray/curve intersections.

    Each of N rays is intersected with p = 0 at every real root (the
    eigenvalues of the pencil restriction supply them all), and each smooth
    intersection maps to its tangent-line coordinates.  Ordering is by
    (angle index, root index); singular points are flagged, not dropped.
    """
    if N < 8:
        raise ValueError("need at least 8 rays")
    return _grid_dual_sample(curve, SpectralGrid(curve.pencil, N))


def _grid_dual_sample(curve: PencilCurve, grid: SpectralGrid) -> CurveSampleSet:
    grads = [curve.p.partial(i) for i in range(3)]
    samples = []
    for th, d1, d2, eigs in zip(grid.thetas.tolist(), grid.cos.tolist(), grid.sin.tolist(),
                                grid.eigvals):
        for idx, t in line_roots_from_eigs(eigs):
            y = (1.0, t * d1, t * d2)
            pairs = [g.eval_with_scale(y) for g in grads]
            x = tuple(v for v, _ in pairs)
            gscale = max(s for _, s in pairs)
            gnorm = max(abs(v) for v in x)
            singular = gscale == 0.0 or gnorm <= 1e-10 * gscale
            pt = None
            if not singular and abs(x[0]) > 1e-12 * gnorm:
                pt = (x[1] / x[0], x[2] / x[0])
            samples.append(CurveSample(theta=th, point=pt, root_index=idx,
                                       singular=singular))
    return CurveSampleSet(chart="x0=1", samples=samples)


def dual_sample_csv(samples: CurveSampleSet) -> str:
    """CSV per the dual-sample interface: theta,root_index,x1,x2,singular_flag."""
    lines = ["theta,root_index,x1,x2,singular_flag"]
    for s in samples.samples:
        x1 = f"{s.point[0]:.12g}" if s.point is not None else "nan"
        x2 = f"{s.point[1]:.12g}" if s.point is not None else "nan"
        lines.append(f"{s.theta:.12g},{s.root_index},{x1},{x2},{int(s.singular)}")
    return "\n".join(lines) + "\n"
