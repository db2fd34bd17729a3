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

The validation of q and the dual samples run on arrays through one chart
evaluator, after an exact power-of-two rescaling of the chart variables
(`_chart_normal`) that keeps the roots of huge or tiny entries near 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from .pencil import CurveSample, CurveSampleSet, PencilCurve, SpectralGrid, _chart_normal

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
    """Primitive defining polynomial of the dual curve plus an audit trail.

    `validation_points` counts the gradient images q was checked on, and
    `worst_residual` is the largest relative residual |q(x)| / scale among
    them; it is None when validation was skipped because fewer than 8 real
    curve points were found.
    """

    q: TriPoly
    provenance: str                      # exact-elimination | factor-union | numeric-only
    extraneous: tuple[TriPoly, ...] = ()
    source_degree: int | None = None
    validation_points: int = 0
    worst_residual: float | None = None

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


def sample_real_curve_points(p: TriPoly, count: int):
    """Up to `count` real points (1.0, y1, y2) of p = 0, found on rays from the origin.

    Each sweep of 64 rays, theta = pi*(k + 1/2)/64 + 0.013*sweep (at most four),
    restricts p to all its rays as one array summed in `sorted_terms` order,
    takes the roots from one stacked companion eigensolve and polishes them by
    four array Newton steps.  Real roots (|Im t| <= 1e-9*(1+|t|)) on the curve
    (|p| <= 1e-9*scale) and not near-singular (max|grad p| > 1e-8*scale) are
    kept in (angle, root) order.  `dual_curve_exact` samples p as normalized by
    `_chart_normal`, whose roots stay near 1 whatever the size of the entries.
    """
    terms = p.sorted_terms()
    degrees = [b + c for (_, b, c), _ in terms]
    lo, hi, pts = min(degrees), max(degrees), []
    n = hi - lo
    for sweep in range(4 if n else 0):
        theta = np.pi * (np.arange(64) + 0.5) / 64 + 0.013 * sweep
        d1, d2 = np.cos(theta), np.sin(theta)
        r = np.zeros((64, hi + 1))
        for (_, b, c), coef in terms:
            r[:, b + c] += float(coef) * np.float_power(d1, b) * np.float_power(d2, c)
        # rays on which p keeps its degree, coefficients highest first and
        # without the roots t = 0 (p's scale is 0 there)
        rays = np.flatnonzero(np.abs(r[:, hi]) >= 1e-300)
        c = r[rays, lo:][:, ::-1]
        comp = np.zeros((len(rays), n, n))
        comp[:, 0] = -c[:, 1:] / c[:, :1]
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        roots = np.linalg.eigvals(comp)
        row, col = np.nonzero(np.abs(roots.imag) <= 1e-9 * (1 + np.abs(roots)))
        t, c, rays = roots.real[row, col], c[row], rays[row]
        for _ in range(4):
            val, dval = c[:, 0], 0.0
            for j in range(1, n + 1):
                val, dval = val * t + c[:, j], dval * t + val
            t = t - np.divide(val, dval, out=np.zeros_like(t), where=dval != 0.0)
        y1, y2 = t * d1[rays], t * d2[rays]
        val, scale = _eval_chart(p, y1, y2)
        on = np.flatnonzero((scale != 0.0) & (np.abs(val) <= 1e-9 * scale))
        _, gnorm, gscale, _, _ = _gradient_images(p, y1[on], y2[on])
        keep = on[gnorm > 1e-8 * gscale]
        pts += zip([1.0] * len(keep), y1[keep].tolist(), y2[keep].tolist())
        if len(pts) >= count:
            break
    return pts[:count]


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
        x = np.array([float(g) for g in grad])
        chart = abs(x[0]) > 1e-12 * np.abs(x).max()
    else:
        yf = tuple(float(v) for v in y)
        val, scale = p.eval_with_scale(yf)
        if scale == 0.0 or abs(val) > rtol * scale:
            raise ValueError(f"point is not on the curve (relative residual {abs(val)/max(scale,1e-300):.2e})")
        x, _, _, singular, chart = _gradient_images(p, yf[1], yf[2], yf[0])
        if singular:
            raise SingularPointError(f"zero gradient at {y}; singular point of the curve")
        grad = tuple(x.tolist())
    return DualPoint(raw=grad, chart=tuple((x[1:] / x[0]).tolist()) if chart else None,
                     exact=exact)


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
    if sf.total_degree() == 1:
        raise DegenerateDualError(
            f"squarefree part {sf.to_text()} is linear; its dual is one point "
            "(dual_of_linear)")
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
    # q of the normalized curve vanishes on its gradient images; q is homogeneous,
    # so each image is scaled to max |x_i| = 1 before evaluating
    sf_f, k = _chart_normal(sf)
    samples = sample_real_curve_points(sf_f, 200)
    checked, worst = 0, None
    if len(samples) >= 8:
        _, y1, y2 = np.array(samples).T
        x, gnorm, _, _, _ = _gradient_images(sf_f, y1, y2)
        x = x / gnorm
        val, scale = _eval_chart(_chart_normal(q_cand, -k)[0], x[1], x[2], x[0])
        ok = scale != 0.0
        checked, worst = int(ok.sum()), float(np.max(np.abs(val[ok] / scale[ok]), initial=0.0))
        if worst > VANISH_RTOL:
            raise ReducibleCurveError(
                f"dual candidate fails to vanish on gradient images "
                f"(residual {worst:.2e}); if p is reducible, supply its factors")
    return DualCurve(q=q_cand, provenance="exact-elimination",
                     extraneous=tuple(audit), source_degree=n,
                     validation_points=checked, worst_residual=worst)


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
            out.append(replace(dual_curve_exact(f, out_vars), provenance="factor-union"))
    return out


def dual_sample(curve: PencilCurve, N: int) -> CurveSampleSet:
    """Numeric samples of the dual curve: gradient images of ray/curve intersections.

    Each of N rays is intersected with p = 0 at every real root (the
    eigenvalues of the pencil restriction supply them all), and each smooth
    intersection maps to its tangent-line coordinates.  Ordering is by
    (angle index, root index); singular points are flagged, not dropped.
    """
    return _grid_dual_sample(curve, SpectralGrid(curve.pencil, N))


def _grid_dual_sample(curve: PencilCurve, grid: SpectralGrid) -> CurveSampleSet:
    if len(grid.thetas) < 8:
        raise ValueError("need at least 8 rays")
    k, idx, t = grid.line_roots()
    # gradient images of p(y0, s*y1, s*y2) are (x0, s*x1, s*x2): charts map back by 1/s
    f, e = _chart_normal(curve.p)
    s = 2.0 ** e
    x, _, _, singular, finite = _gradient_images(f, t * grid.cos[k] / s, t * grid.sin[k] / s)
    x0 = np.where(finite, s * x[0], 1.0)
    pts = [(a, b) if ok else None for a, b, ok in
           zip((x[1] / x0).tolist(), (x[2] / x0).tolist(), finite.tolist())]
    samples = [CurveSample(theta=th, point=pt, root_index=i, singular=sg)
               for th, pt, i, sg in zip(grid.thetas[k].tolist(), pts, idx.tolist(),
                                        singular.tolist())]
    return CurveSampleSet(chart="x0=1", samples=samples)


def _gradient_images(f: TriPoly, y1, y2, y0=1.0):
    """(x, gnorm, gscale, singular, chart): gradient images x = grad f(y0, y1, y2)
    over float arrays, max |x_i|, the largest monomial magnitude of the partials,
    where gnorm <= 1e-10*gscale, and where the chart point (x1/x0, x2/x0) is
    usable: the image is not singular and |x0| > 1e-12*gnorm."""
    x, scales = zip(*(_eval_chart(f.partial(i), y1, y2, y0) for i in range(3)))
    x = np.array(x)
    gnorm, gscale = np.abs(x).max(axis=0), np.maximum.reduce(scales)
    singular = (gscale == 0.0) | (gnorm <= 1e-10 * gscale)
    return x, gnorm, gscale, singular, ~singular & (np.abs(x[0]) > 1e-12 * gnorm)


def _eval_chart(f: TriPoly, y1, y2, y0=1.0):
    """`f.eval_with_scale((y0, y1, y2))` over float arrays, bitwise: the terms are
    multiplied and added in its order, `sorted_terms`, and `np.float_power`,
    unlike `np.power`, rounds as the scalar `**` does."""
    total = np.zeros_like(y1)
    scale = np.zeros_like(y1)
    for (a, b, c), coef in f.sorted_terms():
        v = float(coef) * np.float_power(y0, a) * np.float_power(y1, b) * np.float_power(y2, c)
        total = total + v
        scale = np.maximum(scale, np.abs(v))
    return total, scale


def dual_sample_csv(samples: CurveSampleSet) -> str:
    """CSV per the dual-sample interface: theta,root_index,x1,x2,singular_flag."""
    lines = ["theta,root_index,x1,x2,singular_flag"]
    for s in samples.samples:
        x1 = f"{s.point[0]:.12g}" if s.point is not None else "nan"
        x2 = f"{s.point[1]:.12g}" if s.point is not None else "nan"
        lines.append(f"{s.theta:.12g},{s.root_index},{x1},{x2},{int(s.singular)}")
    return "\n".join(lines) + "\n"
