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

The candidate q is certified exactly, with no float: for the squarefree part
sf of p, q(grad sf) must vanish modulo sf restricted to a seeded line, in
F_P[t] for two primes P (`exactpoly._gradient_certificate`), so the check
holds at any size of the entries.
The dual samples are the Rayleigh pairs (v*A1v, v*A2v) of the spectral grid's
ray-root eigenvectors (Kippenhahn 1951) and read no p.  `dual_point` and
`sample_real_curve_points` evaluate gradients of p on float arrays through
one chart evaluator.
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
    _gradient_certificate,
    discriminant_binary,
    gcd_squarefree,
    repeated_part,
    tri_gcd,
)
from .pencil import CurveSampleSet, PencilCurve, SpectralGrid

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

EIG_GAP_RTOL = 1e-8
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

    `validation_primes` are the moduli of the two draws on which q was
    certified to vanish on the gradient images of the curve
    (`dual_curve_exact`), and () for a q that was not certified.
    """

    q: TriPoly
    provenance: str                      # exact-elimination | factor-union
    extraneous: tuple[TriPoly, ...] = ()
    source_degree: int | None = None
    validation_primes: tuple[int, ...] = ()

    @property
    def degree(self) -> int:
        return self.q.total_degree()


@dataclass(frozen=True)
class DualPoint:
    raw: tuple          # gradient, un-normalized (Fractions when exact)
    chart: tuple[float, float] | None   # (x1/x0, x2/x0) when |x0| is usable
    exact: bool


def restricted_line_form(p: TriPoly) -> BinaryForm:
    """Binary form g(z,w) = x0^n * p(-(x1 z + x2 w)/x0, z, w).

    Coefficients are polynomials in the dual variables; g has a double root
    exactly where the line cut out by x is tangent to p = 0 (or runs through
    a singular point).
    """
    n = p.total_degree()
    coeffs: list[dict] = [dict() for _ in range(n + 1)]
    for (ea, eb, ec), v in p.ints.items():
        if ea % 2:
            v = -v
        for j in range(ea + 1):
            key = (n - ea, ea - j, j)
            d = coeffs[j + ec]
            d[key] = d.get(key, 0) + v * comb(ea, j)
    return BinaryForm(n, tuple(TriPoly._from_ints(XVARS, t, p.content) for t in coeffs))


def _strip_var0_power(f: TriPoly) -> tuple[TriPoly, int]:
    a = min(e[0] for e in f.ints)
    if a == 0:
        return f, 0
    return TriPoly._of(f.vars, f.content, {(e[0] - a, e[1], e[2]): v for e, v in f.ints.items()}), a


def sample_real_curve_points(p: TriPoly, count: int):
    """Up to `count` real points (1.0, y1, y2) of p = 0, found on rays from the origin.

    Each sweep of R = max(64, ceil(count/n)) rays, n the chart degree of p (so
    that one sweep can give count points), theta = pi*(k + 1/2)/R + 0.013*sweep
    (at most four sweeps), restricts p to all its rays as one array summed in
    `sorted_terms` order, takes the roots from one stacked companion
    eigensolve and polishes them by four array Newton steps.  Real roots (|Im t| <= 1e-9*(1+|t|)) on the curve
    (|p| <= 1e-9*scale) and not near-singular (max|grad p| > 1e-8*scale) are
    kept in (angle, root) order.  For huge or tiny entries, sample p as
    normalized by `pencil._chart_normal`, whose roots stay near 1.
    """
    terms = p.sorted_terms()
    degrees = [b + c for (_, b, c), _ in terms]
    lo, hi, pts = min(degrees), max(degrees), []
    n = hi - lo
    R = max(64, -(-count // n)) if n else 0
    for sweep in range(4 if n else 0):
        theta = np.pi * (np.arange(R) + 0.5) / R + 0.013 * sweep
        d1, d2 = np.cos(theta), np.sin(theta)
        r = np.zeros((R, hi + 1))
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
        _, gnorm, gscale, _ = _gradient_images(p, y1[on], y2[on])
        keep = on[gnorm > 1e-8 * gscale]
        pts += zip([1.0] * len(keep), y1[keep].tolist(), y2[keep].tolist())
        if len(pts) >= count:
            break
    return pts[:count]


def dual_point(p: TriPoly, y) -> DualPoint:
    """Gradient image x = grad p(y) of a smooth point y on p = 0."""
    exact = all(isinstance(v, (int, Fraction)) for v in y)
    if exact:
        y = tuple(Fraction(v) for v in y)
        val = p.eval(y)
        if val != 0:
            fval, scale = p.eval_with_scale(tuple(float(v) for v in y))
            if scale == 0.0 or abs(fval) > ON_CURVE_RTOL * scale:
                raise ValueError(f"point is not on the curve: p(y) = {val}")
        grad = tuple(p.partial(i).eval(y) for i in range(3))
        if not any(grad):
            raise SingularPointError(f"zero gradient at {y}; singular point of the curve")
        x = np.array([float(g) for g in grad])
    else:
        yf = tuple(float(v) for v in y)
        val, scale = p.eval_with_scale(yf)
        if scale == 0.0 or abs(val) > ON_CURVE_RTOL * scale:
            raise ValueError(f"point is not on the curve (relative residual {abs(val)/max(scale,1e-300):.2e})")
        x, _, _, singular = _gradient_images(p, yf[1], yf[2], yf[0])
        if singular:
            raise SingularPointError(f"zero gradient at {y}; singular point of the curve")
        grad = tuple(x.tolist())
    chart = abs(x[0]) > 1e-12 * np.abs(x).max()
    return DualPoint(raw=grad, chart=tuple((x[1:] / x[0]).tolist()) if chart else None,
                     exact=exact)


def dual_curve_exact(p: TriPoly) -> DualCurve:
    """Exact dual curve of p = 0 by discriminant elimination.

    p should be squarefree (repeated factors are stripped and audited).  The
    candidate must meet the degree bound deg q <= n(n-1) and vanish on the
    gradient images of the squarefree part sf, which is certified exactly
    modulo two primes (`exactpoly._gradient_certificate`): q(grad sf) reduced
    modulo sf restricted to a seeded line must be 0 on both draws.  A true q
    always passes; a false one fails with probability at least 1 - 2^-40 for
    n <= 7, and a failure is a proof that the candidate is not the dual.
    """
    if p.is_zero():
        raise ZeroPolynomialError("dual of the zero polynomial")
    if p.degree_in(1) < 1 or p.degree_in(2) < 1:
        raise DegenerateDualError(
            "p does not depend on both chart variables; dualize factors directly "
            "(dual_of_linear / dual_union) or sample numerically")
    sf = gcd_squarefree(p)
    if sf.total_degree() == 1:
        raise DegenerateDualError(
            f"squarefree part {sf.to_text()} is linear; its dual is one point "
            "(dual_of_linear)")
    audit = [] if sf == p.primitive() else [p.primitive().divexact(sf).primitive()]
    n = sf.total_degree()
    q_cand, extraneous = _eliminate(sf)
    if q_cand.total_degree() > n * (n - 1):
        raise ReducibleCurveError("candidate dual exceeds the degree bound n(n-1)")
    primes = _gradient_certificate(sf.ints, q_cand.ints)
    if not primes:
        raise ReducibleCurveError(
            "dual candidate fails to vanish on the gradient images of the curve "
            "(modulo a prime); if p is reducible, supply its factors")
    return DualCurve(q=q_cand, provenance="exact-elimination",
                     extraneous=tuple(audit + extraneous), source_degree=n,
                     validation_primes=primes)


def _eliminate(sf: TriPoly) -> tuple[TriPoly, list[TriPoly]]:
    """(q, extraneous): the multiplicity-one part of the discriminant of the
    squarefree sf's restricted line form, and the factors split off it."""
    g = restricted_line_form(sf)
    if g.coeffs[0].is_zero():
        raise DegenerateDualError(
            "restricted form loses its leading coefficient (a chart variable divides p); "
            "supply factors")
    D = discriminant_binary(g)
    if D.is_zero():
        raise ReducibleCurveError("discriminant vanished identically on squarefree input")
    D1, x0_power = _strip_var0_power(D)
    D1 = D1.primitive()
    audit = [TriPoly(XVARS, {(x0_power, 0, 0): Fraction(1)})] if x0_power else []
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
    return q_cand, audit


def dual_of_linear(l: TriPoly) -> tuple[Fraction, Fraction, Fraction]:
    """Dual point (c0, c1, c2) of the line c0 y0 + c1 y1 + c2 y2 = 0."""
    if l.is_zero():
        raise ZeroPolynomialError("dual of the zero form")
    if l.total_degree() != 1 or not l.is_homogeneous():
        raise ValueError("dual_of_linear expects a homogeneous linear form")
    return (l.terms.get((1, 0, 0), Fraction(0)),
            l.terms.get((0, 1, 0), Fraction(0)),
            l.terms.get((0, 0, 1), Fraction(0)))


def dual_union(p: TriPoly, factors: list[TriPoly]):
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
            out.append(replace(dual_curve_exact(f), provenance="factor-union"))
    return out


def dual_sample(curve: PencilCurve, N: int) -> CurveSampleSet:
    """Numeric samples of the dual curve on an N-angle `SpectralGrid`: each real
    ray root with unit eigenvector v maps to the Rayleigh pair (v*A1v, v*A2v),
    since grad p is proportional to (v*v, v*A1v, v*A2v) there (Jacobi).  A root
    whose eigenvalue is within EIG_GAP_RTOL*max|lambda| of a row neighbour is
    flagged singular, without a point.  Order: (angle index, root index)."""
    return _grid_dual_sample(SpectralGrid(curve.pencil, N))


def _grid_dual_sample(grid: SpectralGrid) -> CurveSampleSet:
    if len(grid.thetas) < 8:
        raise ValueError("need at least 8 rays")
    k, idx, _ = grid.line_roots()
    w = grid.eigvals
    # close[:, i]: eigenvalues i and i + 1 of a row are within the gap tolerance
    close = np.diff(w, axis=1) <= EIG_GAP_RTOL * np.abs(w).max(axis=1, keepdims=True)
    edge = np.zeros((len(w), 1), dtype=bool)
    singular = (np.hstack((edge, close)) | np.hstack((close, edge)))[k, idx]
    v = grid.eigvecs[k, :, idx]
    x1, x2 = (np.where(singular, np.nan, np.einsum("bi,ij,bj->b", v.conj(), f, v).real)
              for f in grid.pencil.float_parts())
    return CurveSampleSet.of_columns("x0=1", grid.thetas[k], x1, x2, ~singular,
                                     root_index=idx, singular=singular)


def _gradient_images(f: TriPoly, y1, y2, y0=1.0):
    """(x, gnorm, gscale, singular): gradient images x = grad f(y0, y1, y2) over
    float arrays, max |x_i|, the largest monomial magnitude of the partials,
    and where gnorm <= 1e-10*gscale."""
    powers = _powers((y0, y1, y2), f)
    x, scales = zip(*(_eval_chart(f.partial(i), y1, y2, y0, powers) for i in range(3)))
    x = np.array(x)
    gnorm, gscale = np.abs(x).max(axis=0), np.maximum.reduce(scales)
    return x, gnorm, gscale, (gscale == 0.0) | (gnorm <= 1e-10 * gscale)


def _powers(y, f: TriPoly) -> list[list]:
    """Power tables: powers[i][e] = np.float_power(y[i], e) for every exponent
    e of variable i in f; its partials need no higher power."""
    return [[np.float_power(v, e) for e in range(f.degree_in(i) + 1)]
            for i, v in enumerate(y)]


def _eval_chart(f: TriPoly, y1, y2, y0=1.0, powers=None):
    """`f.eval_with_scale((y0, y1, y2))` over float arrays, bitwise: the terms are
    multiplied and added in its order, `sorted_terms`, and `np.float_power`,
    unlike `np.power`, rounds as the scalar `**` does.  `powers` are the
    `_powers` tables of the point, shared by the polynomials evaluated there."""
    p0, p1, p2 = _powers((y0, y1, y2), f) if powers is None else powers
    total = np.zeros_like(y1)
    scale = np.zeros_like(y1)
    for (a, b, c), coef in f.sorted_terms():
        v = float(coef) * p0[a] * p1[b] * p2[c]
        total = total + v
        scale = np.maximum(scale, np.abs(v))
    return total, scale


def dual_sample_csv(samples: CurveSampleSet) -> str:
    """CSV per the dual-sample interface: theta,root_index,x1,x2,singular_flag
    ('nan' for a sample without a chart point)."""
    f, m = samples.finite, len(samples)
    values = [None] * (5 * m)
    values[0::5] = samples.theta.tolist()
    if samples.root_index is not None:
        values[1::5] = samples.root_index.tolist()
    values[2::5] = np.where(f, samples.x, np.nan).tolist()
    values[3::5] = np.where(f, samples.y, np.nan).tolist()
    values[4::5] = samples.singular.tolist()
    return ("theta,root_index,x1,x2,singular_flag\n" + "%.12g,%s,%.12g,%.12g,%d\n" * m) % tuple(
        values)
