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
ray-root eigenvectors (Kippenhahn 1951) and read no p.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import NoReturn

import numpy as np

from .exactpoly import (
    BinaryForm,
    TriPoly,
    ZeroPolynomialError,
    _cofactors,
    _gradient_certificate,
    _squarefree_split,
    discriminant_binary,
    gcd_squarefree,
    repeated_part,
    tri_gcd,
)
from .pencil import CurveSampleSet, SpectralGrid, _rayleigh

__all__ = [
    "DualCurve",
    "DegenerateDualError",
    "ReducibleCurveError",
    "ProductMismatchError",
    "dual_curve_exact",
    "dual_of_linear",
    "dual_union",
    "dual_sample",
    "dual_sample_csv",
    "restricted_line_form",
]

XVARS = ("x0", "x1", "x2")

EIG_GAP_RTOL = 1e-8


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


def dual_curve_exact(p: TriPoly) -> DualCurve:
    """Exact dual curve of p = 0 by discriminant elimination.

    p should be squarefree (repeated factors are stripped and audited).  The
    candidate must meet the degree bound deg q <= n(n-1) and vanish on the
    gradient images of the squarefree part sf, which is certified exactly
    modulo two primes (`exactpoly._gradient_certificate`): q(grad sf) reduced
    modulo sf restricted to a seeded line must be 0 on both draws.  A true q
    always passes; a false one fails with probability at least 1 - 2^-40 for
    n <= 7, and a failure is a proof that the candidate is not the dual.
    A product of linear forms takes this full path too, as p alone carries no
    cheap proof that it is one; `numrange dual` refuses the pencil
    determinant of a normal A with a certified spectrum before it
    (`_refuse_product_of_forms`).
    """
    if p.is_zero():
        raise ZeroPolynomialError("dual of the zero polynomial")
    _require_chart_variables(p)
    rep, sf = _squarefree_split(p)   # p.primitive() = rep * sf
    return _dual_of_squarefree(sf, [] if rep.is_constant() else [rep])


def _require_chart_variables(p: TriPoly) -> None:
    if p.degree_in(1) < 1 or p.degree_in(2) < 1:
        raise DegenerateDualError(
            "p does not depend on both chart variables; dualize factors directly "
            "(dual_of_linear / dual_union) or sample numerically")


def _dual_of_squarefree(sf: TriPoly, audit: list[TriPoly]) -> DualCurve:
    """`dual_curve_exact` of a primitive squarefree sf that depends on both
    chart variables, with `audit` the factors already split off p."""
    if sf.total_degree() == 1:
        raise _linear_part_error(sf)
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
    rep, q_cand = _squarefree_split(D1)   # D1 = rep * q_cand
    if not rep.is_constant() and not q_cand.is_constant():
        mult2, q_cand, _ = _cofactors(q_cand, rep)
        if not mult2.is_constant():
            audit.append(mult2)
    if q_cand.is_constant():
        raise _repeated_discriminant_error()
    return q_cand, audit


def _linear_part_error(sf: TriPoly) -> DegenerateDualError:
    return DegenerateDualError(
        f"squarefree part {sf.to_text()} is linear; its dual is one point "
        "(dual_of_linear)")


def _repeated_discriminant_error() -> ReducibleCurveError:
    return ReducibleCurveError(
        "every discriminant factor is repeated; cannot isolate the dual curve "
        "(supply factors for reducible p)")


def _refuse_product_of_forms(p: TriPoly, points) -> NoReturn:
    """Raise what `dual_curve_exact(p)` raises for a p proven equal to the
    product of the forms y0 + a*y1 + b*y2 over the Gaussian rationals a + i*b
    in `points` (the pencil determinant of a normal A, over its spectrum,
    certified by `rangegeom._certified_spectrum`), with no elimination.

    After `_require_chart_variables`, one distinct form is the squarefree part,
    which is linear.  Two or more distinct forms l_j restrict, with
    x0*y0 = -(x1*z + x2*w), to x0*l_j = (a_j*x0 - x1)*z + (b_j*x0 - x2)*w, whose
    pairwise determinants are x0*R_ij with R_ij = (a_i*b_j - a_j*b_i)*x0 +
    (b_i - b_j)*x1 + (a_j - a_i)*x2, the dual line of the point l_i = l_j = 0.
    So the discriminant is c*x0^k * prod_{i<j} R_ij^2, and no R_ij is a power of
    x0, as distinct forms differ in a_j or b_j: every factor left after x0 is
    repeated, and the elimination refuses.
    """
    _require_chart_variables(p)
    forms = {(z.re, z.im) for z in points}
    if len(forms) > 1:
        raise _repeated_discriminant_error()
    (a, b), = forms
    form = TriPoly(p.vars, {(1, 0, 0): 1, (0, 1, 0): a, (0, 0, 1): b})
    raise _linear_part_error(form.primitive())


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
    dualize to points, higher degrees to curves; a factor proven squarefree
    here is its own squarefree part and is not proven so again.  A factor of
    degree 1 is irreducible, so squarefree, and two of them are coprime
    exactly when they are not proportional, that is when their primitive
    parts (which fix the sign) differ: neither takes a gcd.
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
        if f.total_degree() > 1 and not repeated_part(f).is_constant():
            raise ValueError(f"factor {f.to_text()} is not squarefree")
        prod = prod * f
    for i, f in enumerate(factors):
        for g in factors[i + 1:]:
            if (f.primitive() == g.primitive() if f.total_degree() == g.total_degree() == 1
                    else not tri_gcd(f, g).is_constant()):
                raise ValueError("factors are not pairwise coprime")
    if prod.primitive() != sf:
        raise ProductMismatchError(
            "product of factors does not match the squarefree part of p")
    out = []
    for f in factors:
        if f.total_degree() == 1:
            out.append(dual_of_linear(f))
        else:
            _require_chart_variables(f)
            out.append(replace(_dual_of_squarefree(f.primitive(), []), provenance="factor-union"))
    return out


def dual_sample(grid: SpectralGrid) -> CurveSampleSet:
    """Numeric samples of the dual curve on the grid, of at least 8 rays: each
    real ray root with unit eigenvector v maps to the Rayleigh pair (v*A1v, v*A2v),
    since grad p is proportional to (v*v, v*A1v, v*A2v) there (Jacobi).  A root
    whose eigenvalue is within EIG_GAP_RTOL*max|lambda| of a row neighbour is
    flagged singular, without a point.  Order: (angle index, root index)."""
    if len(grid.thetas) < 8:
        raise ValueError("need at least 8 rays")
    k, idx, _ = grid.line_roots()
    w = grid.eigvals
    # close[:, i]: eigenvalues i and i + 1 of a row are within the gap tolerance
    close = np.diff(w, axis=1) <= EIG_GAP_RTOL * np.abs(w).max(axis=1, keepdims=True)
    edge = np.zeros((len(w), 1), dtype=bool)
    singular = (np.hstack((edge, close)) | np.hstack((close, edge)))[k, idx]
    x1, x2 = (np.where(singular, np.nan, x)
              for x in _rayleigh(grid.pencil, grid.eigvecs[k, :, idx]).T * grid.pencil.unit)
    return CurveSampleSet.of_columns("x0=1", grid.thetas[k], x1, x2, ~singular,
                                     root_index=idx, singular=singular)


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
