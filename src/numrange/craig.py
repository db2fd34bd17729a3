"""Craig's determinant-factorization criterion, run exactly.

For Hermitian A1, A2 the bivariate identity
det(I + y1 A1 + y2 A2) = det(I + y1 A1) det(I + y2 A2) holds exactly when
A1 A2 = 0; both predicates are decided exactly, on L*A1 and L*A2 cleared to
Gaussian integers, and their agreement is itself the theorem under test.
The axis-aligned rectangle over the two spectra is the bounding box of
W(A1 + i A2) for every pair: W projects onto the axes as W(A1) and W(A2).
When the criterion holds, A = A1 + i A2 is normal and W(A) is the convex hull
of its eigenvalues, which lie on the two axes: for A = diag(1, i), W(A) is the
segment from 1 to i inside the unit box.  Each printed side is certified
exactly against p's own factor: with Q(y0, y1, y2) = p(y0, L*y1, L*y2), the
characteristic polynomial chi1(t) = det(t*I - L*A1) = Q(t, -1, 0) has integer
coefficients and real roots, so Descartes' rule of signs counts its roots above
a rational point exactly (Basu, Pollack & Roy, Algorithms in Real Algebraic
Geometry, ch. 2).  chi2 is built the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hermitian import GaussianRationalMatrix, NonHermitianError, _entry_scale, _int_matmul
from .pencil import _integer_pencil

__all__ = [
    "CraigVerdict",
    "CraigDisagreementError",
    "craig_identity",
    "product_zero",
    "craig_verdict",
]

RECT_TOL = 1e-6


class CraigDisagreementError(ArithmeticError):
    """Exact arithmetic contradicted itself: the two predicates disagreed, or a
    printed rectangle side failed its certificate.  An arithmetic bug, never a
    math outcome."""


@dataclass(frozen=True)
class CraigVerdict:
    identity_holds: bool
    product_zero: bool
    rectangle: tuple | None          # 4 CCW vertices, each side certified, when the criterion holds


def _check_pair(A1: GaussianRationalMatrix, A2: GaussianRationalMatrix):
    if A1.n != A2.n:
        raise ValueError("matrices must share one size")
    if not A1.is_hermitian() or not A2.is_hermitian():
        raise NonHermitianError("craig predicates need Hermitian inputs")


def craig_identity(A1: GaussianRationalMatrix, A2: GaussianRationalMatrix) -> bool:
    """Exact polynomial identity det(I+y1A1+y2A2) = det(I+y1A1)det(I+y2A2)."""
    _check_pair(A1, A2)
    return _craig_factors(_integer_pencil(A1, A2)[3]) is not None


def _craig_factors(Q: dict) -> tuple[dict, dict] | None:
    """`craig_identity` on the int terms {(a, b, c): v} of Q(y) = p(y0, L*y1, L*y2), L > 0,
    p the pencil determinant: the identity holds for Q iff for p.  Its factors are Q's terms
    with c = 0 and those with b = 0; Q is homogeneous, so y0 = 1 merges no two terms.
    Returns the factors {b: v} and {c: v} when the identity holds, else None."""
    left = {(b, c): v for (_, b, c), v in Q.items()}
    r1 = {b: v for (b, c), v in left.items() if not c}
    r2 = {c: v for (b, c), v in left.items() if not b}
    if left != {(b, c): u * v for b, u in r1.items() for c, v in r2.items()}:
        return None
    return r1, r2


def product_zero(A1: GaussianRationalMatrix, A2: GaussianRationalMatrix) -> bool:
    """Exact test A1 @ A2 == 0, on integers: scaling A1, A2 by L1, L2 > 0 keeps it."""
    if A1.n != A2.n:
        raise ValueError("matrices must share one size")
    return _product_zero((A1.re, A1.im), (A2.re, A2.im))


def _product_zero(C1, C2) -> bool:
    """Is the product of the Gaussian integer matrices C1, C2, given as (re, im), zero?"""
    re, im = _int_matmul(C1, C2)
    return not any(map(any, re + im))


def _variations(coeffs) -> int:
    """Sign variations of a coefficient sequence, zeros skipped."""
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _roots_above(h: list[int], m: int) -> int:
    """Roots above m of the integer polynomial h = sum_k h[k]*u**k, every root real:
    the sign variations of h(u + m) (Descartes' rule, exact for real-rooted h)."""
    c, n = list(h), len(h) - 1
    for i in range(n):     # Taylor shift h(u) -> h(u + m), in O(n^2) integer steps
        for k in range(n - 1, i - 1, -1):
            c[k] += m * c[k + 1]
    return _variations(c)


def _certified_sides(j: int, r: dict, n: int, L: int, w: np.ndarray, tol: Fraction):
    """(lo, hi) = (w[0], w[-1]), the extreme eigenvalues of Aj from a float solve, each
    certified to lie within tol of the exact one.  r holds p's factor {b: v}, the terms
    v*y0**(n-b)*yj**b of det(y0*I + yj*L*Aj), so chi(t) = det(t*I - L*Aj) has the
    coefficient (-1)**b * r[b] at t**(n-b).  lo is certified when every root of chi lies
    above L*(lo - tol) and not every one above L*(lo + tol); hi when some root lies above
    L*(hi - tol) and none above L*(hi + tol).  A side whose exact value is 0 (chi(0) = 0
    and chi has no root on the other side of 0) comes back as 0.0."""
    a = [0] * (n + 1)
    for b, v in r.items():
        a[n - b] = -v if b % 2 else v
    lo, hi = float(w[0]), float(w[-1])
    points = [L * (Fraction(x) + d) for x in (lo, hi) for d in (-tol, tol)]
    D = max(x.denominator for x in points)      # each a power of two
    h = [c * D ** (n - k) for k, c in enumerate(a)]      # D**n * chi(u / D)
    lo_minus, lo_plus, hi_minus, hi_plus = (
        _roots_above(h, x.numerator * (D // x.denominator)) for x in points)
    for side, x, kind, ok in (("lo", lo, "least", lo_minus == n > lo_plus),
                              ("hi", hi, "greatest", hi_minus > 0 == hi_plus)):
        if not ok:
            raise CraigDisagreementError(
                f"rectangle side {side}{j}={x:.12g} is not within {float(tol):.2e} "
                f"of the {kind} eigenvalue of A{j}")
    zeros = next(k for k, c in enumerate(a) if c)    # the multiplicity of the root 0
    if zeros:
        above = _variations(a)
        lo = 0.0 if above + zeros == n else lo
        hi = 0.0 if not above else hi
    return lo, hi


def craig_verdict(A1: GaussianRationalMatrix, A2: GaussianRationalMatrix,
                  rect_tol: float = RECT_TOL) -> CraigVerdict:
    """Run both predicates, assert their agreement, and extract the rectangle.

    Both predicates read one integer clearing of the pair.  When the criterion holds
    the rectangle spans the spectra of A1 and A2 from one eigvalsh each, and each side
    is certified to lie within rect_tol*s (s the pair's `_entry_scale`) of the exact
    extreme eigenvalue, by root counts on the factors of p that the identity split off.
    """
    if not 0.0 < rect_tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite (got {rect_tol})")
    _check_pair(A1, A2)
    L, C1, C2, Q = _integer_pencil(A1, A2)
    factors = _craig_factors(Q)
    ident = factors is not None
    prod = _product_zero(C1, C2)
    if ident != prod:
        raise CraigDisagreementError(
            f"identity={ident} but product_zero={prod}; exact arithmetic is broken")
    if not ident:
        return CraigVerdict(identity_holds=False, product_zero=False, rectangle=None)
    f1, f2 = A1.to_complex(), A2.to_complex()
    w1, w2 = map(np.linalg.eigvalsh, (f1, f2))
    tol = Fraction(rect_tol) * Fraction(_entry_scale(f1, f2))
    (lo1, hi1), (lo2, hi2) = (_certified_sides(j, r, A1.n, L, w, tol)
                              for j, r, w in zip((1, 2), factors, (w1, w2)))
    rect = ((lo1, lo2), (hi1, lo2), (hi1, hi2), (lo1, hi2))
    return CraigVerdict(identity_holds=True, product_zero=True, rectangle=rect)


def verdict_line(v: CraigVerdict) -> str:
    """The CLI verdict format."""
    if v.rectangle is None:
        rect = "none"
    else:
        (lo1, lo2), _, (hi1, hi2), _ = v.rectangle
        rect = f"{lo1:.12g},{hi1:.12g},{lo2:.12g},{hi2:.12g}"
    return (f"identity={str(v.identity_holds).lower()} "
            f"product_zero={str(v.product_zero).lower()} "
            f"rectangle={rect}")
