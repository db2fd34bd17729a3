"""Craig's determinant-factorization criterion, run exactly.

For Hermitian A1, A2 the bivariate identity
det(I + y1 A1 + y2 A2) = det(I + y1 A1) det(I + y2 A2) holds exactly when
A1 A2 = 0; both predicates are decided exactly, on L*A1 and L*A2 cleared to
Gaussian integers, and their agreement is itself the theorem under test.
The axis-aligned rectangle over the two spectra is the bounding box of
W(A1 + i A2) for every pair: W projects onto the axes as W(A1) and W(A2).
When the criterion holds, A = A1 + i A2 is normal and W(A) is the convex hull
of its eigenvalues, which lie on the two axes: for A = diag(1, i), W(A) is the
segment from 1 to i inside the unit box.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactpoly import GaussianRational
from .hermitian import GaussianRationalMatrix, NonHermitianError, _int_matmul
from .pencil import _check_grid, _entry_scale, _integer_pencil
from .rangegeom import _outer_vertices

__all__ = [
    "CraigVerdict",
    "CraigDisagreementError",
    "craig_identity",
    "product_zero",
    "craig_verdict",
    "planted_product_zero_pair",
    "generic_hermitian_pair",
]

RECT_TOL = 1e-6

# rational (cos, sin) pairs from Pythagorean triples, for exact orthogonal rotations
_TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29), (7, 24, 25), (9, 40, 41)]


class CraigDisagreementError(ArithmeticError):
    """The two exact predicates disagreed: an arithmetic bug, never a math outcome."""


@dataclass(frozen=True)
class CraigVerdict:
    identity_holds: bool
    product_zero: bool
    rectangle: tuple | None          # 4 CCW vertices when the criterion holds
    eigen_pairs: tuple | None        # (spectrum of A1, spectrum of A2)


def _check_pair(A1: GaussianRationalMatrix, A2: GaussianRationalMatrix):
    if A1.n != A2.n:
        raise ValueError("matrices must share one size")
    if not A1.is_hermitian() or not A2.is_hermitian():
        raise NonHermitianError("craig predicates need Hermitian inputs")


def craig_identity(A1: GaussianRationalMatrix, A2: GaussianRationalMatrix) -> bool:
    """Exact polynomial identity det(I+y1A1+y2A2) = det(I+y1A1)det(I+y2A2)."""
    _check_pair(A1, A2)
    return _craig_identity(_integer_pencil(A1, A2)[3])


def _craig_identity(Q: dict) -> bool:
    """`craig_identity` on the int terms {(a, b, c): v} of Q(y) = p(y0, L*y1, L*y2), L > 0,
    p the pencil determinant: the identity holds for Q iff for p.  Its factors are Q's terms
    with c = 0 and those with b = 0; Q is homogeneous, so y0 = 1 merges no two terms."""
    left = {(b, c): v for (_, b, c), v in Q.items()}
    r1 = {b: v for (b, c), v in left.items() if not c}
    r2 = {c: v for (b, c), v in left.items() if not b}
    return left == {(b, c): u * v for b, u in r1.items() for c, v in r2.items()}


def product_zero(A1: GaussianRationalMatrix, A2: GaussianRationalMatrix) -> bool:
    """Exact test A1 @ A2 == 0, on integers: scaling A1, A2 by L1, L2 > 0 keeps it."""
    if A1.n != A2.n:
        raise ValueError("matrices must share one size")
    return _product_zero((A1.re, A1.im), (A2.re, A2.im))


def _product_zero(C1, C2) -> bool:
    """Is the product of the Gaussian integer matrices C1, C2, given as (re, im), zero?"""
    re, im = _int_matmul(C1, C2)
    return not any(map(any, re + im))


def craig_verdict(A1: GaussianRationalMatrix, A2: GaussianRationalMatrix,
                  N: int = 720, rect_tol: float = RECT_TOL) -> CraigVerdict:
    """Run both predicates, assert their agreement, and extract the rectangle.

    Both predicates read one integer clearing of the pair.  When the criterion holds
    the rectangle spans the spectra of A1 and A2, checked to within rect_tol*s (s the
    pair's `_entry_scale`) against the box of the points where neighbouring supporting
    lines x . u_k = lambda_max(cos_k*A1 + sin_k*A2) meet, theta_k = 2*pi*k/N (one
    eigvalsh; `_outer_vertices`).
    """
    if not 0.0 < rect_tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite (got {rect_tol})")
    _check_grid(N)
    _check_pair(A1, A2)
    _, C1, C2, Q = _integer_pencil(A1, A2)
    ident = _craig_identity(Q)
    prod = _product_zero(C1, C2)
    if ident != prod:
        raise CraigDisagreementError(
            f"identity={ident} but product_zero={prod}; exact arithmetic is broken")
    if not ident:
        return CraigVerdict(identity_holds=False, product_zero=False,
                            rectangle=None, eigen_pairs=None)
    f1, f2 = A1.to_complex(), A2.to_complex()
    w1, w2 = map(np.linalg.eigvalsh, (f1, f2))
    lo1, hi1 = float(w1[0]), float(w1[-1])
    lo2, hi2 = float(w2[0]), float(w2[-1])
    rect = ((lo1, lo2), (hi1, lo2), (hi1, hi2), (lo1, hi2))
    thetas = np.arange(N) * (2.0 * np.pi) / N
    cos, sin = np.cos(thetas), np.sin(thetas)
    h = np.linalg.eigvalsh(cos[:, None, None] * f1 + sin[:, None, None] * f2)[:, -1]
    V = _outer_vertices(cos, sin, h)
    worst = float(np.abs(np.r_[V.min(axis=0) - (lo1, lo2), V.max(axis=0) - (hi1, hi2)]).max())
    if worst > rect_tol * _entry_scale(f1, f2):
        raise CraigDisagreementError(
            f"rectangle disagrees with the bounding box of sampled W(A) by {worst:.2e}")
    return CraigVerdict(identity_holds=True, product_zero=True,
                        rectangle=rect, eigen_pairs=(tuple(map(float, w1)),
                                                     tuple(map(float, w2))))


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


# -- seeded instance generators ---------------------------------------------------


def _rational_rotation(n: int, i: int, j: int, triple) -> GaussianRationalMatrix:
    a, b, c = triple
    cos, sin = Fraction(a, c), Fraction(b, c)
    rows = [[GaussianRational.ONE if r == s else GaussianRational.ZERO
             for s in range(n)] for r in range(n)]
    rows[i][i] = GaussianRational.of(cos)
    rows[j][j] = GaussianRational.of(cos)
    rows[i][j] = GaussianRational.of(-sin)
    rows[j][i] = GaussianRational.of(sin)
    return GaussianRationalMatrix(rows)


def _random_rational_orthogonal(n: int, rng: random.Random) -> GaussianRationalMatrix:
    Q = GaussianRationalMatrix.identity(n)
    for _ in range(max(2, n)):
        i, j = rng.sample(range(n), 2)
        Q = Q @ _rational_rotation(n, i, j, rng.choice(_TRIPLES))
    return Q


def planted_product_zero_pair(n: int, rng: random.Random):
    """Hermitian pair with A1 A2 = 0 exactly: disjoint diagonal supports
    conjugated by one rational orthogonal matrix."""
    if n < 2:
        raise ValueError("need n >= 2")
    k = rng.randint(1, n - 1)
    d1 = [Fraction(rng.randint(-5, 5)) for _ in range(k)] + [Fraction(0)] * (n - k)
    d2 = [Fraction(0)] * k + [Fraction(rng.randint(-5, 5)) for _ in range(n - k)]
    Q = _random_rational_orthogonal(n, rng)
    Qt = Q.conj_transpose()
    D1 = GaussianRationalMatrix.diagonal(d1)
    D2 = GaussianRationalMatrix.diagonal(d2)
    return Q @ D1 @ Qt, Q @ D2 @ Qt


def generic_hermitian_pair(n: int, rng: random.Random, complex_entries: bool = False):
    """Seeded Hermitian pair with no planted structure."""

    def herm():
        rows = [[GaussianRational.ZERO] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = GaussianRational.of(Fraction(rng.randint(-4, 4)))
            for j in range(i + 1, n):
                re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                im = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if complex_entries else Fraction(0)
                rows[i][j] = GaussianRational(re, im)
                rows[j][i] = GaussianRational(re, -im)
        return GaussianRationalMatrix(rows)

    return herm(), herm()
