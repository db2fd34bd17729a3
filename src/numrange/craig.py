"""Craig's determinant-factorization criterion, run exactly.

For Hermitian A1, A2 the bivariate identity
det(I + y1 A1 + y2 A2) = det(I + y1 A1) det(I + y2 A2) holds exactly when
A1 A2 = 0; both predicates are decided with exact arithmetic and their
agreement is itself the theorem under test.  When they hold, W(A1 + i A2) is
the axis-aligned rectangle over the two spectra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactpoly import GaussianRational, TriPoly
from .hermitian import (GaussianRationalMatrix, HermitianPencil, NonHermitianError,
                        _cleared_parts, _int_matmul)
from .pencil import SpectralGrid, pencil_det
from .rangegeom import _outer_polygon, _support_grid

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
    return _craig_identity(HermitianPencil(A1, A2))


def _craig_identity(pencil: HermitianPencil) -> bool:
    """`craig_identity` of the pencil's parts.  Both right-hand factors are
    read off the left side: det(I + y1*A1) is its part free of y2, and
    det(I + y2*A2) its part free of y1."""
    p = pencil_det(pencil).p
    # p is homogeneous, so y0 = 1 merges no two of its terms
    left = TriPoly(p.vars, {(0, b, c): coef for (_, b, c), coef in p.terms.items()})
    right1 = TriPoly(p.vars, {e: coef for e, coef in left.terms.items() if not e[2]})
    right2 = TriPoly(p.vars, {e: coef for e, coef in left.terms.items() if not e[1]})
    return left == right1 * right2


def product_zero(A1: GaussianRationalMatrix, A2: GaussianRationalMatrix) -> bool:
    """Exact test A1 @ A2 == 0, on integers: scaling A1, A2 by L1, L2 > 0 keeps it."""
    if A1.n != A2.n:
        raise ValueError("matrices must share one size")
    re, im = _int_matmul(_cleared_parts(A1), _cleared_parts(A2))
    return not any(map(any, re + im))


def craig_verdict(A1: GaussianRationalMatrix, A2: GaussianRationalMatrix,
                  N: int = 720, rect_tol: float = RECT_TOL) -> CraigVerdict:
    """Run both predicates, assert their agreement, and extract the rectangle.

    When the criterion holds the rectangle spans the spectra of A1 and A2 and
    is cross-checked against the sampled hulls of W(A1 + i*A2).
    """
    _check_pair(A1, A2)
    pencil = HermitianPencil(A1, A2)
    ident = _craig_identity(pencil)
    prod = product_zero(A1, A2)
    if ident != prod:
        raise CraigDisagreementError(
            f"identity={ident} but product_zero={prod}; exact arithmetic is broken")
    if not ident:
        return CraigVerdict(identity_holds=False, product_zero=False,
                            rectangle=None, eigen_pairs=None)
    w1, w2 = map(np.linalg.eigvalsh, pencil.float_parts())
    lo1, hi1 = float(w1[0]), float(w1[-1])
    lo2, hi2 = float(w2[0]), float(w2[-1])
    rect = ((lo1, lo2), (hi1, lo2), (hi1, hi2), (lo1, hi2))
    # The rectangle is the exact bounding box of W(A1 + i*A2): each axis
    # projection of the numerical range is the corresponding spectrum
    # interval.  (W itself is the eigenvalue hull, which stays inside.)
    if N < 3:
        raise ValueError("need at least 3 support directions")
    grid = SpectralGrid(pencil, N)
    pts = _outer_polygon(grid.cos, grid.sin, _support_grid(grid)[0])
    xs, ys = zip(*pts)
    worst = max(abs(min(xs) - lo1), abs(max(xs) - hi1),
                abs(min(ys) - lo2), abs(max(ys) - hi2))
    if worst > rect_tol:
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
