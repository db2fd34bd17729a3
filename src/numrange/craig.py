"""Craig's determinant-factorization criterion, run exactly.

For Hermitian A1, A2 the bivariate identity
det(I + y1 A1 + y2 A2) = det(I + y1 A1) det(I + y2 A2) holds exactly when
A1 A2 = 0; both predicates are decided exactly, on L*A1 and L*A2 cleared to
Gaussian integers, and their agreement is itself the theorem under test.
The axis-aligned rectangle over the two spectra is the bounding box of
W(A1 + i A2) for every pair: W projects onto the axes as W(A1) and W(A2).
When the criterion holds, A = A1 + i A2 is normal and W(A) is the convex hull
of its eigenvalues, which lie on the two axes: for A = diag(1, i), W(A) is the
segment from 1 to i inside the unit box.  The verdict cross-checks the rectangle
against W's support function on a fan of angles that holds the four axis
directions.  On an even fan only the angles below pi are solved;
H(theta + pi) = -H(theta) gives the rest, lambda_max there being -lambda_min at
theta (Kippenhahn 1951).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import GaussianRationalMatrix, NonHermitianError, _int_matmul
from .pencil import _check_grid, _entry_scale, _integer_pencil
from .rangegeom import _outer_vertices

__all__ = [
    "CraigVerdict",
    "CraigDisagreementError",
    "craig_identity",
    "product_zero",
    "craig_verdict",
]

RECT_TOL = 1e-6
_AXES = np.array([(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])  # (cos, sin) at pi/2, pi and 3*pi/2


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
    lines x . u_k = lambda_max(cos_k*A1 + sin_k*A2) meet, theta_k = 2*pi*k/N
    (`_outer_vertices`).  When N is not a multiple of 4 the fan also takes the axis
    directions it lacks, pi/2, pi and 3*pi/2 (pi/2 and 3*pi/2 for an even N), with
    exact unit vectors: without them the box of the outer polygon overshoots the
    rectangle by up to a few percent.  One eigvalsh solves the fan, in real arithmetic
    when A1 and A2 are real.  On an even N it solves only the angles below pi and reads
    the support value at theta + pi, along -u, as -lambda_min(cos*A1 + sin*A2); an odd
    N solves every angle.
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
    if not (f1.imag.any() or f2.imag.any()):
        f1, f2 = f1.real, f2.real     # a real pair takes the real symmetric solver
    rows = N if N % 2 else N // 2     # an odd fan has no antipodal angles
    thetas = np.arange(rows) * (2.0 * np.pi) / N
    cos, sin = np.cos(thetas), np.sin(thetas)
    if N % 4:   # the axis directions the fan lacks, as exact unit vectors
        axes = _AXES[:1] if rows < N else _AXES
        at = np.searchsorted(thetas, np.pi / 2 * np.arange(1, len(axes) + 1))
        cos, sin = np.insert(cos, at, axes[:, 0]), np.insert(sin, at, axes[:, 1])
    w = np.linalg.eigvalsh(cos[:, None, None] * f1 + sin[:, None, None] * f2)
    h = w[:, -1]
    if rows < N:   # H(theta + pi) = -H(theta): lambda_max there is -lambda_min here
        cos, sin, h = np.r_[cos, -cos], np.r_[sin, -sin], np.r_[h, -w[:, 0]]
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
