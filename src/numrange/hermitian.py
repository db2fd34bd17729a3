"""Complex matrix intake, Hermitian splitting, and exact matrix algebra.

Matrices carry exact Gaussian-rational entries; structural predicates
(Hermitian, normal, the split identity A = A1 + i*A2) are decided exactly.
Numeric analysis works on a float view of a pencil, converted once per
pencil; the angle-grid eigensolves that read it live in `pencil`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exactpoly import GaussianRational, det_pencil

__all__ = [
    "GaussianRationalMatrix",
    "HermitianPencil",
    "MatrixFormatError",
    "NonHermitianError",
    "FloatRangeError",
    "split",
    "is_normal",
    "rank_one_value",
    "charpoly",
    "matrix_from_json",
    "load_matrix",
]

HALF = Fraction(1, 2)


class MatrixFormatError(ValueError):
    pass


class NonHermitianError(ValueError):
    pass


class FloatRangeError(ValueError):
    """An entry has a nonzero part that no normal float represents, so the
    numeric layers would see it as inf or (near) zero."""


class GaussianRationalMatrix:
    """Square matrix over Q(i), immutable."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(_entry(e) for e in row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise MatrixFormatError("matrix must be square and non-empty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("GaussianRationalMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "GaussianRationalMatrix":
        one, zero = GaussianRational.ONE, GaussianRational.ZERO
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "GaussianRationalMatrix":
        z = GaussianRational.ZERO
        return cls([[z] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, values) -> "GaussianRationalMatrix":
        vals = [_entry(v) for v in values]
        z = GaussianRational.ZERO
        n = len(vals)
        return cls([[vals[i] if i == j else z for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, GaussianRationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def conj_transpose(self) -> "GaussianRationalMatrix":
        n = self.n
        return GaussianRationalMatrix(
            [[self.entries[j][i].conjugate() for j in range(n)] for i in range(n)])

    def __add__(self, other):
        self._same_size(other)
        return GaussianRationalMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_size(other)
        return GaussianRationalMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __matmul__(self, other):
        self._same_size(other)
        n = self.n
        bt = list(zip(*other.entries))
        out = []
        for row in self.entries:
            out.append([sum((a * b for a, b in zip(row, col)), GaussianRational.ZERO)
                        for col in bt])
        return GaussianRationalMatrix(out)

    def scale(self, c) -> "GaussianRationalMatrix":
        c = _entry(c)
        return GaussianRationalMatrix([[c * e for e in row] for row in self.entries])

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def is_hermitian(self) -> bool:
        """Exact test A == A*, entry by entry: e_ij == conj(e_ji)."""
        e = self.entries
        return all(e[i][j].re == e[j][i].re and e[i][j].im == -e[j][i].im
                   for i in range(self.n) for j in range(i, self.n))

    def to_complex(self) -> np.ndarray:
        """complex128 copy; FloatRangeError when a nonzero part of an entry is
        beyond the largest float or below the smallest normal one."""
        return np.array([[complex(_normal_float(e.re, i, j, "real"),
                                  _normal_float(e.im, i, j, "imaginary"))
                          for j, e in enumerate(row)] for i, row in enumerate(self.entries)],
                        dtype=np.complex128)

    def _same_size(self, other):
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def canonical_json(self) -> str:
        ents = [[[[e.re.numerator, e.re.denominator], [e.im.numerator, e.im.denominator]]
                 for e in row] for row in self.entries]
        return json.dumps({"n": self.n, "entries": ents}, separators=(",", ":"))

    def __repr__(self):
        return f"GaussianRationalMatrix(n={self.n})"

    def __str__(self):
        body = []
        for row in self.entries:
            body.append("[" + ", ".join(str(e) for e in row) + "]")
        return "[" + ",\n ".join(body) + "]"


def _normal_float(x: Fraction, i: int, j: int, part: str) -> float:
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if x and not sys.float_info.min <= abs(f) < math.inf:
        exp10 = math.log10(abs(x.numerator)) - math.log10(x.denominator)
        raise FloatRangeError(
            f"entry ({i}, {j}) has a {part} part of about 1e{exp10:+.0f}, outside the "
            f"normal float range [{sys.float_info.min:.3g}, {sys.float_info.max:.3g}]")
    return f


def _entry(e) -> GaussianRational:
    if isinstance(e, GaussianRational):
        return e
    if isinstance(e, (int, Fraction)):
        return GaussianRational.of(e)
    if isinstance(e, complex):
        raise TypeError("float complex entries are not exact; use GaussianRational")
    raise TypeError(f"bad matrix entry type {type(e).__name__}")


@dataclass(frozen=True)
class HermitianPencil:
    """The triple (A0=I, A1, A2) behind F(y) = y0*I + y1*A1 + y2*A2."""

    A1: GaussianRationalMatrix
    A2: GaussianRationalMatrix

    def __post_init__(self):
        if self.A1.n != self.A2.n:
            raise ValueError("pencil parts must share one size")
        if not self.A1.is_hermitian():
            raise NonHermitianError("A1 is not Hermitian")
        if not self.A2.is_hermitian():
            raise NonHermitianError("A2 is not Hermitian")

    @property
    def n(self) -> int:
        return self.A1.n

    def float_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only complex128 views of (A1, A2), converted once per pencil."""
        return self._float_parts

    @cached_property
    def _float_parts(self) -> tuple[np.ndarray, np.ndarray]:
        parts = self.A1.to_complex(), self.A2.to_complex()
        for f in parts:
            f.flags.writeable = False
        return parts


def split(A: GaussianRationalMatrix) -> HermitianPencil:
    """Hermitian splitting A = A1 + i*A2 with A1 = (A+A*)/2, A2 = (A-A*)/(2i).

    Entry by entry, with a = A_ij and b = A_ji: A1_ij = (a + conj b)/2 and
    A2_ij = (a - conj b)/(2i), that is
    A1_ij = ((a.re + b.re)/2, (a.im - b.im)/2) and
    A2_ij = ((a.im + b.im)/2, (b.re - a.re)/2).
    """
    e, n = A.entries, A.n
    A1 = [[GaussianRational((e[i][j].re + e[j][i].re) * HALF, (e[i][j].im - e[j][i].im) * HALF)
           for j in range(n)] for i in range(n)]
    A2 = [[GaussianRational((e[i][j].im + e[j][i].im) * HALF, (e[j][i].re - e[i][j].re) * HALF)
           for j in range(n)] for i in range(n)]
    return HermitianPencil(GaussianRationalMatrix(A1), GaussianRationalMatrix(A2))


def _denominator_lcm(*mats: GaussianRationalMatrix) -> int:
    """The lcm of the denominators of every entry part of the matrices."""
    return math.lcm(*(x.denominator for A in mats for row in A.entries for e in row
                      for x in (e.re, e.im)))


def _cleared_parts(A: GaussianRationalMatrix,
                   L: int | None = None) -> tuple[list[list[int]], list[list[int]]]:
    """Integer real and imaginary parts of L*A, L > 0 a multiple of A's
    denominators, by default their lcm."""
    L = L or _denominator_lcm(A)
    return ([[e.re.numerator * (L // e.re.denominator) for e in row] for row in A.entries],
            [[e.im.numerator * (L // e.im.denominator) for e in row] for row in A.entries])


def _int_matmul(A, B) -> tuple[list[list[int]], list[list[int]]]:
    """(re, im) of the product of two Gaussian integer matrices given as (re, im)."""
    (ar, ai), (br, bi) = A, B
    n = range(len(ar))
    return ([[sum(ar[i][k] * br[k][j] - ai[i][k] * bi[k][j] for k in n) for j in n] for i in n],
            [[sum(ar[i][k] * bi[k][j] + ai[i][k] * br[k][j] for k in n) for j in n] for i in n])


def is_normal(A: GaussianRationalMatrix) -> bool:
    """Exact test A* A == A A*, on integers: L*A in place of A scales both by L^2."""
    re, im = _cleared_parts(A)
    star = ([list(col) for col in zip(*re)], [[-x for x in col] for col in zip(*im)])
    return _int_matmul(star, (re, im)) == _int_matmul((re, im), star)


def rank_one_value(A: GaussianRationalMatrix, w) -> tuple[float, float]:
    """The point (w* A1 w, w* A2 w) of W(A) for a unit vector w.

    Read off w* A w = w* A1 w + i * w* A2 w, with both Hermitian forms real.
    """
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    if w.shape[0] != A.n:
        raise ValueError("vector length does not match matrix size")
    nrm = np.linalg.norm(w)
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(f"w is not a unit vector (||w|| = {nrm!r})")
    z = w.conj() @ A.to_complex() @ w
    return float(z.real), float(z.imag)


def charpoly(A: GaussianRationalMatrix) -> list[GaussianRational]:
    """Exact characteristic polynomial det(t*I - A).

    Returns coefficients [c_0, ..., c_n] with c_n = 1, ascending powers of t.
    With C = L*A cleared to Gaussian integers, det(t*I - A) is
    L^-n * det(L*t*I - C), and det(y0*I - y1*C) comes from `det_pencil`, which
    takes characteristic polynomials modulo primes: c_k is its y0^k *
    y1^(n-k) coefficient over L^(n-k).
    """
    L, n = _denominator_lcm(A), A.n
    re, im = _cleared_parts(A, L)
    det_re, det_im = det_pencil(([[-x for x in row] for row in re], [[-x for x in row] for row in im]))
    return [GaussianRational(Fraction(det_re.get((k, n - k, 0), 0), L ** (n - k)),
                             Fraction(det_im.get((k, n - k, 0), 0), L ** (n - k)))
            for k in range(n + 1)]


# -- matrix file format --------------------------------------------------------


def _rational_from_json(v) -> Fraction:
    if isinstance(v, int):
        return Fraction(v)
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, int) for x in v)):
        if v[1] == 0:
            raise MatrixFormatError(f"zero denominator in {v}")
        return Fraction(v[0], v[1])
    raise MatrixFormatError(f"bad rational {v!r}: expected int or [num, den]")


def _entry_from_json(e) -> GaussianRational:
    if not isinstance(e, list) or len(e) != 2:
        raise MatrixFormatError(
            f"bad entry {e!r}: expected [re, im] ints or [[re_num,re_den],[im_num,im_den]]")
    return GaussianRational(_rational_from_json(e[0]), _rational_from_json(e[1]))


def matrix_from_json(obj) -> GaussianRationalMatrix:
    """Read the matrix JSON schema: {"n": k, "entries": [[entry, ...], ...]}.

    Each entry is [[re_num, re_den], [im_num, im_den]]; the shorthand
    [re_int, im_int] is accepted.
    """
    if not isinstance(obj, dict):
        raise MatrixFormatError("matrix document must be a JSON object")
    try:
        n = obj["n"]
        entries = obj["entries"]
    except KeyError as exc:
        raise MatrixFormatError(f"missing key {exc.args[0]!r}") from None
    if not isinstance(n, int) or n < 1:
        raise MatrixFormatError(f"bad size n={n!r}")
    if not isinstance(entries, list) or len(entries) != n:
        raise MatrixFormatError(f"expected {n} rows, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFormatError(f"row {i} must have {n} entries")
        rows.append([_entry_from_json(e) for e in row])
    return GaussianRationalMatrix(rows)


def load_matrix(path) -> GaussianRationalMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return matrix_from_json(obj)
