"""Complex matrix intake, Hermitian splitting, and exact matrix algebra.

A matrix over Q(i) is kept in one canonical integer store: its size n, the
least common denominator L > 0 of its entry parts and the int rows `re` and
`im` with A = (re + i*im)/L, so `==` and `hash` read the store.  The
structural predicates (Hermitian, normal, the split A = A1 + i*A2) work on
these integers; `entries`, the rows of `GaussianRational` entries, is built
on first access.
The float view `to_complex` rounds each part correctly, as float(Fraction)
does; the angle-grid eigensolves of `pencil` read it over the pencil's `unit`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .exactpoly import GaussianRational

__all__ = [
    "GaussianRationalMatrix",
    "HermitianPencil",
    "MatrixFormatError",
    "NonHermitianError",
    "FloatRangeError",
    "split",
    "is_normal",
    "matrix_from_json",
    "load_matrix",
]

class MatrixFormatError(ValueError):
    pass


class NonHermitianError(ValueError):
    pass


class FloatRangeError(ValueError):
    """An entry has a nonzero part that no normal float represents, so the
    numeric layers would see it as inf or (near) zero."""


class GaussianRationalMatrix:
    """Square matrix over Q(i), immutable, stored as (re + i*im)/L.

    Built from rows of entries (`GaussianRational`, int or Fraction), which
    are cleared to the store once; `entries` gives them back as
    `GaussianRational`s with reduced Fraction parts, built on first access.
    """

    __slots__ = ("n", "L", "re", "im", "_entries")

    def __init__(self, entries):
        _store(self, *_cleared([[(e.re.as_integer_ratio(), e.im.as_integer_ratio())
                                 for e in map(_entry, row)] for row in entries]))

    @classmethod
    def _of(cls, L: int, re, im) -> "GaussianRationalMatrix":
        """The matrix (re + i*im)/L for int rows re, im and an int L > 0."""
        A = object.__new__(cls)
        _store(A, L, re, im)
        return A

    def __setattr__(self, *a):
        raise AttributeError("GaussianRationalMatrix is immutable")

    @property
    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        if self._entries is None:
            L = self.L
            object.__setattr__(self, "_entries", tuple(
                tuple(GaussianRational(Fraction(a, L), Fraction(b, L)) for a, b in zip(ra, ia))
                for ra, ia in zip(self.re, self.im)))
        return self._entries

    @classmethod
    def identity(cls, n: int) -> "GaussianRationalMatrix":
        return cls._of(1, [[int(i == j) for j in range(n)] for i in range(n)], [[0] * n] * n)

    @classmethod
    def zero(cls, n: int) -> "GaussianRationalMatrix":
        return cls._of(1, [[0] * n] * n, [[0] * n] * n)

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
        return self.L == other.L and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.L, self.re, self.im))

    def conj_transpose(self) -> "GaussianRationalMatrix":
        return GaussianRationalMatrix._of(self.L, list(zip(*self.re)),
                                          [[-x for x in col] for col in zip(*self.im)])

    def __add__(self, other):
        self._same_size(other)
        L = math.lcm(self.L, other.L)
        a, b = L // self.L, L // other.L
        return GaussianRationalMatrix._of(
            L, *([[a * x + b * y for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)]
                 for X, Y in ((self.re, other.re), (self.im, other.im))))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __matmul__(self, other):
        self._same_size(other)
        return GaussianRationalMatrix._of(self.L * other.L,
                                          *_int_matmul((self.re, self.im), (other.re, other.im)))

    def scale(self, c) -> "GaussianRationalMatrix":
        c = GaussianRationalMatrix([[c]])
        cr, ci = c.re[0][0], c.im[0][0]
        return GaussianRationalMatrix._of(
            self.L * c.L, [[cr * x - ci * y for x, y in zip(rx, ry)] for rx, ry in zip(self.re, self.im)],
            [[ci * x + cr * y for x, y in zip(rx, ry)] for rx, ry in zip(self.re, self.im)])

    def is_zero(self) -> bool:
        return not any(map(any, self.re + self.im))

    def is_hermitian(self) -> bool:
        """Exact test A == A*: re symmetric and im antisymmetric."""
        return (self.re == tuple(zip(*self.re))
                and self.im == tuple(tuple(-x for x in col) for col in zip(*self.im)))

    def to_complex(self) -> np.ndarray:
        """complex128 copy, each part Python's int / int: correctly rounded, as
        float(Fraction) is.  FloatRangeError when a nonzero part is beyond the
        largest float or below the smallest normal one.
        """
        L, re, im = self.L, self.re, self.im
        return np.array([[complex(_normal_float(a, L, i, j, "real"),
                                  _normal_float(b, L, i, j, "imaginary"))
                          for j, (a, b) in enumerate(zip(ra, ia))]
                         for i, (ra, ia) in enumerate(zip(re, im))], dtype=np.complex128)

    def _same_size(self, other):
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __repr__(self):
        return f"GaussianRationalMatrix(n={self.n})"

    def __str__(self):
        body = []
        for row in self.entries:
            body.append("[" + ", ".join(str(e) for e in row) + "]")
        return "[" + ",\n ".join(body) + "]"


def _store(A: GaussianRationalMatrix, L: int, re, im) -> None:
    """Fill A's slots with (re + i*im)/L reduced by the gcd of L and every part."""
    if not re or any(len(r) != len(re) for r in re):
        raise MatrixFormatError("matrix must be square and non-empty")
    g = math.gcd(L, *chain(*re, *im))
    if g > 1:
        re, im = ([[x // g for x in row] for row in part] for part in (re, im))
    put = object.__setattr__
    put(A, "n", len(re))
    put(A, "L", L // g)
    put(A, "re", tuple(map(tuple, re)))
    put(A, "im", tuple(map(tuple, im)))
    put(A, "_entries", None)


def _cleared(rows) -> tuple[int, list[list[int]], list[list[int]]]:
    """(L, re, im) of rows of ((re_num, re_den), (im_num, im_den)) entries, L
    the lcm of the denominators."""
    L = math.lcm(*(d for row in rows for e in row for _, d in e))
    return L, *([[e[k][0] * (L // e[k][1]) for e in row] for row in rows] for k in (0, 1))


def _normal_float(num: int, L: int, i: int, j: int, part: str) -> float:
    try:
        f = num / L
    except OverflowError:
        f = math.inf
    if num and not sys.float_info.min <= abs(f) < math.inf:
        x = Fraction(num, L)
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
        """Read-only complex128 views of (A1/s, A2/s), s = `unit`, converted once per pencil."""
        return self._float_view[:2]

    @property
    def unit(self) -> float:
        """s = `_entry_scale`, a power of two: the numeric layers solve on A/s exactly."""
        return self._float_view[2]

    @cached_property
    def _float_view(self) -> tuple[np.ndarray, np.ndarray, float]:
        f1, f2 = self.A1.to_complex(), self.A2.to_complex()
        s = _entry_scale(f1, f2)
        for f in (f1, f2):
            f /= s
            f.flags.writeable = False
        return f1, f2, s

    @cached_property
    def normal(self) -> bool:
        """Is A = A1 + i*A2 normal?  A*A - AA* = 2i*(A1*A2 - A2*A1), so exactly
        when A1 and A2 commute; decided once per pencil, on the integer stores,
        which scale both products by the same L1*L2."""
        X, Y = (self.A1.re, self.A1.im), (self.A2.re, self.A2.im)
        return _int_matmul(X, Y) == _int_matmul(Y, X)


def _entry_scale(f1: np.ndarray, f2: np.ndarray) -> float:
    """s, the unit of the numeric layers: the largest |real or imaginary part| of f1, f2 (a
    modulus may overflow) rounded down to 2**k, or 1 while |k| <= 32, so ordinary pencils keep
    their floats bit for bit."""
    m = max(float(np.abs(part).max()) for f in (f1, f2) for part in (f.real, f.imag))
    k = math.frexp(m)[1] - 1
    return math.ldexp(1.0, k) if abs(k) > 32 else 1.0


def split(A: GaussianRationalMatrix) -> HermitianPencil:
    """Hermitian splitting A = A1 + i*A2 with A1 = (A+A*)/2, A2 = (A-A*)/(2i).

    On the store C = L*A = R + i*I: A1 = (C + C*)/(2L) = (R + R^T + i*(I - I^T))/(2L)
    and A2 = (C - C*)/(2iL) = (I + I^T + i*(R^T - R))/(2L), each reduced by one gcd.
    """
    R, I, L = A.re, A.im, 2 * A.L
    Rt, It = list(zip(*R)), list(zip(*I))

    def rows(X, Y, sign):
        return [[x + sign * y for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)]

    return HermitianPencil(GaussianRationalMatrix._of(L, rows(R, Rt, 1), rows(I, It, -1)),
                           GaussianRationalMatrix._of(L, rows(I, It, 1), rows(Rt, R, -1)))


def _cleared_parts(A: GaussianRationalMatrix, L: int) -> tuple[list[list[int]], list[list[int]]]:
    """Integer real and imaginary parts of L*A, L > 0 a multiple of A.L."""
    k = L // A.L
    return tuple([[k * x for x in row] for row in part] for part in (A.re, A.im))


def _int_matmul(A, B) -> tuple[list[list[int]], list[list[int]]]:
    """(re, im) of the product of two Gaussian integer matrices given as (re, im),
    from numpy products of object arrays of the Python ints: exact at any size."""
    (ar, ai), (br, bi) = ([np.array(P, dtype=object) for P in M] for M in (A, B))
    return (ar @ br - ai @ bi).tolist(), (ar @ bi + ai @ br).tolist()


def is_normal(A: GaussianRationalMatrix) -> bool:
    """Exact test A* A == A A*, as `HermitianPencil.normal` of split(A)."""
    return split(A).normal


# -- matrix file format --------------------------------------------------------


def _rational_from_json(v) -> tuple[int, int]:
    """(num, den) with den > 0 of an int or [num, den] part; JSON true is 1."""
    if isinstance(v, int):
        return v, 1
    if isinstance(v, list) and len(v) == 2:
        num, den = v
        if isinstance(num, int) and isinstance(den, int):
            if den == 0:
                raise MatrixFormatError(f"zero denominator in {v}")
            return (num, den) if den > 0 else (-num, -den)
    raise MatrixFormatError(f"bad rational {v!r}: expected int or [num, den]")


def _entry_from_json(e) -> tuple[tuple[int, int], tuple[int, int]]:
    if not isinstance(e, list) or len(e) != 2:
        raise MatrixFormatError(
            f"bad entry {e!r}: expected [re, im] ints or [[re_num,re_den],[im_num,im_den]]")
    return _rational_from_json(e[0]), _rational_from_json(e[1])


def matrix_from_json(obj) -> GaussianRationalMatrix:
    """Read the matrix JSON schema: {"n": k, "entries": [[entry, ...], ...]}.

    Each entry is [[re_num, re_den], [im_num, im_den]]; the shorthand
    [re_int, im_int] is accepted.  The parts go straight into the integer
    store, over the lcm of their denominators.
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
    return GaussianRationalMatrix._of(*_cleared(rows))


def load_matrix(path) -> GaussianRationalMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return matrix_from_json(obj)
