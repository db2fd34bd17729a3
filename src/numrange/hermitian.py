"""Complex matrix intake, Hermitian splitting, and exact matrix algebra.

Matrices carry exact Gaussian-rational entries; structural predicates
(Hermitian, normal, the split identity A = A1 + i*A2) are decided exactly.
Numeric analysis works on a float view of a pencil, converted once per
pencil; the angle-grid eigensolves that read it live in `pencil`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exactpoly import GaussianRational

__all__ = [
    "GaussianRationalMatrix",
    "HermitianPencil",
    "MatrixFormatError",
    "NonHermitianError",
    "split",
    "is_normal",
    "rank_one_value",
    "charpoly",
    "matrix_from_json",
    "load_matrix",
]

HALF = Fraction(1, 2)
INV_2I = GaussianRational(Fraction(0), Fraction(-1, 2))  # 1/(2i)


class MatrixFormatError(ValueError):
    pass


class NonHermitianError(ValueError):
    pass


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

    def trace(self) -> GaussianRational:
        t = GaussianRational.ZERO
        for i in range(self.n):
            t = t + self.entries[i][i]
        return t

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def is_hermitian(self) -> bool:
        return self == self.conj_transpose()

    def is_real(self) -> bool:
        return all(e.is_real for row in self.entries for e in row)

    def to_complex(self) -> np.ndarray:
        return np.array([[complex(e) for e in row] for row in self.entries],
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
    """Hermitian splitting A = A1 + i*A2 with A1 = (A+A*)/2, A2 = (A-A*)/(2i)."""
    Astar = A.conj_transpose()
    A1 = (A + Astar).scale(HALF)
    A2 = (A - Astar).scale(INV_2I)
    return HermitianPencil(A1, A2)


def is_normal(A: GaussianRationalMatrix) -> bool:
    """Exact test A* A == A A*."""
    Astar = A.conj_transpose()
    return (Astar @ A) == (A @ Astar)


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
    """Exact characteristic polynomial det(t*I - A) by Faddeev-LeVerrier.

    Returns coefficients [c_0, ..., c_n] with c_n = 1, ascending powers of t.
    """
    n = A.n
    coeffs = [GaussianRational.ZERO] * (n + 1)
    coeffs[n] = GaussianRational.ONE
    M = GaussianRationalMatrix.identity(n)
    for k in range(1, n + 1):
        M = A @ M
        ck = M.trace() * GaussianRational.of(Fraction(-1, k))
        coeffs[n - k] = ck
        if k < n:
            M = M + GaussianRationalMatrix.identity(n).scale(ck)
    return coeffs


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
