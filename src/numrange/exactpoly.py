"""Exact sparse trivariate polynomial arithmetic over big rationals.

Everything here is exact: a `TriPoly` is a rational content times a primitive
integer polynomial, exponents are triples of non-negative ints, and no
operation ever rounds.  Every stage below reads and writes that integer
store; Fraction coefficients (`terms`) are a view for callers that ask.
This module is the elimination engine behind the pencil determinant p(y) and
the dual curve q(x): two determinants, binary-form resultants on Sylvester
matrices and discriminants on Bezout matrices, and GCDs for squarefree parts.
`GaussianRational` is the scalar type of the matrix layer, never a
polynomial coefficient.

The two determinants serve two shapes of matrix.  A Hermitian pencil y0*I +
y1*C1 + y2*C2 of Gaussian integer matrices (`det_pencil`, behind
`pencil_det`), whose determinant is real, is read
off the characteristic polynomials of C1 + j*C2 modulo primes below 2^k,
k = (63 - bit length of n + 1) // 2 (with i -> sqrt(-1) mod P), all taken in
one batched, division-free Berkowitz pass on int64 arrays, interpolated over j
and combined by CRT under a proven coefficient bound.  (n + 1) * (P - 1)^2 <
2^63, so every dot product of n + 1 terms or fewer sums in int64 and is
reduced once.
A matrix of general polynomial entries, the banded Sylvester matrix of
`resultant` or the (d-1)x(d-1) Bezout matrix of the two partials of a form of
degree d in `discriminant_binary`, takes one division-free minor expansion
over the integers that skips zero entries (`_minor_expansion`, behind
`det_poly_matrix`), which beats evaluation and interpolation on a grid of
points there.

The GCD layer runs on integers, after clearing denominators once (Gauss's
lemma).  `repeated_part` and `tri_gcd` take one path (`_line_gcd`): the gcd
from its images on parallel lines modulo 61-bit primes, univariate gcds read
off the terms, interpolated over the lines, combined by CRT and proven by
exact trial division, whose quotients are returned with the gcd: the
squarefree part f / gcd(f, grad f) and the cofactors of a gcd need no second
division.  A first image of degree 0 proves the gcd is 1 at once, and a lift
far below the modulus is tried at once, so a gcd with small coefficients
takes one prime.

The dual curve's candidate q is certified in int64 modulo primes below 2^31
(`_gradient_certificate`): q(grad F) must vanish in F_P[t] modulo F
restricted to a seeded line, for two primes P.  It takes the route of
`det_pencil`, evaluation and interpolation: F and its partials are evaluated
on the line at the nodes t = 0..m-1, m - 1 >= deg q * (deg F - 1), q at their
values, and q(grad F) is interpolated through the cached inverse Vandermonde
matrix of the nodes (built in O(m^2)) and reduced modulo the monic
restriction of F; each int64 product of residues is reduced before it is
summed.

Monomial order is graded lexicographic with var0 > var1 > var2 throughout,
including the canonical text format.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "GaussianRational",
    "TriPoly",
    "BinaryForm",
    "VariableMismatchError",
    "NonSquareMatrixError",
    "ZeroPolynomialError",
    "ExactDivisionError",
    "PolyParseError",
    "det_poly_matrix",
    "det_pencil",
    "resultant",
    "discriminant_binary",
    "tri_gcd",
    "repeated_part",
    "gcd_squarefree",
    "parse_poly",
]

Expo = tuple[int, int, int]


class VariableMismatchError(ValueError):
    """Operands carry different variable triples."""


class NonSquareMatrixError(ValueError):
    pass


class ZeroPolynomialError(ValueError):
    pass


class ExactDivisionError(ArithmeticError):
    """A division that was supposed to be exact left a remainder."""


class PolyParseError(ValueError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i): re + i*im with exact rational parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(_frac(re), _frac(im))

    def __add__(self, other):
        other = _gauss(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _gauss(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _gauss(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _gauss(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _gauss(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return _gauss(other) / self

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


def _gauss(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(_frac(x), Fraction(0))
    raise TypeError(f"expected Gaussian rational, got {type(x).__name__}")


GaussianRational.ZERO = GaussianRational(Fraction(0), Fraction(0))
GaussianRational.ONE = GaussianRational(Fraction(1), Fraction(0))
GaussianRational.I = GaussianRational(Fraction(0), Fraction(1))


def _grlex(e: Expo):
    return (e[0] + e[1] + e[2], e)


def _three(vars) -> tuple:
    vs = tuple(vars)
    if len(vs) != 3:
        raise ValueError("TriPoly needs exactly three variable names")
    return vs


def _split_content(ints: dict, scale: Fraction | int) -> tuple[Fraction | int, IntPoly]:
    """(content, primitive) with scale * ints = content * primitive, the
    primitive part's zeros dropped and its grlex lead positive."""
    if not any(ints.values()):
        return Fraction(0), {}
    g = math.gcd(*ints.values())
    if ints[max((e for e, v in ints.items() if v), key=_grlex)] < 0:
        g = -g
    return scale * g, {e: v // g for e, v in ints.items() if v}


def _fill(f: "TriPoly", vars: tuple, content: Fraction, ints: IntPoly) -> None:
    put = object.__setattr__
    put(f, "vars", vars)
    put(f, "content", content)
    put(f, "ints", ints)
    put(f, "_terms", None)
    put(f, "_hash", None)
    put(f, "_sorted", None)


class TriPoly:
    """Sparse trivariate polynomial over Q; immutable after construction.

    The store is `content` times `ints`: `ints` maps exponent triples to the
    nonzero int coefficients of a primitive polynomial (content 1) with a
    positive grlex lead, and `content` is a nonzero Fraction; the zero
    polynomial is Fraction(0) times {}.  The pair is unique, so `==` and the
    hash read it, and `primitive`, `rational_content`, `-` and a scalar
    multiple are O(1).  `terms`, the map from exponent triples to nonzero
    Fraction coefficients, is a view built on first access.  The constructor
    takes int or Fraction coefficients; any other type (GaussianRational
    included) raises TypeError.
    """

    __slots__ = ("vars", "content", "ints", "_terms", "_hash", "_sorted")

    def __init__(self, vars: Sequence[str], terms: dict | None = None):
        vs = _three(vars)
        clean: dict[Expo, Fraction] = {}
        for e, c in (terms or {}).items():
            c = _frac(c)
            if not c:
                continue
            e = (int(e[0]), int(e[1]), int(e[2]))
            if min(e) < 0:
                raise ValueError("negative exponent")
            clean[e] = c
        L = math.lcm(*(c.denominator for c in clean.values()))
        _fill(self, vs, *_split_content(
            {e: c.numerator * (L // c.denominator) for e, c in clean.items()}, Fraction(1, L)))

    @classmethod
    def _of(cls, vars: tuple, content: Fraction, ints: IntPoly) -> "TriPoly":
        """content * ints for a store already in normal form (see the class)."""
        f = object.__new__(cls)
        _fill(f, vars, content, ints)
        return f

    @classmethod
    def _from_ints(cls, vars: tuple, ints: dict, scale: Fraction) -> "TriPoly":
        """scale * ints for any int terms (zeros are dropped)."""
        return cls._of(vars, *_split_content(ints, scale))

    def __setattr__(self, *a):
        raise AttributeError("TriPoly is immutable")

    @property
    def terms(self) -> dict[Expo, Fraction]:
        t = self._terms
        if t is None:
            t = self._term_view()
            object.__setattr__(self, "_terms", t)
        return t

    def _term_view(self) -> dict[Expo, Fraction]:
        c = self.content
        return {e: c * v for e, v in self.ints.items()}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, vars) -> "TriPoly":
        return cls(vars, {})

    @classmethod
    def constant(cls, c, vars) -> "TriPoly":
        return cls(vars, {(0, 0, 0): c})

    @classmethod
    def variable(cls, i: int, vars) -> "TriPoly":
        e = [0, 0, 0]
        e[i] = 1
        return cls(vars, {tuple(e): Fraction(1)})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.ints

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self.ints)

    def total_degree(self) -> int:
        return max(map(sum, self.ints), default=-1)

    def degree_in(self, i: int) -> int:
        return max((e[i] for e in self.ints), default=-1)

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.ints))) <= 1

    def sorted_terms(self) -> tuple[tuple[Expo, Fraction], ...]:
        """(exponent, coefficient) pairs in descending graded lex order, the
        order of `to_text`; built from the store once per polynomial."""
        items = self._sorted
        if items is None:
            c = self.content
            items = tuple((e, c * v) for e, v in
                          sorted(self.ints.items(), key=lambda t: _grlex(t[0]), reverse=True))
            object.__setattr__(self, "_sorted", items)
        return items

    def _check_vars(self, other: "TriPoly"):
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"variable mismatch: {self.vars} vs {other.vars}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TriPoly):
            other = TriPoly.constant(other, self.vars)
        self._check_vars(other)
        if not other.ints:
            return self
        if not self.ints:
            return other
        a, b = self.content, other.content
        L = math.lcm(a.denominator, b.denominator)
        ka, kb = a.numerator * (L // a.denominator), b.numerator * (L // b.denominator)
        out = {e: ka * v for e, v in self.ints.items()}
        for e, v in other.ints.items():
            out[e] = out.get(e, 0) + kb * v
        return TriPoly._from_ints(self.vars, out, Fraction(1, L))

    def __sub__(self, other):
        if not isinstance(other, TriPoly):
            other = TriPoly.constant(other, self.vars)
        return self + (-other)

    def __neg__(self):
        return TriPoly._of(self.vars, -self.content, self.ints)

    def __mul__(self, other):
        if not isinstance(other, TriPoly):
            other = _frac(other)
            if not other or not self.ints:
                return TriPoly.zero(self.vars)
            return TriPoly._of(self.vars, self.content * other, self.ints)
        self._check_vars(other)
        if not self.ints or not other.ints:
            return TriPoly.zero(self.vars)
        # Gauss's lemma: a product of primitive polynomials is primitive, and
        # its grlex lead is the product of the leads
        B = self.total_degree() + other.total_degree() + 1
        acc: dict = {}
        _addmul(acc, _pack(self.ints, B, 1), _pack(other.ints, B, 1), False)
        return TriPoly._of(self.vars, self.content * other.content, _unpack(_clean(acc), B))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = TriPoly.constant(1, self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if not isinstance(other, TriPoly):
            return NotImplemented
        return (self.vars == other.vars and self.content == other.content
                and self.ints == other.ints)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.vars, self.content, frozenset(self.ints.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus / evaluation ----------------------------------------------

    def partial(self, i: int) -> "TriPoly":
        return TriPoly._from_ints(self.vars, _partial(self.ints, i), self.content)

    def eval(self, point) -> Fraction | float | complex:
        """Evaluate at a 3-point; exact for Fraction coordinates."""
        p0, p1, p2 = point
        total = None
        for (a, b, c), coef in self.terms.items():
            v = coef
            if a:
                v = v * p0 ** a
            if b:
                v = v * p1 ** b
            if c:
                v = v * p2 ** c
            total = v if total is None else total + v
        if total is None:
            exact = all(isinstance(x, (int, Fraction)) for x in point)
            return Fraction(0) if exact else 0.0
        return total

    # -- exact division / normalization ---------------------------------------

    def divexact(self, other: "TriPoly") -> "TriPoly":
        """Exact quotient self/other; raises ExactDivisionError otherwise.

        With self = a*F and other = b*G for the stores F and G, the quotient
        is (a/b) * F/G, and F/G is primitive with a positive lead whenever it
        exists (Gauss's lemma), so the division runs on the stores.
        """
        self._check_vars(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return TriPoly.zero(self.vars)
        return TriPoly._of(self.vars, self.content / other.content,
                           _idivexact(self.ints, other.ints))

    def rational_content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive; 0 for the zero polynomial."""
        return abs(self.content)

    def primitive(self) -> "TriPoly":
        """Primitive form: integer coefficients, content 1, positive grlex lead."""
        if self.is_zero() or self.content == 1:
            return self
        return TriPoly._of(self.vars, Fraction(1), self.ints)

    # -- text ------------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text: graded-lex descending terms, explicit * and ^."""
        if not self.ints:
            return "0"
        c = self.content
        scale = c.numerator if c.denominator == 1 else c  # int content: no Fraction per term
        terms = ((e, scale * v) for e, v in
                 sorted(self.ints.items(), key=lambda t: _grlex(t[0]), reverse=True))
        parts = []
        for e, c in terms:
            mono = []
            for name, k in zip(self.vars, e):
                if k == 1:
                    mono.append(name)
                elif k > 1:
                    mono.append(f"{name}^{k}")
            neg = c < 0
            ac = -c if neg else c
            if mono and ac == 1:
                body = "*".join(mono)
            elif mono:
                body = f"{ac}*" + "*".join(mono)
            else:
                body = str(ac)
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    __str__ = to_text

    def __repr__(self):
        return f"TriPoly({self.vars}, {self.to_text()})"


def parse_poly(text: str, vars: Sequence[str]) -> TriPoly:
    """Parse the canonical polynomial text format back into a TriPoly."""
    vs = tuple(vars)
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial text")
    if s == "0":
        return TriPoly.zero(vs)
    # with a sign before the first term, split into [sign, term, sign, term, ...];
    # a doubled, dangling or lone sign leaves a blank term
    pieces = [p.strip() for p in re.split(r"([+-])", s if s[0] in "+-" else "+" + s)][1:]
    terms: dict[Expo, Fraction] = {}
    for sgn, tok in zip(pieces[::2], pieces[1::2]):
        if not tok:
            raise PolyParseError(f"sign {sgn!r} without a term in {s!r}")
        sign = -1 if sgn == "-" else 1
        coef = Fraction(1)
        expo = [0, 0, 0]
        for factor in tok.split("*"):
            factor = factor.strip()
            if not factor:
                raise PolyParseError(f"malformed term {tok!r}")
            if re.fullmatch(r"\d+(/\d+)?", factor):
                try:
                    coef *= Fraction(factor)
                except ZeroDivisionError:
                    raise PolyParseError(f"zero denominator in {tok!r}") from None
                continue
            m = re.fullmatch(r"([A-Za-z_]\w*)(?:\^(\d+))?", factor)
            if not m:
                raise PolyParseError(f"malformed factor {factor!r} in {tok!r}")
            name, k = m.group(1), int(m.group(2) or 1)
            if name not in vs:
                raise PolyParseError(f"unknown variable {name!r} (expected {vs})")
            expo[vs.index(name)] += k
        e = tuple(expo)
        terms[e] = terms.get(e, Fraction(0)) + sign * coef
    return TriPoly(vs, terms)


# -- determinants -------------------------------------------------------------


def _pack(f: IntPoly, B: int, k: int) -> dict[int, int]:
    """k*f with each exponent (a, b, c) packed into the int
    (((a + b + c)*B + a)*B + b)*B + c, which orders as graded lex does.  Keys
    add as exponents do while every sum of degrees stays below B."""
    return {((e[0] + e[1] + e[2]) * B + e[0]) * B * B + e[1] * B + e[2]: k * v
            for e, v in f.items()}


def _exponents(key: int, B: int) -> Expo:
    """The exponent triple of a `_pack` key."""
    key, c = divmod(key, B)
    key, b = divmod(key, B)
    return key % B, b, c


def _unpack(f: dict[int, int], B: int) -> IntPoly:
    return {_exponents(key, B): v for key, v in f.items()}


def _addmul(acc: dict, f: dict, g: dict, negate: bool) -> None:
    """acc += (-f if negate else f) * g, on packed term dicts; zeros may remain."""
    get = acc.get
    for ef, cf in f.items():
        if negate:
            cf = -cf
        for eg, cg in g.items():
            k = ef + eg
            acc[k] = get(k, 0) + cf * cg


def _minor_expansion(rows: list[list[dict]]) -> dict:
    """Determinant of a square matrix of packed integer term dicts (`_pack`,
    {} for a zero entry), as a packed term dict.

    Laplace's expansion along the rows, bottom up: the minors on the last k
    rows are kept in a dict keyed by their column bitmask, and each one is
    built from the minors on the last k-1 rows, so every minor is computed
    once (at most n*2^(n-1) products).  It never divides, and it skips zero
    entries and zero minors.
    """
    minors = {1 << j: a for j, a in enumerate(rows[-1]) if a}
    for row in reversed(rows[:-1]):
        sums: dict[int, dict] = {}
        for mask, c in minors.items():
            # sign of entry j in the expansion: parity of the columns of mask left of j
            negate = False
            for j, a in enumerate(row):
                bit = 1 << j
                if mask & bit:
                    negate = not negate
                elif a:
                    _addmul(sums.setdefault(mask | bit, {}), a, c, negate)
        minors = {}
        for mask, acc in sums.items():
            acc = _clean(acc)
            if acc:
                minors[mask] = acc
    return minors.get((1 << len(rows)) - 1, {})


def det_poly_matrix(M: Sequence[Sequence[TriPoly]]) -> TriPoly:
    """Exact determinant of a square matrix of TriPoly over one variable triple.

    This is the determinant of the Sylvester matrices behind `resultant`;
    `discriminant_binary` takes the same expansion (`_minor_expansion`) on a
    Bezout matrix, and pencils take `det_pencil`, which reads the determinant
    off characteristic polynomials modulo primes.  Here the entries are
    general polynomials in sparse or banded matrices, where a minor expansion
    that skips zeros beats evaluation and interpolation.

    Each row is scaled once by the lcm of its entries' content denominators,
    so the expansion runs on integer term dicts whose monomials are packed
    into single ints (`_pack`): one int add per product of two terms.  The
    result is unpacked and divided by the product of the row scales at the
    end.
    """
    rows = [list(r) for r in M]
    n = len(rows)
    if n == 0:
        raise NonSquareMatrixError("empty matrix")
    for r in rows:
        if len(r) != n:
            raise NonSquareMatrixError(f"matrix is {n}x{len(r)}")
    vars = rows[0][0].vars
    for r in rows:
        for p in r:
            if p.vars != vars:
                raise VariableMismatchError("matrix entries use different variable triples")
    # every exponent of every minor is at most the sum of the rows' degrees
    B = 1 + sum(max(0, *(p.total_degree() for p in row)) for row in rows)
    denom = 1
    packed = []  # row i as packed int term dicts, times its scale
    for row in rows:
        L = math.lcm(*(p.content.denominator for p in row))
        denom *= L
        packed.append([_pack(p.ints, B, p.content.numerator * (L // p.content.denominator))
                       for p in row])
    return TriPoly._from_ints(vars, _unpack(_minor_expansion(packed), B), Fraction(1, denom))


# -- binary forms, resultants, discriminants -----------------------------------


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous binary form of formal degree d in an eliminated pair (z, w).

    coeffs[i] is the TriPoly coefficient of z^(d-i) * w^i; leading and/or
    trailing entries may be zero polynomials (the formal degree is what the
    Sylvester and Bezout constructions use).
    """

    degree: int
    coeffs: tuple[TriPoly, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("negative degree")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("need degree+1 coefficients")
        vars = self.coeffs[0].vars
        for c in self.coeffs:
            if c.vars != vars:
                raise VariableMismatchError("binary form coefficients mix variable triples")

    @property
    def vars(self):
        return self.coeffs[0].vars

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)


def _sylvester(f: BinaryForm, g: BinaryForm) -> list[list[TriPoly]]:
    """Sylvester matrix: deg(g) shifted rows of f's coefficients, then deg(f) of g's."""
    m, n = f.degree, g.degree
    size = m + n
    zero = TriPoly.zero(f.vars)
    M = [[zero] * size for _ in range(size)]
    for r in range(n):
        for i, c in enumerate(f.coeffs):
            M[r][r + i] = c
    for r in range(m):
        for i, c in enumerate(g.coeffs):
            M[n + r][r + i] = c
    return M


def resultant(f: BinaryForm, g: BinaryForm) -> TriPoly:
    """Sylvester resultant of two binary forms.

    Row order: the coefficients of f fill the first deg(g) rows (descending
    shifts), then g's fill the rest; this fixes the sign.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("resultant of a zero form")
    if f.vars != g.vars:
        raise VariableMismatchError("resultant operands use different variable triples")
    if f.degree < 1 or g.degree < 1:
        raise ValueError("resultant needs degrees >= 1")
    return det_poly_matrix(_sylvester(f, g))


def discriminant_binary(g: BinaryForm) -> TriPoly:
    """Discriminant of a binary form: (-1)^(d(d-1)/2) * res(g, dg/dz) / lc.

    Vanishes exactly when g has a repeated linear factor; this is the
    tangency detector used in dual-curve elimination.  It is computed as

        disc(g) = det Bez(g_z, g_w) / ((-1)^(d+1) * d^(d-2)),

    where g_z, g_w are the partials of g, read at t = z/w as polynomials
    f, h in t of formal degree d - 1 (constant term first), and Bez(f, h) is
    their (d-1)x(d-1) Bezout matrix, B_ij = sum_k (f_{j+k+1} h_{i-k} -
    f_{i-k} h_{j+k+1}), k = 0..min(i, d-2-j).  Both steps are identities in
    the coefficients: d^(d-2) * disc(g) = +-res(g_z, g_w), and the resultant
    of two forms of one degree is the determinant of their Bezout matrix
    (Gelfand, Kapranov & Zelevinsky, "Discriminants, Resultants and
    Multidimensional Determinants", 1994, ch. 12).  So it holds for every
    form, zero inner coefficients included, and equals the Sylvester formula
    above term for term at half the matrix size.  The entries are built on
    packed integer term dicts (`_pack`) after clearing the coefficients by
    one lcm L, and L^(2d-2) is divided out after `_minor_expansion`.
    """
    if g.is_zero():
        raise ZeroPolynomialError("discriminant of the zero form")
    if g.degree < 2:
        raise ValueError("discriminant needs degree >= 2")
    if g.coeffs[0].is_zero():
        raise ZeroPolynomialError("leading coefficient vanishes; discriminant normalization undefined")
    d, m = g.degree, g.degree - 1
    L = math.lcm(*(c.content.denominator for c in g.coeffs))
    # the determinant has degree at most 2*m times the largest coefficient degree
    B = 1 + 2 * m * max(c.total_degree() for c in g.coeffs)
    C = [_pack(c.ints, B, c.content.numerator * (L // c.content.denominator)) for c in g.coeffs]
    f = [{e: (k + 1) * v for e, v in C[m - k].items()} for k in range(d)]  # g_z(t, 1)
    h = [{e: (d - k) * v for e, v in C[d - k].items()} for k in range(d)]  # g_w(t, 1)
    bez: list[list[dict]] = [[{}] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            acc: dict = {}
            for k in range(min(i, m - 1 - j) + 1):
                _addmul(acc, f[j + k + 1], h[i - k], False)
                _addmul(acc, f[i - k], h[j + k + 1], True)
            bez[i][j] = bez[j][i] = _clean(acc)  # a Bezout matrix is symmetric
    scale = Fraction(-1 if d % 2 == 0 else 1, d ** (d - 2) * L ** (2 * m))
    return TriPoly._from_ints(g.vars, _unpack(_minor_expansion(bez), B), scale)


# -- integer polynomial kernels -------------------------------------------------
#
# The gcd layer runs on plain term dicts {exponent: int}, the `ints` stores of
# its operands; by Gauss's lemma the gcd of two primitive integer polynomials
# in Z[v] is their gcd in Q[v] up to a unit.

IntPoly = dict  # {Expo: int}, no zero values; {} is the zero polynomial

_ONE: IntPoly = {(0, 0, 0): 1}


def _is_const(f: IntPoly) -> bool:
    return len(f) == 1 and (0, 0, 0) in f


def _partial(f: IntPoly, i: int) -> IntPoly:
    """The derivative of f in variable i, in f's term order."""
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in f.items() if e[i]}


def _clean(acc: dict) -> IntPoly:
    return {e: c for e, c in acc.items() if c}


def _idivexact(f: IntPoly, g: IntPoly) -> IntPoly:
    """Exact quotient f/g in Z[v]; raises ExactDivisionError otherwise.  It
    runs on packed keys (`_pack`), so the grlex lead of a remainder is its
    largest key."""
    B = 1 + max(0, *map(sum, f), *map(sum, g))
    rem, G = _pack(f, B, 1), _pack(g, B, 1)
    glead = max(G)
    gc, gexp = G[glead], _exponents(glead, B)
    q = {}
    while rem:
        flead = max(rem)
        qc, r = divmod(rem[flead], gc)
        if r or any(a < b for a, b in zip(_exponents(flead, B), gexp)):
            raise ExactDivisionError("division is not exact")
        e = flead - glead
        q[e] = qc
        for eg, cg in G.items():
            k = e + eg
            v = rem.get(k, 0) - qc * cg
            if v:
                rem[k] = v
            else:
                del rem[k]
    return _unpack(q, B)


def _iprimitive(f: IntPoly) -> IntPoly:
    """f over its integer content, with a positive grlex lead."""
    return _split_content(f, 1)[1]


def _shear(f: IntPoly, a: int, b: int) -> IntPoly:
    """f(v0 + a*v1, v1, v2 + b*v1), exactly."""
    if not a and not b:
        return f
    out: dict = {}
    for (e0, e1, e2), c in f.items():
        for i in range(e0 + 1):
            ci = c * math.comb(e0, i) * a ** (e0 - i)
            for l in range(e2 + 1):
                v = ci * math.comb(e2, l) * b ** (e2 - l)
                if v:
                    k = (i, e1 + e0 - i + e2 - l, l)
                    out[k] = out.get(k, 0) + v
    return _clean(out)


# -- line images modulo primes ---------------------------------------------------

_P = (1 << 61) - 1  # a Mersenne prime, the first modulus of every computation
_FIRST_NODE = 0  # the line images of `_line_gcd` run through nodes 0, 1, 2, ...
_CERTIFICATE_SEED = 0  # `_gradient_certificate` draws its lines from random.Random(this)
# Caches filled on demand; entries are replaced whole, so threads may share them.
_INVERSES: dict[int, list[int]] = {}  # P -> [0, 1, 1/2, 1/3, ...] mod P
_PRIME_BELOW: dict[int, int] = {}     # P -> the largest prime below P
_SQRT_M1: dict[int, int] = {}         # P = 1 mod 4 -> a square root of -1 mod P
_VANDERMONDE: dict[tuple[int, int], np.ndarray] = {}  # (m, P) -> [j^d]^-1 mod P, j, d < m
_CERTIFICATE_PRIMES = 1 << 31  # `_gradient_certificate` takes the primes below this


def _inverses(P: int, n: int) -> list[int]:
    """1/j mod P for 0 < j < n (at least), by 1/j = -(P // j) / (P mod j)."""
    inv = _INVERSES.get(P, [0, 1])
    if len(inv) < n:
        inv = list(inv)
        for j in range(len(inv), n):
            inv.append(-(P // j) * inv[P % j] % P)
        _INVERSES[P] = inv
    return inv


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases: exact for odd 37 < n < 3.3e24."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def _primes(below: int = _P + 1):
    """The primes below `below` in decreasing order, _P first by default
    (all far above any degree)."""
    P = below
    while True:
        if P not in _PRIME_BELOW:
            _PRIME_BELOW[P] = next(n for n in range(P - 1 - P % 2, 0, -2) if _is_prime(n))
        P = _PRIME_BELOW[P]
        yield P


def _interpolate(xs, ys, P: int) -> list[int]:
    """Coefficients (constant term first) of the polynomial of degree < len(xs) through
    the points (xs[i], ys[i]) mod P, xs increasing; Newton divided differences."""
    n = len(xs)
    inv = _inverses(P, xs[-1] - xs[0] + 1)
    c = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv[xs[i] - xs[i - j]] % P
    r = [c[-1]]
    for k in range(n - 2, -1, -1):  # r <- r*(t - xs[k]) + c[k]
        nxt = [0] + r
        for i, v in enumerate(r):
            nxt[i] -= xs[k] * v
        nxt[0] += c[k]
        r = [v % P for v in nxt]
    return r


def _powers(x: int, d: int, P: int) -> list[int]:
    """[1, x, x^2, ..., x^d] mod P."""
    return list(itertools.accumulate(itertools.repeat(x % P, d), lambda y, z: y * z % P, initial=1))


def _restrict_mod_p(F: IntPoly, u0: int, u2: int, P: int) -> list[int]:
    """Coefficients (constant term first) of F(u0, t, u2) mod P, F restricted
    to the line (u0, 0, u2) + t*(0, 1, 0), read off the terms.  `_line_gcd`
    skips every prime that divides the t^d coefficient F_top(0, 1, 0),
    d = deg F, so the list has degree exactly d."""
    d = max(sum(e) for e in F)
    p0, p2, r = _powers(u0, d, P), _powers(u2, d, P), [0] * (d + 1)
    for (e0, e1, e2), v in F.items():
        r[e1] += v % P * p0[e0] * p2[e2]
    return [v % P for v in r]


def _gcd_mod_p(u: list[int], v: list[int], P: int) -> list[int]:
    """Monic gcd of u and v in F_P[t] (Euclid), constant term first, for u and
    v with nonzero leading coefficients."""
    u, v = list(u), list(v)
    while v:
        inv = pow(v[-1], -1, P)
        while len(u) >= len(v):
            f = u[-1] * inv % P
            shift = len(u) - len(v)
            u[shift:] = [(x - f * y) % P for x, y in zip(u[shift:], v)]
            while u and not u[-1]:
                u.pop()
        u, v = v, u
    inv = pow(u[-1], -1, P)
    return [c * inv % P for c in u]


def _interpolated(image_at, nodes, P: int) -> tuple[dict, int]:
    """Images {key: c} mod P at fresh nodes, interpolated over the nodes:
    ({key + (power of the node,): c}, k).  Only images of k, the lowest degree
    seen, are kept; one of higher degree is unlucky and dropped (Brown).  The
    coefficient under key has degree <= k - sum(key) in the node, so k + 1
    images determine them all."""
    k, pts = None, []
    for x in nodes:
        img, deg = image_at(x)
        if k is None or deg < k:
            k, pts = deg, []
        if deg == k:
            pts.append((x, img))
            if len(pts) > k:
                break
    xs = [x for x, _ in pts]
    out = {}
    for key in sorted(set().union(*(img for _, img in pts))):
        n = k - sum(key) + 1
        for i, c in enumerate(_interpolate(xs[:n], [img.get(key, 0) for _, img in pts[:n]], P)):
            if c:
                out[key + (i,)] = c
    return out, k


def _image_mod_p(ops: list[IntPoly], P: int, nodes, homogeneous: bool) -> tuple[dict, int]:
    """(gcd(ops) mod P up to a scalar, its degree k), from the monic gcd images
    on the lines (u0, 0, u2) + t*(0, 1, 0)."""
    def on_line(u0, u2):
        rs = [_restrict_mod_p(H, u0, u2, P) for H in ops]
        if len(rs) == 1:
            rs.append([i * v % P for i, v in enumerate(rs[0])][1:])
        g = _gcd_mod_p(*rs, P)
        return {(j,): c for j, c in enumerate(g) if c}, len(g) - 1

    def on_plane(u0):
        return _interpolated(lambda u2: on_line(u0, u2), nodes, P)

    if homogeneous:  # the gcd from its values at v0 = 1
        img, k = on_plane(1)
        return {(k - j - l, j, l): c for (j, l), c in img.items()}, k
    img, k = _interpolated(on_plane, nodes, P)
    return {(i, j, l): c for (j, l, i), c in img.items()}, k


def _line_gcd(ops: list[IntPoly], targets: list[IntPoly]) -> tuple[IntPoly, list[IntPoly]]:
    """(C, [T / C for T in targets]): the gcd C of `targets` from images on
    lines modulo primes (Brown 1971; von zur Gathen & Gerhard, *Modern
    Computer Algebra*, ch. 6), primitive with a positive grlex lead, and the
    quotients of its division proof (the targets themselves when C = 1).
    The image on a line is the monic gcd mod P of the restrictions of ops
    (F, G), for gcd(F, G), or of op F and its t-derivative, for the repeated
    part gcd(F, dF/dv0, dF/dv1, dF/dv2).

    The lines share one direction w = (a, 1, b): the first (a, b) in {0..d}^2,
    d the sum of the ops' degrees, where no op's top-degree part vanishes (a
    nonzero polynomial of degree <= d in a and in b cannot vanish on that
    grid).  Primes that divide gamma, the gcd of the ops' tops at w, are
    skipped, so every op restricts with its full degree mod P.  C divides
    every op and, for the repeated part, every partial, so its restriction
    divides every restriction and the t-derivative of F's; and C_top(w)
    divides gamma.  Since C restricts with degree deg C and top coefficient
    C_top(w) != 0 mod P on every line, no image has degree below deg C, and a
    first image of degree 0 returns 1 with no division.  An image of degree
    k = deg C is C(u + t*w) / C_top(w), and gamma times it is the image of one
    integer polynomial gamma / C_top(w) * C.  The ops are sheared so that w is
    (0, 1, 0), and the images are interpolated (`_image_mod_p`) and combined
    by CRT modulo M, the product of the primes so far, until the lift stops
    changing or every lifted coefficient c has 2*bits(c) + 2 < bits(M), so a
    gcd with coefficients below 2^29 takes one prime.  Sheared back and made
    primitive, the candidate is proven by exact division: it divides every
    target, hence C, and its degree, the lowest image degree, is no less than
    deg C.  A candidate whose division fails is dropped, and the CRT goes on;
    a later lift that repeats it is not divided again.

    The loop terminates: for the fixed w, the unlucky nodes are the finitely
    many roots of a nonzero polynomial (a subresultant of the restrictions),
    and any other node is unlucky only modulo the finitely many primes that
    divide its value.  Every prime takes nodes not used before, so a failed
    division is never retried on the same nodes and modulus, and once an
    image of degree k is seen, each lucky prime adds a correct image until
    the lift holds gamma / C_top(w) * C.
    """
    degs = [max(sum(e) for e in H) for H in ops]
    tops = [{e: c for e, c in H.items() if sum(e) == dh} for H, dh in zip(ops, degs)]
    for a, b in itertools.product(range(sum(degs) + 1), repeat=2):
        vals = [sum(c * a ** e[0] * b ** e[2] for e, c in T.items()) for T in tops]
        if all(vals):
            break
    gamma = math.gcd(*vals)
    homogeneous = all(len(T) == len(H) for T, H in zip(tops, ops))
    ops = [_shear(H, a, b) for H in ops]  # now w = (0, 1, 0)
    nodes = itertools.count(_FIRST_NODE)
    k, lift, M, failed = None, {}, 1, None
    for P in _primes():
        if any(v % P == 0 for v in vals):
            continue
        img, kp = _image_mod_p(ops, P, nodes, homogeneous)
        if kp == 0:
            return _ONE, list(targets)
        if k is not None and kp > k:
            continue
        if kp != k:
            k, lift, M = kp, {}, 1
        inv, g = pow(M, -1, P), gamma % P
        new = {}
        for e in lift.keys() | img.keys():
            x = lift.get(e, 0)
            y = x + M * ((img.get(e, 0) * g - x) * inv % P)  # nonzero mod M or P
            new[e] = y - M * P if 2 * y > M * P else y
        M *= P
        # exact division proves the lift; try it once the lift repeats, or once
        # every coefficient is far below M, which a wrong lift seldom is
        if new != failed and (new == lift or
                              2 * max(map(abs, new.values())).bit_length() + 2 < M.bit_length()):
            C = _iprimitive(_shear(new, -a, -b))
            try:
                return C, [_idivexact(T, C) for T in targets]
            except ExactDivisionError:
                failed = new
        lift = new


def _gradient_certificate(F: IntPoly, Q: IntPoly) -> tuple[int, ...]:
    """The two moduli P of passed draws if Q vanishes on the gradient images
    of the curve F = 0, or () once a draw proves that it does not; F is a
    primitive squarefree integer polynomial of degree n >= 1.

    A draw takes the next prime P below 2^31 (`_primes(_CERTIFICATE_PRIMES)`) that
    leaves the top-degree part F_top of F nonzero, and a line y = a + t*b, a
    and b in F_P^3 from a fixed seeded stream, and sets r(t) = F(a + t*b) mod
    P, made monic; a line whose lead F_top(b) is 0 mod P (probability at most
    n/P) is replaced by the next line.  It computes s = Q(G_0, G_1, G_2) in
    F_P[t]/(r), G_i = dF/dy_i(a + t*b), and passes iff s = 0.

    The route is evaluation and interpolation.  S(t) = Q(G_0, G_1, G_2) has
    degree at most deg Q * (n - 1), so with m = max(deg Q * (n - 1), n) + 1
    F and its partials are evaluated at the nodes t = 0..m-1 in one batched
    int64 pass; r is interpolated from F's first n + 1 node values, Q is
    evaluated at the node values of the G_i through power tables, S is
    interpolated through the cached Vandermonde inverse of size m, and s is
    the remainder of S modulo the monic r.  Both draws run as one int64
    batch, where every product of two residues, below 2^62, is reduced
    before it is summed (`_dotmod`); the remainder runs on Python ints.

    A true Q is never refused.  If Q vanishes on the dual of every component
    of F, then on each irreducible factor f of F the gradient of F is a
    multiple of that of f, so f divides Q(grad F); F is squarefree, so F
    divides Q(grad F) over Z (Gauss's lemma).  y -> a + t*b followed by
    reduction mod r is a ring map Z[y] -> F_P[t]/(r) that sends F to 0 and
    Q(grad F) to s, so s = 0 whenever the lead of r is nonzero mod P.

    A false Q is accepted with probability at most ((N + 1)/P)^2 < 2^-40 for
    n <= 7, where N = n^2 (n - 1)^2.  If F does not divide S = Q(grad F),
    some irreducible factor f of F, of degree m, shares no component with S,
    of degree at most deg Q * (n - 1) <= n(n - 1)^2 (`dual_curve_exact`
    checks deg Q <= n(n - 1)), so by Bezout they meet in at most N points.
    Modulo a prime that keeps f coprime to S (all but the finitely many that
    divide a resultant of the two), a passing line meets f = 0, as f restricts
    with degree m >= 1, only at points of S = 0, so it passes through one of
    those N points.  A uniform pair (a, b) does so with probability at most
    (N + 1)/P (Schwartz 1980; Zippel 1979), the 1 covering the redrawn lines
    and a dependent pair; P > 2^30.9, and the two draws take independent
    lines.  A nonzero s, in contrast, proves that Q is wrong.
    """
    n, dq = max(map(sum, F)), max(map(sum, Q))
    m = max(dq * (n - 1), n) + 1  # the nodes that fix S(t) and r(t)
    polys = [F] + [_partial(F, i) for i in range(3)]
    exps = np.array([e for H in polys for e in H], dtype=np.intp).T
    owner = (np.repeat(np.arange(4), [len(H) for H in polys]) == np.arange(4)[:, None]).astype(np.int64)
    top = [c for e, c in F.items() if sum(e) == n]
    primes = list(itertools.islice((P for P in _primes(_CERTIFICATE_PRIMES)
                                    if any(c % P for c in top)), 2))
    P = np.array(primes, dtype=np.int64)[:, None]
    P3 = P[:, :, None]
    W = np.array([_vandermonde_inverse(n + 1, prime) for prime in primes])
    coefs = np.array([[c % prime for H in polys for c in H.values()] for prime in primes], dtype=np.int64)
    rng = random.Random(_CERTIFICATE_SEED)
    while True:
        ab = np.array([[rng.randrange(prime) for _ in range(6)] for prime in primes], dtype=np.int64)
        y = np.fmod(ab[:, :3, None] + ab[:, 3:, None] * np.arange(m), P3)  # (draw, var, node)
        values = np.fmod(owner @ _monomials_mod(coefs, exps, _power_table(y, n, P3), P3), P3)
        r = _dotmod(W, values[:, :1, :n + 1], P)  # F(a + t*b), constant term first
        if r[:, n].all():
            break
    qexps = np.array(list(Q), dtype=np.intp).T
    qc = np.array([[c % prime for c in Q.values()] for prime in primes], dtype=np.int64)
    G = _power_table(values[:, 1:], dq, P3)
    S = np.fmod(_monomials_mod(qc, qexps, G, P3).sum(axis=1), P)  # Q(G) at the nodes
    W = np.array([_vandermonde_inverse(m, prime) for prime in primes])
    S = _dotmod(W, S[:, None], P)  # constant term first
    for s, rp, prime in zip(S.tolist(), r.tolist(), primes):  # s <- S mod the monic r
        inv = -pow(rp[n], -1, prime)
        rp = [c * inv % prime for c in rp[:n]]  # t^n = rp(t) mod r
        for k in range(m - 1, n - 1, -1):  # each entry gains at most n products, unreduced
            c = s[k] % prime
            if c:
                for i, v in enumerate(rp, k - n):
                    s[i] += c * v
        if any(x % prime for x in s[:n]):
            return ()
    return tuple(primes)


def _power_table(x: np.ndarray, d: int, P3: np.ndarray) -> np.ndarray:
    """[draw, var, k, node] = x[draw, var, node]^k mod P, k = 0..d."""
    pw = np.ones(x.shape[:2] + (d + 1,) + x.shape[2:], dtype=np.int64)
    for k in range(1, d + 1):
        pw[:, :, k] = np.fmod(pw[:, :, k - 1] * x, P3)
    return pw


def _monomials_mod(coefs: np.ndarray, exps: np.ndarray, pw: np.ndarray, P: np.ndarray) -> np.ndarray:
    """[draw, ..., node] = coefs[draw, ...] times the monomial exps[:, ...] at
    the node, mod P (shaped like the result), from the power table `pw` of
    the three variables."""
    terms = coefs[..., None]
    for v in range(3):
        terms = np.fmod(terms * pw[:, v, exps[v]], P)
    return terms


# -- pencil determinants modulo primes --------------------------------------------


def _sqrt_minus_one(P: int) -> int:
    """A square root of -1 mod a prime P = 1 (mod 4): c^((P-1)/4) for the
    first quadratic non-residue c."""
    s = _SQRT_M1.get(P)
    if s is None:
        s = next(x for x in (pow(c, (P - 1) // 4, P) for c in itertools.count(2)) if x * x % P == P - 1)
        _SQRT_M1[P] = s
    return s


def _vandermonde_inverse(m: int, P: int) -> np.ndarray:
    """The inverse mod P >= m of the Vandermonde matrix [j^d] of the nodes
    j = 0..m-1 (row j, column d): its column j holds the coefficients of the
    polynomial of degree < m that is 1 at node j and 0 at the others.

    That polynomial is M(t) / (t - j) over M'(j) = (-1)^(m-1-j) j! (m-1-j)!,
    M(t) = (t - 0)(t - 1)...(t - (m-1)), and synthetic division by every
    t - j at once builds all the quotients in O(m^2) (von zur Gathen &
    Gerhard, *Modern Computer Algebra*, ch. 5).  Every int64 product is a
    residue times a node, below m * P, or of two residues, below P^2 < 2^63.
    """
    W = _VANDERMONDE.get((m, P))
    if W is None:
        M = np.zeros(m + 1, dtype=np.int64)  # M(t), constant term first
        M[0] = 1
        for k in range(m):  # M <- M * (t - k)
            M[1:] = (M[:-1] - k * M[1:]) % P
            M[0] = -k * M[0] % P
        j = np.arange(m, dtype=np.int64)
        W = np.empty((m, m), dtype=np.int64)  # W[d, j]: coefficient of t^d in M / (t - j)
        W[m - 1] = 1
        for d in range(m - 1, 0, -1):
            W[d - 1] = (M[d] + j * W[d]) % P
        fact = list(itertools.accumulate(range(1, m), lambda a, b: a * b % P, initial=1))
        den = [(-1) ** (m - 1 - i) * fact[i] * fact[m - 1 - i] for i in range(m)]
        W = W * np.array([pow(x, -1, P) for x in den], dtype=np.int64) % P
        _VANDERMONDE[(m, P)] = W
    return W


def _dotmod(a, b, P):
    """sum(a * b) mod P over the last axis, for int64 residues in [0, P) and
    moduli P < 2^31 shaped like the result: each product, below 2^62, is
    reduced before the sum, and fewer than 2^32 residues add up below 2^63."""
    return np.fmod(np.add.reduce(np.fmod(a * b, P[..., None]), axis=-1), P)


def _pencil_primes_below(n: int) -> int:
    """2^k, k = (63 - bit_length(n + 1)) // 2: `det_pencil` of an n x n pencil
    takes its primes below this, so n + 1 products of residues sum in int64."""
    return 1 << (63 - (n + 1).bit_length()) // 2


def _matvec_mod(M, v, P):
    """(M @ v) mod P for batches of int64 matrices M, vectors v on the last
    axis and moduli P shaped like the result: one int64 sum of products per
    row, then one reduction.  The caller bounds each sum below 2^63."""
    return np.fmod((M @ v[..., None])[..., 0], P)


def _charpolys_mod(H: np.ndarray, P: np.ndarray) -> np.ndarray:
    """E[b, k] = e_k(H[b]) mod P[b], the sum of the principal k-minors, so
    that det(x*I + H[b]) = sum_k E[b, k] * x^(n-k), for a batch H of n x n
    int64 matrices with entries in [0, P[b]), n * (P[b] - 1)^2 < 2^63.

    Berkowitz's division-free recurrence (Inf. Process. Lett. 18, 1984) runs
    on the whole batch at once.  With A the leading r x r block, R and C the
    rest of its row and column r, and a = H[r, r], the coefficients of
    det(x*I + H_(r+1)) are the product of the lower-triangular Toeplitz
    matrix with first column (1, a, -R C, R A C, -R A^2 C, ...) and those of
    det(x*I + A).  No pivot and no inverse is taken, so no modulus is bad.
    Every dot product has at most n terms, residues in [0, P), so it sums in
    int64 before its one reduction (`_matvec_mod`).
    """
    b, n = H.shape[:2]
    Pv = P[:, None]
    windows = np.add.outer(np.arange(n + 1), np.arange(n))  # windows[i, m] = i + m
    p = np.ones((b, 2), dtype=np.int64)
    p[:, 1] = H[:, 0, 0]
    for r in range(1, n):
        K = np.empty((b, r, r), dtype=np.int64)  # K[:, k] = A^k C for k < r
        K[:, 0] = H[:, :r, r]
        for k in range(1, r):
            K[:, k] = _matvec_mod(H[:, :r, :r], K[:, k - 1], Pv)
        t = np.zeros((b, 2 * r + 2), dtype=np.int64)  # r zeros, then the Toeplitz column
        t[:, r], t[:, r + 1] = 1, H[:, r, r]
        u = _matvec_mod(K, H[:, r, :r], Pv)  # R A^k C
        t[:, r + 2:] = u
        t[:, r + 2::2] = np.fmod(Pv - u[:, ::2], Pv)
        # p <- (t * p)[:r + 2]: window i of t against p reversed
        p = _matvec_mod(t[:, windows[:r + 2, :r + 1]], p[:, ::-1], Pv)
    return p


def det_pencil(C1, C2) -> IntPoly:
    """The int terms {(a, b, c): v} over (y0, y1, y2) of the real determinant
    Q = det(y0*I + y1*C1 + y2*C2) of a Hermitian pencil of Gaussian integer
    matrices.

    Each matrix is a pair (re, im) of n x n int rows, lists or tuples, with re
    symmetric and im antisymmetric; the caller checks that (`pencil_det`
    passes Hermitian parts only).  Q is real at every real y, so its
    coefficients are integers.  Because y0 enters only as y0*I,
    Q(y0, t, j*t) = sum_k e_k(C1 + j*C2) * y0^(n-k) * t^k, with e_k the sum of
    the principal k-minors: the degree-k part of Q, a polynomial of degree
    <= k in j, is fixed by e_k(C1 + j*C2) at the nodes j = 0..n (at j = 0
    alone when C2 = 0).  All primes are picked up front, C1 and C2 are reduced
    once per prime, the e_k of every (prime, node) matrix come from one
    batched Berkowitz pass (`_charpolys_mod`), and a cached Vandermonde
    inverse per (nodes, prime) interpolates them over j.  A pencil with a
    nonzero imaginary part takes only primes P = 1 (mod 4) and is mapped to
    F_P by i -> s, s^2 = -1, which gives Re Q + s*Im Q = Q.  The primes are
    combined by CRT in the symmetric range.

    The result is exact.  With ||z|| = |Re z| + |Im z| summed over the
    coefficients of a polynomial over Z[i], a submultiplicative norm, every
    coefficient of Q is at most ||Q|| <= perm(||M_ij||) <= prod_i sum_j
    ||M_ij|| = B, M_ij = [i = j]*y0 + C1_ij*y1 + C2_ij*y2 the entries of the
    pencil, since the permanent of a non-negative matrix is at most the
    product of its row sums.  The primes below 2^k, k = (63 - b) // 2 with b
    the bit length of n + 1 (`_pencil_primes_below`), largest first, are taken
    until their product exceeds 2B, never fewer, so the symmetric residues are
    the coefficients.  Every prime is good: the reduction Z[i] -> F_P is a
    ring map that commutes with the determinant, and P > n keeps the nodes j
    distinct (the primes taken lie just below 2^k, and k >= 22 for n <= 2^17).

    No int64 arithmetic overflows, for every n.  Residues lie in [0, P), so a
    product of two is at most (P - 1)^2 < 2^(2k), and n + 1 < 2^b, so a sum of
    at most n + 1 such products is below 2^(2k + b) <= 2^63.  Every dot
    product here sums that few: the Berkowitz steps of `_charpolys_mod` at
    most n, and the Vandermonde interpolation over the nodes n + 1.  Each is
    therefore one int64 sum of products and one reduction mod P.  The other
    sums are a residue plus a residue times s, below P^2, or plus a residue
    times a node j <= n, below (n + 1) * P.  This gives k = 30 for n <= 6, 29
    for n <= 30 and 28 for n <= 62.
    """
    (r1, i1), (r2, i2) = C1, C2
    n = len(r1)
    nodes = n + 1 if any(map(any, (*r2, *i2))) else 1
    real = not any(map(any, (*i1, *i2)))
    bound = 2 * math.prod(1 + sum(abs(a) + abs(b) + abs(c) + abs(d) for a, b, c, d in zip(*rows))
                          for rows in zip(r1, i1, r2, i2))
    primes, M = [], 1
    for Q in _primes(_pencil_primes_below(n)):
        if real or Q % 4 == 1:
            primes.append(Q)
            M *= Q
            if M > bound:
                break
    P = np.array(primes, dtype=np.int64)
    P3, P4 = P[:, None, None], P[:, None, None, None]
    parts = [r1, r2] if real else [r1, r2, i1, i2]
    X = np.array(parts, dtype=object) % P.astype(object)[:, None, None, None]
    X = X.astype(np.int64)  # (prime, part, row, column)
    if not real:  # C1, C2 mod P with i -> s
        s = np.array([_sqrt_minus_one(Q) for Q in primes], dtype=np.int64)[:, None, None, None]
        X = np.fmod(X[:, :2] + X[:, 2:] * s, P4)
    H = X[:, :1]
    if nodes > 1:  # C1 + j*C2 at j = 0..n
        H = np.fmod(H + np.arange(nodes)[:, None, None] * X[:, 1:], P4)
    cps = _charpolys_mod(H.reshape(-1, n, n), np.repeat(P, nodes))
    cps = cps.reshape(len(primes), nodes, n + 1)  # e_k(C1 + j*C2) at [prime, j, k]
    if nodes > 1:  # the coefficient of j^c in e_k, at [prime, c, k]
        V = np.array([_vandermonde_inverse(nodes, Q) for Q in primes])
        cps = np.fmod(V @ cps, P3)
    ks, cs = zip(*((k, c) for k in range(n + 1) for c in range(min(k + 1, nodes))))  # prime(n-k, k-c, c)
    weights = [M // Q * pow(M // Q, -1, Q) for Q in primes]  # CRT: x = sum(x_Q * weight_Q) mod M
    out = {}
    for k, c, col in zip(ks, cs, cps[:, cs, ks].T.tolist()):
        v = sum(map(operator.mul, col, weights)) % M
        v = v - M if 2 * v > M else v
        if v:
            out[(n - k, k - c, c)] = v
    return out


# -- gcds and squarefree parts ----------------------------------------------------


def tri_gcd(f: TriPoly, g: TriPoly) -> TriPoly:
    """GCD over Q[v0,v1,v2], primitive-normalized, from line images modulo
    primes (`_line_gcd`)."""
    if f.vars != g.vars:
        raise VariableMismatchError("gcd operands use different variable triples")
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    if f.is_constant() or g.is_constant():
        return TriPoly.constant(1, f.vars)
    return _cofactors(f, g)[0]


def _cofactors(f: TriPoly, g: TriPoly) -> tuple[TriPoly, TriPoly, TriPoly]:
    """(c, f/c, g/c) for nonconstant f and g of one variable triple, c =
    tri_gcd(f, g) and the quotients primitive: all three from `_line_gcd`,
    whose division proof computes the quotients."""
    F, G = f.ints, g.ints
    c, quotients = _line_gcd([F, G], [F, G])
    return tuple(TriPoly._of(f.vars, Fraction(1), h) for h in (c, *quotients))


def repeated_part(f: TriPoly) -> TriPoly:
    """gcd of f with all three partials: product of prime factors with
    multiplicity one less than in f, from line images modulo primes of f and
    its derivative along the lines (`_line_gcd`)."""
    if f.is_zero():
        raise ZeroPolynomialError("repeated part of zero polynomial")
    return _squarefree_split(f)[0]


def gcd_squarefree(f: TriPoly) -> TriPoly:
    """Squarefree part of f, primitive-normalized."""
    if f.is_zero():
        raise ZeroPolynomialError("squarefree part of zero polynomial")
    return _squarefree_split(f)[1]


def _squarefree_split(f: TriPoly) -> tuple[TriPoly, TriPoly]:
    """(repeated_part(f), gcd_squarefree(f)) for a nonzero f, so that their
    product is f.primitive(): the squarefree part is the quotient f/rep that
    the division proof of `_line_gcd` computes."""
    F = f.ints
    if _is_const(F):
        return TriPoly.constant(1, f.vars), f.primitive()
    partials = (_partial(F, i) for i in range(3))
    rep, (sf, *_) = _line_gcd([F], [F] + [d for d in partials if d])
    return TriPoly._of(f.vars, Fraction(1), rep), TriPoly._of(f.vars, Fraction(1), sf)
