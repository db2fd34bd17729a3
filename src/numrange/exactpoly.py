"""Exact sparse trivariate polynomial arithmetic over big rationals.

Everything here is exact: coefficients are `fractions.Fraction` (or
`GaussianRational` pairs of them), exponents are triples of non-negative
ints, and no operation ever rounds.  This module is the elimination engine
behind the pencil determinant p(y) and the dual curve q(x): one
division-free determinant (minor expansion), binary-form resultants and
discriminants on explicit Sylvester matrices, and subresultant-PRS GCDs for
squarefree parts.

Monomial order is graded lexicographic with var0 > var1 > var2 throughout,
including the canonical text format.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

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
    "resultant",
    "discriminant_binary",
    "tri_gcd",
    "repeated_part",
    "gcd_squarefree",
    "parse_poly",
    "sturm_real_root_count",
    "uni_squarefree",
]

Expo = tuple[int, int, int]
Scalar = Union[Fraction, "GaussianRational"]


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

    @property
    def is_real(self) -> bool:
        return self.im == 0

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


def _coerce_scalar(c) -> Scalar:
    if isinstance(c, (Fraction, GaussianRational)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"bad coefficient type {type(c).__name__}")


class TriPoly:
    """Sparse trivariate polynomial; immutable after construction.

    `terms` maps exponent triples to nonzero coefficients.  Coefficients are
    Fraction for the usual rational case, GaussianRational where a complex
    determinant is being expanded (the complex pencil path and `charpoly`);
    the two never mix within one polynomial.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: Sequence[str], terms: dict | None = None,
                 homogeneous_degree: int | None = None):
        vs = tuple(vars)
        if len(vs) != 3:
            raise ValueError("TriPoly needs exactly three variable names")
        clean: dict[Expo, Scalar] = {}
        for e, c in (terms or {}).items():
            c = _coerce_scalar(c)
            if not c:
                continue
            e = (int(e[0]), int(e[1]), int(e[2]))
            if min(e) < 0:
                raise ValueError("negative exponent")
            clean[e] = c
        if homogeneous_degree is not None:
            for e in clean:
                if sum(e) != homogeneous_degree:
                    raise ValueError(
                        f"term {e} violates declared homogeneous degree {homogeneous_degree}")
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("TriPoly is immutable")

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
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(e[0] + e[1] + e[2] for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {e[0] + e[1] + e[2] for e in self.terms}
        return len(degs) == 1

    def leading(self) -> tuple[Expo, Scalar]:
        """Leading (exponent, coefficient) under graded lex."""
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def constant_value(self) -> Scalar:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[(0, 0, 0)]

    def _check_vars(self, other: "TriPoly"):
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"variable mismatch: {self.vars} vs {other.vars}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = TriPoly.constant(other, self.vars)
        self._check_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e)
            if v is None:
                out[e] = c
            else:
                v = v + c
                if v:
                    out[e] = v
                else:
                    del out[e]
        return TriPoly(self.vars, out)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = TriPoly.constant(other, self.vars)
        return self + (-other)

    def __neg__(self):
        return TriPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = _coerce_scalar(other)
            if not other:
                return TriPoly.zero(self.vars)
            return TriPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        self._check_vars(other)
        f, g = self.terms, other.terms
        if len(f) > len(g):
            f, g = g, f
        out: dict[Expo, Scalar] = {}
        for ef, cf in f.items():
            a, b, c0 = ef
            for eg, cg in g.items():
                k = (a + eg[0], b + eg[1], c0 + eg[2])
                v = out.get(k)
                if v is None:
                    out[k] = cf * cg
                else:
                    v = v + cf * cg
                    if v:
                        out[k] = v
                    else:
                        del out[k]
        return TriPoly(self.vars, out)

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
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus / evaluation ----------------------------------------------

    def partial(self, i: int) -> "TriPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            k = list(e)
            k[i] -= 1
            out[tuple(k)] = c * e[i]
        return TriPoly(self.vars, out)

    def eval(self, point) -> Scalar | float | complex:
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

    def eval_with_scale(self, point) -> tuple[float, float]:
        """(value, largest monomial magnitude) at a float point.

        The scale anchors relative vanishing tests: |f(x)| / scale is the
        meaningful residual for points produced by numeric sampling.
        """
        p0, p1, p2 = (float(x) for x in point)
        total = 0.0
        scale = 0.0
        for (a, b, c), coef in self.terms.items():
            v = float(coef) * (p0 ** a) * (p1 ** b) * (p2 ** c)
            total += v
            scale = max(scale, abs(v))
        return total, scale

    # -- Gaussian/real views --------------------------------------------------

    def has_gaussian_coeffs(self) -> bool:
        return any(isinstance(c, GaussianRational) for c in self.terms.values())

    def real_imag(self) -> tuple["TriPoly", "TriPoly"]:
        re_terms, im_terms = {}, {}
        for e, c in self.terms.items():
            g = _gauss(c) if not isinstance(c, GaussianRational) else c
            if g.re:
                re_terms[e] = g.re
            if g.im:
                im_terms[e] = g.im
        return TriPoly(self.vars, re_terms), TriPoly(self.vars, im_terms)

    # -- exact division / normalization ---------------------------------------

    def divexact(self, other: "TriPoly") -> "TriPoly":
        """Exact quotient self/other; raises ExactDivisionError otherwise."""
        self._check_vars(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return TriPoly.zero(self.vars)
        glead = max(other.terms, key=_grlex)
        gc = other.terms[glead]
        rem = dict(self.terms)
        q: dict[Expo, Scalar] = {}
        while rem:
            flead = max(rem, key=_grlex)
            e = (flead[0] - glead[0], flead[1] - glead[1], flead[2] - glead[2])
            if min(e) < 0:
                raise ExactDivisionError("division is not exact")
            qc = rem[flead] / gc
            q[e] = qc
            for eg, cg in other.terms.items():
                k = (e[0] + eg[0], e[1] + eg[1], e[2] + eg[2])
                v = rem.get(k, None)
                d = qc * cg
                if v is None:
                    rem[k] = -d
                else:
                    v = v - d
                    if v:
                        rem[k] = v
                    else:
                        del rem[k]
        return TriPoly(self.vars, q)

    def divides(self, other: "TriPoly") -> bool:
        try:
            other.divexact(self)
            return True
        except (ExactDivisionError, ZeroDivisionError):
            return False

    def rational_content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive (Fraction coeffs only)."""
        if self.is_zero():
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            if not isinstance(c, Fraction):
                raise TypeError("content only defined for rational coefficients")
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def primitive(self) -> "TriPoly":
        """Primitive form: integer coefficients, content 1, positive grlex lead."""
        if self.is_zero():
            return self
        c = self.rational_content()
        _, lead = self.leading()
        if lead < 0:
            c = -c
        return TriPoly(self.vars, {e: v / c for e, v in self.terms.items()})

    def with_vars(self, vars) -> "TriPoly":
        return TriPoly(vars, dict(self.terms))

    # -- text ------------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text: graded-lex descending terms, explicit * and ^."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[e]
            if isinstance(c, GaussianRational):
                raise TypeError("canonical text requires rational coefficients")
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

    def __str__(self):
        if self.has_gaussian_coeffs():
            items = sorted(self.terms, key=_grlex, reverse=True)
            return " + ".join(
                f"({self.terms[e]})*{e}" for e in items) or "0"
        return self.to_text()

    def __repr__(self):
        return f"TriPoly({self.vars}, {self.to_text() if not self.has_gaussian_coeffs() else self.terms})"


_TERM_RE = re.compile(r"^\s*(?P<coef>[+-]?\d+(?:/\d+)?)?\s*(?P<rest>(?:\*?\s*[A-Za-z_]\w*(?:\^\d+)?\s*)*)$")


def parse_poly(text: str, vars: Sequence[str]) -> TriPoly:
    """Parse the canonical polynomial text format back into a TriPoly."""
    vs = tuple(vars)
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial text")
    if s == "0":
        return TriPoly.zero(vs)
    # split into signed terms at top level
    s = s.replace("- ", "-").replace("+ ", "+")
    tokens = re.findall(r"[+-]?[^+-]+", s)
    terms: dict[Expo, Fraction] = {}
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        sign = 1
        if tok[0] == "+":
            tok = tok[1:]
        elif tok[0] == "-":
            sign = -1
            tok = tok[1:]
        coef = Fraction(1)
        expo = [0, 0, 0]
        for factor in tok.split("*"):
            factor = factor.strip()
            if not factor:
                raise PolyParseError(f"malformed term {tok!r}")
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coef *= Fraction(factor)
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


def _addmul(acc: dict, f: dict, g: dict, negate: bool) -> None:
    """acc += (-f if negate else f) * g, on raw term dicts; zeros may remain."""
    for ef, cf in f.items():
        if negate:
            cf = -cf
        a, b, c = ef
        for eg, cg in g.items():
            k = (a + eg[0], b + eg[1], c + eg[2])
            v = acc.get(k)
            acc[k] = cf * cg if v is None else v + cf * cg


def det_poly_matrix(M: Sequence[Sequence[TriPoly]]) -> TriPoly:
    """Exact determinant of a square matrix of TriPoly over one variable triple.

    Laplace expansion along the rows, bottom up: the minors on the last k
    rows are kept in a dict keyed by their column bitmask, and each one is
    built from the minors on the last k-1 rows, so every minor is computed
    once (at most n*2^(n-1) products).  It never divides, and it skips zero
    entries and zero minors, which the banded Sylvester matrices are full of.
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
    minors = {1 << j: p for j, p in enumerate(rows[-1]) if p.terms}
    for row in reversed(rows[:-1]):
        sums: dict[int, dict] = {}
        for mask, minor in minors.items():
            # sign of entry j in the expansion: parity of the columns of mask left of j
            negate = False
            for j, p in enumerate(row):
                bit = 1 << j
                if mask & bit:
                    negate = not negate
                elif p.terms:
                    _addmul(sums.setdefault(mask | bit, {}), p.terms, minor.terms, negate)
        minors = {}
        for mask, terms in sums.items():
            minor = TriPoly(vars, terms)
            if minor.terms:
                minors[mask] = minor
    return minors.get((1 << n) - 1, TriPoly.zero(vars))


# -- binary forms, resultants, discriminants -----------------------------------


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous binary form of formal degree d in an eliminated pair (z, w).

    coeffs[i] is the TriPoly coefficient of z^(d-i) * w^i; leading and/or
    trailing entries may be zero polynomials (the formal degree is what the
    Sylvester construction uses).
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

    def derivative_z(self) -> "BinaryForm":
        """Partial derivative with respect to the leading variable z."""
        if self.degree == 0:
            return BinaryForm(0, (TriPoly.zero(self.vars),))
        d = self.degree
        return BinaryForm(d - 1, tuple((d - i) * self.coeffs[i] for i in range(d)))


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
    tangency detector used in dual-curve elimination.  The division by lc is
    done on the Sylvester matrix, not on the resultant: subtracting d times
    row 0 from the first dg/dz row leaves (lc, 0, ..., 0) in column 0, so
    res(g, dg/dz) = lc * (the minor without row 0 and column 0).
    """
    if g.is_zero():
        raise ZeroPolynomialError("discriminant of the zero form")
    if g.degree < 2:
        raise ValueError("discriminant needs degree >= 2")
    if g.coeffs[0].is_zero():
        raise ZeroPolynomialError("leading coefficient vanishes; discriminant normalization undefined")
    d = g.degree
    M = _sylvester(g, g.derivative_z())
    M[d - 1] = [a - d * b for a, b in zip(M[d - 1], M[0])]
    q = det_poly_matrix([row[1:] for row in M[1:]])
    if (d * (d - 1) // 2) % 2:
        q = -q
    return q


# -- multivariate GCD (subresultant PRS) ---------------------------------------


def _as_univar(f: TriPoly, k: int) -> list[TriPoly]:
    """Coefficient list of f seen as univariate in variable k (index = degree)."""
    d = f.degree_in(k)
    coeffs = [dict() for _ in range(d + 1)]
    for e, c in f.terms.items():
        rest = list(e)
        deg = rest[k]
        rest[k] = 0
        coeffs[deg][tuple(rest)] = c
    return [TriPoly(f.vars, t) for t in coeffs]


def _from_univar(coeffs: Sequence[TriPoly], k: int) -> TriPoly:
    vars = coeffs[0].vars
    terms: dict[Expo, Scalar] = {}
    for deg, poly in enumerate(coeffs):
        for e, c in poly.terms.items():
            key = list(e)
            key[k] += deg
            terms[tuple(key)] = c
    return TriPoly(vars, terms)


def _uni_deg(coeffs: list[TriPoly]) -> int:
    for d in range(len(coeffs) - 1, -1, -1):
        if not coeffs[d].is_zero():
            return d
    return -1


def _uni_trim(coeffs: list[TriPoly]) -> list[TriPoly]:
    d = _uni_deg(coeffs)
    return coeffs[: d + 1] if d >= 0 else coeffs[:1]


def _uni_scale(coeffs: list[TriPoly], s: TriPoly) -> list[TriPoly]:
    return [c * s for c in coeffs]


def _uni_prem(A: list[TriPoly], B: list[TriPoly]) -> list[TriPoly]:
    """Pseudo-remainder of A by B: lc(B)^(degA-degB+1) * A mod B."""
    A = _uni_trim(list(A))
    B = _uni_trim(list(B))
    da, db = _uni_deg(A), _uni_deg(B)
    if db < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    lb = B[db]
    R = list(A)
    e = da - db + 1
    while True:
        dr = _uni_deg(R)
        if dr < db:
            break
        lr = R[dr]
        R = _uni_scale(R, lb)
        shift = dr - db
        for i in range(db + 1):
            R[shift + i] = R[shift + i] - lr * B[i]
        R = _uni_trim(R)
        e -= 1
    if e > 0 and _uni_deg(R) >= 0:
        f = lb ** e
        R = _uni_scale(R, f)
    return _uni_trim(R)


def _content_along(coeffs: list[TriPoly]) -> TriPoly:
    g = TriPoly.zero(coeffs[0].vars)
    for c in coeffs:
        if c.is_zero():
            continue
        g = c if g.is_zero() else tri_gcd(g, c)
        if g.is_constant():
            break
    if g.is_zero():
        raise ZeroPolynomialError("content of zero polynomial")
    return g


def tri_gcd(f: TriPoly, g: TriPoly) -> TriPoly:
    """GCD over Q[v0,v1,v2], primitive-normalized (subresultant PRS)."""
    if f.vars != g.vars:
        raise VariableMismatchError("gcd operands use different variable triples")
    if f.has_gaussian_coeffs() or g.has_gaussian_coeffs():
        raise TypeError("gcd only implemented for rational coefficients")
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    if f.is_constant() or g.is_constant():
        return TriPoly.constant(1, f.vars)
    # main variable: first one occurring in either operand
    k = next(i for i in range(3) if f.degree_in(i) > 0 or g.degree_in(i) > 0)
    if f.degree_in(k) == 0 or g.degree_in(k) == 0:
        # the gcd cannot involve var k; recurse on the k-content of the poly using it
        fu = _as_univar(f, k)
        gu = _as_univar(g, k)
        return tri_gcd(_content_along(fu), _content_along(gu))
    fu = _as_univar(f, k)
    gu = _as_univar(g, k)
    cf = _content_along(fu)
    cg = _content_along(gu)
    cont = tri_gcd(cf, cg)
    A = [c.divexact(cf) for c in fu]
    B = [c.divexact(cg) for c in gu]
    if _uni_deg(A) < _uni_deg(B):
        A, B = B, A
    one = TriPoly.constant(1, f.vars)
    gg, hh = one, one
    while True:
        da, db = _uni_deg(A), _uni_deg(B)
        delta = da - db
        R = _uni_prem(A, B)
        if _uni_deg(R) < 0:
            pp = _prim_univar(B, k)
            return (cont * pp).primitive()
        if _uni_deg(R) == 0:
            return cont.primitive()
        A = B
        denom = gg * (hh ** delta)
        B = [c.divexact(denom) for c in R]
        gg = A[_uni_deg(A)]
        if delta == 0:
            # h unchanged
            pass
        elif delta == 1:
            hh = gg
        else:
            hh = (gg ** delta).divexact(hh ** (delta - 1))


def _prim_univar(coeffs: list[TriPoly], k: int) -> TriPoly:
    c = _content_along(coeffs)
    return _from_univar([x.divexact(c) for x in _uni_trim(coeffs)], k)


def repeated_part(f: TriPoly) -> TriPoly:
    """gcd of f with all three partials: product of prime factors with
    multiplicity one less than in f."""
    if f.is_zero():
        raise ZeroPolynomialError("repeated part of zero polynomial")
    g = TriPoly.zero(f.vars)
    for i in range(3):
        d = f.partial(i)
        if d.is_zero():
            continue
        g = d if g.is_zero() else tri_gcd(g, d)
        if g.is_constant():
            break
    if g.is_zero():
        # constant polynomial
        return TriPoly.constant(1, f.vars)
    return tri_gcd(f, g)


def gcd_squarefree(f: TriPoly) -> TriPoly:
    """Squarefree part of f, primitive-normalized."""
    if f.is_zero():
        raise ZeroPolynomialError("squarefree part of zero polynomial")
    rep = repeated_part(f)
    return f.divexact(rep).primitive()


# -- univariate helpers (restrictions of p to lines) ---------------------------


def uni_derivative(coeffs: list[Fraction]) -> list[Fraction]:
    return [coeffs[i] * i for i in range(1, len(coeffs))]


def _uni_trim_q(c: list[Fraction]) -> list[Fraction]:
    while c and not c[-1]:
        c.pop()
    return c


def uni_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = _uni_trim_q(list(a))
    b = _uni_trim_q(list(b))
    while b:
        a, b = b, uni_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def uni_squarefree(coeffs: list[Fraction]) -> list[Fraction]:
    c = _uni_trim_q(list(coeffs))
    if len(c) <= 1:
        return c
    g = uni_gcd(c, uni_derivative(c))
    if len(g) <= 1:
        return c
    # exact univariate division
    q, r = uni_divmod(c, g)
    assert not r
    return q


def uni_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = _uni_trim_q(list(a))
    b = _uni_trim_q(list(b))
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i in range(len(b)):
            a[shift + i] -= f * b[i]
        a = _uni_trim_q(a)
    return _uni_trim_q(q), a


def _sign_changes(vals: Iterable[Fraction]) -> int:
    prev = 0
    changes = 0
    for v in vals:
        s = (v > 0) - (v < 0)
        if s == 0:
            continue
        if prev and s != prev:
            changes += 1
        prev = s
    return changes


def sturm_real_root_count(coeffs: list[Fraction]) -> int:
    """Number of distinct real roots of the rational polynomial (all of R)."""
    c = _uni_trim_q([_frac(x) for x in coeffs])
    if len(c) <= 1:
        return 0
    chain = [c, uni_derivative(c)]
    while _uni_trim_q(list(chain[-1])):
        r = uni_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-x for x in r])
    # signs at -infinity and +infinity from leading terms
    at_pos = []
    at_neg = []
    for poly in chain:
        p = _uni_trim_q(list(poly))
        if not p:
            continue
        lead = p[-1]
        deg = len(p) - 1
        at_pos.append(lead)
        at_neg.append(lead if deg % 2 == 0 else -lead)
    return _sign_changes(at_neg) - _sign_changes(at_pos)
