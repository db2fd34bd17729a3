import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from sympy.polys.domains import ZZ_I
from sympy.polys.matrices import DomainMatrix

import numrange.dualcurve as dualcurve
import numrange.exactpoly as exactpoly
from numrange.exactpoly import (
    BinaryForm,
    ExactDivisionError,
    GaussianRational,
    NonSquareMatrixError,
    PolyParseError,
    TriPoly,
    VariableMismatchError,
    ZeroPolynomialError,
    det_pencil,
    det_poly_matrix,
    discriminant_binary,
    gcd_squarefree,
    parse_poly,
    repeated_part,
    resultant,
    tri_gcd,
)

from numrange.hermitian import GaussianRationalMatrix, _cleared_parts, split
from numrange.pencil import _sturm, pencil_det

from conftest import (FIXTURES, XVARS, YVARS, charpoly_from_p, constant_value, divides,
                      eval_with_scale, fixture_matrix, golden_poly, random_gaussian_matrix,
                      random_term_dicts, random_tripoly, reference_add, reference_content,
                      reference_divexact, reference_gradient_certificate, reference_mul,
                      reference_neg, reference_partial, reference_pow, reference_primitive,
                      reference_vandermonde_inverse, with_vars)

Y0 = TriPoly.variable(0, YVARS)
Y1 = TriPoly.variable(1, YVARS)
Y2 = TriPoly.variable(2, YVARS)

CUBIC = (Y0 - Y1) * (Y0 + Y1) ** 2 - Y0 * Y2 ** 2


def _to_sympy(f: TriPoly, syms):
    expr = 0
    for (a, b, c), coef in f.terms.items():
        expr += sp.Rational(coef.numerator, coef.denominator) * syms[0] ** a * syms[1] ** b * syms[2] ** c
    return sp.expand(expr)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (Y0 + Y1) * (Y0 - Y1) == Y0 ** 2 - Y1 ** 2

    def test_additive_identity(self):
        f = random_tripoly(random.Random(3))
        assert f + TriPoly.zero(YVARS) == f

    def test_cubic_expansion(self):
        expanded = parse_poly("y0^3 + y0^2*y1 - y0*y1^2 - y0*y2^2 - y1^3", YVARS)
        assert CUBIC == expanded

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatchError):
            Y0 + TriPoly.variable(0, XVARS)

    def test_pow_matches_repeated_mul(self):
        f = Y0 + 2 * Y1 - Y2
        assert f ** 3 == f * f * f

    def test_scalar_coercion(self):
        assert 2 * Y0 == Y0 * Fraction(2)
        assert (Y0 + 1) - 1 == Y0

    def test_gaussian_coefficient_rejected(self):
        with pytest.raises(TypeError):
            TriPoly(YVARS, {(1, 0, 0): GaussianRational.I})
        with pytest.raises(TypeError):
            Y0 * GaussianRational.ONE
        with pytest.raises(TypeError):
            Y0 + GaussianRational.I


class TestIntegerStore:
    """The store, content times a primitive integer polynomial with a positive
    grlex lead, against the Fraction-dict reference of conftest."""

    DICTS = random_term_dicts(random.Random(20), 40)

    def pairs(self):
        rng = random.Random(21)
        return [(rng.choice(self.DICTS), rng.choice(self.DICTS)) for _ in range(120)]

    def test_store_is_the_normal_form(self):
        for d in self.DICTS:
            f = TriPoly(YVARS, d)
            assert f.terms == d
            if not d:
                assert f.content == 0 and f.ints == {}
                continue
            lead = max(f.ints, key=lambda e: (sum(e), e))
            assert math.gcd(*f.ints.values()) == 1 and f.ints[lead] > 0
            assert {e: f.content * v for e, v in f.ints.items()} == d
            assert f.rational_content() == reference_content(d) == abs(f.content)
            assert f.primitive().terms == reference_primitive(d)
            assert f.primitive().content == 1 and f.primitive().ints == f.ints

    def test_arithmetic_matches_the_reference(self):
        for d, h in self.pairs():
            f, g = TriPoly(YVARS, d), TriPoly(YVARS, h)
            assert (f + g).terms == reference_add(d, h)
            assert (f - g).terms == reference_add(d, reference_neg(h))
            assert (-f).terms == reference_neg(d)
            assert (f * g).terms == reference_mul(d, h)
            assert (f * Fraction(-5, 3)).terms == {e: c * Fraction(-5, 3) for e, c in d.items()}
            assert (f * 0).is_zero() and (0 * f).terms == {}
            for i in range(3):
                assert f.partial(i).terms == reference_partial(d, i)
        for d in self.DICTS[:12]:
            for k in range(3):
                assert (TriPoly(YVARS, d) ** k).terms == reference_pow(d, k)

    def test_divexact_matches_the_reference(self):
        for d, h in self.pairs():
            f, g = TriPoly(YVARS, d), TriPoly(YVARS, h)
            if not h:
                with pytest.raises(ZeroDivisionError):
                    f.divexact(g)
                continue
            assert (f * g).divexact(g).terms == reference_divexact(reference_mul(d, h), h) == d
            want = reference_divexact(d, h)
            if want is None:
                with pytest.raises(ExactDivisionError):
                    f.divexact(g)
            else:
                assert f.divexact(g).terms == want

    def test_equality_and_hash_read_the_value(self):
        for d, h in self.pairs():
            f, g = TriPoly(YVARS, d), TriPoly(YVARS, h)
            assert (f == g) == (d == h)
            same = TriPoly(YVARS, dict(reversed(d.items())))
            for other in (same, (f + g) - g, (f * 3) * Fraction(1, 3), f.primitive() * f.content):
                assert other == f and hash(other) == hash(f)
            assert f + 1 != f and with_vars(f, XVARS) != f

    def test_text_round_trip(self):
        for d in self.DICTS:
            f = TriPoly(YVARS, d)
            back = parse_poly(f.to_text(), YVARS)
            assert back == f and back.terms == d and back.to_text() == f.to_text()


class TestEval:
    def test_root_on_cubic(self):
        assert CUBIC.eval((Fraction(1), Fraction(1), Fraction(0))) == 0

    def test_origin_of_homogeneous(self):
        f = random_tripoly(random.Random(5))
        f = TriPoly(YVARS, {e: c for e, c in f.terms.items() if sum(e) == 2})
        assert f.eval((Fraction(0), Fraction(0), Fraction(0))) == 0

    def test_unit_point(self):
        assert CUBIC.eval((Fraction(1), Fraction(0), Fraction(0))) == 1

    def test_eval_with_scale(self):
        val, scale = eval_with_scale(CUBIC, (1.0, 1.0, 0.0))
        assert abs(val) <= 1e-12 * scale

    def test_eval_with_scale_ignores_construction_order(self):
        rng = random.Random(53)
        for _ in range(20):
            f = random_tripoly(rng, max_deg=6, terms=12)
            items = list(f.terms.items())
            rng.shuffle(items)
            g = TriPoly(YVARS, dict(items))
            assert f == g and g.sorted_terms() == f.sorted_terms()
            pt = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert eval_with_scale(g, pt) == eval_with_scale(f, pt)


class TestDeterminant:
    def test_2x2(self):
        assert det_poly_matrix([[Y0, Y1], [Y1, Y0]]) == Y0 ** 2 - Y1 ** 2

    def test_diagonal(self):
        n = 6
        z = TriPoly.zero(YVARS)
        M = [[Y0 if i == j else z for j in range(n)] for i in range(n)]
        assert det_poly_matrix(M) == Y0 ** n

    def test_pencil_matrix_of_cubic(self):
        z = TriPoly.zero(YVARS)
        F = [[Y0, z, Y1], [z, Y0 + Y1, Y2], [Y1, Y2, Y0]]
        assert det_poly_matrix(F) == CUBIC

    def test_non_square(self):
        with pytest.raises(ValueError):
            det_poly_matrix([[Y0, Y1]])
        with pytest.raises(NonSquareMatrixError):
            det_poly_matrix([[Y0, Y1], [Y0]])
        with pytest.raises(VariableMismatchError):
            det_poly_matrix([[Y0, Y1], [Y1, TriPoly.variable(0, XVARS)]])

    def test_matches_cofactor_reference(self):
        rng = random.Random(11)
        cases = []
        for _ in range(12):
            n = rng.randint(2, 4)
            cases.append([[random_tripoly(rng, max_deg=1, terms=2) for _ in range(n)]
                          for _ in range(n)])
        for n in range(1, 7):
            M = [[_random_entry(rng)[0] for _ in range(n)] for _ in range(n)]
            cases.append(M)
            if n >= 2:
                z = TriPoly.zero(YVARS)
                cases.append([[z] * n] + M[1:])                  # zero row
                cases.append(M[:-1] + [M[0]])                    # repeated row
                cases.append(M[:-1] + [[3 * e for e in M[0]]])   # proportional row
        for d1 in range(1, 4):
            for d2 in range(1, 4):
                f = BinaryForm(d1, tuple(random_tripoly(rng, max_deg=1, terms=2)
                                         for _ in range(d1 + 1)))
                g = BinaryForm(d2, tuple(random_tripoly(rng, max_deg=1, terms=2)
                                         for _ in range(d2 + 1)))
                cases.append(_sylvester_reference(f, g))
        for M in cases:
            assert det_poly_matrix(M) == _det_cofactor_reference(M)

    def test_coprime_denominators_and_extreme_entries(self):
        rng = random.Random(17)
        dens = (3, 7, 2 ** 60)
        for scale in (Fraction(1), Fraction(10 ** 100), Fraction(1, 10 ** 100)):
            for n in (2, 3, 4):
                M = [[TriPoly(YVARS, {e: scale * Fraction(rng.randint(-9, 9), rng.choice(dens))
                                      for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))})
                      for _ in range(n)] for _ in range(n)]
                assert det_poly_matrix(M) == _det_cofactor_reference(M)

    def test_eval_commutes_with_det(self):
        rng = random.Random(13)
        syms = sp.symbols("y0 y1 y2")
        for _ in range(6):
            n = rng.randint(2, 4)
            M = [[random_tripoly(rng, max_deg=1, terms=2) for _ in range(n)] for _ in range(n)]
            pt = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))
            det = det_poly_matrix(M)
            scalar = sp.Matrix([[_to_sympy(e, syms).subs(dict(zip(syms, [sp.Rational(x.numerator, x.denominator) for x in pt]))) for e in row] for row in M]).det()
            got = det.eval(pt)
            assert sp.Rational(got.numerator, got.denominator) == scalar


class TestDetPencil:
    """det(y0*I + y1*C1 + y2*C2) of Hermitian pencils from characteristic
    polynomials modulo primes, against the cofactor expansion, exact
    characteristic polynomials and the Hessenberg reduction."""

    @staticmethod
    def _random_pair(rng, n, complex_entries=True, top=5):
        """(re, im) int lists of a random n x n Gaussian integer matrix, some entries zero."""
        def part(on):
            return [[rng.randint(-top, top) if on and rng.random() < 0.7 else 0 for _ in range(n)]
                    for _ in range(n)]
        return part(True), part(complex_entries)

    def test_gaussian_coefficients(self):
        # det(y0*I + y1*[[0, i], [-i, 0]] + y2*[[0, 1], [1, 0]]) = y0^2 - y1^2 - y2^2
        C1, C2 = ([[0, 0], [0, 0]], [[0, 1], [-1, 0]]), ([[0, 1], [1, 0]], [[0, 0], [0, 0]])
        assert det_pencil(C1, C2) == {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): -1}
        # det(y0*I + y1*[[1, 2 + i], [2 - i, -1]]) = y0^2 - 6*y1^2
        C1 = ([[1, 2], [2, -1]], [[0, 1], [-1, 0]])
        assert det_pencil(C1, _zero_pair(2)) == {(2, 0, 0): 1, (0, 2, 0): -6}
        assert charpoly_from_p(GaussianRationalMatrix([[0, GaussianRational.I], [GaussianRational.I, 0]])) == [
            GaussianRational.ONE, GaussianRational.ZERO, GaussianRational.ONE]

    def test_matches_pair_reference(self):
        rng = random.Random(11)
        cases = []
        for n in range(1, 7):
            for complex_entries in (False, True):
                C1, C2 = _hermitian(*(self._random_pair(rng, n, complex_entries) for _ in range(2)))
                cases += [(C1, C2), (C1, _zero_pair(n))]
                if n >= 2:
                    for change in (lambda M: [[0] * n] + M[1:],                 # zero row
                                   lambda M: M[:-1] + [M[0]],                   # repeated row
                                   lambda M: M[:-1] + [[3 * e for e in M[0]]]):  # proportional row
                        # the change on the rows and then the columns is E*C*E^T, E real:
                        # Hermitian again
                        cases.append(tuple(tuple(_transpose(change(_transpose(change(M)))) for M in C)
                                           for C in (C1, C2)))
        for C1, C2 in cases:
            assert det_pencil(C1, C2) == _cofactor_reference(C1, C2)

    def test_charpoly_with_coprime_denominators_and_extreme_entries(self):
        rng = random.Random(17)
        dens = (3, 7, 2 ** 60)
        t = TriPoly.variable(0, YVARS)
        for scale in (Fraction(1), Fraction(10 ** 100), Fraction(1, 10 ** 100)):
            for n in (2, 3, 4):
                A = GaussianRationalMatrix([[GaussianRational(*(scale * Fraction(rng.randint(-9, 9), rng.choice(dens))
                                                                for _ in range(2)))
                                             for _ in range(n)] for _ in range(n)])
                re = [[(t if i == j else TriPoly.zero(YVARS)) - e.re for j, e in enumerate(row)]
                      for i, row in enumerate(A.entries)]
                im = [[TriPoly.constant(-e.im, YVARS) for e in row] for row in A.entries]
                ref_re, ref_im = _det_pair_reference(re, im)
                # det(t*I - A) read off p(t, -1, -i)
                assert charpoly_from_p(A) == [
                    GaussianRational(ref_re.terms.get((k, 0, 0), Fraction(0)),
                                     ref_im.terms.get((k, 0, 0), Fraction(0))) for k in range(n + 1)]

    @pytest.mark.parametrize("kind", ["real", "hermitian"])
    def test_crt_over_many_small_primes(self, monkeypatch, kind):
        # the primes from just above n on: many CRT steps; a complex pencil
        # skips every prime 3 mod 4 and maps i to one root of -1 mod P
        n = 6
        rng = random.Random(29)
        C1, C2 = _hermitian(*(self._random_pair(rng, n, kind != "real", top=40) for _ in range(2)))
        expected = det_pencil(C1, C2)
        small = [q for q in range(n + 1, 3000) if all(q % d for d in range(2, int(q ** 0.5) + 1))]
        real = exactpoly._primes
        monkeypatch.setattr(exactpoly, "_primes", lambda below: itertools.chain(small, real(below)))
        used = self._spy_moduli(monkeypatch)
        assert det_pencil(C1, C2) == expected == _cofactor_reference(C1, C2)
        primes = sorted(set(used))
        assert len(primes) > 5 and all(P in small for P in primes)
        if kind == "real":
            assert primes[0] == 7 and any(P % 4 == 3 for P in primes)
        else:
            assert all(P % 4 == 1 for P in primes)
            assert used.count(primes[0]) == n + 1

    def test_stops_only_at_the_bound(self, monkeypatch):
        # C1 = c*[[1, 1], [1, 1]] has rank one, so det(y0*I + y1*C1) = y0^2 +
        # 2c*y0*y1: the lift is right once the product of the primes exceeds
        # 4c, but the primes go on until it exceeds the bound 2*(1 + 2c)^2
        c = 10 ** 40
        C1 = ([[c, c], [c, c]], [[0, 0], [0, 0]])
        used = self._spy_moduli(monkeypatch)
        assert det_pencil(C1, _zero_pair(2)) == {(2, 0, 0): 1, (1, 1, 0): 2 * c}
        bound = 2 * (1 + 2 * c) ** 2
        assert math.prod(used) > bound >= math.prod(used[:-1])

    def test_tuple_rows_take_one_image_of_i(self, monkeypatch):
        # nested_ovals is a complex Hermitian pencil, so each prime maps i to
        # one root s of -1 at the n + 1 nodes, whether the rows are lists or
        # tuples; with C2 = 0 at one node
        pencil = split(fixture_matrix("nested_ovals"))
        L = math.lcm(pencil.A1.L, pencil.A2.L)
        lists = [_cleared_parts(A, L) for A in (pencil.A1, pencil.A2)]
        tuples = [tuple(tuple(map(tuple, part)) for part in C) for C in lists]
        zero = _zero_pair(pencil.n)
        assert any(map(any, lists[0][1] + lists[1][1]))
        expected = det_pencil(*lists), det_pencil(lists[0], zero)
        used = self._spy_moduli(monkeypatch)
        for pencils, want, nodes in ((lists, expected[0], pencil.n + 1),
                                     (tuples, expected[0], pencil.n + 1),
                                     ((lists[0], zero), expected[1], 1),
                                     ((tuples[0], zero), expected[1], 1)):
            used.clear()
            assert det_pencil(*pencils) == want
            assert used and all(used.count(P) == nodes for P in used), (type(pencils[0][0]), nodes)

    @staticmethod
    def _spy_moduli(monkeypatch) -> list[int]:
        """The modulus of every matrix the batched kernel is given, in order."""
        used = []
        kernel = exactpoly._charpolys_mod
        monkeypatch.setattr(exactpoly, "_charpolys_mod", lambda H, P: used.extend(P.tolist()) or kernel(H, P))
        return used

    def test_primes_lie_below_the_row_bound(self, monkeypatch):
        # n = 6 takes the largest primes below 2^30 and n = 7 those below
        # 2^29; C1 = C2 = -J has residue P - 1 in every entry
        used = self._spy_moduli(monkeypatch)
        for n, below in ((6, 2 ** 30), (7, 2 ** 29)):
            C1 = ([[-1] * n for _ in range(n)], [[0] * n for _ in range(n)])
            used.clear()
            assert det_pencil(C1, C1) == _det_pencil_reference(C1, C1)
            assert max(used) == sp.prevprime(below)

    def test_kernel_matches_hessenberg_reference(self):
        # every modulus of one batch, small and at the bound det_pencil takes
        # for n, against Hessenberg reductions one matrix at a time; all
        # entries P - 1 is the largest dot product the kernel sums in int64,
        # across the bound's steps at n = 6 -> 7 and n = 30 -> 31
        rng = random.Random(37)
        for n in range(1, 32):
            below = exactpoly._pencil_primes_below(n)
            assert below == 2 ** (30 if n <= 6 else 29 if n <= 30 else 28)
            top = sp.prevprime(below)
            assert (n + 1) * (top - 1) ** 2 < 2 ** 63
            P = [13, 8191, 1000003, top, top]
            H = [[[rng.randrange(Q) for _ in range(n)] for _ in range(n)] for Q in P[:-1]]
            H.append([[top - 1] * n for _ in range(n)])
            got = exactpoly._charpolys_mod(np.array(H, dtype=np.int64), np.array(P, dtype=np.int64))
            for M, Q, e in zip(H, P, got.tolist()):
                # det(x*I + M) = det(x*I - (-M))
                assert e == _charpoly_mod_p([[-x % Q for x in row] for row in M], Q)[::-1], (n, Q)
            # det(x*I - J), J all ones, is x^(n-1) * (x - n)
            e = exactpoly._charpolys_mod(np.full((1, n, n), top - 1, dtype=np.int64), np.array([top]))
            assert e.tolist() == [[1, top - n] + [0] * (n - 1)]

    def test_differential_up_to_n12(self):
        # real symmetric, complex Hermitian and C2 = 0 pencils with entries up
        # to 10^40, against exact characteristic polynomials over Z[i] (sympy)
        # interpolated over the rationals, and for n <= 6 against the
        # cofactor expansion too
        for n, C1, C2 in _differential_pencils():
            got = det_pencil(C1, C2)
            assert got == _det_pencil_reference(C1, C2)
            if n <= 6:
                assert got == _cofactor_reference(C1, C2)

    def test_all_minus_one_at_n12(self):
        # C1 = -J has residue P - 1 in every entry modulo every prime:
        # det(y0*I - y1*J) = y0^11 * (y0 - 12*y1), and with C2 = -J,
        # det(y0*I - (y1 + y2)*J) = y0^11 * (y0 - 12*y1 - 12*y2)
        n = 12
        C1 = ([[-1] * n for _ in range(n)], [[0] * n for _ in range(n)])
        assert det_pencil(C1, _zero_pair(n)) == {(12, 0, 0): 1, (11, 1, 0): -12}
        assert det_pencil(C1, C1) == {(12, 0, 0): 1, (11, 1, 0): -12, (11, 0, 1): -12}
        assert det_pencil(C1, C1) == _det_pencil_reference(C1, C1)


def _zero_pair(n: int):
    """(re, im) of the n x n zero matrix."""
    zero = [[0] * n for _ in range(n)]
    return zero, zero


def _transpose(M):
    return [list(col) for col in zip(*M)]


def _hermitian(*Cs):
    """The Hermitian parts C + C^H of Gaussian integer matrices."""
    return tuple(([[a + b for a, b in zip(r, c)] for r, c in zip(re, zip(*re))],
                  [[a - b for a, b in zip(r, c)] for r, c in zip(im, zip(*im))]) for re, im in Cs)


def _differential_pencils():
    """(n, C1, C2) for n = 1..12: one real symmetric, complex Hermitian and
    C2 = 0 pencil each, entries up to 10^40 with some zeros."""
    rng = random.Random(41)
    for n in range(1, 13):
        top = (5, 10 ** 12, 10 ** 40)[n % 3]
        pair = TestDetPencil._random_pair
        yield (n, *_hermitian(pair(rng, n, False, top), pair(rng, n, False, top)))
        yield (n, *_hermitian(pair(rng, n, True, top), pair(rng, n, True, top)))
        yield n, *_hermitian(pair(rng, n, n % 2 == 0, top)), _zero_pair(n)


def _det_pencil_reference(C1, C2):
    """The int terms of det(y0*I + y1*C1 + y2*C2) by another route: e_k of
    C1 + j*C2 at j = 0..n from sympy's exact characteristic polynomials over
    Z[i], interpolated over j by exact integer divided differences; the
    imaginary parts must vanish."""
    n = len(C1[0])
    (r1, i1), (r2, i2) = C1, C2
    # det(x*I + C) = det(x*I - (-C)): the x^(n-k) coefficient is e_k(C)
    values = [DomainMatrix([[-ZZ_I(r1[a][b] + j * r2[a][b], i1[a][b] + j * i2[a][b]) for b in range(n)]
                            for a in range(n)], (n, n), ZZ_I).charpoly()
              for j in range(n + 1 if any(map(any, (*r2, *i2))) else 1)]
    out = {}
    for k in range(n + 1):
        assert not any(_interpolate_int([int(v[k].y) for v in values]))
        coeffs = _interpolate_int([int(v[k].x) for v in values])
        assert not any(coeffs[k + 1:])
        for c, v in enumerate(coeffs):
            if v:
                out[(n - k, k - c, c)] = v
    return out


def _interpolate_int(ys):
    """Coefficients (constant first) of the integer polynomial through (j, ys[j]):
    its divided differences at consecutive integers are integers."""
    d, m = list(ys), len(ys)
    for k in range(1, m):
        for i in range(m - 1, k - 1, -1):
            q, r = divmod(d[i] - d[i - 1], k)
            assert r == 0
            d[i] = q
    out = [d[-1]]
    for k in range(m - 2, -1, -1):  # out <- out * (x - k) + d[k]
        out = [a - k * b for a, b in zip([0] + out, out + [0])]
        out[0] += d[k]
    return out


def _charpoly_mod_p(H: list[list[int]], P: int) -> list[int]:
    """det(x*I - H) mod P, constant term first, for H with entries in [0, P):
    the Hessenberg reference for the batched kernel.

    H is brought to upper Hessenberg form in place by similarity transforms
    (elimination on the subdiagonal, with row and column swaps), and the
    characteristic polynomial is read off the Hessenberg recurrence (Cohen,
    *A Course in Computational Algebraic Number Theory*, Alg. 2.2.9).
    """
    n = len(H)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            H[m], H[piv] = H[piv], H[m]
            for row in H:
                row[m], row[piv] = row[piv], row[m]
        inv = pow(H[m][m - 1], -1, P)
        top, us = H[m], []
        for i in range(m + 1, n):  # row i -= u_i * row m
            u = H[i][m - 1] * inv % P
            if u:
                H[i] = [(a - u * b) % P for a, b in zip(H[i], top)]
                us.append((i, u))
        if us:  # then column m += u_i * column i, for all i at once (the steps commute)
            for row in H:
                row[m] = (row[m] + sum(u * row[i] for i, u in us)) % P
    polys = [[1]]
    for m in range(n):
        # p_{m+1} = (x - h_mm) p_m - sum_{i<m} h_im * h_{i+1,i} ... h_{m,m-1} * p_i
        h, prev = H[m][m], polys[m]
        nxt = [a - h * b for a, b in zip([0] + prev, prev + [0])]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i] % P
            if not t:
                break
            f = H[i][m] * t % P
            if f:
                for d, c in enumerate(polys[i]):
                    nxt[d] -= f * c
        polys.append([c % P for c in nxt])
    return polys[n]


def _pencil_matrix(C1, C2):
    """(real, imaginary) TriPoly matrices of y0*I + y1*C1 + y2*C2."""
    n = len(C1[0])
    (r1, i1), (r2, i2) = C1, C2
    re = [[TriPoly(YVARS, {(1, 0, 0): int(i == j), (0, 1, 0): r1[i][j], (0, 0, 1): r2[i][j]})
           for j in range(n)] for i in range(n)]
    im = [[TriPoly(YVARS, {(0, 1, 0): i1[i][j], (0, 0, 1): i2[i][j]}) for j in range(n)]
          for i in range(n)]
    return re, im


def _cofactor_reference(C1, C2):
    """The int terms of det(y0*I + y1*C1 + y2*C2) by cofactor expansion; the
    imaginary part must vanish."""
    re, im = _det_pair_reference(*_pencil_matrix(C1, C2))
    assert im.is_zero()
    return {e: int(c) for e, c in re.terms.items()}


def _det_cofactor_reference(M):
    """Plain cofactor expansion along the first row, no shared minors."""
    if len(M) == 1:
        return M[0][0]
    det = TriPoly.zero(M[0][0].vars)
    for j, e in enumerate(M[0]):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = e * _det_cofactor_reference(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


def _det_pair_reference(re, im):
    """(real, imaginary) parts of det(re + i*im) by plain cofactor expansion."""
    if len(re) == 1:
        return re[0][0], im[0][0]
    det_re = det_im = TriPoly.zero(re[0][0].vars)
    for j, (a, b) in enumerate(zip(re[0], im[0])):
        c, d = _det_pair_reference(*([row[:j] + row[j + 1:] for row in M[1:]] for M in (re, im)))
        sign = 1 if j % 2 == 0 else -1
        det_re = det_re + sign * (a * c - b * d)
        det_im = det_im + sign * (a * d + b * c)
    return det_re, det_im


def _random_entry(rng):
    """(real, imaginary) parts of a linear form in YVARS, sometimes zero."""
    re, im = {}, {}
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        if rng.random() < 0.6:
            re[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            im[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return TriPoly(YVARS, re), TriPoly(YVARS, im)


def _sylvester_reference(f, g):
    m, n = f.degree, g.degree
    z = TriPoly.zero(f.vars)
    rows = [[z] * r + list(f.coeffs) + [z] * (n - 1 - r) for r in range(n)]
    rows += [[z] * r + list(g.coeffs) + [z] * (m - 1 - r) for r in range(m)]
    return rows


def _scalar_form(vars, coeffs):
    return BinaryForm(len(coeffs) - 1,
                      tuple(TriPoly.constant(c, vars) for c in coeffs))


class TestResultant:
    def test_linear_pair_sign(self):
        V = ("a", "b", "c")
        a, b = TriPoly.variable(0, V), TriPoly.variable(1, V)
        one = TriPoly.constant(1, V)
        f = BinaryForm(1, (one, -a))
        g = BinaryForm(1, (one, -b))
        assert resultant(f, g) == a - b

    def test_common_factor_vanishes(self):
        rng = random.Random(17)
        for _ in range(6):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
            if not any(coeffs):
                coeffs[0] = Fraction(1)
            f = _scalar_form(YVARS, coeffs)
            assert resultant(f, f).is_zero()

    def test_swap_symmetry(self):
        rng = random.Random(19)
        for _ in range(8):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            f = _scalar_form(YVARS, [Fraction(rng.randint(-4, 4)) for _ in range(m + 1)])
            g = _scalar_form(YVARS, [Fraction(rng.randint(-4, 4)) for _ in range(n + 1)])
            lhs = resultant(f, g)
            rhs = resultant(g, f)
            if (m * n) % 2:
                rhs = -rhs
            assert lhs == rhs

    def test_matches_sympy(self):
        rng = random.Random(23)
        z = sp.symbols("z")
        for _ in range(8):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            fc = [Fraction(rng.randint(-4, 4)) for _ in range(m + 1)]
            gc = [Fraction(rng.randint(-4, 4)) for _ in range(n + 1)]
            fc[0] = fc[0] or Fraction(1)
            gc[0] = gc[0] or Fraction(1)
            mine = resultant(_scalar_form(YVARS, fc), _scalar_form(YVARS, gc))
            fz = sum(sp.Rational(c) * z ** (m - i) for i, c in enumerate(fc))
            gz = sum(sp.Rational(c) * z ** (n - i) for i, c in enumerate(gc))
            ref = sp.resultant(fz, gz, z)
            got = constant_value(mine)
            assert sp.Rational(got.numerator, got.denominator) == ref

    def test_zero_form_rejected(self):
        z = TriPoly.zero(YVARS)
        with pytest.raises(ZeroPolynomialError):
            resultant(BinaryForm(1, (z, z)), _scalar_form(YVARS, [1, 1]))


class TestDiscriminant:
    def test_quadratic_formula(self):
        V = ("a", "b", "c")
        a, b, c = (TriPoly.variable(i, V) for i in range(3))
        disc = discriminant_binary(BinaryForm(2, (a, b, c)))
        assert disc == b * b - 4 * a * c

    def test_split_quadratic(self):
        one = TriPoly.constant(1, YVARS)
        form = BinaryForm(2, (one, TriPoly.zero(YVARS), -one))
        assert constant_value(discriminant_binary(form)) == 4

    def test_double_root(self):
        one = TriPoly.constant(1, YVARS)
        form = BinaryForm(2, (one, TriPoly.constant(-2, YVARS), one))
        assert discriminant_binary(form).is_zero()

    def test_planted_double_roots(self):
        # disc = 0 exactly when the form and its derivative share a factor
        rng = random.Random(29)
        for _ in range(10):
            r = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            s = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            # (z - r w)^2 (z - s w)
            coeffs = [Fraction(1), -(2 * r + s), r * r + 2 * r * s, -r * r * s]
            assert discriminant_binary(_scalar_form(YVARS, coeffs)).is_zero()
            if r != s:
                # (z - r w)(z - s w): simple roots, disc != 0
                simple = [Fraction(1), -(r + s), r * s]
                assert not discriminant_binary(_scalar_form(YVARS, simple)).is_zero()

    @staticmethod
    def _sylvester_discriminant(g):
        """The Sylvester formula, on `resultant`, which keeps the Sylvester matrix."""
        d = g.degree
        g_z = BinaryForm(d - 1, tuple((d - i) * g.coeffs[i] for i in range(d)))
        ref = resultant(g, g_z).divexact(g.coeffs[0])
        return -ref if (d * (d - 1) // 2) % 2 else ref

    def test_matches_resultant_over_leading_coefficient(self):
        rng = random.Random(37)
        for d in range(2, 7):
            for _ in range(3 if d <= 4 else 1):
                coeffs = [random_tripoly(rng, max_deg=1, terms=2) for _ in range(d + 1)]
                while coeffs[0].is_zero():
                    coeffs[0] = random_tripoly(rng, max_deg=1, terms=2)
                g = BinaryForm(d, tuple(coeffs))
                assert discriminant_binary(g) == self._sylvester_discriminant(g)
        # and forms with zero inner coefficients
        rng = random.Random(43)
        z = TriPoly.zero(YVARS)
        for d in range(2, 7):
            for _ in range(4):
                coeffs = [random_tripoly(rng, max_deg=2, terms=3) for _ in range(d + 1)]
                while coeffs[0].is_zero():
                    coeffs[0] = random_tripoly(rng, max_deg=2, terms=3)
                for i in rng.sample(range(1, d + 1), rng.randint(1, d)):
                    coeffs[i] = z
                g = BinaryForm(d, tuple(coeffs))
                assert discriminant_binary(g) == self._sylvester_discriminant(g)

    def test_matches_sympy(self):
        rng = random.Random(31)
        z = sp.symbols("z")
        for _ in range(8):
            d = rng.randint(2, 4)
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(d + 1)]
            coeffs[0] = coeffs[0] or Fraction(1)
            mine = constant_value(discriminant_binary(_scalar_form(YVARS, coeffs)))
            fz = sum(sp.Rational(c) * z ** (d - i) for i, c in enumerate(coeffs))
            assert sp.Rational(mine.numerator, mine.denominator) == sp.discriminant(fz, z)

    def test_refusals(self):
        z, one = TriPoly.zero(YVARS), TriPoly.constant(1, YVARS)
        with pytest.raises(ZeroPolynomialError, match="^discriminant of the zero form$"):
            discriminant_binary(BinaryForm(2, (z, z, z)))
        with pytest.raises(ValueError, match="^discriminant needs degree >= 2$"):
            discriminant_binary(BinaryForm(1, (one, Y1)))
        with pytest.raises(ZeroPolynomialError, match="^leading coefficient vanishes; "
                           "discriminant normalization undefined$"):
            discriminant_binary(BinaryForm(3, (z, Y0, Y1, Y2)))

    def test_restricted_line_forms_match_sylvester(self):
        # the forms the dual curve eliminates: the fixtures' squarefree parts,
        # both components of cardioid_circle, and seeded generic n = 2..5
        ps = [gcd_squarefree(pencil_det(split(fixture_matrix(name))).p)
              for name in ("cubic_cusp", "cross_star", "nested_ovals", "polytope")]
        ps += [parse_poly(line, YVARS) for line in
               (FIXTURES / "cardioid_circle_factors.txt").read_text().splitlines()]
        rng = random.Random(41)
        ps += [pencil_det(split(random_gaussian_matrix(n, rng))).p for n in (2, 3, 4, 5)]
        assert len(ps) == 10
        for p in ps:
            g = dualcurve.restricted_line_form(p)
            D = discriminant_binary(g)
            assert not D.is_zero()
            assert D.vars == XVARS and D.total_degree() == 2 * g.degree * (g.degree - 1)
            assert D == self._sylvester_discriminant(g)

    def test_matches_sympy_on_a_restricted_line_form(self):
        # coefficients that are polynomials in x0, x1, x2: cubic_cusp's form at w = 1
        g = dualcurve.restricted_line_form(pencil_det(split(fixture_matrix("cubic_cusp"))).p)
        xs, z = sp.symbols("x0 x1 x2"), sp.symbols("z")
        gz = sum(_to_sympy(c, xs) * z ** (g.degree - i) for i, c in enumerate(g.coeffs))
        ref = sp.discriminant(gz, z)
        assert sp.expand(_to_sympy(discriminant_binary(g), xs) - ref) == 0


class TestGcdSquarefree:
    def test_repeated_factor_removed(self):
        f = (Y0 + Y1) ** 2 * (Y0 - Y1)
        assert gcd_squarefree(f) == ((Y0 + Y1) * (Y0 - Y1)).primitive()

    def test_idempotent_on_squarefree(self):
        f = (Y0 + 2 * Y1 + Y2) * (Y0 - Y2)
        assert gcd_squarefree(f) == f.primitive()

    def test_cardioid_circle_determinant(self):
        cubic = parse_poly("4*y0^3 - 3*y0*y1^2 - 3*y0*y2^2 + y1^3 + y1*y2^2", YVARS)
        conic = parse_poly("4*y0^2 - y1^2 - y2^2", YVARS)
        p = (cubic * conic ** 3) * Fraction(1, 256)
        sf = gcd_squarefree(p)
        assert sf == (cubic * conic).primitive()
        assert divides(cubic, sf) and divides(conic, sf)

    def test_square_times_coprime(self):
        rng = random.Random(37)
        for _ in range(8):
            f = random_tripoly(rng, max_deg=2, terms=3) + TriPoly.constant(Fraction(1), YVARS)
            g = random_tripoly(rng, max_deg=1, terms=2) + Y0
            if tri_gcd(f, g).total_degree() > 0:
                continue
            assert gcd_squarefree(f * f * g) == (f * g).primitive()

    def test_gcd_matches_sympy(self):
        rng = random.Random(41)
        syms = sp.symbols("y0 y1 y2")
        for _ in range(6):
            common = random_tripoly(rng, max_deg=2, terms=2) + Y0
            f = common * (random_tripoly(rng, max_deg=1, terms=2) + Y1)
            g = common * (random_tripoly(rng, max_deg=1, terms=2) + Y2)
            mine = tri_gcd(f, g)
            ref = sp.gcd(_to_sympy(f, syms), _to_sympy(g, syms))
            ref_poly = sp.Poly(ref, *syms)
            terms = {tuple(int(x) for x in mono): Fraction(int(c.p), int(c.q))
                     for mono, c in zip(ref_poly.monoms(), ref_poly.coeffs())}
            ref_tri = TriPoly(YVARS, terms).primitive()
            assert mine == ref_tri

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            gcd_squarefree(TriPoly.zero(YVARS))


class TestDivisionAndNormalization:
    def test_divexact_roundtrip(self):
        rng = random.Random(43)
        for _ in range(10):
            f = random_tripoly(rng, max_deg=2, terms=3) + Y0
            g = random_tripoly(rng, max_deg=2, terms=3) + Y1
            assert (f * g).divexact(g) == f

    def test_inexact_division_raises(self):
        with pytest.raises(ExactDivisionError):
            (Y0 ** 2 + Y1).divexact(Y0 + Y1)

    def test_primitive_form(self):
        f = Fraction(3, 2) * Y0 ** 2 - 3 * Y1 ** 2
        p = f.primitive()
        assert p == Y0 ** 2 - 2 * Y1 ** 2
        # negative leading coefficient flips
        assert (-f).primitive() == p


class TestTextFormat:
    def test_canonical_order_and_tokens(self):
        q = parse_poly(
            "4*x1^4 + 32*x2^4 + 13*x1^2*x2^2 - 18*x0*x1*x2^2 + 4*x0*x1^3 - 27*x0^2*x2^2",
            XVARS)
        # graded-lex descending with x0 > x1 > x2
        assert q.to_text() == ("-27*x0^2*x2^2 + 4*x0*x1^3 - 18*x0*x1*x2^2 "
                               "+ 4*x1^4 + 13*x1^2*x2^2 + 32*x2^4")

    def test_rational_coefficients(self):
        f = Fraction(1, 64) * Y1 ** 4 + Y0 ** 4
        assert f.to_text() == "y0^4 + 1/64*y1^4"
        assert parse_poly(f.to_text(), YVARS) == f

    def test_roundtrip_random(self):
        rng = random.Random(47)
        for _ in range(20):
            f = random_tripoly(rng)
            assert parse_poly(f.to_text(), YVARS) == f

    def test_parse_errors(self):
        with pytest.raises(PolyParseError):
            parse_poly("y0 + q7", YVARS)
        with pytest.raises(PolyParseError):
            parse_poly("", YVARS)

    @pytest.mark.parametrize("text, message", [
        ("y0 - -y1", "sign '-' without a term"),
        ("y0 + - y1", "sign '+' without a term"),
        ("y0 + y1 +", "sign '+' without a term"),
        ("-", "sign '-' without a term"),
        ("y0 + 3/0*y1", "zero denominator in '3/0*y1'"),
    ])
    def test_sign_without_term_or_zero_denominator(self, text, message):
        # each sign needs a term after it; a sign was once skipped, so
        # "y0 - -y1" read as y0 - y1 and "-" as 0
        with pytest.raises(PolyParseError, match=re.escape(message)):
            parse_poly(text, YVARS)

    def test_zero(self):
        assert TriPoly.zero(YVARS).to_text() == "0"
        assert parse_poly("0", YVARS).is_zero()

    def test_integer_content_prints_the_store(self):
        # an integer content is printed as content * store, with no Fraction
        # per term, byte for byte as the text of the Fraction terms
        rng = random.Random(53)
        big = 10 ** 40 + 7
        for k in range(40):
            f = random_tripoly(rng) * rng.choice([1, -1, 3, -12, big, -big])
            if k % 4 == 0:
                f = f * Fraction(1, rng.randint(2, 9))
            text = f.to_text()
            assert f._sorted is None or f.content.denominator != 1
            assert text == _text_of_sorted_terms(f)
        assert (-(Y0 - 2 * Y1 ** 2) * 3).to_text() == "6*y1^2 - 3*y0"


class TestSturm:
    def test_all_real_cubic(self):
        # (t-1)(t-2)(t-3)
        assert _sturm([-6, 11, -6, 1])[0] == 3

    def test_complex_pair(self):
        assert _sturm([1, 0, 1])[0] == 0

    def test_mixed(self):
        # (t^2+1)(t-2)
        assert _sturm([-2, 1, -2, 1])[0] == 1

    def test_one_chain_gives_the_squarefree_degree(self):
        # planted rational roots p/q, some repeated, times t^2 + 1 half of the time
        rng = random.Random(101)
        for k in range(20):
            roots = [(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            c = [1, 0, 1] if k % 2 else [1]
            for p, q in roots + roots[:rng.randint(0, 2)]:
                c = [q * a - p * b for a, b in zip([0] + c, c + [0])]
            distinct, deg_sf = _sturm(c)
            assert distinct == len({Fraction(p, q) for p, q in roots})
            assert deg_sf == distinct + 2 * (k % 2)


class TestRepeatedPart:
    def test_multiplicity_structure(self):
        f = (Y0 + Y1) ** 3 * (Y0 - Y2) ** 2 * (Y1 + Y2)
        rep = repeated_part(f)
        assert rep == ((Y0 + Y1) ** 2 * (Y0 - Y2)).primitive()


def _from_sympy(expr, syms) -> TriPoly:
    poly = sp.Poly(expr, *syms)
    return TriPoly(YVARS, {tuple(int(x) for x in mono): Fraction(int(c.p), int(c.q))
                           for mono, c in zip(poly.monoms(), poly.coeffs())})


def _rational_factor(rng) -> TriPoly:
    """A non-constant, non-homogeneous factor with non-integer rational coefficients."""
    while True:
        f = random_tripoly(rng, max_deg=2, terms=3) + Fraction(rng.randint(1, 5), rng.randint(2, 4))
        if f.total_degree() > 0:
            return f


class TestGcdDifferential:
    """Seeded comparison with sympy on rational, non-homogeneous inputs."""

    SYMS = sp.symbols("y0 y1 y2")

    def test_tri_gcd(self):
        rng = random.Random(59)
        for _ in range(12):
            a, b, c = (_rational_factor(rng) for _ in range(3))
            f, g = a * b, a * c * (b if rng.random() < 0.3 else 1)
            ref = sp.gcd(_to_sympy(f, self.SYMS), _to_sympy(g, self.SYMS))
            assert tri_gcd(f, g) == _from_sympy(ref, self.SYMS).primitive()

    def test_repeated_part_and_squarefree_part(self):
        rng = random.Random(61)
        for _ in range(12):
            a, b, c = (_rational_factor(rng) for _ in range(3))
            f = a ** rng.randint(1, 3) * b ** rng.randint(1, 2) * c
            fs = _to_sympy(f, self.SYMS)
            sqf = sp.sqf_part(fs, *self.SYMS)
            assert gcd_squarefree(f) == _from_sympy(sqf, self.SYMS).primitive()
            rep = sp.quo(fs, sqf, *self.SYMS)
            assert repeated_part(f) == _from_sympy(rep, self.SYMS).primitive()


def _normal_to(b) -> TriPoly:
    """A linear form in YVARS vanishing at the point b."""
    return b[2] * Y1 - b[1] * Y2


def _lines(log):
    """The (u0, u2) of each logged `_restrict_mod_p(F, u0, u2, P)` call."""
    return [args[1:3] for args, _ in log]


def _text_of_sorted_terms(f: TriPoly) -> str:
    """The canonical text built from the Fraction terms of `sorted_terms`."""
    parts = []
    for e, c in f.sorted_terms():
        mono = "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(f.vars, e) if k)
        body = (mono if abs(c) == 1 else f"{abs(c)}*{mono}") if mono else str(abs(c))
        parts.append((("-" if c < 0 else "") if not parts else ("- " if c < 0 else "+ ")) + body)
    return " ".join(parts) or "0"


class TestLineCertificates:
    """A first line image of degree 0 proves gcd = 1; other inputs take more images."""

    def test_tangent_first_line_takes_a_second(self, monkeypatch):
        # the conic's first line (1, t, 0) is tangent to it: t^2 has a double root
        log = []
        TestLineImageInjection._spy(monkeypatch, "_restrict_mod_p", log)
        assert repeated_part(Y1 ** 2 - Y0 * Y2) == TriPoly.constant(1, YVARS)
        assert _lines(log) == [(1, 0), (1, 1)]

    def test_square_factor_never_certified(self):
        rng = random.Random(67)
        for _ in range(30):
            f, g = _rational_factor(rng), _rational_factor(rng)
            assert divides(f.primitive(), repeated_part(f * f * g))
            assert divides(f.primitive(), tri_gcd(f * f * g, f * (g + 1)))

    def test_squarefree_inputs_are_certified(self, monkeypatch):
        # one line decides: one restriction of f*g, or one each of f and g
        rng = random.Random(71)
        log = []
        TestLineImageInjection._spy(monkeypatch, "_restrict_mod_p", log)
        for _ in range(10):
            f, g = _rational_factor(rng), _rational_factor(rng)
            log.clear()
            assert repeated_part(f * g).is_constant()
            assert len(log) == 1
            log.clear()
            assert tri_gcd(f, g).is_constant()
            lines = _lines(log)
            assert len(lines) == 2 and lines[0] == lines[1]

    def test_degree_loss_on_every_line_takes_the_line_images(self):
        # the top-degree parts vanish at some directions: l1 and l2 at
        # (7, 11, -13) and (3, 8, 2), y0*y2 at every (a, 1, b) with a*b = 0,
        # which the line images skip by a shear
        l1, l2 = _normal_to((7, 11, -13)), _normal_to((3, 8, 2))
        one = TriPoly.constant(1, YVARS)
        cases = [
            (l1 * l2 + Y0 + 1, one),                          # squarefree, non-homogeneous
            (l1 * l2, one),                                   # squarefree, homogeneous
            (l1 ** 2 * l2, l1.primitive()),                   # restrictions lose the square
            (l1 ** 3 * l2 ** 2, (l1 ** 2 * l2).primitive()),
            (Y0 * Y2 * (Y0 - Y2), one),
            (Y0 ** 2 * Y2 * (Y0 + Y1), Y0),
        ]
        for f, rep in cases:
            assert repeated_part(f) == rep
        h = Y0 + 2 * Y1 + 3
        for f, g, gcd in ((l1 * l2 * h, l1 * (l2 + 1) * h, l1 * h),
                          (l1 * (Y0 + 1), l1 * (Y1 + 2), l1),
                          (Y0 * Y2 * h, Y0 * (Y2 + 1) * h, Y0 * h)):
            assert tri_gcd(f, g) == gcd.primitive()

    def test_restriction_matches_exact_substitution(self):
        # F(u0, t, u2) mod P, read off the terms
        rng = random.Random(73)
        t = sp.symbols("t")
        P = exactpoly._P
        for _ in range(10):
            f = random_tripoly(rng, max_deg=5, terms=8) + Y0 ** 5 + 2 * Y1 ** 5
            F = f.ints
            for u0, u2 in ((0, 0), (3, -2), (-5, 0), (0, 7), (-1, -4), (10 ** 20, 1)):
                expr = _to_sympy(f.primitive(), [u0, t, u2])
                ref = [int(c) % P for c in reversed(sp.Poly(expr, t).all_coeffs())]
                got = exactpoly._restrict_mod_p(F, u0, u2, P)
                assert got == ref and len(got) == f.total_degree() + 1


# -- the subresultant PRS, the reference for the line-image gcds -------------------
#
# gcd of integer term dicts by the subresultant PRS (Brown & Traub 1971),
# recursive in the variables: an algorithm independent of line images.

_ONE, _is_const = exactpoly._ONE, exactpoly._is_const


def _addmul(acc, f, g, negate):
    """acc += (-f if negate else f) * g on int term dicts; zeros may remain."""
    for ef, cf in f.items():
        for eg, cg in g.items():
            k = (ef[0] + eg[0], ef[1] + eg[1], ef[2] + eg[2])
            acc[k] = acc.get(k, 0) + (-cf if negate else cf) * cg


def _imul(f, g):
    acc = {}
    _addmul(acc, f, g, False)
    return exactpoly._clean(acc)


def _ipow(f, k):
    out = _ONE
    for _ in range(k):
        out = _imul(out, f)
    return out


def _as_univar(f, k):
    """f as a list of coefficient polynomials in variable k, index = degree."""
    coeffs = [{} for _ in range(max(e[k] for e in f) + 1)]
    for e, c in f.items():
        rest = list(e)
        rest[k] = 0
        coeffs[e[k]][tuple(rest)] = c
    return coeffs


def _from_univar(coeffs, k):
    out = {}
    for deg, poly in enumerate(coeffs):
        for e, c in poly.items():
            key = list(e)
            key[k] += deg
            out[tuple(key)] = c
    return out


def _uni_prem(A, B):
    """Pseudo-remainder of A by B: lc(B)^(degA-degB+1) * A mod B."""
    db = len(B) - 1
    lb = B[db]
    R = A
    e = len(A) - db
    while len(R) > db:
        lr = R[-1]
        shift = len(R) - 1 - db
        nxt = []
        for i in range(len(R) - 1):
            acc = {}
            _addmul(acc, R[i], lb, False)
            if i >= shift:
                _addmul(acc, lr, B[i - shift], True)
            nxt.append(exactpoly._clean(acc))
        while nxt and not nxt[-1]:
            nxt.pop()
        R = nxt
        e -= 1
    if e > 0 and R:
        s = _ipow(lb, e)
        R = [_imul(c, s) for c in R]
    return R


def _content(coeffs):
    g = None
    for c in coeffs:
        if c:
            g = exactpoly._iprimitive(c) if g is None else _igcd_reference(g, c)
            if _is_const(g):
                return _ONE
    return g


def _igcd_reference(f, g):
    divexact = exactpoly._idivexact
    if _is_const(f) or _is_const(g):
        return _ONE
    k = next(i for i in range(3) if any(e[i] for e in f) or any(e[i] for e in g))
    fu, gu = _as_univar(f, k), _as_univar(g, k)
    cf, cg = _content(fu), _content(gu)
    cont = _igcd_reference(cf, cg)
    if len(fu) == 1 or len(gu) == 1:
        return cont
    A = [divexact(c, cf) if c else c for c in fu]
    B = [divexact(c, cg) if c else c for c in gu]
    if len(A) < len(B):
        A, B = B, A
    gg = hh = _ONE
    while True:
        delta = len(A) - len(B)
        R = _uni_prem(A, B)
        if not R:
            pp = _content(B)
            return exactpoly._iprimitive(_imul(cont, _from_univar(
                [divexact(c, pp) if c else c for c in B], k)))
        if len(R) == 1:
            return cont
        A = B
        denom = _imul(gg, _ipow(hh, delta))
        B = [divexact(c, denom) if c else c for c in R]
        gg = A[-1]
        if delta == 1:
            hh = gg
        elif delta > 1:
            hh = divexact(_ipow(gg, delta), _ipow(hh, delta - 1))


def _prs_gcd_reference(f: TriPoly, g: TriPoly) -> TriPoly:
    return TriPoly(f.vars, _igcd_reference(f.ints, g.ints))


def _prs_repeated_part_reference(f: TriPoly) -> TriPoly:
    g = f
    for i in range(3):
        if not f.partial(i).is_zero():
            g = _prs_gcd_reference(g, f.partial(i))
    return g


def _homogeneous_factor(rng, deg) -> TriPoly:
    """A homogeneous form of degree deg in YVARS with rational coefficients."""
    while True:
        f = TriPoly(YVARS, {(a, b, deg - a - b): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                            for a in range(deg + 1) for b in range(deg + 1 - a)
                            if rng.random() < 0.6})
        if f.total_degree() == deg:
            return f


def _scaled(f: TriPoly, s: int) -> TriPoly:
    """f(y0, 10^s * y1, y2): coefficient sizes spread like those of a scaled matrix."""
    return TriPoly(f.vars, {e: c * Fraction(10) ** (s * e[1]) for e, c in f.terms.items()})


class TestLineImageGcd:
    """Seeded differential of the line-image gcds against the PRS and sympy."""

    SYMS = sp.symbols("y0 y1 y2")

    @staticmethod
    def _factors(rng, homogeneous):
        if homogeneous:
            return [_homogeneous_factor(rng, rng.randint(1, 2)) for _ in range(3)]
        return [_rational_factor(rng) for _ in range(3)]

    @pytest.mark.parametrize("scale", [0, 100, -100])
    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_repeated_part_matches_prs_and_sympy(self, homogeneous, scale):
        rng = random.Random(83 + scale + homogeneous)
        for _ in range(3):
            a, b, _ = (_scaled(h, scale) for h in self._factors(rng, homogeneous))
            # a planted square or cube; squares only when scaled, where the PRS is slow
            f = a ** (2 if scale else rng.randint(2, 3)) * b
            rep = repeated_part(f)
            assert rep == _prs_repeated_part_reference(f)
            fs = _to_sympy(f, self.SYMS)
            ref = sp.quo(fs, sp.sqf_part(fs, *self.SYMS), *self.SYMS)
            assert rep == _from_sympy(ref, self.SYMS).primitive()
            assert gcd_squarefree(f) == (a * b).primitive()

    @pytest.mark.parametrize("scale", [0, 100, -100])
    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_tri_gcd_matches_prs_and_sympy(self, homogeneous, scale):
        rng = random.Random(89 + scale + homogeneous)
        for _ in range(3):
            a, b, c = (_scaled(h, scale) for h in self._factors(rng, homogeneous))
            f, g = a * a * b, a * c * (b if rng.random() < 0.5 else 1)   # planted common factor
            got = tri_gcd(f, g)
            assert got == _prs_gcd_reference(f, g)
            ref = sp.gcd(_to_sympy(f, self.SYMS), _to_sympy(g, self.SYMS))
            assert got == _from_sympy(ref, self.SYMS).primitive()


class TestLineImageInjection:
    """Unlucky nodes and primes are dropped, and a wrong candidate fails its division."""

    @staticmethod
    def _spy(monkeypatch, name, log):
        """Record (args, result) of every call of exactpoly.<name>."""
        real = getattr(exactpoly, name)

        def spy(*args):
            out = real(*args)
            log.append((args, out))
            return out

        monkeypatch.setattr(exactpoly, name, spy)

    @staticmethod
    def _division_spy(monkeypatch, log):
        """Record (divisor, exact) of every `_idivexact` call."""
        real = exactpoly._idivexact

        def spy(f, g):
            try:
                out = real(f, g)
            except ExactDivisionError:
                log.append((g, False))
                raise
            log.append((g, True))
            return out

        monkeypatch.setattr(exactpoly, "_idivexact", spy)

    @pytest.mark.parametrize("first_node, degrees", [(1, [1]), (2, [2, 2, 1])])
    def test_unlucky_nodes(self, monkeypatch, first_node, degrees):
        # on the line (1, t, x) of direction w = (0, 1, 0) the root t = -1 of
        # (y0 + y1)^2 meets the root of y1 - y2 + s*y0 at the node x = s - 1,
        # so the nodes 2..7 all give the unlucky image (t + 1)^2.  From node 1,
        # the lucky first image makes them skipped, and its small lift is
        # proven at once.  From node 2, the first prime gives the wrong
        # candidate (y0 + y1)^2, which fails its division, the second prime
        # repeats it and is not divided again, and the third prime's nodes
        # 8, 9 give the true degree 1.
        f = (Y0 + Y1) ** 2
        for s in range(3, 9):
            f = f * (Y1 - Y2 + s * Y0)
        images, divisions = [], []
        self._spy(monkeypatch, "_image_mod_p", images)
        self._division_spy(monkeypatch, divisions)
        monkeypatch.setattr(exactpoly, "_FIRST_NODE", first_node)
        assert repeated_part(f) == Y0 + Y1
        assert [k for _, (_, k) in images] == degrees
        failed = [g for g, exact in divisions if not exact]
        assert failed == [((Y0 + Y1) ** 2).ints] * (first_node == 2)
        g = (Y0 + Y1) * (Y1 - Y2 + 3 * Y0) * (Y1 - Y2 + 4 * Y0)
        assert tri_gcd(f, g) == g

    def test_unlucky_prime_is_skipped(self, monkeypatch):
        # modulo q the factor y1 + y2 + q*y0 is y1 + y2, so every image has
        # degree 2; after the first prime has shown degree 1, q is skipped.
        # The lift c*y0 + c^2*y1 of the repeated part has a 62-bit coefficient,
        # so the first prime's lift is not proven and q is reached; two more
        # primes make it repeat
        q, c = 1000003, 2 ** 31 + 11
        real = exactpoly._primes
        monkeypatch.setattr(exactpoly, "_primes",
                            lambda: itertools.chain([exactpoly._P, q], itertools.islice(real(), 1, None)))
        images = []
        self._spy(monkeypatch, "_image_mod_p", images)
        f = (Y0 + c * Y1) ** 2 * (Y1 + Y2) * (Y1 + Y2 + q * Y0)
        assert repeated_part(f) == Y0 + c * Y1
        assert [(args[1] == q, k) for args, (_, k) in images] == [
            (False, 1), (True, 2), (False, 1), (False, 1)]

    def test_small_gcds_take_one_prime(self, monkeypatch):
        # the repeated part of nested_ovals' discriminant and its gcd with the
        # rest have 1-bit coefficients, so each is proven on the first prime,
        # where a repeated lift took a second 61-bit prime
        p = pencil_det(split(fixture_matrix("nested_ovals"))).p
        D1 = dualcurve._strip_var0_power(
            discriminant_binary(dualcurve.restricted_line_form(gcd_squarefree(p))))[0].primitive()
        images = []
        self._spy(monkeypatch, "_image_mod_p", images)
        rep = repeated_part(D1)
        assert rep.total_degree() == 2
        assert [args[1] for args, _ in images] == [exactpoly._P]
        images.clear()
        assert tri_gcd(D1.divexact(rep).primitive(), rep) == rep
        assert [args[1] for args, _ in images] == [exactpoly._P]

    def test_primes_dividing_gamma_and_small_primes(self, monkeypatch):
        # gamma = f_top(0, 1, 0) is a multiple of q, so the first prime is
        # skipped, and the small primes after it need many CRT steps
        q = 1000003
        small = [q] + [n for n in range(10007, 10400, 2) if exactpoly._is_prime(n)]
        real = exactpoly._primes
        monkeypatch.setattr(exactpoly, "_primes", lambda: itertools.chain(small, real()))
        images = []
        self._spy(monkeypatch, "_image_mod_p", images)
        h = (q * Y1 + Y0 + 7 * Y2) * Fraction(10 ** 30 + 1, 3) + Y2
        f = h ** 2 * (Y1 + Y2)
        assert repeated_part(f) == h.primitive()
        primes = [args[1] for args, _ in images]
        assert primes[0] == small[1] and q not in primes and len(primes) > 10
        assert all(P in small for P in primes)
        assert tri_gcd(f, h * (Y1 - Y2)) == h.primitive()
        rng = random.Random(97)
        for _ in range(3):
            a, b = _rational_factor(rng), _rational_factor(rng)
            assert repeated_part(a ** 2 * b) == _prs_repeated_part_reference(a ** 2 * b)


# the largest det_pencil prime of a 6 x 6 pencil, whose interpolation shares the cache
PENCIL_PRIME = next(exactpoly._primes(exactpoly._pencil_primes_below(6)))


class TestEvaluationKernels:
    """The certificate by evaluation at nodes and the O(m^2) Vandermonde
    inverse against the constructions they replaced (conftest)."""

    @pytest.mark.parametrize("P", [2 ** 31 - 1, 2 ** 31 - 19, PENCIL_PRIME])
    def test_vandermonde_inverse_matches_newton_columns(self, monkeypatch, P):
        monkeypatch.setattr(exactpoly, "_VANDERMONDE", {})
        for m in (1, 2, 3, 13, 37, 57):
            W = exactpoly._vandermonde_inverse(m, P)
            assert W.dtype == np.int64
            assert np.array_equal(W, reference_vandermonde_inverse(m, P))

    @pytest.mark.parametrize("m", [151, 253])
    def test_vandermonde_inverse_at_certificate_sizes(self, monkeypatch, m):
        # m = 151 and 253 are the node counts of the generic n = 6 and 7 duals;
        # every column, evaluated at every node by Horner's rule, is a unit
        # vector, so V W = I mod P
        monkeypatch.setattr(exactpoly, "_VANDERMONDE", {})
        P = 2 ** 31 - 1
        W = exactpoly._vandermonde_inverse(m, P)
        j = np.arange(m, dtype=np.int64)[:, None]
        VW = np.zeros((m, m), dtype=np.int64)
        for d in range(m - 1, -1, -1):
            VW = (VW * j + W[d]) % P
        assert np.array_equal(VW, np.eye(m, dtype=np.int64))

    @staticmethod
    def _candidates(q: TriPoly, rng) -> list[TriPoly]:
        """q, q times x0 (both true), one coefficient + 1, an extra monomial
        of q's degree where one is missing, and q + 1 (not homogeneous)."""
        d = q.total_degree()
        out = [q, q * TriPoly.variable(0, XVARS), q + TriPoly(XVARS, {rng.choice(sorted(q.ints)): 1}),
               q + TriPoly.constant(1, XVARS)]
        missing = [e for e in itertools.product(range(d + 1), repeat=3)
                   if sum(e) == d and e not in q.ints]
        if missing:
            out.append(q + TriPoly(XVARS, {rng.choice(missing): rng.randint(1, 9)}))
        return out

    def test_certificate_matches_multiplication_matrices(self):
        rng = random.Random(29)
        cases = [(pencil_det(split(fixture_matrix(name))).p, name) for name in
                 ("cubic_cusp", "cross_star", "disk", "nested_ovals", "cardioid_circle")]
        cases += [(pencil_det(split(random_gaussian_matrix(n, rng))).p, n)
                  for n in (2, 2, 3, 3, 4, 4, 5, 6)]
        passed = refused = 0
        for p, label in cases:
            sf, q = gcd_squarefree(p), dualcurve.dual_curve_exact(p).q
            for k, cand in enumerate(self._candidates(q, rng)):
                got = exactpoly._gradient_certificate(sf.ints, cand.ints)
                assert got == reference_gradient_certificate(sf.ints, cand.ints), (label, k)
                assert bool(got) == (k < 2), (label, k)
                passed, refused = passed + bool(got), refused + (not got)
        assert (passed, refused) == (26, 30)

    def test_redrawn_line_matches(self, monkeypatch):
        # the first draw of each prime takes the direction b = 0, where F_top
        # vanishes, so both certificates redraw the line and go on alike
        class ZeroFirstDirection(random.Random):
            draws = 0

            def randrange(self, *args):
                ZeroFirstDirection.draws += 1
                if ZeroFirstDirection.draws <= 12 and (ZeroFirstDirection.draws - 1) % 6 >= 3:
                    return 0
                return super().randrange(*args)

        p = pencil_det(split(fixture_matrix("nested_ovals"))).p
        q = golden_poly("nested_ovals_q.txt", XVARS)
        F = gcd_squarefree(p).ints
        wrong = (q + TriPoly(XVARS, {(0, 4, 0): 1})).ints
        monkeypatch.setattr(exactpoly.random, "Random", ZeroFirstDirection)
        for Q, want in ((q.ints, (2 ** 31 - 1, 2 ** 31 - 19)), (wrong, ())):
            ZeroFirstDirection.draws = 0
            assert exactpoly._gradient_certificate(F, Q) == want
            assert ZeroFirstDirection.draws == 24
            ZeroFirstDirection.draws = 0
            assert reference_gradient_certificate(F, Q) == want

    def test_squarefree_parts_without_the_dual(self):
        # a false candidate of another curve, and a wrong split of a reducible one
        cusp = pencil_det(split(fixture_matrix("cubic_cusp"))).p
        for name in ("cross_star", "disk", "nested_ovals"):
            q = golden_poly(f"{name}_q.txt", XVARS)
            got = exactpoly._gradient_certificate(cusp.ints, q.ints)
            assert got == reference_gradient_certificate(cusp.ints, q.ints) == ()


class TestDivisionProofQuotients:
    """`_line_gcd` returns the quotients its division proof computes."""

    def test_quotients_multiply_back(self):
        rng = random.Random(89)
        for _ in range(8):
            a, b, c = (_rational_factor(rng) for _ in range(3))
            for ops, targets in (([F := (a * a * b).ints], [F, (a * b).ints]),
                                 ([F, G := (a * c).ints], [F, G])):
                C, quotients = exactpoly._line_gcd(ops, targets)
                g = TriPoly._of(YVARS, Fraction(1), C)
                for T, Q in zip(targets, quotients):
                    assert g * TriPoly._of(YVARS, Fraction(1), Q) == TriPoly._of(YVARS, Fraction(1), T)

    def test_gcd_one_returns_the_targets(self):
        f, g = (Y0 + 2 * Y1 + Y2).ints, (Y1 ** 2 - Y0 * Y2).ints
        C, quotients = exactpoly._line_gcd([f, g], [f, g])
        assert C == {(0, 0, 0): 1}
        assert quotients[0] is f and quotients[1] is g

    def test_squarefree_split(self):
        rng = random.Random(101)
        for _ in range(6):
            a, b = _rational_factor(rng), _rational_factor(rng)
            f = a ** 2 * b * Fraction(-7, 3)
            rep, sf = exactpoly._squarefree_split(f)
            assert rep == repeated_part(f) == a.primitive()
            assert sf == gcd_squarefree(f) == (a * b).primitive()
            assert rep * sf == f.primitive()
        one = TriPoly.constant(Fraction(5, 2), YVARS)
        assert exactpoly._squarefree_split(one) == (TriPoly.constant(1, YVARS),) * 2
