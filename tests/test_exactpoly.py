import random
from fractions import Fraction

import pytest
import sympy as sp

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
    det_poly_matrix,
    discriminant_binary,
    gcd_squarefree,
    parse_poly,
    repeated_part,
    resultant,
    sturm_real_root_count,
    tri_gcd,
)

from conftest import XVARS, YVARS, random_tripoly

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

    def test_homogeneous_flag_validated(self):
        with pytest.raises(ValueError):
            TriPoly(YVARS, {(1, 0, 0): 1, (2, 0, 0): 1}, homogeneous_degree=1)

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
        val, scale = CUBIC.eval_with_scale((1.0, 1.0, 0.0))
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
            assert g.eval_with_scale(pt) == f.eval_with_scale(pt)


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
            det_poly_matrix([[Y0]], [[Y0, Y1]])
        with pytest.raises(NonSquareMatrixError):
            det_poly_matrix([[Y0]], [[Y0], [Y1]])
        with pytest.raises(VariableMismatchError):
            det_poly_matrix([[Y0]], [[TriPoly.variable(0, XVARS)]])

    def test_matches_cofactor_reference(self):
        rng = random.Random(11)
        cases = []
        for _ in range(12):
            n = rng.randint(2, 4)
            cases.append(([[random_tripoly(rng, max_deg=1, terms=2) for _ in range(n)]
                           for _ in range(n)],))
        for n in range(1, 7):
            for gaussian in (False, True):
                pairs = [[_random_entry(rng) for _ in range(n)] for _ in range(n)]
                parts = [[[e[k] for e in row] for row in pairs] for k in range(1 + gaussian)]
                cases.append(parts)
                if n >= 2:
                    z = TriPoly.zero(YVARS)
                    cases.append([[[z] * n] + M[1:] for M in parts])           # zero row
                    cases.append([M[:-1] + [M[0]] for M in parts])             # repeated row
                    cases.append([M[:-1] + [[3 * e for e in M[0]]] for M in parts])  # proportional row
        for d1 in range(1, 4):
            for d2 in range(1, 4):
                f = BinaryForm(d1, tuple(random_tripoly(rng, max_deg=1, terms=2)
                                         for _ in range(d1 + 1)))
                g = BinaryForm(d2, tuple(random_tripoly(rng, max_deg=1, terms=2)
                                         for _ in range(d2 + 1)))
                cases.append((_sylvester_reference(f, g),))
        for parts in cases:
            if len(parts) == 1:
                assert det_poly_matrix(*parts) == _det_cofactor_reference(*parts)
            else:
                assert det_poly_matrix(*parts) == _det_pair_reference(*parts)

    def test_coprime_denominators_and_extreme_entries(self):
        rng = random.Random(17)
        dens = (3, 7, 2 ** 60)
        for scale in (Fraction(1), Fraction(10 ** 100), Fraction(1, 10 ** 100)):
            for n in (2, 3, 4):
                re, im = ([[TriPoly(YVARS, {e: scale * Fraction(rng.randint(-9, 9), rng.choice(dens))
                                            for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))})
                            for _ in range(n)] for _ in range(n)] for _ in range(2))
                assert det_poly_matrix(re) == _det_cofactor_reference(re)
                assert det_poly_matrix(re, im) == _det_pair_reference(re, im)

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

    def test_gaussian_coefficients(self):
        # det [[y0, i], [i, y0]] = y0^2 + 1, given as real and imaginary parts
        z, one = TriPoly.zero(YVARS), TriPoly.constant(1, YVARS)
        re, im = det_poly_matrix([[Y0, z], [z, Y0]], [[z, one], [one, z]])
        assert re == Y0 ** 2 + 1 and im.is_zero()
        # det [[y0, i*y1], [1, y0]] = y0^2 - i*y1
        re, im = det_poly_matrix([[Y0, z], [one, Y0]], [[z, Y1], [z, z]])
        assert re == Y0 ** 2 and im == -Y1


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
            got = mine.constant_value()
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
        assert discriminant_binary(form).constant_value() == 4

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

    def test_matches_resultant_over_leading_coefficient(self):
        rng = random.Random(37)
        for d in range(2, 7):
            for _ in range(3 if d <= 4 else 1):
                coeffs = [random_tripoly(rng, max_deg=1, terms=2) for _ in range(d + 1)]
                while coeffs[0].is_zero():
                    coeffs[0] = random_tripoly(rng, max_deg=1, terms=2)
                g = BinaryForm(d, tuple(coeffs))
                ref = resultant(g, g.derivative_z()).divexact(coeffs[0])
                if (d * (d - 1) // 2) % 2:
                    ref = -ref
                assert discriminant_binary(g) == ref

    def test_matches_sympy(self):
        rng = random.Random(31)
        z = sp.symbols("z")
        for _ in range(8):
            d = rng.randint(2, 4)
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(d + 1)]
            coeffs[0] = coeffs[0] or Fraction(1)
            mine = discriminant_binary(_scalar_form(YVARS, coeffs)).constant_value()
            fz = sum(sp.Rational(c) * z ** (d - i) for i, c in enumerate(coeffs))
            assert sp.Rational(mine.numerator, mine.denominator) == sp.discriminant(fz, z)


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
        assert cubic.divides(sf) and conic.divides(sf)

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

    def test_zero(self):
        assert TriPoly.zero(YVARS).to_text() == "0"
        assert parse_poly("0", YVARS).is_zero()


class TestSturm:
    def test_all_real_cubic(self):
        # (t-1)(t-2)(t-3)
        assert sturm_real_root_count([Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]) == 3

    def test_complex_pair(self):
        assert sturm_real_root_count([Fraction(1), Fraction(0), Fraction(1)]) == 0

    def test_mixed(self):
        # (t^2+1)(t-2)
        assert sturm_real_root_count([Fraction(-2), Fraction(1), Fraction(-2), Fraction(1)]) == 1


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


class TestLineCertificates:
    """The certificates answer only when they are sure; else the PRS decides."""

    def test_square_factor_never_certified(self):
        rng = random.Random(67)
        for _ in range(30):
            f, g = _rational_factor(rng), _rational_factor(rng)
            F = exactpoly._int_terms(f * f * g)
            assert not exactpoly._squarefree_on_a_line(F)
            assert not exactpoly._coprime_on_a_line(F, exactpoly._int_terms(f * (g + 1)))
            assert f.primitive().divides(repeated_part(f * f * g))

    def test_squarefree_inputs_are_certified(self):
        rng = random.Random(71)
        for _ in range(10):
            f, g = _rational_factor(rng), _rational_factor(rng)
            if tri_gcd(f, g).is_constant() and repeated_part(f * g).is_constant():
                assert exactpoly._squarefree_on_a_line(exactpoly._int_terms(f * g))

    def test_degree_loss_on_every_line_takes_the_prs(self, monkeypatch):
        # the top-degree part of each input vanishes at the direction b of every line
        l1, l2 = (_normal_to(b) for _, b in exactpoly._CERT_LINES)
        calls = []
        prs = exactpoly._igcd
        monkeypatch.setattr(exactpoly, "_igcd", lambda f, g: calls.append(1) or prs(f, g))
        cases = [
            (l1 * l2 + Y0 + 1, TriPoly.constant(1, YVARS)),   # squarefree, non-homogeneous
            (l1 * l2, TriPoly.constant(1, YVARS)),            # squarefree, homogeneous
            (l1 ** 2 * l2, l1.primitive()),                   # restrictions lose the square
            (l1 ** 3 * l2 ** 2, (l1 ** 2 * l2).primitive()),
        ]
        for f, rep in cases:
            F = exactpoly._int_terms(f)
            assert all(exactpoly._restrict_mod_p(F, a, b) is None
                       for a, b in exactpoly._CERT_LINES)
            calls.clear()
            assert repeated_part(f) == rep
            assert calls
        h = Y0 + 2 * Y1 + 3
        for f, g, gcd in ((l1 * l2 * h, l1 * (l2 + 1) * h, l1 * h),
                          (l1 * (Y0 + 1), l1 * (Y1 + 2), l1)):  # l1 is constant on line 0
            calls.clear()
            assert tri_gcd(f, g) == gcd.primitive()
            assert calls

    def test_restriction_matches_exact_substitution(self):
        rng = random.Random(73)
        t = sp.symbols("t")
        for _ in range(10):
            f = random_tripoly(rng, max_deg=5, terms=8) + Y0 ** 5
            F = exactpoly._int_terms(f)
            for a, b in exactpoly._CERT_LINES:
                expr = _to_sympy(f.primitive(), [a[i] + t * b[i] for i in range(3)])
                ref = [int(c) % exactpoly._P for c in reversed(sp.Poly(expr, t).all_coeffs())]
                got = exactpoly._restrict_mod_p(F, a, b)
                if got is None:
                    assert len(ref) <= f.total_degree()
                else:
                    assert got == ref
