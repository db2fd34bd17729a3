import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from numrange.dualcurve import (
    EIG_GAP_RTOL,
    XVARS,
    DegenerateDualError,
    ProductMismatchError,
    ReducibleCurveError,
    dual_curve_exact,
    dual_of_linear,
    dual_sample,
    dual_sample_csv,
    dual_union,
)
from numrange.exactpoly import GaussianRational, TriPoly, ZeroPolynomialError, parse_poly
from numrange.hermitian import GaussianRationalMatrix, split
from numrange.pencil import (
    YVARS,
    CurveSample,
    SpectralGrid,
    _root_eigs,
    pencil_det,
)

import numrange.dualcurve as dualcurve
import numrange.exactpoly as exactpoly
from conftest import (cardioid_circle_dual_residual, eval_with_scale, fixture_matrix,
                      golden_poly, mixed_magnitude_matrix, random_gaussian_matrix)

F = Fraction
VANISH_RTOL = 1e-6  # |q| at a float dual sample, relative to its largest monomial
Y0 = TriPoly.variable(0, YVARS)
Y1 = TriPoly.variable(1, YVARS)
Y2 = TriPoly.variable(2, YVARS)

DISK_CONIC = Y0 ** 2 - F(1, 4) * Y1 ** 2 - F(1, 4) * Y2 ** 2


def cubic_p():
    return pencil_det(split(fixture_matrix("cubic_cusp"))).p


def gradient(p: TriPoly, y) -> tuple:
    """grad p(y), exact at a rational point."""
    return tuple(p.partial(i).eval(y) for i in range(3))


class TestDualPoint:
    """The dual point of a curve point y is grad p(y), exactly."""

    def test_conic_gradient(self):
        y = (F(1), F(2), F(0))
        assert DISK_CONIC.eval(y) == 0
        x = gradient(DISK_CONIC, y)
        assert x == (F(2), F(-1), F(0))
        assert (x[1] / x[0], x[2] / x[0]) == (F(-1, 2), 0)

    def test_linear_constant_gradient(self):
        l = Y0 + 5 * Y1
        assert gradient(l, (F(1), F(-1, 5), F(7))) == (F(1), F(5), F(0))

    def test_cubic_point_lands_on_dual(self):
        p = cubic_p()
        q = golden_poly("cubic_cusp_q.txt", XVARS)
        y = (F(1), F(1), F(0))
        assert p.eval(y) == 0
        assert q.eval(gradient(p, y)) == 0  # exact root membership

    def test_singular_point_reported(self):
        # the node of the cubic: no tangent, the gradient vanishes
        p, y = cubic_p(), (F(1), F(-1), F(0))
        assert p.eval(y) == 0
        assert gradient(p, y) == (0, 0, 0)


class TestDualCurveExact:
    def test_cubic_quartic_pair(self):
        dc = dual_curve_exact(cubic_p())
        assert dc.q == golden_poly("cubic_cusp_q.txt", XVARS)
        assert dc.provenance == "exact-elimination"
        # audit: the power of x0 and the node-dual line
        texts = [e.to_text() for e in dc.extraneous]
        assert "x0^6" in texts and "x0 - x1" in texts

    def test_paper_quartic_up_to_positive_scalar(self):
        dc = dual_curve_exact(cubic_p())
        displayed = parse_poly(
            "4*x1^4 + 32*x2^4 + 13*x1^2*x2^2 - 18*x0*x1*x2^2 + 4*x0*x1^3 - 27*x0^2*x2^2",
            XVARS)
        assert dc.q == displayed.primitive()

    def test_disk_conic_adjugate(self):
        dc = dual_curve_exact(DISK_CONIC)
        assert dc.q == parse_poly("x0^2 - 4*x1^2 - 4*x2^2", XVARS)

    def test_random_conics_match_adjugate(self):
        rng = random.Random(307)
        done = 0
        while done < 8:
            entries = [[F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3)] for _ in range(3)]
            Q = [[entries[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
            det = (Q[0][0] * (Q[1][1] * Q[2][2] - Q[1][2] * Q[2][1])
                   - Q[0][1] * (Q[1][0] * Q[2][2] - Q[1][2] * Q[2][0])
                   + Q[0][2] * (Q[1][0] * Q[2][1] - Q[1][1] * Q[2][0]))
            if det == 0:
                continue
            p = TriPoly.zero(YVARS)
            vs = [Y0, Y1, Y2]
            for i in range(3):
                for j in range(3):
                    p = p + Q[i][j] * vs[i] * vs[j]
            if p.degree_in(1) < 1 or p.degree_in(2) < 1:
                continue
            adj = [[None] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(3):
                    sub = [[Q[r][c] for c in range(3) if c != j] for r in range(3) if r != i]
                    cof = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
                    adj[j][i] = cof if (i + j) % 2 == 0 else -cof
            x = [TriPoly.variable(i, XVARS) for i in range(3)]
            qref = TriPoly.zero(XVARS)
            for i in range(3):
                for j in range(3):
                    qref = qref + adj[i][j] * x[i] * x[j]
            dc = dual_curve_exact(p)
            assert dc.q == qref.primitive()
            done += 1

    def test_degree12_dual(self):
        dc = dual_curve_exact(pencil_det(split(fixture_matrix("cross_star"))).p)
        assert dc.q == golden_poly("cross_star_q.txt", XVARS)
        assert dc.degree == 12 and len(dc.q.terms) == 28

    def test_degree_bound(self):
        for name in ("cubic_cusp", "nested_ovals", "cross_star", "disk"):
            p = pencil_det(split(fixture_matrix(name))).p
            n = p.total_degree()
            dc = dual_curve_exact(p)
            assert dc.degree <= n * (n - 1)

    def test_repeated_factors_stripped(self):
        p = DISK_CONIC * DISK_CONIC
        dc = dual_curve_exact(p)
        assert dc.q == parse_poly("x0^2 - 4*x1^2 - 4*x2^2", XVARS)

    def test_degenerate_directions_rejected(self):
        with pytest.raises(DegenerateDualError):
            dual_curve_exact(Y0 ** 2 - Y1 ** 2)  # no y2 dependence
        with pytest.raises(DegenerateDualError):
            dual_curve_exact((Y0 + Y1) * Y2)     # y2 divides p

    def test_chart_variable_dividing_p_is_refused(self):
        p = parse_poly("y2*y0^2 - y2*y1^2 - y2^3", YVARS)
        with pytest.raises(DegenerateDualError, match=r"^restricted form loses its leading "
                           r"coefficient \(a chart variable divides p\); supply factors$"):
            dual_curve_exact(p)

    @pytest.mark.parametrize("n", [6, 7])
    def test_generic_frontier(self, n):
        # the ROADMAP's generic draws; the Bezout discriminant keeps them to
        # about 0.2 s (n = 6) and 1.3 s (n = 7) on a 2-vCPU host
        dc = dual_curve_exact(pencil_det(split(random_gaussian_matrix(n, random.Random(1)))).p)
        assert dc.degree == n * (n - 1) and dc.validation_primes

    def test_generic_quartic(self):
        curve = pencil_det(split(random_gaussian_matrix(4, random.Random(1))))
        dc = dual_curve_exact(curve.p)
        assert 0 < dc.degree <= 12
        assert len(dc.validation_primes) == 2
        checked = 0
        for s in dual_sample(SpectralGrid(curve.pencil, 64)).samples:
            if s.singular or s.point is None:
                continue
            val, scale = eval_with_scale(dc.q, (1.0, *s.point))
            assert abs(val) <= VANISH_RTOL * scale
            checked += 1
        assert checked >= 64

    def test_huge_entries(self):
        # entries times s scale p to p(y0, s*y1, s*y2), hence q to q(s*x0, x1, x2)
        s = 10 ** 100
        A = fixture_matrix("cubic_cusp").scale(GaussianRational.of(s))
        dc = dual_curve_exact(pencil_det(split(A)).p)
        q = golden_poly("cubic_cusp_q.txt", XVARS)
        assert dc.q == TriPoly(XVARS, {e: c * s ** e[0] for e, c in q.terms.items()}).primitive()
        assert len(dc.validation_primes) == 2

    @pytest.mark.parametrize("name,power", [("cubic_cusp", -100), ("nested_ovals", -100),
                                            ("nested_ovals", 100)])
    def test_tiny_and_huge_entries(self, name, power):
        # the certificate runs modulo primes, whatever the size of the entries
        s = F(10) ** power
        A = fixture_matrix(name).scale(GaussianRational.of(s))
        dc = dual_curve_exact(pencil_det(split(A)).p)
        q = golden_poly(f"{name}_q.txt", XVARS)
        assert dc.q == TriPoly(XVARS, {e: c * s ** e[0] for e, c in q.terms.items()}).primitive()
        assert len(dc.validation_primes) == 2

    def test_term_order_does_not_move_the_audit(self):
        mats = [fixture_matrix(name) for name in ("cubic_cusp", "nested_ovals", "cross_star")]
        rng = random.Random(3)
        mats += [random_gaussian_matrix(3, rng) for _ in range(6)]
        for A in mats:
            p = pencil_det(split(A)).p
            flipped = TriPoly(YVARS, dict(reversed(p.terms.items())))
            assert dual_curve_exact(flipped) == dual_curve_exact(p)

    def test_audit_trail(self):
        dc = dual_curve_exact(cubic_p())
        assert dc.validation_primes == (2 ** 31 - 1, 2 ** 31 - 19)
        # no real points: the validation still runs, as it reads no point
        empty = dual_curve_exact(Y0 ** 2 + Y1 ** 2 + Y2 ** 2)
        assert empty.q == parse_poly("x0^2 + x1^2 + x2^2", XVARS)
        assert empty.validation_primes == dc.validation_primes

    def test_linear_squarefree_part_is_a_point(self):
        one_by_one = GaussianRationalMatrix([[GaussianRational.of(2, 3)]])
        scalar = GaussianRationalMatrix.identity(3).scale(GaussianRational.of(1, 1))
        for A in (one_by_one, scalar):
            p = pencil_det(split(A)).p
            with pytest.raises(DegenerateDualError, match="one point"):
                dual_curve_exact(p)


PRIMES = (2 ** 31 - 1, 2 ** 31 - 19)  # the two largest primes below 2^31
GOLDEN_Q = ("cubic_cusp", "cross_star", "disk", "nested_ovals")


class TestCertificate:
    """q is certified modulo two primes: every true q passes, and each wrong
    candidate, put in place of the elimination's, is refused."""

    @staticmethod
    def _certify(monkeypatch, p, q):
        """dual_curve_exact(p) with q as the candidate of the elimination."""
        monkeypatch.setattr(dualcurve, "_eliminate", lambda sf: (q, []))
        return dual_curve_exact(p)

    @staticmethod
    def _true_duals():
        """(p, q) for each fixture with an exact dual; cardioid_circle's q is the
        product of its two components' duals."""
        cases = [(pencil_det(split(fixture_matrix(name))).p, golden_poly(f"{name}_q.txt", XVARS))
                 for name in GOLDEN_Q]
        cardioid, circle = (golden_poly(f"cardioid_circle_dual_{part}.txt", XVARS)
                            for part in ("cardioid", "circle"))
        cases.append((pencil_det(split(fixture_matrix("cardioid_circle"))).p, cardioid * circle))
        return cases

    def test_true_q_is_accepted(self, monkeypatch):
        for p, q in self._true_duals():
            assert self._certify(monkeypatch, p, q).validation_primes == PRIMES

    def test_generic_duals_are_accepted(self):
        rng = random.Random(11)
        for n in (3, 4, 5):
            dc = dual_curve_exact(pencil_det(split(random_gaussian_matrix(n, rng))).p)
            assert 0 < dc.degree <= n * (n - 1) and dc.validation_primes == PRIMES

    def test_one_coefficient_raised_by_one(self, monkeypatch):
        for p, q in self._true_duals():
            assert q.content == 1
            for e in q.ints:
                wrong = q + TriPoly(XVARS, {e: 1})
                with pytest.raises(ReducibleCurveError, match="fails to vanish"):
                    self._certify(monkeypatch, p, wrong)

    def test_swapped_variables(self, monkeypatch):
        q = golden_poly("cubic_cusp_q.txt", XVARS)
        swapped = TriPoly(XVARS, {(a, c, b): v for (a, b, c), v in q.terms.items()})
        with pytest.raises(ReducibleCurveError, match="fails to vanish"):
            self._certify(monkeypatch, cubic_p(), swapped)

    def test_q_of_another_matrix(self, monkeypatch):
        others = [dual_curve_exact(pencil_det(split(random_gaussian_matrix(3, random.Random(5)))).p).q]
        others += [golden_poly(f"{name}_q.txt", XVARS) for name in GOLDEN_Q]
        tried = 0
        for name in GOLDEN_Q:
            p = pencil_det(split(fixture_matrix(name))).p
            n = p.total_degree()
            for q in others:
                if q != golden_poly(f"{name}_q.txt", XVARS) and q.total_degree() <= n * (n - 1):
                    with pytest.raises(ReducibleCurveError, match="fails to vanish"):
                        self._certify(monkeypatch, p, q)
                    tried += 1
        assert tried == 10

    def test_union_without_the_circle(self, monkeypatch):
        # p is the cardioid's cubic times the circle's conic cubed: the dual of
        # the cardioid alone misses the conic's component
        p = pencil_det(split(fixture_matrix("cardioid_circle"))).p
        cardioid = golden_poly("cardioid_circle_dual_cardioid.txt", XVARS)
        with pytest.raises(ReducibleCurveError, match="fails to vanish"):
            self._certify(monkeypatch, p, cardioid)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_mixed_magnitudes(self, seed):
        # parts from 10^-400 to 10^400 in one matrix; a float sweep of this curve
        # overflows (seed 4) or finds no point (seed 5)
        A = mixed_magnitude_matrix(3, random.Random(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dc = dual_curve_exact(pencil_det(split(A)).p)
        assert dc.degree == 6 and dc.validation_primes == PRIMES


class TestStoreWork:
    """The exact dual runs on the integer stores: no stage builds a Fraction
    view."""

    @pytest.mark.parametrize("name", ["cubic_cusp", "nested_ovals", "cardioid_circle"])
    def test_every_division_is_a_gcd_proof(self, monkeypatch, name):
        # the squarefree parts, the audit factor p/sf and the quotients of the
        # discriminant are the quotients of the gcds' own division proofs
        outside, depth = [], [0]
        line_gcd, idivexact = exactpoly._line_gcd, exactpoly._idivexact

        def gcd(*args):
            depth[0] += 1
            try:
                return line_gcd(*args)
            finally:
                depth[0] -= 1

        def division(f, g):
            if not depth[0]:
                outside.append(g)
            return idivexact(f, g)

        monkeypatch.setattr(exactpoly, "_line_gcd", gcd)
        monkeypatch.setattr(exactpoly, "_idivexact", division)
        p = pencil_det(split(fixture_matrix(name))).p
        dc = dual_curve_exact(p)
        assert outside == []
        if name != "cardioid_circle":
            assert dc.q == golden_poly(f"{name}_q.txt", XVARS)
        else:  # p = cubic * conic^3: the audit keeps conic^2, which is p / sf
            conic = parse_poly("4*y0^2 - y1^2 - y2^2", YVARS)
            assert dc.extraneous[0] == conic ** 2

    @pytest.mark.parametrize("name", ["cubic_cusp", "cross_star", "disk", "nested_ovals"])
    def test_no_fraction_view_inside_dual_curve_exact(self, monkeypatch, name):
        p = pencil_det(split(fixture_matrix(name))).p
        views, real = [], TriPoly._term_view

        def spy(f):
            views.append(f)
            return real(f)

        monkeypatch.setattr(TriPoly, "_term_view", spy)
        dc = dual_curve_exact(p)
        assert views == []
        assert dc.q == golden_poly(f"{name}_q.txt", XVARS)


class TestDualOfLinear:
    def test_examples(self):
        assert dual_of_linear(Y0 + 5 * Y1) == (F(1), F(5), F(0))
        assert dual_of_linear(Y0 + 4 * Y1 - Y2) == (F(1), F(4), F(-1))
        assert dual_of_linear(Y1) == (F(0), F(1), F(0))

    def test_rejects(self):
        with pytest.raises(ValueError):
            dual_of_linear(Y0 * Y1)
        with pytest.raises(ValueError):
            dual_of_linear(TriPoly.zero(YVARS))

    def test_rejects_a_constant_term(self):
        # y1 + 2 is no line through the origin of the y space: reading its
        # linear coefficients alone would give the dual point (0, 1, 0)
        with pytest.raises(ValueError, match="homogeneous"):
            dual_of_linear(parse_poly("y1 + 2", YVARS))


class TestDualUnion:
    def test_cardioid_and_circle(self):
        p = pencil_det(split(fixture_matrix("cardioid_circle"))).p
        cubic = parse_poly("4*y0^3 - 3*y0*y1^2 - 3*y0*y2^2 + y1^3 + y1*y2^2", YVARS)
        conic = parse_poly("4*y0^2 - y1^2 - y2^2", YVARS)
        comps = dual_union(p, [cubic, conic])
        assert len(comps) == 2
        assert all(len(c.validation_primes) == 2 for c in comps)
        assert comps[0].q == golden_poly("cardioid_circle_dual_cardioid.txt", XVARS)
        assert comps[1].q == golden_poly("cardioid_circle_dual_circle.txt", XVARS)
        assert all(c.provenance == "factor-union" for c in comps)

    def test_each_factor_is_proven_squarefree_once(self, monkeypatch):
        proofs = []
        line_gcd = exactpoly._line_gcd

        def spy(ops, targets):
            if len(ops) == 1:
                proofs.append(ops[0])
            return line_gcd(ops, targets)

        monkeypatch.setattr(exactpoly, "_line_gcd", spy)
        p = pencil_det(split(fixture_matrix("cardioid_circle"))).p
        cubic = parse_poly("4*y0^3 - 3*y0*y1^2 - 3*y0*y2^2 + y1^3 + y1*y2^2", YVARS)
        conic = parse_poly("4*y0^2 - y1^2 - y2^2", YVARS)
        comps = dual_union(p, [cubic, conic])
        assert comps[1].q == golden_poly("cardioid_circle_dual_circle.txt", XVARS)
        assert [proofs.count(f.ints) for f in (cubic, conic)] == [1, 1]

    def test_refusals_keep_their_types_and_messages(self):
        # a factor of degree >= 2 is not proven squarefree twice, but meets the
        # same refusals as before: it must depend on both chart variables, a
        # zero factor and a line off the origin are refused
        f1, f2 = parse_poly("y0^2 - y1^2 - y0*y1", YVARS), parse_poly("y0 + y2", YVARS)
        with pytest.raises(DegenerateDualError) as exc:
            dual_union(f1 * f2, [f1, f2])
        assert type(exc.value) is DegenerateDualError
        assert str(exc.value) == ("p does not depend on both chart variables; dualize factors "
                                  "directly (dual_of_linear / dual_union) or sample numerically")
        with pytest.raises(DegenerateDualError, match="^p does not depend on both chart"):
            dual_union(DISK_CONIC * f1, [DISK_CONIC, f1])
        with pytest.raises(ZeroPolynomialError, match="^zero factor$"):
            dual_union(f2, [TriPoly.zero(YVARS)])
        line = parse_poly("y1 + 2", YVARS)
        with pytest.raises(ValueError) as exc:
            dual_union(line * DISK_CONIC, [DISK_CONIC, line])
        assert type(exc.value) is ValueError
        assert str(exc.value) == "dual_of_linear expects a homogeneous linear form"

    def test_four_point_polytope(self):
        p = pencil_det(split(fixture_matrix("polytope"))).p
        facs = [parse_poly(s, YVARS) for s in
                ("y0 + 5*y1", "y0 + 3*y1", "y0 + 4*y1 + y2", "y0 + 4*y1 - y2")]
        comps = dual_union(p, facs)
        assert comps == [(F(1), F(5), F(0)), (F(1), F(3), F(0)),
                         (F(1), F(4), F(1)), (F(1), F(4), F(-1))]

    def test_single_factor_matches_exact(self):
        p = cubic_p()
        comps = dual_union(p, [p])
        assert len(comps) == 1
        assert comps[0].q == dual_curve_exact(p).q

    def test_wrong_product_rejected(self):
        with pytest.raises(ProductMismatchError):
            dual_union(cubic_p(), [Y0 + Y1, Y0 - Y1])

    def test_non_coprime_rejected(self):
        p = (Y0 + Y1) * (Y0 - Y1) * (Y0 + Y2)
        with pytest.raises(ValueError):
            dual_union(p, [(Y0 + Y1) * (Y0 + Y2), Y0 + Y2])

    def test_linear_factors_take_no_gcd(self, monkeypatch):
        # a degree-1 factor is squarefree, and two are coprime unless proportional:
        # only the squarefree part of p is left to a gcd
        calls = []
        line_gcd = exactpoly._line_gcd
        monkeypatch.setattr(exactpoly, "_line_gcd",
                            lambda ops, targets: calls.append(1) or line_gcd(ops, targets))
        p = pencil_det(split(fixture_matrix("polytope"))).p
        facs = [parse_poly(s, YVARS) for s in
                ("y0 + 5*y1", "y0 + 3*y1", "y0 + 4*y1 + y2", "y0 + 4*y1 - y2")]
        assert dual_union(p, facs)[0] == (F(1), F(5), F(0))
        assert len(calls) == 1
        for twin in (F(2) * facs[0], -facs[0], facs[0]):
            with pytest.raises(ValueError, match="^factors are not pairwise coprime$"):
                dual_union(p, facs + [twin])


class TestRefuseProductOfForms:
    def test_raises_what_the_elimination_raises(self):
        # p = prod (y0 + a*y1 + b*y2) over seeded Gaussian rationals a + i*b, with
        # repeats, and with all a or all b zero now and then: each of the three
        # refusals is met
        rng = random.Random(36)
        pool = [F(k, d) for k in range(-3, 4) for d in (1, 2, 3)]
        seen = set()
        for _ in range(40):
            points = [GaussianRational(rng.choice(pool), rng.choice(pool))
                      for _ in range(rng.randint(1, 3))]
            points += rng.sample(points, rng.randint(0, len(points)))
            zero = rng.randrange(8)
            if zero < 2:
                points = [GaussianRational(*((0, z.im) if zero == 0 else (z.re, 0)))
                          for z in points]
            p = TriPoly.constant(1, YVARS)
            for z in points:
                p = p * TriPoly(YVARS, {(1, 0, 0): 1, (0, 1, 0): z.re, (0, 0, 1): z.im})
            with pytest.raises(ValueError) as want:
                dual_curve_exact(p)
            with pytest.raises(ValueError) as got:
                dualcurve._refuse_product_of_forms(p, points)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
            seen.add(str(want.value).split()[0])
        assert seen == {"p", "squarefree", "every"}


def _samples(A, N):
    return dual_sample(SpectralGrid(split(A), N))


class TestDualSample:
    def test_disk_half_radius_circle(self):
        samples = _samples(fixture_matrix("disk"), 16)
        pts = [s.point for s in samples.samples if s.point is not None]
        assert len(pts) >= 16
        for x1, x2 in pts:
            assert abs(math.hypot(x1, x2) - 0.5) < 1e-9

    def test_cubic_samples_satisfy_exact_dual(self):
        q = golden_poly("cubic_cusp_q.txt", XVARS)
        samples = _samples(fixture_matrix("cubic_cusp"), 64)
        checked = 0
        for s in samples.samples:
            if s.singular or s.point is None:
                continue
            val, scale = eval_with_scale(q, (1.0, *s.point))
            assert abs(val) <= 1e-6 * scale
            checked += 1
        assert checked >= 100

    def test_nested_ovals_branches(self):
        q = golden_poly("nested_ovals_q.txt", XVARS)
        samples = _samples(fixture_matrix("nested_ovals"), 90)
        indices = {s.root_index for s in samples.samples}
        assert indices == {0, 1, 2, 3}
        for s in samples.samples:
            if s.singular or s.point is None:
                continue
            val, scale = eval_with_scale(q, (1.0, *s.point))
            assert abs(val) <= 1e-6 * scale

    def test_deterministic_ordering(self):
        A = fixture_matrix("disk")
        a = dual_sample_csv(_samples(A, 16))
        b = dual_sample_csv(_samples(A, 16))
        assert a == b
        keys = [(s.theta, s.root_index) for s in _samples(A, 16).samples]
        assert keys == sorted(keys)

    def test_huge_entries_scale_the_samples(self):
        # entries times 10^100 scale W(A), hence every chart point, by 10^100
        base = _samples(fixture_matrix("nested_ovals"), 90)
        huge = _samples(fixture_matrix("nested_ovals").scale(GaussianRational.of(10 ** 100)), 90)
        assert len(huge.samples) == len(base.samples)
        for a, b in zip(base.samples, huge.samples):
            assert (a.theta, a.root_index, a.singular) == (b.theta, b.root_index, b.singular)
            assert (a.point is None) == (b.point is None)
            if a.point is not None:
                assert np.allclose(np.array(b.point) / 1e100, a.point, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("name", ("cubic_cusp", "polytope", "cardioid_circle", "tiny"))
    def test_lazy_samples_are_the_per_point_list(self, name):
        """The samples built from the columns are the list made one point at a
        time from the grid's eigenpairs: Python floats, ints and bools, and
        None where a sample has no chart point."""
        A = fixture_matrix("nested_ovals" if name == "tiny" else name)
        if name == "tiny":
            A = A.scale(GaussianRational.of(Fraction(1, 10 ** 100)))
        pencil = split(A)
        f1, f2 = pencil.A1.to_complex(), pencil.A2.to_complex()
        for N in (16, 90, 720):
            grid = SpectralGrid(pencil, N)
            want = []
            for theta, w, vecs in zip(grid.thetas.tolist(), grid.eigvals, grid.eigvecs):
                for i in np.flatnonzero(_root_eigs(w)).tolist():
                    gap = min((abs(w[i] - w[j]) for j in (i - 1, i + 1) if 0 <= j < len(w)),
                              default=math.inf)
                    singular = bool(gap <= EIG_GAP_RTOL * np.abs(w).max())
                    v = vecs[:, i]
                    pt = None if singular else tuple(
                        float(np.einsum("i,ij,j->", v.conj(), f, v).real) for f in (f1, f2))
                    want.append(CurveSample(theta=theta, point=pt, root_index=i,
                                            singular=singular))
            got = dual_sample(grid)
            assert repr(got.samples) == repr(want), N
            assert (name == "tiny") == all(s.point is not None for s in want), N

    def test_cardioid_circle_rows_near_the_axis_are_smooth(self):
        # p is the cubic times the conic cubed; on the rays next to the x-axis the
        # roots of eigenvalue index 0, 4 and 8 lie clear of the conic's triple
        # eigenvalue, and their samples are smooth points on a golden dual
        samples = _samples(fixture_matrix("cardioid_circle"), 1440)
        k = np.rint(samples.theta * 1440 / (2 * math.pi)).astype(int)
        rows = np.flatnonzero(np.isin(k, (1, 719, 721, 1439))
                              & np.isin(samples.root_index, (0, 4, 8)))
        assert set(k[rows].tolist()) == {1, 719, 721, 1439}
        for j in rows.tolist():
            assert not samples.singular[j] and samples.finite[j]
            assert cardioid_circle_dual_residual(samples.x[j], samples.y[j]) <= 1e-12

    def test_point_budget(self):
        A = fixture_matrix("cross_star")
        samples = _samples(A, 32)
        assert len(samples.samples) <= 32 * A.n


class TestBiduality:
    def test_cubic_roundtrip(self):
        # the dual of the dual is the curve: at each non-singular Rayleigh pair
        # x, grad q(x) is parallel to the ray root y = (1, t*cos_k, t*sin_k)
        # whose eigenvector gave x
        q = golden_poly("cubic_cusp_q.txt", XVARS)
        grid = SpectralGrid(split(fixture_matrix("cubic_cusp")), 60)
        k, _, t = grid.line_roots()
        samples = dual_sample(grid)
        back = 0
        for j in np.flatnonzero(~samples.singular).tolist():
            x = (1.0, samples.x[j], samples.y[j])
            g = np.array([eval_with_scale(q.partial(i), x)[0] for i in range(3)])
            y = np.array([1.0, t[j] * grid.cos[k[j]], t[j] * grid.sin[k[j]]])
            assert np.linalg.norm(np.cross(g, y)) <= 1e-6 * np.linalg.norm(g) * np.linalg.norm(y)
            back += 1
        assert back >= 170
