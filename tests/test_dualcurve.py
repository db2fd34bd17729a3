import math
import random
from fractions import Fraction

import numpy as np
import pytest

from numrange.dualcurve import (
    VANISH_RTOL,
    XVARS,
    DegenerateDualError,
    ProductMismatchError,
    SingularPointError,
    dual_curve_exact,
    dual_of_linear,
    dual_point,
    dual_sample,
    dual_sample_csv,
    dual_union,
    sample_real_curve_points,
    _grid_dual_sample,
)
from numrange.exactpoly import GaussianRational, TriPoly, parse_poly
from numrange.hermitian import GaussianRationalMatrix, split
from numrange.pencil import YVARS, PencilCurve, SpectralGrid, pencil_det

from conftest import fixture_matrix, golden_poly, random_gaussian_matrix

F = Fraction
Y0 = TriPoly.variable(0, YVARS)
Y1 = TriPoly.variable(1, YVARS)
Y2 = TriPoly.variable(2, YVARS)

DISK_CONIC = Y0 ** 2 - F(1, 4) * Y1 ** 2 - F(1, 4) * Y2 ** 2


def cubic_p():
    return pencil_det(split(fixture_matrix("cubic_cusp"))).p


class TestDualPoint:
    def test_conic_gradient(self):
        dp = dual_point(DISK_CONIC, (F(1), F(2), F(0)))
        assert dp.exact
        assert dp.raw == (F(2), F(-1), F(0))
        assert np.allclose(dp.chart, (-0.5, 0.0))

    def test_linear_constant_gradient(self):
        l = Y0 + 5 * Y1
        dp = dual_point(l, (F(1), F(-1, 5), F(7)))
        assert dp.raw == (F(1), F(5), F(0))

    def test_cubic_point_lands_on_dual(self):
        p = cubic_p()
        q = golden_poly("cubic_cusp_q.txt", XVARS)
        dp = dual_point(p, (F(1), F(1), F(0)))
        assert q.eval(dp.raw) == 0  # exact root membership

    def test_singular_point_reported(self):
        with pytest.raises(SingularPointError):
            dual_point(cubic_p(), (F(1), F(-1), F(0)))

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError):
            dual_point(cubic_p(), (F(1), F(2), F(3)))

    def test_float_points(self):
        p = DISK_CONIC
        th = 0.7
        y = (1.0, 2 * math.cos(th), 2 * math.sin(th))
        dp = dual_point(p, y)
        assert not dp.exact
        assert abs(math.hypot(*dp.chart) - 0.5) < 1e-12


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

    def test_generic_quartic(self):
        curve = pencil_det(split(random_gaussian_matrix(4, random.Random(1))))
        dc = dual_curve_exact(curve.p)
        assert 0 < dc.degree <= 12
        assert dc.validation_points >= 8 and dc.worst_residual <= VANISH_RTOL
        checked = 0
        for s in dual_sample(curve, 64).samples:
            if s.singular or s.point is None:
                continue
            val, scale = dc.q.eval_with_scale((1.0, *s.point))
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
        assert dc.validation_points >= 8 and dc.worst_residual <= VANISH_RTOL

    @pytest.mark.parametrize("name,power", [("cubic_cusp", -100), ("nested_ovals", -100),
                                            ("nested_ovals", 100)])
    def test_tiny_and_huge_entries(self, name, power):
        # validation runs on p(y0, 2^k*y1, 2^k*y2), whose chart roots are near 1
        s = F(10) ** power
        A = fixture_matrix(name).scale(GaussianRational.of(s))
        dc = dual_curve_exact(pencil_det(split(A)).p)
        q = golden_poly(f"{name}_q.txt", XVARS)
        assert dc.q == TriPoly(XVARS, {e: c * s ** e[0] for e, c in q.terms.items()}).primitive()
        assert dc.validation_points >= 8 and dc.worst_residual <= VANISH_RTOL

    def test_term_order_does_not_move_the_audit(self):
        mats = [fixture_matrix(name) for name in ("cubic_cusp", "nested_ovals", "cross_star")]
        rng = random.Random(3)
        mats += [random_gaussian_matrix(3, rng) for _ in range(6)]
        for A in mats:
            p = pencil_det(split(A)).p
            flipped = TriPoly(YVARS, dict(reversed(p.terms.items())))
            assert sample_real_curve_points(flipped, 200) == sample_real_curve_points(p, 200)
            assert dual_curve_exact(flipped) == dual_curve_exact(p)

    def test_audit_trail(self):
        dc = dual_curve_exact(cubic_p())
        assert dc.validation_points >= 8
        assert 0.0 <= dc.worst_residual <= VANISH_RTOL
        # no real points: validation is skipped, and says so
        empty = dual_curve_exact(Y0 ** 2 + Y1 ** 2 + Y2 ** 2)
        assert empty.q == parse_poly("x0^2 + x1^2 + x2^2", XVARS)
        assert empty.validation_points == 0 and empty.worst_residual is None

    def test_linear_squarefree_part_is_a_point(self):
        one_by_one = GaussianRationalMatrix([[GaussianRational.of(2, 3)]])
        scalar = GaussianRationalMatrix.identity(3).scale(GaussianRational.of(1, 1))
        for A in (one_by_one, scalar):
            p = pencil_det(split(A)).p
            with pytest.raises(DegenerateDualError, match="one point"):
                dual_curve_exact(p)


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


class TestDualUnion:
    def test_cardioid_and_circle(self):
        p = pencil_det(split(fixture_matrix("cardioid_circle"))).p
        cubic = parse_poly("4*y0^3 - 3*y0*y1^2 - 3*y0*y2^2 + y1^3 + y1*y2^2", YVARS)
        conic = parse_poly("4*y0^2 - y1^2 - y2^2", YVARS)
        comps = dual_union(p, [cubic, conic])
        assert len(comps) == 2
        assert all(c.validation_points >= 8 for c in comps)
        assert comps[0].q == golden_poly("cardioid_circle_dual_cardioid.txt", XVARS)
        assert comps[1].q == golden_poly("cardioid_circle_dual_circle.txt", XVARS)
        assert all(c.provenance == "factor-union" for c in comps)

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


class TestDualSample:
    def test_disk_half_radius_circle(self):
        curve = pencil_det(split(fixture_matrix("disk")))
        samples = dual_sample(curve, 16)
        pts = [s.point for s in samples.samples if s.point is not None]
        assert len(pts) >= 16
        for x1, x2 in pts:
            assert abs(math.hypot(x1, x2) - 0.5) < 1e-9

    def test_cubic_samples_satisfy_exact_dual(self):
        curve = pencil_det(split(fixture_matrix("cubic_cusp")))
        q = golden_poly("cubic_cusp_q.txt", XVARS)
        samples = dual_sample(curve, 64)
        checked = 0
        for s in samples.samples:
            if s.singular or s.point is None:
                continue
            val, scale = q.eval_with_scale((1.0, *s.point))
            assert abs(val) <= 1e-6 * scale
            checked += 1
        assert checked >= 100

    def test_nested_ovals_branches(self):
        curve = pencil_det(split(fixture_matrix("nested_ovals")))
        q = golden_poly("nested_ovals_q.txt", XVARS)
        samples = dual_sample(curve, 90)
        indices = {s.root_index for s in samples.samples}
        assert indices == {0, 1, 2, 3}
        for s in samples.samples:
            if s.singular or s.point is None:
                continue
            val, scale = q.eval_with_scale((1.0, *s.point))
            assert abs(val) <= 1e-6 * scale

    def test_deterministic_ordering(self):
        curve = pencil_det(split(fixture_matrix("disk")))
        a = dual_sample_csv(dual_sample(curve, 16))
        b = dual_sample_csv(dual_sample(curve, 16))
        assert a == b
        keys = [(s.theta, s.root_index) for s in dual_sample(curve, 16).samples]
        assert keys == sorted(keys)

    def test_term_order_does_not_move_samples(self):
        mats = [fixture_matrix(name) for name in ("cross_star", "nested_ovals", "polytope")]
        rng = random.Random(83)
        mats += [random_gaussian_matrix(n, rng) for n in (3, 4, 5)]
        for A in mats:
            curve = pencil_det(split(A))
            flipped = PencilCurve(TriPoly(YVARS, dict(reversed(curve.p.terms.items()))),
                                  curve.pencil)
            grid = SpectralGrid(curve.pencil, 720)
            a, b = (_grid_dual_sample(c, grid) for c in (curve, flipped))
            assert a.samples == b.samples
            assert dual_sample_csv(a) == dual_sample_csv(b)

    def test_huge_entries_scale_the_samples(self):
        # entries times 10^100 scale W(A), hence every chart point, by 10^100
        base = dual_sample(pencil_det(split(fixture_matrix("nested_ovals"))), 90)
        A = fixture_matrix("nested_ovals").scale(GaussianRational.of(10 ** 100))
        huge = dual_sample(pencil_det(split(A)), 90)
        assert len(huge.samples) == len(base.samples)
        for a, b in zip(base.samples, huge.samples):
            assert (a.theta, a.root_index, a.singular) == (b.theta, b.root_index, b.singular)
            assert (a.point is None) == (b.point is None)
            if a.point is not None:
                assert np.allclose(np.array(b.point) / 1e100, a.point, rtol=1e-9, atol=0)

    def test_point_budget(self):
        curve = pencil_det(split(fixture_matrix("cross_star")))
        samples = dual_sample(curve, 32)
        assert len(samples.samples) <= 32 * curve.pencil.n


class TestBiduality:
    def test_cubic_roundtrip(self):
        p = cubic_p()
        q = golden_poly("cubic_cusp_q.txt", XVARS)
        pts = sample_real_curve_points(q.with_vars(YVARS), 60)
        back = 0
        for x in pts:
            try:
                dp = dual_point(q.with_vars(YVARS), x)
            except SingularPointError:
                continue
            val, scale = p.eval_with_scale(dp.raw)
            assert abs(val) <= 1e-6 * scale
            back += 1
        assert back >= 30
