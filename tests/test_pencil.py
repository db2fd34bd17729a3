import math
import random
from fractions import Fraction

import numpy as np
import pytest

from numrange.exactpoly import GaussianRational, TriPoly, parse_poly
from numrange.hermitian import GaussianRationalMatrix, split
from numrange.pencil import (
    YVARS,
    PencilCurve,
    SpectralGrid,
    boundary_F,
    boundary_csv,
    hyperbolicity_check,
    lmi_member,
    lmi_polytope_vertices,
    pencil_det,
    ray_exit,
    line_roots_from_eigs,
    restrict_to_line,
)
from numrange.rangegeom import polygon_is_convex

from conftest import fixture_matrix, golden_poly, random_gaussian_matrix

F = Fraction


class TestPencilDet:
    def test_cubic_fixture_exact(self):
        curve = pencil_det(split(fixture_matrix("cubic_cusp")))
        assert curve.p == golden_poly("cubic_cusp_p.txt", YVARS)

    def test_identity_pencil(self):
        curve = pencil_det(split(GaussianRationalMatrix.identity(2)))
        y0 = TriPoly.variable(0, YVARS)
        y1 = TriPoly.variable(1, YVARS)
        assert curve.p == (y0 + y1) ** 2

    def test_nilpotent_disk(self):
        curve = pencil_det(split(fixture_matrix("disk")))
        assert curve.p == parse_poly("y0^2 - 1/4*y1^2 - 1/4*y2^2", YVARS)

    def test_cross_star_normalization(self):
        # the 1/64 factor is forced by p(1,0,0) = 1
        curve = pencil_det(split(fixture_matrix("cross_star")))
        assert curve.p == golden_poly("cross_star_p.txt", YVARS)
        assert curve.p.terms[(0, 4, 0)] == F(1, 64)

    def test_unit_at_origin_and_homogeneous(self):
        rng = random.Random(211)
        for _ in range(8):
            A = random_gaussian_matrix(rng.randint(1, 5), rng)
            curve = pencil_det(split(A))
            assert curve.p.eval((F(1), F(0), F(0))) == 1
            assert curve.p.is_homogeneous()
            assert curve.p.total_degree() == A.n
            assert not curve.p.has_gaussian_coeffs()

    def test_complex_pencil_imaginary_cancellation(self):
        curve = pencil_det(split(fixture_matrix("nested_ovals")))
        assert curve.p == golden_poly("nested_ovals_p.txt", YVARS)

    def test_curve_validation(self):
        pencil = split(fixture_matrix("disk"))
        y0 = TriPoly.variable(0, YVARS)
        with pytest.raises(ValueError):
            PencilCurve(p=2 * y0 ** 2, pencil=pencil)

    def test_det_matches_eigenvalue_product(self):
        rng = random.Random(229)
        for name in ("cubic_cusp", "nested_ovals", "cross_star", "disk"):
            pencil = split(fixture_matrix(name))
            curve = pencil_det(pencil)
            f1, f2 = pencil.float_parts()
            for _ in range(100):
                y1, y2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
                Fm = np.eye(pencil.n) + y1 * f1 + y2 * f2
                prod = float(np.prod(np.linalg.eigvalsh(Fm)))
                val, scale = curve.p.eval_with_scale((1.0, y1, y2))
                assert abs(val - prod) <= 1e-8 * max(scale, abs(prod), 1e-12)


class TestMembership:
    def test_origin_always_inside(self):
        rng = random.Random(223)
        for _ in range(5):
            pencil = split(random_gaussian_matrix(rng.randint(1, 5), rng))
            assert lmi_member(pencil, (0.0, 0.0))

    def test_cubic_boundary_point(self):
        pencil = split(fixture_matrix("cubic_cusp"))
        assert lmi_member(pencil, (1.0, 0.0))
        assert not lmi_member(pencil, (2.0, 0.0))


class TestRayExit:
    def test_cubic_east(self):
        pencil = split(fixture_matrix("cubic_cusp"))
        curve = pencil_det(pencil)
        exit_ = ray_exit(pencil, (1.0, 0.0))
        assert exit_.bounded and abs(exit_.t_exit - 1.0) < 1e-12
        assert np.allclose(exit_.point, (1.0, 0.0))
        val, scale = curve.p.eval_with_scale((1.0, *exit_.point))
        assert abs(val) <= 1e-8 * scale

    def test_identity_unbounded_north(self):
        pencil = split(GaussianRationalMatrix.identity(2))
        assert not ray_exit(pencil, (0.0, 1.0)).bounded
        west = ray_exit(pencil, (-1.0, 0.0))
        assert west.bounded and abs(west.t_exit - 1.0) < 1e-12

    def test_disk_radius_two_everywhere(self):
        pencil = split(fixture_matrix("disk"))
        rng = random.Random(227)
        for _ in range(12):
            th = rng.uniform(0, 2 * math.pi)
            exit_ = ray_exit(pencil, (math.cos(th), math.sin(th)))
            assert abs(exit_.t_exit - 2.0) < 1e-12

    def test_non_unit_direction_rejected(self):
        pencil = split(fixture_matrix("disk"))
        with pytest.raises(ValueError):
            ray_exit(pencil, (1.0, 1.0))

    def test_exit_lambda_min_window(self):
        pencil = split(fixture_matrix("cubic_cusp"))
        for k in range(16):
            th = 2 * math.pi * k / 16
            exit_ = ray_exit(pencil, (math.cos(th), math.sin(th)))
            if exit_.bounded:
                assert abs(exit_.lambda_min_at_exit) <= 1e-9


class TestBoundary:
    def test_disk_square_grid(self):
        samples = boundary_F(split(fixture_matrix("disk")), 4)
        pts = samples.finite_points()
        assert np.allclose(pts, [(2, 0), (0, 2), (-2, 0), (0, -2)], atol=1e-12)

    def test_identity_half_plane(self):
        samples = boundary_F(split(GaussianRationalMatrix.identity(2)), 4)
        finite = [s for s in samples.samples if s.point is not None]
        assert len(finite) == 1
        assert abs(finite[0].theta - math.pi) < 1e-12
        assert np.allclose(finite[0].point, (-1.0, 0.0))

    def test_nested_ovals_points_on_curve(self):
        pencil = split(fixture_matrix("nested_ovals"))
        curve = pencil_det(pencil)
        samples = boundary_F(pencil, 720)
        assert not samples.all_unbounded
        for pt in samples.finite_points():
            val, scale = curve.p.eval_with_scale((1.0, *pt))
            assert abs(val) <= 1e-7 * scale

    def test_polygon_convex(self):
        for name in ("cubic_cusp", "nested_ovals", "cross_star", "disk"):
            samples = boundary_F(split(fixture_matrix(name)), 240)
            assert polygon_is_convex(samples.finite_points(), tol=1e-9)

    def test_refinement_moves_points_little(self):
        pencil = split(fixture_matrix("cubic_cusp"))
        coarse = boundary_F(pencil, 90)
        fine = boundary_F(pencil, 180)
        tmax = max(math.hypot(*p) for p in coarse.finite_points())
        mesh = tmax * 2 * math.pi / 90
        fine_pts = np.array(fine.finite_points())
        for p in coarse.finite_points():
            d = np.hypot(fine_pts[:, 0] - p[0], fine_pts[:, 1] - p[1]).min()
            assert d <= mesh

    def test_degenerate_all_unbounded(self):
        samples = boundary_F(split(GaussianRationalMatrix.zero(3)), 8)
        assert samples.all_unbounded and not samples.samples

    def test_csv_format(self):
        samples = boundary_F(split(GaussianRationalMatrix.identity(2)), 4)
        text = boundary_csv(samples)
        lines = text.strip().split("\n")
        assert lines[0] == "theta,y1,y2,lambda_min"
        assert len(lines) == 5
        assert lines[1].endswith("inf,inf,inf")

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            boundary_F(split(fixture_matrix("disk")), 2)


FIXTURE_NAMES = ("disk", "cubic_cusp", "cross_star", "nested_ovals", "polytope",
                 "cardioid_circle")


class TestSpectralGrid:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_other_is_the_half_grid(self, name):
        pencil = split(fixture_matrix(name))
        for N in (90, 720):
            half, coarse = SpectralGrid(pencil, 2 * N).every_other(), SpectralGrid(pencil, N)
            for attr in ("thetas", "cos", "sin", "eigvals", "eigvecs"):
                got, want = getattr(half, attr), getattr(coarse, attr)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), attr

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_ray_exit_is_the_boundary_sample(self, name):
        pencil = split(fixture_matrix(name))
        N = 72
        for k, s in enumerate(boundary_F(pencil, N).samples):
            theta = 2.0 * math.pi * k / N
            exit_ = ray_exit(pencil, (math.cos(theta), math.sin(theta)))
            assert s.theta == theta
            if s.point is None:
                assert not exit_.bounded
            else:
                assert exit_.point == s.point
                assert exit_.lambda_min_at_exit == s.lambda_min

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ("zero_eigenvalue",))
    def test_line_roots_are_the_per_angle_roots(self, name):
        A = (GaussianRationalMatrix.diagonal([GaussianRational.ZERO, GaussianRational.ONE])
             if name == "zero_eigenvalue" else fixture_matrix(name))
        grid = SpectralGrid(split(A), 90)
        want = []
        for k, eigs in enumerate(grid.eigvals.tolist()):
            scale = max(1.0, max(abs(lam) for lam in eigs))
            roots = [(i, -1.0 / lam) for i, lam in enumerate(eigs) if abs(lam) > 1e-14 * scale]
            assert line_roots_from_eigs(grid.eigvals[k]) == roots
            want += [(k, i, t) for i, t in roots]
        k, idx, t = grid.line_roots()
        assert list(zip(k.tolist(), idx.tolist(), t.tolist())) == want

    def test_eigenpairs(self):
        pencil = split(fixture_matrix("nested_ovals"))
        f1, f2 = pencil.float_parts()
        grid = SpectralGrid(pencil, 16)
        for k, theta in enumerate(grid.thetas):
            H = math.cos(theta) * f1 + math.sin(theta) * f2
            V, w = grid.eigvecs[k], grid.eigvals[k]
            assert np.all(np.diff(w) >= 0)
            assert np.linalg.norm(H @ V - V * w) <= 1e-12 * max(1.0, np.abs(w).max())


class TestHyperbolicity:
    def test_cubic_lines_have_three_real_roots(self):
        curve = pencil_det(split(fixture_matrix("cubic_cusp")))
        report = hyperbolicity_check(curve, trials=12)
        assert report.ok
        assert all(l.degree == 3 for l in report.lines)
        assert report.max_eig_residual < 1e-8
        assert report.max_imag_residue < 1e-8

    def test_multiple_root_line_power(self):
        # identity pencil: p = (y0+y1)^2, every line sees one double real root
        curve = pencil_det(split(GaussianRationalMatrix.identity(2)))
        report = hyperbolicity_check(curve, trials=6)
        assert report.ok
        assert all(l.distinct_roots_expected in (0, 1) for l in report.lines)

    def test_polytope_four_real_roots(self):
        curve = pencil_det(split(fixture_matrix("polytope")))
        report = hyperbolicity_check(curve, trials=10)
        assert report.ok

    def test_huge_entries(self):
        # the exact line restrictions reach 10^400; the float cross-check scales them
        A = fixture_matrix("nested_ovals").scale(GaussianRational.of(10 ** 100))
        report = hyperbolicity_check(pencil_det(split(A)), trials=16)
        assert report.ok
        assert report.max_eig_residual < 1e-8

    def test_restrict_to_line_exact(self):
        curve = pencil_det(split(fixture_matrix("cubic_cusp")))
        coeffs = restrict_to_line(curve.p, F(1), F(0))
        # p(1, t, 0) = (1-t)(1+t)^2
        assert coeffs == [F(1), F(1), F(-1), F(-1)]


class TestLmiPolytope:
    def test_square(self):
        facs = [parse_poly(s, YVARS) for s in ("y0 + y1", "y0 - y1", "y0 + y2", "y0 - y2")]
        poly = lmi_polytope_vertices(facs)
        assert poly.bounded
        assert set(poly.vertices) == {(F(1), F(1)), (F(1), F(-1)), (F(-1), F(1)), (F(-1), F(-1))}

    def test_unbounded_cone_with_frame(self):
        facs = [parse_poly(s, YVARS) for s in
                ("y0 + 5*y1", "y0 + 3*y1", "y0 + 4*y1 + y2", "y0 + 4*y1 - y2")]
        poly = lmi_polytope_vertices(facs)
        assert not poly.bounded
        assert set(poly.vertices) == {(F(-1, 5), F(1, 5)), (F(-1, 5), F(-1, 5))}
        assert set(poly.facet_line_vertices) == {
            (F(-1, 4), F(0)), (F(-1, 5), F(1, 5)), (F(-1, 5), F(-1, 5))}

    def test_redundant_constraint_dropped_from_frame(self):
        # unit square plus a far redundant constraint
        facs = [parse_poly(s, YVARS) for s in
                ("y0 + y1", "y0 - y1", "y0 + y2", "y0 - y2", "2*y0 + y1")]
        poly = lmi_polytope_vertices(facs)
        assert len(poly.facet_line_vertices) == 4
        assert len(poly.vertices) == 4

    def test_origin_line_rejected(self):
        with pytest.raises(ValueError):
            lmi_polytope_vertices([parse_poly("y1 + y2", YVARS)])
