import math
import random
from fractions import Fraction

import numpy as np

from numrange.exactpoly import GaussianRational
from numrange.hermitian import GaussianRationalMatrix, is_normal, split
from numrange.pencil import pencil_det
from numrange.dualcurve import dual_sample
from numrange.rangegeom import (
    convex_hull,
    duality_check,
    hausdorff_outer_to_inner,
    member_W,
    point_to_polygon_distance,
    polygon_is_convex,
    polygon_support,
    polytope_detect,
    range_hulls,
    support,
    translate_scale_law,
)

from conftest import fixture_matrix, random_gaussian_matrix

F = Fraction
G = GaussianRational.of


def gmatrix(rows):
    return GaussianRationalMatrix(
        [[e if isinstance(e, GaussianRational) else G(F(e)) for e in row] for row in rows])


def _hausdorff_vs_polygon(poly_a, poly_b, n_angles=2048):
    """Hausdorff distance between convex polygons via support functions."""
    th = np.linspace(0, 2 * np.pi, n_angles, endpoint=False)
    return float(np.abs(polygon_support(poly_a, th) - polygon_support(poly_b, th)).max())


class TestSupport:
    def test_cubic_theta_zero(self):
        s = support(fixture_matrix("cubic_cusp"), 0.0)
        assert abs(s.h - 1.0) < 1e-12
        assert abs(s.witness[0] - 1.0) < 1e-9

    def test_identity(self):
        A = GaussianRationalMatrix.identity(3)
        for th in (0.0, 1.0, 2.5):
            s = support(A, th)
            assert abs(s.h - math.cos(th)) < 1e-12
            assert np.allclose(s.witness, (1.0, 0.0), atol=1e-12)

    def test_disk_constant_half(self):
        A = fixture_matrix("disk")
        for th in np.linspace(0, 2 * math.pi, 9):
            assert abs(support(A, th).h - 0.5) < 1e-12

    def test_matches_the_hull_grid(self):
        N = 48
        for name in ("disk", "cubic_cusp", "cross_star", "nested_ovals", "polytope"):
            A = fixture_matrix(name)
            hulls = range_hulls(A, N)
            for k in range(N):
                s = support(A, 2.0 * math.pi * k / N)
                assert s.h == hulls.support_values[k]
                assert s.witness == hulls.witnesses[k]


class TestRangeHulls:
    def test_disk_hausdorff(self):
        hulls = range_hulls(fixture_matrix("disk"), 360)
        th = np.linspace(0, 2 * np.pi, 1440, endpoint=False)
        # support function of the radius-1/2 disk is identically 1/2
        assert np.abs(polygon_support(hulls.outer, th) - 0.5).max() < 1e-3
        assert np.abs(polygon_support(hulls.inner, th) - 0.5).max() < 1e-3

    def test_hermitian_segment(self):
        A = gmatrix([[2, 1], [1, -1]])  # real symmetric: W = [lmin, lmax] x {0}
        w = np.linalg.eigvalsh(A.to_complex())
        hulls = range_hulls(A, 240)
        assert hulls.degenerate
        for x, y in hulls.inner + hulls.outer:
            assert abs(y) < 1e-8
            assert w[0] - 1e-8 <= x <= w[-1] + 1e-8
        xs = [x for x, _ in hulls.inner]
        assert abs(min(xs) - w[0]) < 1e-8 and abs(max(xs) - w[-1]) < 1e-8

    def test_polytope_quadrilateral(self):
        hulls = range_hulls(fixture_matrix("polytope"), 720)
        quad = [(3.0, 0.0), (4.0, -1.0), (5.0, 0.0), (4.0, 1.0)]
        assert _hausdorff_vs_polygon(hulls.outer, quad) < 1e-6
        assert _hausdorff_vs_polygon(hulls.inner, quad) < 1e-6

    def test_convex_and_nested(self):
        rng = random.Random(401)
        mats = [fixture_matrix(n) for n in ("cubic_cusp", "nested_ovals", "disk")]
        mats += [random_gaussian_matrix(rng.randint(2, 6), rng) for _ in range(10)]
        for A in mats:
            hulls = range_hulls(A, 180)
            assert polygon_is_convex(hulls.outer, tol=1e-9)
            assert polygon_is_convex(hulls.inner, tol=1e-9)
            for v in hulls.inner:
                assert point_to_polygon_distance(v, hulls.outer) <= 1e-9


class TestMemberW:
    def test_identity_point_range(self):
        A = GaussianRationalMatrix.identity(2)
        assert member_W(A, (1.0, 0.0))
        assert not member_W(A, (1.1, 0.0))

    def test_cubic_boundary(self):
        assert member_W(fixture_matrix("cubic_cusp"), (1.0, 0.0))

    def test_polytope(self):
        A = fixture_matrix("polytope")
        assert member_W(A, (4.0, 0.0))
        assert not member_W(A, (4.0, 1.01))

    def test_spectrum_contained(self):
        rng = random.Random(409)
        mats = [fixture_matrix(n) for n in
                ("cubic_cusp", "nested_ovals", "cross_star", "polytope", "disk")]
        mats += [random_gaussian_matrix(rng.randint(2, 5), rng) for _ in range(6)]
        for A in mats:
            for lam in np.linalg.eigvals(A.to_complex()):
                assert member_W(A, (lam.real, lam.imag), N=360)


class TestDuality:
    def test_cubic_passes(self):
        rep = duality_check(fixture_matrix("cubic_cusp"), N=720, tol=1e-6)
        assert rep.ok and rep.pairing_ok and rep.complementary_ok and rep.gap_decreased

    def test_disk_antipodal_pairing(self):
        rep = duality_check(fixture_matrix("disk"), N=256)
        assert rep.pairing_min >= -1e-9
        assert rep.complementary_worst <= 1e-9

    def test_identity_line_pairs_at_zero(self):
        rep = duality_check(GaussianRationalMatrix.identity(2), N=64)
        # W = {(1,0)}, boundary line y1 = -1: pairing 1 + 1*(-1) = 0 exactly
        assert rep.unbounded_count > 0
        assert abs(rep.pairing_min) <= 1e-12
        assert rep.ok

    def test_report_text_keys(self):
        rep = duality_check(fixture_matrix("disk"), N=64)
        text = rep.to_text()
        for key in ("pairing_min=", "complementary_worst=", "hausdorff_gap_N=",
                    "hausdorff_gap_2N=", "gap_decreased=", "ok="):
            assert key in text

    def test_envelope_line_coefficients_on_curve(self):
        # supporting lines of W have coefficients on p = 0
        for name in ("cubic_cusp", "nested_ovals", "polytope"):
            A = fixture_matrix(name)
            curve = pencil_det(split(A))
            for th in np.linspace(0, 2 * math.pi, 40, endpoint=False):
                s = support(A, th)
                y = (-s.h, math.cos(th), math.sin(th))
                val, scale = curve.p.eval_with_scale(y)
                assert abs(val) <= 1e-6 * scale

    def test_dual_sample_cloud_matches_outer_hull(self):
        for name in ("disk", "cubic_cusp"):
            A = fixture_matrix(name)
            curve = pencil_det(split(A))
            hulls = range_hulls(A, 1024)
            cloud = [s.point for s in dual_sample(curve, 1024).samples
                     if s.point is not None and not s.singular]
            hull_cloud = convex_hull(cloud)
            assert _hausdorff_vs_polygon(hulls.outer, hull_cloud) <= 2e-3


def _rotation(n, i, j, a, b, c):
    """Exact rotation by (cos, sin) = (a/c, b/c) in the (i, j) plane."""
    rows = [[F(int(r == k)) for k in range(n)] for r in range(n)]
    rows[i][i] = rows[j][j] = F(a, c)
    rows[i][j], rows[j][i] = F(-b, c), F(b, c)
    return gmatrix(rows)


def _conjugated(diag):
    """Q D Q^T for a fixed rational orthogonal Q: normal, with the spectrum of D."""
    n = len(diag)
    Q = GaussianRationalMatrix.identity(n)
    for i, triple in zip(range(n - 1), [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25)]):
        Q = Q @ _rotation(n, i, i + 1, *triple)
    return Q @ GaussianRationalMatrix.diagonal(diag) @ Q.conj_transpose()


class TestPolytopeDetect:
    def test_polytope_fixture_exact(self):
        v = polytope_detect(fixture_matrix("polytope"))
        assert v.kind == "polytope" and v.exact
        assert set(v.vertices) == {(F(5), F(0)), (F(3), F(0)), (F(4), F(1)), (F(4), F(-1))}

    def test_normal_diagonal_triangle(self):
        A = GaussianRationalMatrix.diagonal(
            [GaussianRational.ONE, GaussianRational.I, -GaussianRational.ONE])
        v = polytope_detect(A)
        assert v.kind == "polytope" and v.exact
        assert set(v.vertices) == {(F(1), F(0)), (F(0), F(1)), (F(-1), F(0))}

    def test_conjugated_repeated_fractional_eigenvalue(self):
        a = GaussianRational(F(1, 2), F(1, 3))
        b = GaussianRational(F(-3, 4), F(-1, 4))
        c = GaussianRational(F(5, 6), F(-2, 7))
        A = _conjugated([a, b, a, c])
        assert is_normal(A) and any(A[i, j] for i in range(4) for j in range(4) if i != j)
        v = polytope_detect(A)
        assert v.kind == "polytope" and v.exact
        assert set(v.vertices) == {(z.re, z.im) for z in (a, b, c)}

    def test_denominators_past_float_precision_stay_numeric(self):
        q = 2**61 - 1
        a = GaussianRational(1 + F(1, q), F(1, 3))
        b = GaussianRational(F(-2), F(1, 2))
        c = GaussianRational(F(1, 5), F(-1))
        A = _conjugated([a, b, c])
        assert is_normal(A)
        v = polytope_detect(A)
        assert v.kind == "polytope" and not v.exact
        want = sorted((float(z.re), float(z.im)) for z in (a, b, c))
        assert np.allclose(sorted(v.vertices), want, atol=1e-9)

    def test_disk_smooth(self):
        v = polytope_detect(fixture_matrix("disk"))
        assert v.kind == "smooth" and v.vertices is None

    def test_normal_with_irrational_spectrum_falls_back_to_floats(self):
        A = gmatrix([[1, 1], [1, 0]])  # symmetric, eigenvalues (1 +- sqrt(5))/2
        v = polytope_detect(A)
        assert v.kind == "polytope" and not v.exact
        xs = sorted(x for x, _ in v.vertices)
        assert abs(xs[0] - (1 - math.sqrt(5)) / 2) < 1e-9
        assert abs(xs[1] - (1 + math.sqrt(5)) / 2) < 1e-9

    def test_cone_shape_is_mixed(self):
        # conv({2} U disk): one corner fan, flat bridges, and a curved arc
        A = gmatrix([[2, 0, 0], [0, 0, 1], [0, 0, 0]])
        v = polytope_detect(A)
        assert v.kind == "mixed/unknown"


class TestTranslateScale:
    def test_identity_shift(self):
        A = GaussianRationalMatrix.identity(2)
        rep = translate_scale_law(A, 2)
        assert rep.ok and rep.max_deviation <= 1e-9

    def test_cubic_shift(self):
        A = fixture_matrix("cubic_cusp")
        rep = translate_scale_law(A, 1)
        assert rep.ok
        s0 = support(A, 0.0).h
        shifted = A + GaussianRationalMatrix.identity(3)
        assert abs(support(shifted, 0.0).h - (s0 + 1.0)) < 1e-9

    def test_zero_shift_identical(self):
        rep = translate_scale_law(fixture_matrix("disk"), 0)
        assert rep.ok and rep.max_deviation == 0.0


class TestHullHelpers:
    def test_convex_hull_ccw(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
        hull = convex_hull(pts)
        assert len(hull) == 4
        assert polygon_is_convex(hull)

    def test_hausdorff_nested_squares(self):
        outer = [(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)]
        inner = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        assert abs(hausdorff_outer_to_inner(outer, inner) - math.sqrt(2.0)) < 1e-12
        assert hausdorff_outer_to_inner(inner, inner) < 1e-12
