import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix

import numrange.pencil as pencil_module
from numrange.exactpoly import GaussianRational, TriPoly, parse_poly
from numrange.hermitian import (GaussianRationalMatrix, HermitianPencil, NonHermitianError,
                                _entry_scale, split)
from numrange.pencil import (
    YVARS,
    CurveSample,
    CurveSampleSet,
    LineCheck,
    PencilCurve,
    SpectralGrid,
    _integer_form,
    _rayleigh,
    _restriction,
    _root_eigs,
    _sign_certificate,
    _sturm,
    _uniform_fan,
    boundary_F,
    boundary_csv,
    hyperbolicity_check,
    lmi_member,
    lmi_polytope_vertices,
    pencil_det,
    ray_exit,
)

from conftest import (
    eval_with_scale,
    finite_points,
    fixture_matrix,
    golden_poly,
    planted_product_zero_pair,
    polygon_is_convex,
    random_gaussian_matrix,
    random_tripoly,
    reference_sturm,
)

F = Fraction


def _rat(x: Fraction) -> sp.Rational:
    return sp.Rational(x.numerator, x.denominator)


def _boundary(pencil, N):
    return boundary_F(SpectralGrid(pencil, N))


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

    def test_matches_sympy_determinant(self):
        # complex draws, real non-symmetric ones (whose A2 is purely imaginary),
        # zero, scalar and Hermitian matrices, planted Craig pairs (denominators
        # near 2**60 after clearing), and entries scaled by 10**(+-100)
        y = sp.symbols("y0 y1 y2")
        ring = sp.QQ_I[y]
        rng = random.Random(223)
        pencils = []
        for n in range(1, 9):
            for complex_entries in (True, False):
                pencils.append(split(random_gaussian_matrix(n, rng, complex_entries=complex_entries)))
        pencils.append(split(GaussianRationalMatrix.zero(3)))
        pencils.append(split(GaussianRationalMatrix.identity(4).scale(GaussianRational.of(F(3, 2), F(-2, 5)))))
        A = random_gaussian_matrix(5, rng)
        pencils.append(split(A + A.conj_transpose()))
        pencils += [HermitianPencil(*planted_product_zero_pair(n, rng)) for n in (3, 8)]
        for power in (100, -100):
            pencils.append(split(random_gaussian_matrix(4, rng).scale(F(10) ** power)))
        for pencil in pencils:
            n = pencil.n
            M = sp.Matrix(n, n, lambda i, j: (y[0] if i == j else 0) + sum(
                yk * (_rat(X[i, j].re) + sp.I * _rat(X[i, j].im))
                for yk, X in ((y[1], pencil.A1), (y[2], pencil.A2))))
            p = pencil_det(pencil).p
            got = sum(_rat(c) * y[0] ** a * y[1] ** b * y[2] ** e
                      for (a, b, e), c in p.terms.items())
            assert DomainMatrix.from_Matrix(M).convert_to(ring).det() == ring.from_sympy(got)

    def test_large_pencils_match_numpy(self):
        rng = random.Random(227)
        for n in (10, 12):
            pencil = split(random_gaussian_matrix(n, rng))
            p = pencil_det(pencil).p
            f1, f2 = pencil.A1.to_complex(), pencil.A2.to_complex()
            for _ in range(8):
                y1, y2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
                det = float(np.linalg.det(np.eye(n) + y1 * f1 + y2 * f2).real)
                val, scale = eval_with_scale(p, (1.0, y1, y2))
                assert abs(val - det) <= 1e-9 * max(scale, abs(det))

    def test_non_hermitian_part_is_refused(self):
        # a pencil built around HermitianPencil's own check
        A = random_gaussian_matrix(3, random.Random(229))
        pencil = object.__new__(HermitianPencil)
        object.__setattr__(pencil, "A1", split(A).A1)
        object.__setattr__(pencil, "A2", A)
        with pytest.raises(NonHermitianError):
            pencil_det(pencil)

    def test_complex_pencil_imaginary_cancellation(self):
        curve = pencil_det(split(fixture_matrix("nested_ovals")))
        assert curve.p == golden_poly("nested_ovals_p.txt", YVARS)

    def test_curve_validation(self):
        pencil = split(fixture_matrix("disk"))
        y0 = TriPoly.variable(0, YVARS)
        with pytest.raises(ValueError):
            PencilCurve(p=2 * y0 ** 2, pencil=pencil)

    def test_normalization_sums_the_pure_y0_coefficients(self):
        pencil = split(fixture_matrix("disk"))
        y0, y1, y2 = (TriPoly.variable(i, YVARS) for i in range(3))
        with pytest.raises(ValueError, match=r"must satisfy p\(1,0,0\) = 1"):
            PencilCurve(p=2 * y0 ** 2 - y1 * y2, pencil=pencil)
        # the pure-y0 coefficients sum to 2 - 1 = 1, but p is not homogeneous
        with pytest.raises(ValueError, match="must be homogeneous of degree n"):
            PencilCurve(p=2 * y0 ** 2 - y0 + y1 * y2, pencil=pencil)

    def test_det_matches_eigenvalue_product(self):
        rng = random.Random(229)
        for name in ("cubic_cusp", "nested_ovals", "cross_star", "disk"):
            pencil = split(fixture_matrix(name))
            curve = pencil_det(pencil)
            f1, f2 = pencil.A1.to_complex(), pencil.A2.to_complex()
            for _ in range(100):
                y1, y2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
                Fm = np.eye(pencil.n) + y1 * f1 + y2 * f2
                prod = float(np.prod(np.linalg.eigvalsh(Fm)))
                val, scale = eval_with_scale(curve.p, (1.0, y1, y2))
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
        val, scale = eval_with_scale(curve.p, (1.0, *exit_.point))
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
        samples = _boundary(split(fixture_matrix("disk")), 4)
        pts = finite_points(samples)
        assert np.allclose(pts, [(2, 0), (0, 2), (-2, 0), (0, -2)], atol=1e-12)

    def test_identity_half_plane(self):
        samples = _boundary(split(GaussianRationalMatrix.identity(2)), 4)
        finite = [s for s in samples.samples if s.point is not None]
        assert len(finite) == 1
        assert abs(finite[0].theta - math.pi) < 1e-12
        assert np.allclose(finite[0].point, (-1.0, 0.0))

    def test_nested_ovals_points_on_curve(self):
        pencil = split(fixture_matrix("nested_ovals"))
        curve = pencil_det(pencil)
        samples = _boundary(pencil, 720)
        assert not samples.all_unbounded
        for pt in finite_points(samples):
            val, scale = eval_with_scale(curve.p, (1.0, *pt))
            assert abs(val) <= 1e-7 * scale

    def test_polygon_convex(self):
        for name in ("cubic_cusp", "nested_ovals", "cross_star", "disk"):
            samples = _boundary(split(fixture_matrix(name)), 240)
            assert polygon_is_convex(finite_points(samples), tol=1e-9)

    def test_refinement_moves_points_little(self):
        pencil = split(fixture_matrix("cubic_cusp"))
        coarse = _boundary(pencil, 90)
        fine = _boundary(pencil, 180)
        tmax = max(math.hypot(*p) for p in finite_points(coarse))
        mesh = tmax * 2 * math.pi / 90
        fine_pts = np.array(finite_points(fine))
        for p in finite_points(coarse):
            d = np.hypot(fine_pts[:, 0] - p[0], fine_pts[:, 1] - p[1]).min()
            assert d <= mesh

    def test_degenerate_all_unbounded(self):
        samples = _boundary(split(GaussianRationalMatrix.zero(3)), 8)
        assert samples.all_unbounded and len(samples.samples) == 8
        assert all(s.point is None and s.lambda_min is None for s in samples.samples)
        assert [s.theta for s in samples.samples] == [2 * math.pi * k / 8 for k in range(8)]

    def test_csv_format(self):
        samples = _boundary(split(GaussianRationalMatrix.identity(2)), 4)
        text = boundary_csv(samples)
        lines = text.strip().split("\n")
        assert lines[0] == "theta,y1,y2,lambda_min"
        assert len(lines) == 5
        assert lines[1].endswith("inf,inf,inf")

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            SpectralGrid(split(fixture_matrix("disk")), 2)

    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_grid_check_is_the_shared_one(self, N):
        # the one check on a grid size, in SpectralGrid.__init__; `at` takes any angles
        with pytest.raises(ValueError, match="need at least 3 support directions"):
            SpectralGrid(split(fixture_matrix("disk")), N)
        assert len(SpectralGrid.at(split(fixture_matrix("disk")), [0.5] * N).eigvals) == N


FIXTURE_NAMES = ("disk", "cubic_cusp", "cross_star", "nested_ovals", "polytope",
                 "cardioid_circle")


def _boundary_reference(pencil, N):
    """The boundary samples one ray at a time: lambda_min of H(theta), its exit,
    and the residual lambda_min of F(1, exit) from a solve of its own."""
    grid = SpectralGrid(pencil, N)
    f1, f2, unit = pencil.A1.to_complex(), pencil.A2.to_complex(), pencil.unit
    samples = []
    for th, c, s, eigs in zip(grid.thetas.tolist(), grid.cos.tolist(), grid.sin.tolist(),
                              (grid.eigvals * unit).tolist()):
        if eigs[0] < -1e-12 * max(unit, max(abs(lam) for lam in eigs)):
            t = -1.0 / eigs[0]
            point = (t * c, t * s)
            lam = float(np.linalg.eigvalsh(np.eye(pencil.n) + point[0] * f1 + point[1] * f2)[0])
            samples.append(CurveSample(th, point, lambda_min=lam))
        else:
            samples.append(CurveSample(th, None))
    return samples


class TestCurveSampleColumns:
    @pytest.mark.parametrize("name", FIXTURE_NAMES + ("identity", "zero"))
    def test_boundary_samples_are_the_per_ray_reference(self, name):
        A = {"identity": GaussianRationalMatrix.identity(2),
             "zero": GaussianRationalMatrix.zero(2)}.get(name) or fixture_matrix(name)
        pencil = split(A)
        for N in (16, 90, 720):
            got = _boundary(pencil, N)
            assert repr(got.samples) == repr(_boundary_reference(pencil, N)), N
            assert got.all_unbounded == (not any(s.point for s in got.samples))
            assert finite_points(got) == [s.point for s in got.samples if s.point]

    def test_list_round_trip(self):
        """A hand-made list: -0.0, NaN and inf coordinates, missing points and
        root indices; its columns rebuild the same samples."""
        nan, inf = math.nan, math.inf
        listed = [
            CurveSample(-0.0, None, root_index=None, singular=True),
            CurveSample(0.5, (nan, -0.0), lambda_min=-1e-17, root_index=2),
            CurveSample(1.0, (1e300, -inf), lambda_min=0.0, root_index=None),
            CurveSample(nan, (-0.0, 1.5), lambda_min=nan, root_index=0, singular=True),
        ]
        made = CurveSampleSet("x0=1", listed)
        assert made.samples == listed and len(made) == 4
        assert made.finite.tolist() == [False, True, True, True]
        assert made.root_index.tolist() == [None, 2, None, 0]
        rebuilt = CurveSampleSet.of_columns(made.chart, made.theta, made.x, made.y, made.finite,
                                            lambda_min=made.lambda_min,
                                            root_index=made.root_index, singular=made.singular)
        assert repr(rebuilt.samples) == repr(listed)
        assert repr(finite_points(rebuilt)) == repr([s.point for s in listed[1:]])
        assert boundary_csv(rebuilt) == boundary_csv(made) == (
            "theta,y1,y2,lambda_min\n-0,inf,inf,inf\n0.5,nan,-0,-1e-17\n"
            "1,1e+300,-inf,0\nnan,-0,1.5,nan\n")

    def test_columns_without_indices_or_residuals(self):
        listed = [CurveSample(0.0, (1.0, 2.0)), CurveSample(1.0, None)]
        made = CurveSampleSet("y0=1", listed, all_unbounded=False)
        assert made.root_index is None and made.lambda_min is None
        assert made.singular.tolist() == [False, False]
        rebuilt = CurveSampleSet.of_columns("y0=1", made.theta, made.x, made.y, made.finite)
        assert rebuilt.samples == listed
        empty = CurveSampleSet("y0=1", [], all_unbounded=True)
        assert len(empty) == 0 and empty.samples == [] and finite_points(empty) == []
        assert boundary_csv(empty) == "theta,y1,y2,lambda_min\n"


class TestSpectralGrid:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_other_is_the_half_grid(self, name):
        pencil = split(fixture_matrix(name))
        for N in (90, 720):
            half, coarse = SpectralGrid(pencil, 2 * N).every_other(), SpectralGrid(pencil, N)
            for attr in ("thetas", "cos", "sin", "eigvals", "eigvecs"):
                got, want = getattr(half, attr), getattr(coarse, attr)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), attr

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ("generic",))
    def test_antipodal_rows_are_reflections(self, name):
        """H(theta + pi) = -H(theta): an even grid solves its rows k < N/2, bit
        for bit `at` on the first half of the fan, and fills row k + N/2 with
        row k reflected (eigenvalues negated in reverse order, eigenvector
        columns reversed), which a solve at the row's own angle matches up to
        roundoff; an odd grid is bit for bit the solve at every angle."""
        if name == "generic":
            rng = random.Random(1978)
            pencils = [split(random_gaussian_matrix(n, rng)) for n in range(2, 9)]
        else:
            pencils = [split(fixture_matrix(name))]
        for pencil in pencils:
            f1, f2 = pencil.float_parts()
            for N in (16, 90, 720, 45, 91):
                grid = SpectralGrid(pencil, N)
                fan = _uniform_fan(N)
                assert fan[0].tolist() == [2.0 * math.pi * k / N for k in range(N)]
                for attr, want in zip(("thetas", "cos", "sin"), fan):
                    assert getattr(grid, attr).tobytes() == want.tobytes()
                m = N if N % 2 else N // 2
                solved = SpectralGrid.at(pencil, *(a[:m] for a in fan))
                assert grid.eigvals[:m].tobytes() == solved.eigvals.tobytes()
                assert grid.eigvecs[:m].tobytes() == solved.eigvecs.tobytes()
                if N % 2:
                    continue
                assert grid.eigvals[m:].tobytes() == (-solved.eigvals[:, ::-1]).tobytes()
                assert grid.eigvecs[m:].tobytes() == solved.eigvecs[:, :, ::-1].tobytes()
                # the reflected rows against a solve at their own angles
                full = SpectralGrid.at(pencil, *fan)
                w, V = full.eigvals[m:], grid.eigvecs[m:]
                scale = max(1.0, float(np.abs(full.eigvals).max()))
                assert np.abs(grid.eigvals[m:] - w).max() <= 1e-13 * scale
                H = grid.cos[m:, None, None] * f1 + grid.sin[m:, None, None] * f2
                assert np.abs(H @ V - V * grid.eigvals[m:, None, :]).max() <= 1e-12 * scale
                x_grid, x_full = (_rayleigh(pencil, g.eigvecs[m:, :, -1]) for g in (grid, full))
                simple = w[:, -1] - w[:, -2] > 1e-8 * scale
                assert np.hypot(*(x_grid - x_full)[simple].T).max(initial=0.0) <= 1e-13 * scale
                # a multiple top eigenvalue: both witnesses lie on the supporting line
                for x in (x_grid, x_full):
                    on_line = x[:, 0] * grid.cos[m:] + x[:, 1] * grid.sin[m:] - w[:, -1]
                    assert np.abs(on_line[~simple]).max(initial=0.0) <= 1e-12 * scale

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_ray_exit_is_the_boundary_sample(self, name):
        # a one-angle solve gives the bits of the rows k < N/2 that the grid
        # solves; the reflected rows k >= N/2 agree with it up to roundoff
        pencil = split(fixture_matrix(name))
        N = 72
        for k, s in enumerate(_boundary(pencil, N).samples):
            theta = 2.0 * math.pi * k / N
            exit_ = ray_exit(pencil, (math.cos(theta), math.sin(theta)))
            assert s.theta == theta
            if s.point is None:
                assert not exit_.bounded
            elif k < N // 2:
                assert exit_.point == s.point
                assert exit_.lambda_min_at_exit == s.lambda_min
            else:
                assert math.dist(exit_.point, s.point) <= 1e-12 * max(1.0, math.hypot(*s.point))
                assert abs(exit_.lambda_min_at_exit - s.lambda_min) <= 1e-12

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ("zero_eigenvalue",))
    def test_line_roots_are_the_per_angle_roots(self, name):
        A = (GaussianRationalMatrix.diagonal([GaussianRational.ZERO, GaussianRational.ONE])
             if name == "zero_eigenvalue" else fixture_matrix(name))
        grid = SpectralGrid(split(A), 90)
        want = []
        for k, eigs in enumerate(grid.eigvals.tolist()):
            scale = max(1.0, max(abs(lam) for lam in eigs))
            roots = [(i, -1.0 / lam / grid.pencil.unit) for i, lam in enumerate(eigs)
                     if abs(lam) > 1e-14 * scale]
            assert np.flatnonzero(_root_eigs(grid.eigvals[k])).tolist() == [i for i, _ in roots]
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
        # the coefficients of p reach 10^400; the line restrictions, in the
        # pencil's unit, have constant term 1 and roots near 1
        A = fixture_matrix("nested_ovals").scale(GaussianRational.of(10 ** 100))
        report = hyperbolicity_check(pencil_det(split(A)), trials=16)
        assert report.ok
        assert report.max_eig_residual < 1e-8

    def test_restrictions_past_the_largest_float(self):
        # 2**32 times the Sylvester-Hadamard matrix of order 32, in unit s = 1: the
        # top coefficient of a restriction passes the largest float, `_restriction`
        # divides the floats by one power of two, and every line is certified
        H = [[1]]
        for _ in range(5):
            H = [r + r for r in H] + [r + [-x for x in r] for r in H]
        A = GaussianRationalMatrix([[GaussianRational.of(F(x * 2**32)) for x in r] for r in H])
        curve = pencil_det(split(A))
        assert curve.pencil.unit == 1.0
        report = hyperbolicity_check(curve, trials=4)
        assert report.ok and {l.degree for l in report.lines} == {32}

    def test_restrict_to_line_exact(self):
        curve = pencil_det(split(fixture_matrix("cubic_cusp")))
        form = _integer_form(curve.p)
        N, w, coeffs = _restriction(form, F(1), F(0), F(1))
        # p(1, t, 0) = (1-t)(1+t)^2
        assert _exact_coeffs(N, w, form[0]) == [F(1), F(1), F(-1), F(-1)]
        assert coeffs == [1.0, 1.0, -1.0, -1.0]

    def test_restrict_to_line_matches_term_by_term(self):
        rng = random.Random(4141)
        cases = [(pencil_det(split(fixture_matrix(n))).p, F(1)) for n in FIXTURE_NAMES]
        cases += [(random_tripoly(rng, max_deg=5, terms=8), F(1)) for _ in range(20)]
        cases += [(TriPoly(YVARS, {}), F(1)), (random_tripoly(rng, max_deg=4, terms=6), F(1, 8))]
        # determinants of huge and tiny pencils, restricted in their unit s: the
        # coefficients of p reach 10**(100*n) or 10**(-100*n), a restriction's stay near 1
        for n in FIXTURE_NAMES:
            for k in (100, -100):
                pencil = split(fixture_matrix(n).scale(GaussianRational.of(F(10) ** k)))
                cases.append((pencil_det(pencil).p, F(pencil.unit)))
        for p, s in cases:
            form = _integer_form(p)
            dirs = [(F(0), F(0)), (F(0), F(-3, 7)), (F(5, 2), F(0)), (F(-4, 9), F(-7, 3))]
            dirs += [(F(rng.randint(-20, 20), rng.randint(1, 9)),
                      F(rng.randint(-20, 20), rng.randint(1, 9))) for _ in range(8)]
            for d1, d2 in dirs:
                N, w, coeffs = _restriction(form, d1, d2, s)
                exact = _exact_coeffs(N, w, form[0])
                assert exact == _restrict_reference(p, d1 / s, d2 / s)
                # the floats are float(Fraction) bit for bit
                assert list(map(float.hex, coeffs)) == [float(c).hex() for c in exact]

    def test_restriction_past_the_float_range_keeps_the_term_ratios(self):
        # p = (1 + 2**600*y1)**2: the coefficients 1, 2**601 and 2**1200 of the
        # restriction on (1, 0) share the divisor 2**(1200 - 1000)
        y0, y1 = TriPoly.variable(0, YVARS), TriPoly.variable(1, YVARS)
        N, w, coeffs = _restriction(_integer_form((y0 + 2**600 * y1) ** 2), F(1), F(0), F(1))
        assert (N, w) == ([1, 2**601, 2**1200], 1)
        assert coeffs == [2.0**-200, 2.0**401, 2.0**1000]


def _exact_coeffs(N: list[int], w: int, L: int) -> list[Fraction]:
    """The rational restriction that `_restriction`'s (N, w) and the form's L encode."""
    return [F(n, L * w**k) for k, n in enumerate(N)]


def _restrict_reference(p: TriPoly, d1: Fraction, d2: Fraction) -> list[Fraction]:
    """p(1, t*d1, t*d2) term by term in Fractions."""
    coeffs = [F(0)] * (max(0, p.total_degree()) + 1)
    for (_, b, c), coef in p.terms.items():
        coeffs[b + c] += coef * d1**b * d2**c
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _hyperbolicity_reference(curve: PencilCurve, trials: int = 24, seed: int = 20259,
                             certificate: bool = True):
    """`hyperbolicity_check`'s lines one at a time in the pencil's unit s: one
    eigvalsh per line on A/s, the restriction p(1, t*d1/s, t*d2/s) substituted
    term by term in Fractions, and the rational Sturm chain where the
    certificate is off or falls short."""
    rng = random.Random(seed)
    f1, f2 = curve.pencil.A1.to_complex(), curve.pencil.A2.to_complex()
    s = _entry_scale(f1, f2)
    f1, f2 = f1 / s, f2 / s
    checks = []
    for _ in range(trials):
        while True:
            d1 = F(rng.randint(-20, 20), rng.randint(1, 9))
            d2 = F(rng.randint(-20, 20), rng.randint(1, 9))
            if d1 or d2:
                break
        coeffs = _restrict_reference(curve.p, d1 / F(s), d2 / F(s))
        eigs = np.linalg.eigvalsh(float(d1) * f1 + float(d2) * f2)
        root = np.abs(eigs) > 1e-14 * max(1.0, np.abs(eigs).max())
        t = -1.0 / eigs[root]
        # the integers of a positive multiple of the restriction, whose signs are its own
        den = math.lcm(*(c.denominator for c in coeffs))
        if certificate and _sign_certificate([int(c * den) for c in coeffs], 1, t.tolist()):
            distinct = deg_sf = len(coeffs) - 1
        else:
            distinct, deg_sf = reference_sturm(coeffs)
        terms = np.array([float(c) * np.float_power(t, k) for k, c in enumerate(coeffs)])
        resid = float(np.max(np.abs(np.add.reduce(terms)) / np.abs(terms).max(axis=0), initial=0.0))
        checks.append(LineCheck(
            direction=(d1, d2), degree=len(coeffs) - 1,
            distinct_real_roots=distinct, distinct_roots_expected=deg_sf,
            all_real=distinct == deg_sf, eig_residual_max=resid))
    return checks


def _certificate_inputs() -> dict[str, HermitianPencil]:
    out = {}
    for name in FIXTURE_NAMES:
        A = fixture_matrix(name)
        out[name] = split(A)
        for k in (100, -100):
            out[f"{name}*10^{k}"] = split(A.scale(GaussianRational.of(F(10) ** k)))
    rng = random.Random(1212)
    for n in range(2, 13):
        out[f"generic{n}"] = split(random_gaussian_matrix(n, rng))
    B = random_gaussian_matrix(5, rng)
    out["hermitian5"] = split(B + B.conj_transpose())
    out["identity3"] = split(GaussianRationalMatrix.identity(3))
    out["scalar3"] = split(GaussianRationalMatrix.identity(3).scale(GaussianRational(F(2), F(-3))))
    out["diagonal6"] = split(GaussianRationalMatrix.diagonal(
        [GaussianRational(F(rng.randint(-4, 4), 3), F(rng.randint(-4, 4), 2)) for _ in range(6)]))
    out["craig6"] = HermitianPencil(*planted_product_zero_pair(6, rng))
    return out


CERTIFICATE_INPUTS = _certificate_inputs()


class TestSignCertificate:
    @pytest.mark.parametrize("name", list(CERTIFICATE_INPUTS))
    def test_lines_equal_the_sturm_reference(self, name, monkeypatch):
        curve = pencil_det(CERTIFICATE_INPUTS[name])
        report = hyperbolicity_check(curve, trials=16)
        monkeypatch.setattr(pencil_module, "_sign_certificate", lambda N, w, roots: False)
        assert report.lines == hyperbolicity_check(curve, trials=16).lines
        # the rational chain on every line, on a restriction substituted in Fractions
        assert list(map(repr, report.lines)) == list(map(repr, _hyperbolicity_reference(
            curve, 16, certificate=False)))

    def test_sturm_runs_only_where_the_signs_fall_short(self, monkeypatch):
        chains = []

        def spy(N):
            chains.append(N)
            return _sturm(N)

        monkeypatch.setattr(pencil_module, "_sturm", spy)
        rng = random.Random(68)
        for n in (6, 8):
            assert hyperbolicity_check(pencil_det(split(random_gaussian_matrix(n, rng))),
                                       trials=16).ok
        assert chains == []
        # p = (y0 + y1)^2: a double root or none on every line
        curve = pencil_det(split(GaussianRationalMatrix.identity(2)))
        assert hyperbolicity_check(curve, trials=16).ok
        assert len(chains) == 16

    def test_batched_lines_equal_the_per_line_reference(self):
        rng = random.Random(1313)
        pencils = [split(fixture_matrix(name)) for name in FIXTURE_NAMES]
        pencils += [split(random_gaussian_matrix(n, rng)) for n in range(2, 9)]
        pencils += [HermitianPencil(*planted_product_zero_pair(n, rng)) for n in range(2, 9)]
        # a singular A2: seed 7 draws the line d1 = 0, where the restriction
        # drops to degree 2, so the lines fall into two companion sizes
        A1 = random_gaussian_matrix(3, rng)
        pencils.append(HermitianPencil(A1 + A1.conj_transpose(), GaussianRationalMatrix.diagonal(
            [GaussianRational.of(F(v)) for v in (2, -1, 0)])))
        degrees = []
        for pencil in pencils:
            curve = pencil_det(pencil)
            for trials, seed in ((16, 20259), (40, 7)):
                got = hyperbolicity_check(curve, trials=trials, seed=seed).lines
                assert list(map(repr, got)) == list(map(repr, _hyperbolicity_reference(
                    curve, trials, seed)))
                degrees.append({line.degree for line in got})
        assert degrees[-1] == {2, 3}

    def test_one_eigvalsh_over_all_lines(self, monkeypatch):
        curve = pencil_det(split(fixture_matrix("cubic_cusp")))
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
        hyperbolicity_check(curve, trials=16)
        assert shapes == [(16, 3, 3)]

    def test_exact_predictions_certify(self):
        # c(t) = (t + 1)(t - 1)(t - 10), and the same in t/5
        N = [10, -1, -10, 1]
        assert _sign_certificate(N, 1, [10.0, -1.0, 1.0])
        assert _sign_certificate(N, 5, [-5.0, 5.0, 50.0])
        assert not _sign_certificate(N, 5, [-1.0, 1.0, 10.0])

    def test_one_sign_change_short_is_refused(self):
        # predictions that miss the root at 10 give the signs -, +, -, -: d - 1
        # changes, which prove no more than the parity argument would
        N = [10, -1, -10, 1]
        assert not _sign_certificate(N, 1, [-1.0, 1.0, 2.0])
        # a missing or an extra prediction
        assert not _sign_certificate(N, 1, [-1.0, 1.0])
        assert not _sign_certificate(N, 1, [-1.0, 1.0, 10.0, 11.0])
        # t^2 - 1 with a point on the root t = 1: a zero sign
        assert not _sign_certificate([-1, 0, 1], 1, [-1.0, 3.0])
        assert not _sign_certificate([1], 1, [])

    def test_forged_predictions_never_certify_a_complex_pair(self):
        # c(t) = (t^2 + 1)(t - 2)(t + 3): two real roots of four
        N = [-6, 1, -5, 1, 1]
        assert _sturm(N) == (2, 4)
        rng = random.Random(7)
        forged = [[-3.0, 2.0, 0.0, 0.0], [-3.0, -1.0, 1.0, 2.0], [-3.0, -3.0, 2.0, 2.0],
                  [-1e300, -3.0, 2.0, 1e300]]
        forged += [sorted(rng.uniform(-6, 6) for _ in range(4)) for _ in range(400)]
        for w in (1, 3):
            for roots in forged:
                assert not _sign_certificate(N, w, [w * r for r in roots])


def _times(c: list[int], f: list[int]) -> list[int]:
    out = [0] * (len(c) + len(f) - 1)
    for i, a in enumerate(c):
        for j, b in enumerate(f):
            out[i + j] += a * b
    return out


def _sturm_sweep(rng: random.Random):
    """Integer polynomials of degree <= 12: planted rational roots with
    multiplicities times t^2 + 1 or t^2 + t + 1, dense and sparse draws, leads
    of both signs, coefficients up to 2**600."""
    for _ in range(150):
        c = [rng.choice((1, -1)) * rng.randint(1, 2 ** rng.choice((1, 20, 600)))]
        for f in rng.sample([[1, 0, 1], [1, 1, 1]], rng.randint(0, 2)):
            c = _times(c, f)
        while len(c) < 13 and rng.random() < 0.8:
            p, q = rng.randint(-9, 9), rng.randint(1, 5)
            for _ in range(min(rng.choice((1, 1, 2, 3)), 13 - len(c))):
                c = _times(c, [-p, q])
        yield c
    for _ in range(100):
        bits, d = rng.choice((4, 64, 600)), rng.randint(1, 12)
        c = [rng.randint(-2 ** bits, 2 ** bits) if rng.random() < 0.6 else 0 for _ in range(d)]
        yield c + [rng.choice((1, -1)) * rng.randint(1, 2 ** bits)]


class TestIntegerSturm:
    def test_equals_the_rational_chain(self):
        for N in _sturm_sweep(random.Random(2718)):
            assert _sturm(N) == reference_sturm(N), N

    @pytest.mark.parametrize("N, counts", [
        ([5], (0, 0)), ([0], (0, -1)), ([1, 1], (1, 1)),
        # s^4 + 2s = s(s^3 + 2): the chain s^4 + 2s, 4s^3 + 2, -3s/2, ... drops
        # two degrees behind the lead -3/2, where lead^(delta+1) is negative
        ([0, 2, 0, 0, 1], (2, 4)), ([0, -6, 0, 0, -3], (2, 4)),
        ([0, 2 ** 600, 0, 0, 2 ** 599], (2, 4))])
    def test_named_inputs(self, N, counts):
        assert _sturm(N) == reference_sturm(N) == counts

    def test_roots_in_t_over_w(self):
        # N(s) = (s - 2)^2 (s + 6) (s^2 + 1) and c(t) = N(t/3): the same counts
        N = _times(_times(_times([-2, 1], [-2, 1]), [6, 1]), [1, 0, 1])
        assert _sturm(N) == reference_sturm(
            [F(n, 3 ** k) for k, n in enumerate(N)]) == (2, 4)


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

    def test_constant_term_rejected(self):
        # y0 + y1 + 7 is not a linear form; reading only its linear
        # coefficients would cut out the same square as y0 + y1
        facs = [parse_poly(s, YVARS) for s in ("y0 + y1 + 7", "y0 - y1", "y0 + y2", "y0 - y2")]
        with pytest.raises(ValueError, match="homogeneous"):
            lmi_polytope_vertices(facs)
