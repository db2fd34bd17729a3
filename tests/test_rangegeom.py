import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from numrange.exactpoly import GaussianRational
from numrange.hermitian import GaussianRationalMatrix, HermitianPencil, is_normal, split
from numrange.pencil import (
    CurveSample,
    CurveSampleSet,
    SpectralGrid,
    _exit_points,
    _root_eigs,
    _uniform_fan,
    pencil_det,
)
from numrange.dualcurve import dual_sample
import numrange.rangegeom as rangegeom
from numrange.rangegeom import (
    _cross,
    _cycle_hull,
    _hulls_of,
    _outer_polygon,
    _outer_vertices,
    _pairing_row_min,
    _witness_clusters,
    convex_hull,
    duality_check,
    hausdorff_outer_to_inner,
    member_W,
    polygon_area,
    polytope_detect,
    range_hulls,
    support,
)

from conftest import (
    cardioid_circle_dual_residual,
    charpoly_from_p,
    earlier_polytope_detect,
    eval_with_scale,
    fixture_matrix,
    planted_polytope_matrix,
    planted_product_zero_pair,
    point_to_polygon_distance,
    polygon_is_convex,
    polygon_support,
    random_gaussian_matrix,
    reference_polytope_verdict,
    support_shift_deviation,
)

F = Fraction
G = GaussianRational.of

FIXTURE_NAMES = ("disk", "cubic_cusp", "cross_star", "nested_ovals", "polytope",
                 "cardioid_circle")


def gmatrix(rows):
    return GaussianRationalMatrix(
        [[e if isinstance(e, GaussianRational) else G(F(e)) for e in row] for row in rows])


def _hausdorff_vs_polygon(poly_a, poly_b, n_angles=2048):
    """Hausdorff distance between convex polygons via support functions."""
    th = np.linspace(0, 2 * np.pi, n_angles, endpoint=False)
    return float(np.abs(polygon_support(poly_a, th) - polygon_support(poly_b, th)).max())


def _support_at(A, thetas):
    """(h, witnesses) of W(A) at the given angles, from one `SpectralGrid.at`."""
    return support(SpectralGrid.at(split(A), thetas))


def _hulls(A, N):
    """The hulls that `sample-w` prints, from a solve at every angle of the fan."""
    return range_hulls(SpectralGrid.at(split(A), *_uniform_fan(N)))


def _detect(A, N=360):
    return polytope_detect(pencil_det(split(A)), N)


class TestSupport:
    def test_cubic_theta_zero(self):
        h, wit = _support_at(fixture_matrix("cubic_cusp"), [0.0])
        assert abs(h[0] - 1.0) < 1e-12
        assert abs(wit[0, 0] - 1.0) < 1e-9

    def test_identity(self):
        A = GaussianRationalMatrix.identity(3)
        for th in (0.0, 1.0, 2.5):
            h, wit = _support_at(A, [th])
            assert abs(h[0] - math.cos(th)) < 1e-12
            assert np.allclose(wit[0], (1.0, 0.0), atol=1e-12)

    def test_disk_constant_half(self):
        h, _ = _support_at(fixture_matrix("disk"), np.linspace(0, 2 * math.pi, 9))
        assert np.abs(h - 0.5).max() < 1e-12

    def test_matches_the_hull_grid(self):
        # a one-angle solve gives the bits of the batched one
        N = 48
        for name in ("disk", "cubic_cusp", "cross_star", "nested_ovals", "polytope"):
            A = fixture_matrix(name)
            hulls = _hulls(A, N)
            for k in range(N):
                h, wit = _support_at(A, [2.0 * math.pi * k / N])
                assert h[0] == hulls.support_values[k]
                assert wit[0].tolist() == hulls.witnesses[k].tolist()


# every public function that takes a grid size N reaches the one check, in
# SpectralGrid.__init__, before any work
_GRID_CALLS = {
    "range_hulls": lambda A, N: _hulls(A, N),
    "member_W": lambda A, N: member_W(A, (0, 0), N=N),
    "polytope_detect": _detect,
}


class TestRangeHulls:
    # polytope is normal with an exact spectrum, where polytope_detect reads
    # no grid and so no N
    @pytest.mark.parametrize("N", [0, 1, 2])
    @pytest.mark.parametrize("call, name", [(call, name) for call in _GRID_CALLS
                                            for name in ("disk", "polytope")
                                            if (call, name) != ("polytope_detect", "polytope")])
    def test_grid_size_is_checked_first(self, call, name, N):
        with pytest.raises(ValueError, match="need at least 3 support directions"):
            _GRID_CALLS[call](fixture_matrix(name), N)

    def test_disk_hausdorff(self):
        hulls = _hulls(fixture_matrix("disk"), 360)
        th = np.linspace(0, 2 * np.pi, 1440, endpoint=False)
        # support function of the radius-1/2 disk is identically 1/2
        assert np.abs(polygon_support(hulls.outer, th) - 0.5).max() < 1e-3
        assert np.abs(polygon_support(hulls.inner, th) - 0.5).max() < 1e-3

    def test_hermitian_segment(self):
        A = gmatrix([[2, 1], [1, -1]])  # real symmetric: W = [lmin, lmax] x {0}
        w = np.linalg.eigvalsh(A.to_complex())
        hulls = _hulls(A, 240)
        assert hulls.degenerate
        for x, y in np.concatenate((hulls.inner, hulls.outer)).tolist():
            assert abs(y) < 1e-8
            assert w[0] - 1e-8 <= x <= w[-1] + 1e-8
        xs = hulls.inner[:, 0].tolist()
        assert abs(min(xs) - w[0]) < 1e-8 and abs(max(xs) - w[-1]) < 1e-8

    def test_polytope_quadrilateral(self):
        hulls = _hulls(fixture_matrix("polytope"), 720)
        quad = [(3.0, 0.0), (4.0, -1.0), (5.0, 0.0), (4.0, 1.0)]
        assert _hausdorff_vs_polygon(hulls.outer, quad) < 1e-6
        assert _hausdorff_vs_polygon(hulls.inner, quad) < 1e-6

    def test_convex_and_nested(self):
        rng = random.Random(401)
        mats = [fixture_matrix(n) for n in ("cubic_cusp", "nested_ovals", "disk")]
        mats += [random_gaussian_matrix(rng.randint(2, 6), rng) for _ in range(10)]
        for A in mats:
            hulls = _hulls(A, 180)
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


    def test_answers_of_the_grid_solved_at_every_angle(self, monkeypatch):
        # the reflected rows of the even fan move the margin by roundoff only:
        # on W(A)'s vertices and boundary (the polytope's corners, the hull
        # vertices of a coarse fan), inside and outside, member_W answers as
        # it does on the grid solved at every angle
        cases = [(fixture_matrix("polytope"), x) for x in ((3, 0), (4, -1), (5, 0), (4, 1))]
        for name in FIXTURE_NAMES:
            A = fixture_matrix(name)
            hulls = _hulls(A, 8)
            c = hulls.inner.mean(axis=0)
            cases += [(A, x) for v in hulls.inner for x in (v, c + 0.5 * (v - c))]
            cases += [(A, x) for v in hulls.outer for x in (v, c + 1.05 * (v - c))]
        got = [member_W(A, x) for A, x in cases]

        class FullSolve(SpectralGrid):
            def __init__(self, pencil, N):
                self._solve(pencil, *_uniform_fan(N))

        monkeypatch.setattr(rangegeom, "SpectralGrid", FullSolve)
        assert got == [member_W(A, x) for A, x in cases]
        assert 0 < sum(got) < len(got)


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

    @pytest.mark.parametrize("c", [10**3, 10**6])
    def test_scaled_polytope_passes(self, c):
        # W(cA) = c W(A): the roundoff gaps of the polytope scale with c
        A = fixture_matrix("polytope").scale(G(F(c)))
        rep = duality_check(A, N=720)
        assert rep.gap_decreased and rep.ok

    def test_memory_stays_linear(self):
        # the K x N pairing matrix alone took 2 * 8 * 2048 * 4096 bytes = 128 MiB
        A = fixture_matrix("cubic_cusp")
        tracemalloc.start()
        try:
            duality_check(A, N=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0])
    def test_refuses_a_tolerance_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            duality_check(fixture_matrix("disk"), N=16, tol=tol)

    @pytest.mark.parametrize("N", [17, 361])
    def test_refuses_an_odd_grid(self, N):
        # an odd grid has no antipodal angles, so no witness on it is the
        # complementary one of a boundary sample
        with pytest.raises(ValueError, match=rf"^duality needs an even grid, with antipodal angles \(got {N}\)$"):
            duality_check(fixture_matrix("disk"), N=N)

    def test_one_rayleigh_pass_for_both_levels(self, monkeypatch):
        calls = []
        real = rangegeom._support
        monkeypatch.setattr(rangegeom, "_support",
                            lambda grid: calls.append(len(grid.thetas)) or real(grid))
        duality_check(fixture_matrix("cubic_cusp"), N=90)
        assert calls == [180]

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
            thetas = np.linspace(0, 2 * math.pi, 40, endpoint=False)
            for th, h in zip(thetas.tolist(), _support_at(A, thetas)[0].tolist()):
                y = (-h, math.cos(th), math.sin(th))
                val, scale = eval_with_scale(curve.p, y)
                assert abs(val) <= 1e-6 * scale

    def test_dual_sample_cloud_matches_outer_hull(self):
        for name in ("disk", "cubic_cusp"):
            grid = SpectralGrid(split(fixture_matrix(name)), 1024)
            hulls = range_hulls(grid)
            cloud = [s.point for s in dual_sample(grid).samples
                     if s.point is not None and not s.singular]
            hull_cloud = convex_hull(cloud)
            assert _hausdorff_vs_polygon(hulls.outer, hull_cloud) <= 2e-3


def _rotation(n, i, j, a, b, c):
    """Exact rotation by (cos, sin) = (a/c, b/c) in the (i, j) plane."""
    rows = [[F(int(r == k)) for k in range(n)] for r in range(n)]
    rows[i][i] = rows[j][j] = F(a, c)
    rows[i][j], rows[j][i] = F(-b, c), F(b, c)
    return gmatrix(rows)


def _hull_vertices(points: set) -> set:
    """The points of a finite set of exact points that are vertices of its
    convex hull: neither on a segment between two others nor in a triangle of
    three others (Caratheodory), by exact orientation signs."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_segment(z, a, b):
        return (orient(a, b, z) == 0 and min(a[0], b[0]) <= z[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= z[1] <= max(a[1], b[1]))

    def in_triangle(z, a, b, c):
        return orient(a, b, c) != 0 and all(orient(*e, z) * orient(a, b, c) >= 0
                                            for e in ((a, b), (b, c), (c, a)))

    out = set()
    for z in points:
        rest = points - {z}
        if not (any(on_segment(z, a, b) for a, b in itertools.combinations(rest, 2))
                or any(in_triangle(z, *t) for t in itertools.combinations(rest, 3))):
            out.add(z)
    return out


def _corners_and_disk(n: int, rng: random.Random) -> GaussianRationalMatrix:
    """diag(z_1, ..., z_{n-2}) plus the block [[c, r], [0, c]], whose W is the
    disk of radius r/2 about c: W(A) is a polygon when the disk lies inside
    the corners' hull, and has a curved arc when it pokes out."""
    def point(den):
        return G(F(rng.randint(-6, 6), den), F(rng.randint(-6, 6), den))

    c = point(6)
    rows = [[G(0)] * n for _ in range(n)]
    for i, z in enumerate([point(rng.randint(1, 3)) for _ in range(n - 2)] + [c, c]):
        rows[i][i] = z
    rows[n - 2][n - 1] = G(F(rng.randint(1, 9), 5))
    return GaussianRationalMatrix(rows)


def _conjugated(diag):
    """Q D Q^T for a fixed rational orthogonal Q: normal, with the spectrum of D."""
    return _rotated(GaussianRationalMatrix.diagonal(diag))


def _rotated(M):
    """Q M Q^T for a fixed rational orthogonal Q, with the spectrum of M."""
    n = M.n
    Q = GaussianRationalMatrix.identity(n)
    for i, triple in zip(range(n - 1), [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25)]):
        Q = Q @ _rotation(n, i, i + 1, *triple)
    return Q @ M @ Q.conj_transpose()


class TestPolytopeDetect:
    def test_polytope_fixture_exact(self):
        v = _detect(fixture_matrix("polytope"))
        assert v.kind == "polytope" and v.exact
        assert set(v.vertices) == {(F(5), F(0)), (F(3), F(0)), (F(4), F(1)), (F(4), F(-1))}

    def test_normal_diagonal_triangle(self):
        A = GaussianRationalMatrix.diagonal(
            [GaussianRational.ONE, GaussianRational.I, -GaussianRational.ONE])
        v = _detect(A)
        assert v.kind == "polytope" and v.exact
        assert set(v.vertices) == {(F(1), F(0)), (F(0), F(1)), (F(-1), F(0))}

    def test_conjugated_repeated_fractional_eigenvalue(self):
        a = GaussianRational(F(1, 2), F(1, 3))
        b = GaussianRational(F(-3, 4), F(-1, 4))
        c = GaussianRational(F(5, 6), F(-2, 7))
        A = _conjugated([a, b, a, c])
        assert is_normal(A) and any(A[i, j] for i in range(4) for j in range(4) if i != j)
        v = _detect(A)
        assert v.kind == "polytope" and v.exact
        assert set(v.vertices) == {(z.re, z.im) for z in (a, b, c)}

    def test_seeded_conjugated_normal_sweep(self):
        # Q D Q^T with fractional and repeated Gaussian-rational eigenvalues,
        # n = 1..5: the spectrum is certified exactly, its hull vertices are
        # the planted ones, and p(t, -1, -i) = det(t*I - A) = prod (t - z_j)
        rng = random.Random(71)
        dens = (1, 2, 3, 4, 5, 6, 7)
        for n in range(1, 6):
            for _ in range(6):
                spectrum = []
                for _ in range(n):
                    if spectrum and rng.random() < 0.3:
                        spectrum.append(rng.choice(spectrum))
                    else:
                        spectrum.append(GaussianRational(F(rng.randint(-9, 9), rng.choice(dens)),
                                                         F(rng.randint(-9, 9), rng.choice(dens))))
                A = _conjugated(spectrum)
                assert is_normal(A)
                v = _detect(A)
                assert v.kind == "polytope" and v.exact, spectrum
                assert set(v.vertices) == _hull_vertices({(z.re, z.im) for z in spectrum})
                want = [GaussianRational.ONE]  # ascending coefficients of prod (t - z)
                for z in spectrum:
                    want = [(want[i - 1] if i else GaussianRational.ZERO)
                            - (z * want[i] if i < len(want) else GaussianRational.ZERO)
                            for i in range(len(want) + 1)]
                assert charpoly_from_p(A) == want

    def test_denominators_past_float_precision_stay_numeric(self):
        q = 2**61 - 1
        a = GaussianRational(1 + F(1, q), F(1, 3))
        b = GaussianRational(F(-2), F(1, 2))
        c = GaussianRational(F(1, 5), F(-1))
        A = _conjugated([a, b, c])
        assert is_normal(A)
        v = _detect(A)
        assert v.kind == "polytope" and not v.exact
        want = sorted((float(z.re), float(z.im)) for z in (a, b, c))
        assert np.allclose(sorted(v.vertices), want, atol=1e-9)

    def test_disk_smooth(self):
        v = _detect(fixture_matrix("disk"))
        assert v.kind == "smooth" and v.vertices is None

    def test_witness_clusters_match_the_scan(self):
        # runs of repeated witnesses, with gaps just past and just inside tol,
        # against the one-witness-at-a-time scan
        rng = random.Random(61)
        for trial in range(200):
            N, tol = rng.randint(1, 40), 1e-8
            pts, p = [], np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            for _ in range(N):
                if rng.random() < 0.4:
                    p = p + rng.choice([0.0, 0.5, 0.9, 1.1, 5.0]) * tol * np.array([0.6, 0.8])
                else:
                    p = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
                pts.append(p)
            if trial % 3 == 0:
                pts[-1] = pts[0] + 0.5 * tol
            wit = np.array(pts)
            scan: list[list[int]] = []
            for i in range(N):
                if scan and np.hypot(*(wit[i] - wit[scan[-1][-1]])) <= tol:
                    scan[-1].append(i)
                else:
                    scan.append([i])
            if len(scan) > 1 and np.hypot(*(wit[0] - wit[scan[-1][-1]])) <= tol:
                scan[0] = scan.pop() + scan[0]
            starts, lengths = _witness_clusters(wit, tol)
            assert [[(i + j) % N for j in range(k)] for i, k in zip(starts, lengths)] == scan

    def test_a_run_wraps_past_the_last_witness(self):
        # corners a, b, c with the fan of a split by index 0: witnesses 10, 11,
        # 0, 1, 2 sit on a and form one run of 5, which starts at 10
        a, b, c = (1.0, 0.0), (-0.5, 0.75), (-0.5, -0.75)
        wit = np.array([a] * 3 + [b] * 4 + [c] * 3 + [a] * 2)
        starts, lengths = _witness_clusters(wit, 1e-8)
        assert starts.tolist() == [10, 3, 7] and lengths.tolist() == [5, 4, 3]
        # the verdict needs the join: split, the runs of a (3 and 2) would
        # leave 10 < 0.9 * 12 witnesses in runs of 3 or more
        v = rangegeom._witness_verdict(wit)
        assert v.kind == "polytope" and sorted(v.vertices) == sorted([a, b, c])

    def test_half_fan_matches_the_full_fan(self):
        # an even fan solves its angles below pi and reflects the rest: on
        # seeded non-normal draws, generic ones and corners plus a disk, the
        # verdict is the full fan's, on even and odd fans alike
        rng = random.Random(83)
        kinds = set()
        for n in range(2, 9):
            for trial in range(4):
                A = random_gaussian_matrix(n, rng) if trial % 2 else _corners_and_disk(n, rng)
                assert not is_normal(A)
                for N in (4, 48, 90, 360, 361, 720):
                    got, want = _detect(A, N), reference_polytope_verdict(A, N)
                    assert got.kind == want.kind, (n, trial, N)
                    kinds.add(got.kind)
                    if want.vertices is None:
                        assert got.vertices is None
                        continue
                    assert all(type(x) is float for v in got.vertices for x in v)
                    assert np.abs(np.subtract(got.vertices, want.vertices)).max() <= 1e-12
        assert kinds == {"polytope", "smooth", "mixed/unknown"}

    @pytest.mark.parametrize("N", [48, 49, 90, 91, 360, 361, 720, 721])
    def test_planted_non_normal_polytope(self, N):
        # W of the 2x2 block is a disk inside the triangle of diag(1, i, -1)
        v = _detect(planted_polytope_matrix(), N)
        assert v.kind == "polytope" and not v.exact
        assert v.vertices == ((-1.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        assert all(type(x) is float for vertex in v.vertices for x in vertex)

    def test_matches_the_earlier_verdict(self):
        # the verdict on the pencil curve is the one that was read off A, bit
        # for bit: the fixtures, the planted polytope, seeded rotations of
        # Gaussian-rational diagonals (exact), of c times a symmetric matrix
        # (irrational spectra, floats), Hermitian segments, and corners with a
        # disk, of every non-normal verdict
        rng = random.Random(97)

        def entry():
            return GaussianRational(F(rng.randint(-9, 9), rng.randint(1, 7)),
                                    F(rng.randint(-9, 9), rng.randint(1, 7)))

        cases = [fixture_matrix(name) for name in FIXTURE_NAMES + ("generic5",)]
        cases += [planted_polytope_matrix(), gmatrix([[2, 0, 0], [0, 0, 1], [0, 0, 0]])]
        cases += [_corners_and_disk(n, rng) for n in (3, 4, 5) for _ in range(2)]
        for n in range(1, 6):
            for _ in range(2):
                cases.append(_conjugated([entry() for _ in range(n)]))
                B = random_gaussian_matrix(n, rng, complex_entries=False)
                cases.append(_rotated((B + B.conj_transpose()).scale(entry())))
                B = random_gaussian_matrix(n, rng)
                cases.append(B + B.conj_transpose())
        seen = set()
        for A in cases:
            curve = pencil_det(split(A))
            for N in (16, 90, 360, 361):
                got = polytope_detect(curve, N)
                assert got == earlier_polytope_detect(A, N), (A, N)
                seen.add((got.kind, got.exact, is_normal(A), A.is_hermitian()))
        assert seen >= {("polytope", True, True, False), ("polytope", False, True, False),
                        ("polytope", False, True, True), ("polytope", False, False, False),
                        ("smooth", False, False, False), ("mixed/unknown", False, False, False)}

    def test_normal_with_irrational_spectrum_falls_back_to_floats(self):
        A = gmatrix([[1, 1], [1, 0]])  # symmetric, eigenvalues (1 +- sqrt(5))/2
        v = _detect(A)
        assert v.kind == "polytope" and not v.exact
        xs = sorted(x for x, _ in v.vertices)
        assert abs(xs[0] - (1 - math.sqrt(5)) / 2) < 1e-9
        assert abs(xs[1] - (1 + math.sqrt(5)) / 2) < 1e-9

    def test_cone_shape_is_mixed(self):
        # conv({2} U disk): one corner fan, flat bridges, and a curved arc
        A = gmatrix([[2, 0, 0], [0, 0, 1], [0, 0, 0]])
        v = _detect(A)
        assert v.kind == "mixed/unknown"


class TestTranslateScale:
    """h_{A+cI}(theta) = h_A(theta) + c*cos(theta) on the grid."""

    def test_identity_shift(self):
        dev, scale = support_shift_deviation(GaussianRationalMatrix.identity(2), 2)
        assert dev <= 1e-9 * scale

    def test_cubic_shift(self):
        A = fixture_matrix("cubic_cusp")
        dev, scale = support_shift_deviation(A, 1)
        assert dev <= 1e-9 * scale
        shifted = A + GaussianRationalMatrix.identity(3)
        assert abs(_support_at(shifted, [0.0])[0][0] - (_support_at(A, [0.0])[0][0] + 1.0)) < 1e-9

    def test_zero_shift_identical(self):
        assert support_shift_deviation(fixture_matrix("disk"), 0)[0] == 0.0


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

    def test_hausdorff_exact_vertices(self):
        # Fraction vertices convert as float() does, one polygon or both
        outer = [(F(-5, 2), F(-2)), (F(2), F(-7, 3)), (F(9, 4), F(2)), (F(-2), F(13, 6))]
        inner = [(F(-1), F(-1, 3)), (F(1, 7), F(-1)), (F(1), F(1)), (F(-1, 5), F(1))]
        floats = [[(float(x), float(y)) for x, y in poly] for poly in (outer, inner)]
        want = hausdorff_outer_to_inner(*floats)
        assert want > 1.0
        assert hausdorff_outer_to_inner(outer, inner) == want
        assert hausdorff_outer_to_inner(outer, floats[1]) == want
        assert hausdorff_outer_to_inner([(F(1, 3), F(2, 3))], [(F(1, 3), F(-1, 3))]) == 1.0

    def test_polygon_area_against_fsum(self):
        def reference(vertices):
            n = len(vertices)
            return abs(math.fsum(
                float(vertices[i][0]) * float(vertices[(i + 1) % n][1])
                - float(vertices[(i + 1) % n][0]) * float(vertices[i][1])
                for i in range(n))) / 2.0

        rng = random.Random(77)
        polys = [[(F(0), F(0)), (F(1), F(0)), (F(1, 3), F(2, 3))], [(0.0, 0.0), (1.0, 1.0)], []]
        for _ in range(200):
            m = rng.choice([3, 4, 17, 720, 1441])
            scale = 10.0 ** rng.uniform(-6, 6)
            polys.append(convex_hull([(scale * rng.gauss(0, 1), scale * rng.gauss(0, 1))
                                      for _ in range(m)]))
        assert polygon_area(polys[0]) == 1.0 / 3.0
        for poly in polys[1:]:
            want = reference(poly)
            assert abs(polygon_area(poly) - want) <= 1e-12 * want

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_degenerate_flag_unchanged(self, name):
        # the flag as the per-vertex float loop computed it
        def loop_area(vertices):
            s = 0.0
            for i in range(len(vertices)):
                x1, y1 = vertices[i]
                x2, y2 = vertices[(i + 1) % len(vertices)]
                s += float(x1) * float(y2) - float(x2) * float(y1)
            return abs(s) / 2.0 if len(vertices) >= 3 else 0.0

        pencil = split(fixture_matrix(name))
        for N in (16, 90, 720):
            hulls = range_hulls(SpectralGrid(pencil, N))
            scale = max(1.0, float(np.abs(hulls.witnesses).max()))
            assert hulls.degenerate == (loop_area(hulls.outer) <= 1e-12 * scale * scale), N
            assert abs(polygon_area(hulls.outer) - loop_area(hulls.outer)) <= (
                1e-13 * loop_area(hulls.outer)), N


# -- the quadratic kernels the linear ones replaced, kept as references ------------


def _hausdorff_reference(outer, inner) -> float:
    """max over outer vertices of the distance to the inner boundary, O(N*M)."""
    P = np.array(outer, dtype=float)
    V = np.array(inner, dtype=float)
    if len(V) == 1:
        return float(np.hypot(P[:, 0] - V[0, 0], P[:, 1] - V[0, 1]).max())
    A, AB = V, np.roll(V, -1, axis=0) - V
    L2 = (AB ** 2).sum(axis=1)
    L2safe = np.where(L2 > 0, L2, 1.0)
    worst = 0.0
    for rows in np.array_split(P, max(1, len(P) // 256)):   # bounded temporaries
        AP = rows[:, None, :] - A[None, :, :]
        t = np.clip((AP * AB[None, :, :]).sum(axis=-1) / L2safe, 0.0, 1.0)
        proj = A[None, :, :] + t[:, :, None] * AB[None, :, :]
        d = np.sqrt(((rows[:, None, :] - proj) ** 2).sum(axis=-1)).min(axis=1)
        worst = max(worst, float(d.max()))
    return worst


def _outer_polygon_reference(cos, sin, h):
    """Vertices of neighbouring half-planes that satisfy every half-plane, O(N^2)."""
    cos_n, sin_n, h_n = np.roll(cos, -1), np.roll(sin, -1), np.roll(h, -1)
    det = cos * sin_n - sin * cos_n
    C = np.stack([(h * sin_n - h_n * sin) / det, (cos * h_n - cos_n * h) / det], axis=1)
    scale = max(1.0, float(np.abs(C).max()))
    feas = (C[:, 0][:, None] * cos[None, :] + C[:, 1][:, None] * sin[None, :]
            <= h[None, :] + 1e-9 * scale).all(axis=1)
    return convex_hull([tuple(pt) for pt in C[feas]])


def _dual_sample_reference(curve, N):
    """Per-point `eval_with_scale` gradient images, one ray at a time."""
    grid = SpectralGrid(curve.pencil, N)
    grads = [curve.p.partial(i) for i in range(3)]
    samples = []
    for th, d1, d2, eigs in zip(grid.thetas.tolist(), grid.cos.tolist(), grid.sin.tolist(),
                                grid.eigvals):
        for idx in np.flatnonzero(_root_eigs(eigs)).tolist():
            t = -1.0 / float(eigs[idx]) / grid.pencil.unit
            pairs = [eval_with_scale(g, (1.0, t * d1, t * d2)) for g in grads]
            x = tuple(v for v, _ in pairs)
            gscale = max(s for _, s in pairs)
            gnorm = max(abs(v) for v in x)
            singular = gscale == 0.0 or gnorm <= 1e-10 * gscale
            pt = None
            if not singular and abs(x[0]) > 1e-12 * gnorm:
                pt = (x[1] / x[0], x[2] / x[0])
            samples.append(CurveSample(theta=th, point=pt, root_index=idx, singular=singular))
    return CurveSampleSet(chart="x0=1", samples=samples)


def _rows(V):
    """The rows of an (m, 2) array as (x, y) tuples of Python floats."""
    return [tuple(p) for p in V.tolist()]


def _grid_polygons(A, N):
    grid = SpectralGrid(split(A), N)
    h, wit = support(grid)
    inner = convex_hull([tuple(map(float, p)) for p in wit])
    return grid, h, inner, max(1.0, float(np.abs(wit).max()))


def _random_nested_pair(rng):
    """(outer, inner): inner is the hull of 1..12 random points, outer the hull of
    those points and 0..12 more; a tenth of the pairs coincide."""
    scale = 10.0 ** rng.uniform(-3, 3)
    cx, cy = rng.uniform(-5, 5) * scale, rng.uniform(-5, 5) * scale

    def pts(k, r):
        return [(cx + r * scale * rng.gauss(0, 1), cy + r * scale * rng.gauss(0, 1))
                for _ in range(k)]

    base = pts(rng.choice([1, 2, rng.randint(3, 12)]), 1.0)
    extra = [] if rng.random() < 0.1 else pts(rng.randint(1, 12), rng.uniform(0.5, 3.0))
    return convex_hull(base + extra), convex_hull(base)


class TestLinearKernelsAgainstReferences:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_grids(self, name):
        for N in (3, 4, 16, 90, 91, 720, 1440, 2880):
            grid, h, inner, scale = _grid_polygons(fixture_matrix(name), N)
            outer = _outer_polygon(grid.cos, grid.sin, h)
            assert _rows(outer) == _outer_polygon_reference(grid.cos, grid.sin, h), N
            gap = hausdorff_outer_to_inner(outer, inner)
            assert abs(gap - _hausdorff_reference(outer, inner)) <= 1e-12 * scale, N

    def test_generic_grids(self):
        rng = random.Random(4242)
        for _ in range(40):
            A = random_gaussian_matrix(rng.randint(2, 6), rng)
            grid, h, inner, scale = _grid_polygons(A, 360)
            outer = _outer_polygon(grid.cos, grid.sin, h)
            assert _rows(outer) == _outer_polygon_reference(grid.cos, grid.sin, h)
            gap = hausdorff_outer_to_inner(outer, inner)
            assert abs(gap - _hausdorff_reference(outer, inner)) <= 1e-12 * scale

    def test_random_nested_pairs(self):
        rng = random.Random(9001)
        sizes = set()
        for _ in range(600):
            outer, inner = _random_nested_pair(rng)
            sizes.add(min(len(inner), 3))
            scale = float(np.abs(np.array(outer)).max())
            got = hausdorff_outer_to_inner(outer, inner)
            assert abs(got - _hausdorff_reference(outer, inner)) <= 1e-12 * scale
        assert sizes == {1, 2, 3}

    def test_coincident_polygons(self):
        _, _, inner, _ = _grid_polygons(fixture_matrix("nested_ovals"), 720)
        assert hausdorff_outer_to_inner(inner, inner) == 0.0
        assert hausdorff_outer_to_inner([(1.0, 2.0)], [(1.0, 2.0)]) == 0.0

    def test_vertices_have_the_bounding_box_of_the_polygon(self):
        # the Craig cross-check reads the box of the vertices, skipping the hull;
        # the monotone chain may drop a point by roundoff, so the boxes agree
        # to roundoff, not bit for bit
        rng = random.Random(5252)
        pencils = [split(fixture_matrix(name)) for name in FIXTURE_NAMES]
        pencils += [HermitianPencil(*planted_product_zero_pair(rng.randint(2, 6), rng))
                    for _ in range(20)]
        for pencil in pencils:
            for N in (3, 4, 16, 45, 90, 91, 720, 1440):
                grid = SpectralGrid(pencil, N)
                h = support(grid)[0]
                V = _outer_vertices(grid.cos, grid.sin, h)
                P = np.array(_outer_polygon(grid.cos, grid.sin, h))
                scale = max(1.0, float(np.abs(V).max()))
                for got, want in ((V.min(axis=0), P.min(axis=0)), (V.max(axis=0), P.max(axis=0))):
                    assert np.abs(got - want).max() <= 1e-12 * scale, N

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_dual_sample_is_the_per_point_evaluation(self, name):
        """The eigenvector samples keep the rows, flags and NaN pattern of the
        gradient images.  Where p is squarefree their points agree within 1e-9
        of each point's largest |coordinate|; on cardioid_circle (a cubic times
        a conic cubed), where the gradient images are off by about 4e-7, every
        point lies on a golden dual."""
        curve = pencil_det(split(fixture_matrix(name)))
        for N in (16, 90, 720):
            got, want = dual_sample(SpectralGrid(curve.pencil, N)), _dual_sample_reference(curve, N)
            for col in ("theta", "root_index", "singular", "finite"):
                assert getattr(got, col).tolist() == getattr(want, col).tolist(), (col, N)
            assert np.isnan(got.x).tolist() == np.isnan(want.x).tolist(), N
            assert np.isnan(got.y).tolist() == np.isnan(want.y).tolist(), N
            f = got.finite
            P, Q = (np.stack((s.x[f], s.y[f]), axis=1) for s in (got, want))
            if name == "cardioid_circle":
                assert max(map(cardioid_circle_dual_residual, *P.T.tolist())) <= 1e-12, N
            else:
                assert (np.abs(P - Q).max(axis=1) <= 1e-9 * np.abs(Q).max(axis=1)).all(), N


# -- hulls of angle-ordered points against the monotone chain ---------------------


def _regular(m, phase=0.1):
    return [(math.cos(phase + 2 * math.pi * k / m), math.sin(phase + 2 * math.pi * k / m))
            for k in range(m)]


def _hull_inputs():
    """Matrices for the hull differential: seeded draws n = 1..6, real and
    complex, plain, Hermitian, diagonal (polytope) and x 10^12."""
    rng = random.Random(31337)
    out = []
    for k in range(240):
        n = 1 + k % 6
        A = random_gaussian_matrix(n, rng, complex_entries=k % 2 == 0)
        kind = ("plain", "plain", "hermitian", "diagonal", "big")[k % 5]
        if kind == "hermitian":
            A = A + A.conj_transpose()
        elif kind == "diagonal":
            A = GaussianRationalMatrix.diagonal([A[i, i] for i in range(n)])
        elif kind == "big":
            A = A.scale(G(10 ** 12))
        out.append(A)
    return out


class TestCycleHull:
    """`_cycle_hull` and `range_hulls` equal the `convex_hull` reference."""

    @staticmethod
    def _check(grid):
        h, wit = support(grid)
        hulls = range_hulls(grid)
        witnesses = [tuple(map(float, p)) for p in wit]
        assert _rows(hulls.witnesses) == witnesses
        assert hulls.support_values.tolist() == [float(v) for v in h]
        assert _rows(hulls.inner) == convex_hull(witnesses)
        assert _rows(hulls.outer) == _outer_polygon_reference(grid.cos, grid.sin, h)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_grids(self, name):
        pencil = split(fixture_matrix(name))
        for N in (3, 4, 8, 16, 90, 720, 1440, 2880):
            self._check(SpectralGrid(pencil, N))

    def test_seeded_draws(self):
        for k, A in enumerate(_hull_inputs()):
            self._check(SpectralGrid(split(A), (16, 90, 360)[k % 3]))

    def test_fallback_cases(self, monkeypatch):
        calls = []

        def spy(points):
            calls.append(1)
            return convex_hull(points)

        monkeypatch.setattr(rangegeom, "convex_hull", spy)
        circle = _regular(40)
        reflex = list(circle)
        # the midpoint of its neighbours, nudged inwards by roundoff
        (x0, y0), (x1, y1) = circle[4], circle[6]
        reflex[5] = ((x0 + x1) / 2 * (1 - 1e-14), (y0 + y1) / 2 * (1 - 1e-14))
        assert _cross(reflex[4], reflex[5], reflex[6]) < 0
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        cases = {
            "non-consecutive repeat": square[:3] + [square[0]] + square[3:],
            "all equal": [(0.5, -2.0)] * 7,
            "two points": [(1.0, 2.0), (3.0, -1.0)],
            "two points repeated": [(1.0, 2.0), (1.0, 2.0), (3.0, -1.0), (3.0, -1.0)],
            "collinear": [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)],
            "all collinear": [(float(k), 2.0 * k) for k in range(6)],
            "roundoff reflex": reflex,
            "square twice": square * 2,
            "pentagram": [_regular(5)[(2 * k) % 5] for k in range(5)],
            "clockwise": circle[::-1],
        }
        for label, pts in cases.items():
            calls.clear()
            got = _cycle_hull(np.array(pts))
            assert calls == [1], label
            assert _rows(got) == convex_hull(pts), label

    def test_certified_cases(self, monkeypatch):
        monkeypatch.setattr(rangegeom, "convex_hull", None)  # must not be reached
        circle = _regular(40)
        cases = {
            "circle": circle,
            "rotated": circle[17:] + circle[:17],
            "triangle": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
            "consecutive repeats": [circle[0]] * 3 + circle[1:9] + [circle[9]] * 2 + circle[10:]
            + [circle[0]] * 2,
            "ties in x": [(0.0, 1.0), (0.0, -1.0), (1.0, -1.0), (1.0, 1.0)],
        }
        for label, pts in cases.items():
            assert _rows(_cycle_hull(np.array(pts))) == convex_hull(pts), label

    def test_signed_zero_repeat_keeps_the_first(self):
        pts = [(0.0, 0.0), (-0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, -0.0)]
        got = _rows(_cycle_hull(np.array(pts)))
        assert got == convex_hull(pts)
        assert [math.copysign(1.0, c) for c in got[0]] == [
            math.copysign(1.0, c) for c in convex_hull(pts)[0]]

    def test_both_branches_return_float_arrays_of_the_hull_rows(self, monkeypatch):
        calls = []

        def spy(points):
            calls.append(1)
            return convex_hull(points)

        monkeypatch.setattr(rangegeom, "convex_hull", spy)
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        cases = {
            # label: (points, takes the monotone-chain fallback)
            "circle": (_regular(40), False),
            "signed-zero repeat": ([(0.0, 0.0), (-0.0, 0.0)] + square[1:] + [(0.0, -0.0)], False),
            "signed-zero non-consecutive repeat": (square[:3] + [(-0.0, 0.0)] + square[3:], True),
            "square twice": (square * 2, True),
            "all equal": ([(-0.0, 2.0)] * 3, True),
            "two points": ([(1.0, 2.0), (3.0, -1.0)], True),
        }
        for label, (pts, fallback) in cases.items():
            calls.clear()
            got = _cycle_hull(np.array(pts))
            assert calls == ([1] if fallback else []), label
            assert got.dtype == np.float64 and got.ndim == 2 and got.shape[1] == 2, label
            assert got.flags.c_contiguous, label
            want = np.array(convex_hull(pts), dtype=np.float64)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), label


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _duality_grids():
    """(name, N, fine 2N-grid) for the fixtures and seeded n = 3 and n = 5 draws."""
    rng = random.Random(2021)
    draws = [(f"generic n={n}", random_gaussian_matrix(n, rng)) for n in (3, 3, 5, 5)]
    for name, A in [(name, fixture_matrix(name)) for name in FIXTURE_NAMES] + draws:
        pencil = split(A)
        for N in (16, 90, 361, 720, 1440):
            yield name, N, SpectralGrid(pencil, 2 * N)


class TestDualityInLinearMemory:
    """The shared Rayleigh pass and the blocked pairing against the per-level
    hulls and the whole K x N pairing matrix, bit for bit."""

    def test_blocked_row_minima_match_the_whole_matrix(self):
        ks = set()
        for name, N, fine in _duality_grids():
            grid = fine.every_other()
            k, _, y1, y2 = _exit_points(grid)
            if not k.size:
                continue
            Y = np.stack((y1, y2), axis=1)
            W = range_hulls(grid).witnesses
            reference = (1.0 + Y @ W.T).min(axis=1)
            assert _same_bits(_pairing_row_min(Y, support(fine)[1][::2]), reference), (name, N)
            ks.add((name, N, k.size))
        assert ("polytope", 1440, 833) in ks

    @pytest.mark.parametrize("K", [1, 2, 3, 127, 128, 129, 130, 255, 256, 257, 383])
    def test_block_boundaries(self, K):
        # K = 1 takes gemv in the reference too; every other K keeps >= 2 rows a block
        fine = SpectralGrid(split(fixture_matrix("polytope")), 2880)
        k, _, y1, y2 = _exit_points(fine.every_other())
        Y = np.stack((y1, y2), axis=1)[:K]
        W = support(fine)[1][::2]
        assert len(Y) == K
        assert _same_bits(_pairing_row_min(Y, W), (1.0 + Y @ W.T).min(axis=1))

    def test_one_bounded_ray(self):
        # one boundary sample takes gemv, in the reference too
        grid = SpectralGrid(split(fixture_matrix("cubic_cusp")), 32).every_other()
        _, _, y1, y2 = _exit_points(grid)
        W = range_hulls(grid).witnesses
        for y in np.stack((y1, y2), axis=1):
            assert _same_bits(_pairing_row_min(y[None], W), (1.0 + y[None] @ W.T).min(axis=1))
        # A = -c, c = 1.01e-12: F(A) = {y : 1 - c*y1 >= 0}, so a ray is bounded iff
        # cos(theta) > 0, 7 of 16; cos(+-pi/2) is roundoff, below UNBOUNDED_CUT
        rep = duality_check(gmatrix([[F(-101, 10**14)]]), N=16)
        assert (rep.boundary_count, rep.unbounded_count) == (7, 9)

    def test_coarse_hulls_from_the_shared_pass(self):
        for name, N, fine in _duality_grids():
            h, wit = support(fine)
            shared, alone = _hulls_of(fine.every_other(), h[::2], wit[::2]), range_hulls(fine.every_other())
            for f in dataclasses.fields(alone):
                a, b = getattr(shared, f.name), getattr(alone, f.name)
                assert np.array_equal(a, b) and _same_bits(a, b), (name, N, f.name)
