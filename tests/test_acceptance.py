"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance is pinned here, not configurable.
"""

import functools
import random
import time
from fractions import Fraction

import numpy as np

from numrange.cli import main as cli_main
from numrange.craig import craig_identity, product_zero
from numrange.dualcurve import XVARS, dual_curve_exact, dual_sample, dual_union
from numrange.exactpoly import TriPoly, parse_poly
from numrange.hermitian import split
from numrange.pencil import (YVARS, SpectralGrid, hyperbolicity_check, lmi_polytope_vertices,
                             pencil_det)
from numrange.rangegeom import duality_check, polytope_detect, range_hulls

from conftest import (
    FIXTURES,
    eval_with_scale,
    fixture_matrix,
    generic_hermitian_pair,
    golden_poly,
    planted_product_zero_pair,
    polygon_support,
    random_gaussian_matrix,
)

F = Fraction
CONIC = parse_poly("4*y0^2 - y1^2 - y2^2", YVARS)  # cardioid_circle's circle


def grid_dual_residuals(curve, q, N=120):
    """(count, worst |q| / scale) over the non-singular dual samples of the
    curve's N-angle grid."""
    samples = dual_sample(SpectralGrid(curve.pencil, N))
    keep = ~samples.singular
    worst = 0.0
    for x1, x2 in zip(samples.x[keep].tolist(), samples.y[keep].tolist()):
        val, scale = eval_with_scale(q, (1.0, x1, x2))
        worst = max(worst, abs(val) / scale)
    return int(keep.sum()), worst


def conic_gradient_images():
    """grad CONIC at 200 rational points (1 + s^2, 2(1 - s^2), 4s) of the conic,
    s = k/7 for k = -100..99."""
    images = []
    for k in range(-100, 100):
        s = F(k, 7)
        y = (1 + s * s, 2 * (1 - s * s), 4 * s)
        assert CONIC.eval(y) == 0
        images.append(tuple(CONIC.partial(i).eval(y) for i in range(3)))
    return images


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL")
                raise
            dt = time.perf_counter() - t0
            print(f"\nACCEPTANCE {label}: PASS ({dt:.2f}s)")
        return run
    return wrap


@criterion("01 cubic-pencil-exact")
def test_cubic_pencil_exact(tmp_path):
    out = tmp_path / "p.txt"
    t0 = time.perf_counter()
    assert cli_main(["pencil", "--input", str(FIXTURES / "cubic_cusp.json"),
                     "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    got = parse_poly(out.read_text().strip(), YVARS)
    y0, y1, y2 = (TriPoly.variable(i, YVARS) for i in range(3))
    assert got == (y0 - y1) * (y0 + y1) ** 2 - y0 * y2 ** 2  # zero tolerance
    assert elapsed < 1.0


@criterion("02 cubic-dual-exact")
def test_cubic_dual_exact(tmp_path):
    out = tmp_path / "q.txt"
    t0 = time.perf_counter()
    assert cli_main(["dual", "--input", str(FIXTURES / "cubic_cusp.json"),
                     "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    got = parse_poly(out.read_text().strip(), XVARS)
    displayed = parse_poly(
        "4*x1^4 + 32*x2^4 + 13*x1^2*x2^2 - 18*x0*x1*x2^2 + 4*x0*x1^3 - 27*x0^2*x2^2",
        XVARS)
    assert got.primitive() == displayed.primitive()  # equal up to positive scalar
    assert elapsed < 5.0


@criterion("03 cross-star-degree12")
def test_cross_star_degree12():
    t0 = time.perf_counter()
    curve = pencil_det(split(fixture_matrix("cross_star")))
    expected_p = parse_poly(
        "y0^4 - 13/16*y0^2*y1^2 - 13/16*y0^2*y2^2 + 1/64*y1^4 + 17/32*y1^2*y2^2 + 1/64*y2^4",
        YVARS)
    assert curve.p == expected_p  # includes the 1/64 normalization, p(1,0,0)=1
    dc = dual_curve_exact(curve.p)
    elapsed = time.perf_counter() - t0
    expected_q = {
        (12, 0, 0): 5184, (10, 2, 0): -299520, (10, 0, 2): -299520,
        (8, 4, 0): 1954576, (8, 2, 2): 16356256, (8, 0, 4): 1954576,
        (6, 6, 0): -5375968, (6, 4, 2): -79163552, (6, 2, 4): -79163552,
        (6, 0, 6): -5375968, (4, 8, 0): 7512049, (4, 6, 2): 152829956,
        (4, 4, 4): -2714586, (4, 2, 6): 152829956, (4, 0, 8): 7512049,
        (2, 10, 0): -5290740, (2, 8, 2): -136066372, (2, 6, 4): 232523512,
        (2, 4, 6): 232523512, (2, 2, 8): -136066372, (2, 0, 10): -5290740,
        (0, 12, 0): 1498176, (0, 10, 2): 46903680, (0, 8, 4): -129955904,
        (0, 6, 6): 186148096, (0, 4, 8): -129955904, (0, 2, 10): 46903680,
        (0, 0, 12): 1498176,
    }
    ref = TriPoly(XVARS, {k: F(v) for k, v in expected_q.items()})
    assert dc.q == ref.primitive()  # all 28 coefficients, up to positive scalar
    assert elapsed < 60.0


@criterion("04 cardioid-circle-union")
def test_cardioid_circle_union():
    curve = pencil_det(split(fixture_matrix("cardioid_circle")))
    cubic = parse_poly("4*y0^3 - 3*y0*y1^2 - 3*y0*y2^2 + y1^3 + y1*y2^2", YVARS)
    # exact division: p = (1/256) * cubic * conic^3
    rest = curve.p.divexact(cubic).divexact(CONIC).divexact(CONIC).divexact(CONIC)
    assert rest == TriPoly.constant(F(1, 256), YVARS)
    comps = dual_union(curve.p, [cubic, CONIC])
    assert len(comps) == 2
    circle = parse_poly("x0^2 - 4*x1^2 - 4*x2^2", XVARS)
    assert comps[1].q == circle.primitive()
    # the conic enters p cubed, so the grid flags every circle sample singular:
    # the circle vanishes exactly on the conic's gradient images instead
    assert all(comps[1].q.eval(x) == 0 for x in conic_gradient_images())
    # the quartic dual of the cubic vanishes on every non-singular dual sample
    cardioid = comps[0].q
    assert cardioid.total_degree() == 4
    count, worst = grid_dual_residuals(curve, cardioid)
    assert count >= 200 and worst <= 1e-6
    assert cardioid == golden_poly("cardioid_circle_dual_cardioid.txt", XVARS)


@criterion("05 polytope-vertices")
def test_polytope_vertices():
    curve = pencil_det(split(fixture_matrix("polytope")))
    factors = [parse_poly(s, YVARS) for s in
               ("y0 + 5*y1", "y0 + 3*y1", "y0 + 4*y1 + y2", "y0 + 4*y1 - y2")]
    # exact division against the four displayed linear forms
    rest = curve.p
    for f in factors:
        rest = rest.divexact(f)
    assert rest == TriPoly.constant(F(1), YVARS)
    verdict = polytope_detect(pencil_det(split(fixture_matrix("polytope"))))
    assert verdict.kind == "polytope" and verdict.exact
    assert set(verdict.vertices) == {(F(5), F(0)), (F(3), F(0)), (F(4), F(1)), (F(4), F(-1))}
    poly = lmi_polytope_vertices(factors)
    # the three-point frame spanned by the facet lines, exactly
    assert set(poly.facet_line_vertices) == {
        (F(-1, 4), F(0)), (F(-1, 5), F(1, 5)), (F(-1, 5), F(-1, 5))}
    # the feasible set itself is unbounded with two of those as true vertices
    assert set(poly.vertices) == {(F(-1, 5), F(1, 5)), (F(-1, 5), F(-1, 5))}
    assert not poly.bounded


@criterion("06 craig-equivalence-100")
def test_craig_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(60061)
    agree = 0
    for k in range(50):
        A1, A2 = planted_product_zero_pair(2 + k % 5, rng)
        assert product_zero(A1, A2)
        if craig_identity(A1, A2) == product_zero(A1, A2):
            agree += 1
    for k in range(50):
        A1, A2 = generic_hermitian_pair(2 + k % 5, rng, complex_entries=(k % 4 == 0))
        if craig_identity(A1, A2) == product_zero(A1, A2):
            agree += 1
    elapsed = time.perf_counter() - t0
    assert agree == 100  # exact arithmetic, no tolerance
    assert elapsed < 30.0


@criterion("07 duality-suite-105")
def test_duality_suite():
    names = ("cubic_cusp", "nested_ovals", "cross_star", "cardioid_circle", "polytope")
    mats = [fixture_matrix(n) for n in names]
    rng = random.Random(70071)
    mats += [random_gaussian_matrix(rng.randint(2, 6), rng) for _ in range(100)]
    for i, A in enumerate(mats):
        rep = duality_check(A, N=720, tol=1e-6)
        assert rep.pairing_min >= -1e-6, (i, rep.pairing_min)
        assert rep.complementary_worst <= 1e-6, (i, rep.complementary_worst)
        assert rep.gap_decreased, (i, rep.gap_at_N, rep.gap_at_2N)


@criterion("08 dual-vanishing-200")
def test_dual_vanishing():
    # q vanishes on the non-singular dual samples of each fixture's grid: the
    # Rayleigh pairs of the ray-root eigenvectors, which read no p
    cases = []
    for name in ("cubic_cusp", "nested_ovals", "cross_star", "disk"):
        curve = pencil_det(split(fixture_matrix(name)))
        cases.append((curve, dual_curve_exact(curve.p).q))
    cases.append((pencil_det(split(fixture_matrix("cardioid_circle"))),
                  golden_poly("cardioid_circle_dual_cardioid.txt", XVARS)))
    for curve, q in cases:
        count, worst = grid_dual_residuals(curve, q)
        assert count >= 200 and worst <= 1e-6, (q.to_text()[:40], count, worst)
    # every circle sample is singular (the conic enters p cubed): exactly instead
    circle = golden_poly("cardioid_circle_dual_circle.txt", XVARS)
    assert all(circle.eval(x) == 0 for x in conic_gradient_images())


@criterion("09 disk-oracle")
def test_disk_oracle():
    A = fixture_matrix("disk")
    hulls = range_hulls(SpectralGrid(split(A), 720))
    th = np.linspace(0, 2 * np.pi, 2880, endpoint=False)
    # Hausdorff distance to the radius-1/2 disk = sup |support - 1/2|
    assert np.abs(polygon_support(hulls.outer, th) - 0.5).max() <= 1e-3
    assert np.abs(polygon_support(hulls.inner, th) - 0.5).max() <= 1e-3
    p = pencil_det(split(A)).p
    dc = dual_curve_exact(p)
    # adjugate oracle: p = y' Q y with Q = diag(1, -1/4, -1/4); adj(Q) scales
    # to diag(1/16, -1/4, -1/4) (x' adj x), primitive form x0^2 - 4x1^2 - 4x2^2
    adj = TriPoly(XVARS, {(2, 0, 0): F(1, 16), (0, 2, 0): F(-1, 4), (0, 0, 2): F(-1, 4)})
    assert dc.q == adj.primitive()
    assert dc.q == parse_poly("x0^2 - 4*x1^2 - 4*x2^2", XVARS).primitive()


@criterion("10 hyperbolicity-105")
def test_hyperbolicity():
    names = ("cubic_cusp", "nested_ovals", "cross_star", "cardioid_circle", "polytope", "disk")
    curves = [pencil_det(split(fixture_matrix(n))) for n in names]
    rng = random.Random(100101)
    for _ in range(100):
        curves.append(pencil_det(split(random_gaussian_matrix(rng.randint(2, 5), rng))))
    for i, curve in enumerate(curves):
        report = hyperbolicity_check(curve, trials=10, seed=9000 + i)
        assert report.ok, (i, [l for l in report.lines if not l.all_real])
        assert report.max_eig_residual <= 1e-8, (i, report.max_eig_residual)
