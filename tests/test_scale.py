"""Answers that follow a rescaling of A.

W(cA) = c*W(A), F(cA) = F(A)/c, and Craig's criterion A1*A2 = 0 does not see
c.  The numeric layers solve on A/s, s the pencil's entry scale (its `unit`,
`hermitian._entry_scale`), and every tolerance there is a constant, so each
answer below at A*10**k is the answer at A, up to the edges of the float
range.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from numrange.cli import main
from numrange.dualcurve import dual_sample
from numrange.exactpoly import GaussianRational
from numrange.hermitian import GaussianRationalMatrix, _entry_scale, matrix_from_json, split
from numrange.pencil import SpectralGrid, boundary_F, hyperbolicity_check, pencil_det
from numrange.rangegeom import duality_check, member_W, polytope_detect, range_hulls

from conftest import FIXTURES, support_shift_deviation

POWERS = (-300, -200, -160, -100, -20, -13, -12, 20, 100, 160, 200, 300)
NAMES = ("cardioid_circle", "cross_star", "cubic_cusp", "disk", "nested_ovals", "polytope")
GRID = ("--grid", "64")


def _scaled(doc, k: int):
    """A matrix or {"A1", "A2"} pair document with every entry part times 10**k."""
    if "A1" in doc:
        return {key: _scaled(doc[key], k) for key in ("A1", "A2")}
    c = Fraction(10) ** k

    def part(v):
        v = Fraction(*v) if isinstance(v, list) else Fraction(v)
        return [(v * c).numerator, (v * c).denominator]

    return {"n": doc["n"], "entries": [[[part(re), part(im)] for re, im in row]
                                       for row in doc["entries"]]}


def _write(tmp_path, name: str, k: int) -> str:
    path = tmp_path / f"{name}_{k}.json"
    path.write_text(json.dumps(_scaled(json.loads((FIXTURES / f"{name}.json").read_text()), k)))
    return str(path)


def _matrix(name: str, k: int) -> GaussianRationalMatrix:
    return matrix_from_json(_scaled(json.loads((FIXTURES / f"{name}.json").read_text()), k))


def _cli(capsys, *argv):
    capsys.readouterr()
    code = main(list(argv))
    return code, capsys.readouterr().out


def _report(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines())


def _answers(capsys, src: str) -> dict:
    """The scale-free answers of the numeric subcommands on one input file."""
    _, csv = _cli(capsys, "sample-f", "--input", src, *GRID)
    code, text = _cli(capsys, "duality", "--input", src, *GRID)
    duality = _report(text)
    cls_code, text = _cli(capsys, "classify", "--input", src, *GRID)
    cls = _report(text)
    return {
        "sample-f finite": ["inf" not in row for row in csv.splitlines()[1:]],
        "duality": (code, duality["boundary_samples"], duality["ok"]),
        "render": main(["render", "--input", src, *GRID, "--out", src + ".svg"]),
        "classify": (cls_code, cls["shape"], len(cls.get("vertices", "").split("; "))),
    }


class TestScaleSweep:
    @pytest.mark.parametrize("name", NAMES)
    def test_cli_answers_follow_the_scale(self, tmp_path, capsys, name):
        want = _answers(capsys, _write(tmp_path, name, 0))
        for k in POWERS:
            assert _answers(capsys, _write(tmp_path, name, k)) == want, k

    @pytest.mark.parametrize("name", ["craig_pair_diag", "craig_pair_overlap"])
    def test_craig_follows_the_scale(self, tmp_path, capsys, name):
        want = _cli(capsys, "craig", "--input", _write(tmp_path, name, 0))
        identity = want[1].split()[0]
        for k in POWERS:
            code, out = _cli(capsys, "craig", "--input", _write(tmp_path, name, k))
            assert (code, out.split()[:1]) == (want[0], [identity]), k

    @pytest.mark.parametrize("k", POWERS)
    def test_library_answers_follow_the_scale(self, k):
        c = Fraction(10) ** k
        disk = _matrix("disk", k)
        for x, inside in (((0.6, 0.0), False), ((0.45, 0.0), True), ((0.3, -0.3), True),
                          ((0.0, 0.55), False)):
            assert member_W(disk, (x[0] * float(c), x[1] * float(c)), N=90) is inside, x
        for name in NAMES:
            assert _hulls(name, k).degenerate == _hulls(name, 0).degenerate, name
        dev, scale = support_shift_deviation(disk, c, N=64)
        assert dev <= 1e-9 * scale
        assert len(polytope_detect(pencil_det(split(_hermitian_pair(c)))).vertices) == 2


def _hulls(name: str, k: int):
    return range_hulls(SpectralGrid(split(_matrix(name, k)), 64))


def _two_power(name: str, k: int) -> GaussianRationalMatrix:
    return _matrix(name, 0).scale(GaussianRational.of(Fraction(2) ** k))


def _hermitian_pair(c: Fraction) -> GaussianRationalMatrix:
    """c*[[1, 1], [1, 0]]: Hermitian, with the irrational eigenvalues c*(1 +- sqrt 5)/2."""
    g = GaussianRational.of
    return GaussianRationalMatrix([[g(c), g(c)], [g(c), g(Fraction(0))]])


class TestEntryScale:
    def test_one_within_two_to_the_32(self):
        for m in (1.0, 2.0**32 + 1, 2.0**-32, 7.5, 0.0):
            assert _entry_scale(np.array([[m]]), np.zeros((1, 1))) == 1.0
        assert _entry_scale(np.zeros((1, 1)), np.array([[3 * 2.0**40]])) == 2.0**41
        assert _entry_scale(np.array([[-1e-13j]]), np.zeros((1, 1))) == 2.0**-44

    def test_reads_parts_not_moduli(self):
        # |1.7e308*(1+i)| passes the largest float; its parts do not
        assert _entry_scale(np.array([[1.7e308 * (1 + 1j)]]), np.zeros((1, 1))) == 2.0**1023


class TestPowerOfTwoLaw:
    """2**k*A and 2**40*A have one normalised pencil, so every numeric product
    of 2**k*A is that of 2**40*A times 2**(k - 40), bit for bit (divided, for
    F(A)); dimensionless values, such as the line checks of the real-zero
    certificate, are equal."""

    @pytest.mark.parametrize("k", [-1000, -530, -100, 100, 530, 1000])
    def test_products_follow_the_power(self, k):
        c = 2.0 ** (k - 40)
        for name in NAMES:
            (A, grid), (B, base) = ((M, SpectralGrid(split(M), 64)) for M in
                                    (_two_power(name, k), _two_power(name, 40)))
            got, want = range_hulls(grid), range_hulls(base)
            for attr in ("inner", "outer", "witnesses", "support_values"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr) * c), (name, attr)
            assert got.degenerate == want.degenerate
            got, want = boundary_F(grid), boundary_F(base)
            assert np.array_equal(got.finite, want.finite), name
            assert np.array_equal(got.x, want.x / c) and np.array_equal(got.y, want.y / c), name
            assert np.array_equal(got.lambda_min, want.lambda_min), name
            got, want = dual_sample(grid), dual_sample(base)
            for attr in ("root_index", "singular", "finite"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr)), (name, attr)
            assert np.array_equal(got.x, want.x * c, equal_nan=True), name
            assert np.array_equal(got.y, want.y * c, equal_nan=True), name
            got, want = duality_check(A, N=16), duality_check(B, N=16)
            assert (got.gap_at_N, got.gap_at_2N) == (want.gap_at_N * c, want.gap_at_2N * c), name
            assert vars(got) == vars(want) | {"gap_at_N": got.gap_at_N, "gap_at_2N": got.gap_at_2N}
            # the line checks restrict p in the unit of the pencil, residual bits included
            got, want = (hyperbolicity_check(pencil_det(g.pencil), trials=16) for g in (grid, base))
            assert got.lines == want.lines, name


class TestScaledFailures:
    """One input per answer that an absolute threshold or a floor of 1 once broke."""

    def test_tiny_disk_has_a_bounded_F(self, tmp_path, capsys):
        # F(A) of the disk scaled by 1e-13 is a disk of radius 2e13
        src = _write(tmp_path, "disk", -13)
        code, csv = _cli(capsys, "sample-f", "--input", src, "--grid", "16")
        rows = [row.split(",") for row in csv.splitlines()[1:]]
        assert code == 0 and len(rows) == 16 and "inf" not in csv
        radii = [np.hypot(float(r[1]), float(r[2])) for r in rows]
        np.testing.assert_allclose(radii, 2e13, rtol=1e-10)

    def test_tiny_disk_duality_reads_every_boundary_sample(self, tmp_path, capsys):
        code, text = _cli(capsys, "duality", "--input", _write(tmp_path, "disk", -13),
                          "--grid", "16")
        report = _report(text)
        assert (code, report["boundary_samples"], report["ok"]) == (0, "16", "true")

    def test_tiny_disk_renders_without_a_viewport(self, tmp_path, capsys):
        src = _write(tmp_path, "disk", -13)
        assert main(["render", "--input", src, "--grid", "16", "--out", src + ".svg"]) == 0

    def test_tiny_cusp_has_every_ray_bounded(self, tmp_path, capsys):
        _, csv = _cli(capsys, "sample-f", "--input", _write(tmp_path, "cubic_cusp", -12),
                      "--grid", "16")
        assert "inf" not in csv

    def test_huge_craig_pair_passes_its_rectangle_check(self, tmp_path, capsys):
        code, out = _cli(capsys, "craig", "--input", _write(tmp_path, "craig_pair_diag", 20))
        assert code == 0 and out.startswith("identity=true product_zero=true rectangle=0,1e+20,")

    def test_member_of_a_tiny_disk(self):
        # W of the disk scaled by 1e-12 is the disk of radius 0.5e-12
        disk = _matrix("disk", -12)
        assert not member_W(disk, (0.6e-12, 0.0))
        assert member_W(disk, (0.4e-12, 0.0))

    def test_tiny_hermitian_segment_keeps_both_ends(self):
        v = polytope_detect(pencil_det(split(_hermitian_pair(Fraction(1, 10**13)))))
        assert v.kind == "polytope" and not v.exact and len(v.vertices) == 2
        np.testing.assert_allclose(sorted(x for x, _ in v.vertices),
                                   [(1 - 5**0.5) / 2 * 1e-13, (1 + 5**0.5) / 2 * 1e-13])

    def test_tiny_disk_is_not_degenerate(self):
        assert not _hulls("disk", -13).degenerate

    def test_mixed_magnitudes_hull_without_overflow(self, tmp_path, capsys):
        # diag(10^200, 1, i): W(A) is the triangle (0, 1), (1, 0), (10^200, 0),
        # whose outer polygon overflowed when it was built in the units of A
        src = tmp_path / "mixed.json"
        src.write_text(json.dumps({"n": 3, "entries": [
            [[10 ** 200, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [0, 1]]]}))
        code, csv = _cli(capsys, "sample-w", "--input", str(src), "--grid", "16")
        inner = [row for row in csv.splitlines() if row.startswith("inner,")]
        assert code == 0 and inner == ["inner,0,0,1", "inner,1,1,0", "inner,2,1e+200,0"]
        assert len([row for row in csv.splitlines() if row.startswith("outer,")]) >= 3
        code, text = _cli(capsys, "duality", "--input", str(src), "--grid", "16")
        assert code == 0 and _report(text)["ok"] == "true"

    def test_huge_disk_translate_scale_law(self):
        dev, scale = support_shift_deviation(_matrix("disk", 20), 10**20)
        assert dev <= 1e-9 * scale and dev <= 1e-9 * 2.0**66
