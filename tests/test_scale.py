"""Answers that follow a rescaling of A.

W(cA) = c*W(A), F(cA) = F(A)/c, and Craig's criterion A1*A2 = 0 does not see
c.  Every tolerance on a quantity in the units of A is relative to s, the
pencil's entry scale (`pencil._entry_scale`), so each answer below at
A*10**k is the answer at A.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from numrange.cli import main
from numrange.exactpoly import GaussianRational
from numrange.hermitian import GaussianRationalMatrix, matrix_from_json, split
from numrange.pencil import SpectralGrid, _entry_scale, pencil_det
from numrange.rangegeom import member_W, polytope_detect, range_hulls

from conftest import FIXTURES, support_shift_deviation

POWERS = (-100, -20, -13, -12, 20, 100)
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

    def test_huge_disk_translate_scale_law(self):
        dev, scale = support_shift_deviation(_matrix("disk", 20), 10**20)
        assert dev <= 1e-9 * scale and dev <= 1e-9 * 2.0**66
