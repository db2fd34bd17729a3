import functools
import json
import math
import random
import re
import sys

import numpy as np
import pytest

import numrange.cli
import numrange.dualcurve
import numrange.exactpoly
import numrange.hermitian
import numrange.pencil
import numrange.rangegeom
from numrange.cli import main
from numrange.hermitian import load_matrix

from conftest import (FIXTURES, GOLDEN, canonical_json, mixed_magnitude_matrix,
                      planted_polytope_matrix, random_gaussian_matrix)


def run(*argv):
    return main(list(argv))


def fx(name: str) -> str:
    return str(FIXTURES / name)


class TestPencilCommand:
    def test_golden_output(self, tmp_path):
        out = tmp_path / "p.txt"
        assert run("pencil", "--input", fx("cubic_cusp.json"), "--out", str(out)) == 0
        assert out.read_text() == (GOLDEN / "cubic_cusp_p.txt").read_text()

    def test_cross_star(self, tmp_path):
        out = tmp_path / "p.txt"
        assert run("pencil", "--input", fx("cross_star.json"), "--out", str(out)) == 0
        assert out.read_text() == (GOLDEN / "cross_star_p.txt").read_text()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run("pencil", "--input", fx("nested_ovals.json"), "--out", str(a))
        run("pencil", "--input", fx("nested_ovals.json"), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


def _diag(*zs):
    """Matrix-file entries of diag(zs), each z an (re, im) pair of JSON parts."""
    return [[list(z) if i == j else [0, 0] for j in range(len(zs))] for i, z in enumerate(zs)]


def _matrix_file(tmp_path, entries) -> str:
    """A fixture's path for a name, else a matrix file of the entries."""
    if isinstance(entries, str):
        return fx(entries)
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"n": len(entries), "entries": entries}))
    return str(path)


REPEATED = ("every discriminant factor is repeated; cannot isolate the dual curve "
            "(supply factors for reducible p)")
NO_CHART = ("p does not depend on both chart variables; dualize factors directly "
            "(dual_of_linear / dual_union) or sample numerically")
LINEAR = "squarefree part {} is linear; its dual is one point (dual_of_linear)"
NOT_COPRIME = "factors are not pairwise coprime"
NON_FINITE = ("the float eigenvalues of A are not finite: its entries are too close to the "
              "largest float, 1.8e+308")
GRID_NON_FINITE = ("the eigenvalues of cos(theta)*A1 + sin(theta)*A2 pass the largest float, "
                   "1.8e+308: the entries of A are too close to it")
# normal matrices whose float eigenvalues are not finite: (1+i)*17e307*[[1, 1], [1, -1]]
# (nan), 10^308*[[i, 1], [-1, i]] (inf) and the Hermitian [[0, z], [conj(z), 0]] with
# z = (1+i)*17e307, whose entries' moduli pass the largest float
OVERFLOWING = [
    [[[17 * 10 ** 307] * 2] * 2, [[17 * 10 ** 307] * 2, [-17 * 10 ** 307] * 2]],
    [[[0, 10 ** 308], [10 ** 308, 0]], [[-10 ** 308, 0], [0, 10 ** 308]]],
    [[[0, 0], [17 * 10 ** 307] * 2], [[17 * 10 ** 307, -17 * 10 ** 307], [0, 0]]],
]
POLYTOPE_FACTORS = (FIXTURES / "polytope_factors.txt").read_text().splitlines()


class TestDualCommand:
    def test_linear_squarefree_part_refused(self, tmp_path, capsys):
        one_by_one = tmp_path / "a.json"
        one_by_one.write_text(json.dumps({"n": 1, "entries": [[[2, 3]]]}))
        assert run("dual", "--input", str(one_by_one)) == 2
        assert "one point" in capsys.readouterr().err

    def test_exact_dual(self, tmp_path):
        out = tmp_path / "q.txt"
        assert run("dual", "--input", fx("cubic_cusp.json"), "--out", str(out)) == 0
        assert out.read_text() == (GOLDEN / "cubic_cusp_q.txt").read_text()

    def test_generic5(self, tmp_path):
        # fixtures/generic5.json is random_gaussian_matrix(5, random.Random(5));
        # its q (degree 20) was recorded on the Sylvester discriminant
        A = load_matrix(FIXTURES / "generic5.json")
        assert canonical_json(A) == canonical_json(random_gaussian_matrix(5, random.Random(5)))
        out = tmp_path / "q.txt"
        assert run("dual", "--input", fx("generic5.json"), "--out", str(out)) == 0
        assert out.read_text() == (GOLDEN / "generic5_q.txt").read_text()

    def test_factor_union(self, tmp_path):
        out = tmp_path / "q.txt"
        assert run("dual", "--input", fx("cardioid_circle.json"),
                   "--factors", fx("cardioid_circle_factors.txt"),
                   "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == (GOLDEN / "cardioid_circle_dual_cardioid.txt").read_text().strip()
        assert lines[1] == (GOLDEN / "cardioid_circle_dual_circle.txt").read_text().strip()

    def test_point_duals(self, tmp_path):
        out = tmp_path / "q.txt"
        assert run("dual", "--input", fx("polytope.json"),
                   "--factors", fx("polytope_factors.txt"), "--out", str(out)) == 0
        assert out.read_text() == (GOLDEN / "polytope_dual_points.txt").read_text()

    def test_huge_entries(self, tmp_path):
        doc = json.loads((FIXTURES / "cubic_cusp.json").read_text())
        doc["entries"] = [[[re * 10 ** 100, im * 10 ** 100] for re, im in row]
                          for row in doc["entries"]]
        src, out = tmp_path / "a.json", tmp_path / "q.txt"
        src.write_text(json.dumps(doc))
        assert run("dual", "--input", str(src), "--out", str(out)) == 0
        assert out.read_text().startswith("27" + "0" * 200 + "*x0^2*x2^2 ")

    def test_reducible_without_factors_fails_cleanly(self, capsys):
        code = run("dual", "--input", fx("polytope.json"))
        assert code == 2
        assert "factors" in capsys.readouterr().err

    @pytest.mark.parametrize("entries, err", [
        # p is a product of two or more distinct linear forms
        (_diag((1, 0), (0, 2)), REPEATED),
        (_diag((1, 0), (0, 1), (-1, 0)), REPEATED),
        (_diag((1, 1), (2, 2), (3, 3)), REPEATED),
        (_diag((1, 1), (1, 1), (2, 0)), REPEATED),
        (_diag(([1, 3], 1), ([2, 3], 1)), REPEATED),
        ("polytope.json", REPEATED),
        # a Hermitian A, or one line repeated
        (_diag((1, 0), (2, 0)), NO_CHART),
        (_diag((2, 0), (2, 0)), NO_CHART),
        (_diag((3, 0)), NO_CHART),
        (_diag((0, 1), (0, 1)), NO_CHART),
        # one distinct form, printed primitive
        (_diag((3, 2)), LINEAR.format("y0 + 3*y1 + 2*y2")),
        (_diag((3, 2), (3, 2)), LINEAR.format("y0 + 3*y1 + 2*y2")),
        (_diag(([1, 3], [2, 5])), LINEAR.format("15*y0 + 5*y1 + 6*y2")),
        (_diag(([-1, 2], -1)), LINEAR.format("2*y0 - y1 - 2*y2")),
        # (1+i)*[[1, 1], [1, 0]] is normal, with eigenvalues (1+i)(1 +- sqrt 5)/2
        ([[[1, 1], [1, 1]], [[1, 1], [0, 0]]], REPEATED),
        # parts beyond the float range take the elimination, and so do the
        # OVERFLOWING matrices, whose float eigenvalues are not finite
        (_diag((10 ** 400, 0), (0, 10 ** 400)), REPEATED),
        (_diag(([1, 10 ** 400], 0), (0, [1, 10 ** 400])), REPEATED),
        (OVERFLOWING[0], REPEATED),
        (OVERFLOWING[1], NO_CHART),
    ])
    def test_refusals_of_normal_matrices(self, tmp_path, capsys, entries, err):
        # the bytes recorded before products of linear forms were refused
        # ahead of the elimination
        assert run("dual", "--input", _matrix_file(tmp_path, entries)) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize("entries, eliminates", [
        ("polytope.json", False),
        (_diag((1, 0), (0, 1), (-1, 0)), False),
        ([[[1, 1], [1, 1]], [[1, 1], [0, 0]]], True),
        ("cubic_cusp.json", True),
    ])
    def test_certified_products_skip_the_discriminant(self, tmp_path, monkeypatch, entries,
                                                      eliminates):
        calls = []
        real = numrange.dualcurve.discriminant_binary
        monkeypatch.setattr(numrange.dualcurve, "discriminant_binary",
                            lambda g: calls.append(1) or real(g))
        run("dual", "--input", _matrix_file(tmp_path, entries), "--out", str(tmp_path / "q.txt"))
        assert calls == ([1] if eliminates else [])

    @pytest.mark.parametrize("factors, code, out, err", [
        (POLYTOPE_FACTORS + ["2*y0 + 10*y1"], 2, "", NOT_COPRIME),
        (POLYTOPE_FACTORS + ["y0 + 5*y1"], 2, "", NOT_COPRIME),
        (POLYTOPE_FACTORS + ["-y0 - 5*y1"], 2, "", NOT_COPRIME),
        (POLYTOPE_FACTORS[:3], 2, "", "product of factors does not match the squarefree part of p"),
        (POLYTOPE_FACTORS[:3] + ["y0^2 + 10*y0*y1 + 25*y1^2"], 2, "",
         "factor y0^2 + 10*y0*y1 + 25*y1^2 is not squarefree"),
        (POLYTOPE_FACTORS[:3] + ["y0^2 + 8*y0*y1 + 15*y1^2"], 2, "", NOT_COPRIME),
        (["2*y0 + 10*y1"] + POLYTOPE_FACTORS[1:], 0,
         "point 2,10,0\npoint 1,3,0\npoint 1,4,1\npoint 1,4,-1\n", None),
    ])
    def test_linear_factors(self, tmp_path, capsys, factors, code, out, err):
        # the bytes recorded before degree-1 factors were decided with no gcd
        path = tmp_path / "f.txt"
        path.write_text("\n".join(factors) + "\n")
        assert run("dual", "--input", fx("polytope.json"), "--factors", str(path)) == code
        assert capsys.readouterr() == (out, f"error: {err}\n" if err else "")


class TestLongIntegers:
    """Exact answers and matrix files hold integers of any length: `main` lifts
    Python's limit on int <-> str conversion while a command runs."""

    def test_dual_prints_a_q_of_over_4300_digits(self, tmp_path, capsys):
        src, out = tmp_path / "a.json", tmp_path / "q.txt"
        src.write_text(canonical_json(mixed_magnitude_matrix(3, random.Random(0))))
        assert run("dual", "--input", str(src), "--out", str(out)) == 0
        assert max(map(len, re.findall(r"\d+", out.read_text()))) > 4300
        assert "error:" not in capsys.readouterr().err

    def test_matrix_file_with_a_5000_digit_integer(self, tmp_path, capsys):
        src = tmp_path / "a.json"
        src.write_text('{"n": 1, "entries": [[[1' + "0" * 4999 + ', 1]]]}')
        assert run("pencil", "--input", str(src)) == 0
        assert capsys.readouterr().out == "y0 + 1" + "0" * 4999 + "*y1 + y2\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on int <-> str conversion before Python 3.10.7")
    def test_limit_is_restored(self, tmp_path, capsys):
        before = sys.get_int_max_str_digits()
        assert run("pencil", "--input", fx("disk.json"), "--out", str(tmp_path / "p.txt")) == 0
        assert sys.get_int_max_str_digits() == before
        assert run("dual", "--input", fx("polytope.json")) == 2
        assert sys.get_int_max_str_digits() == before


class TestSampleCommands:
    def test_sample_f_csv(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run("sample-f", "--input", fx("disk.json"), "--grid", "8",
                   "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,y1,y2,lambda_min"
        assert len(lines) == 9

    def test_sample_w_csv_with_curve(self, tmp_path):
        hulls, curve = tmp_path / "w.csv", tmp_path / "q.csv"
        assert run("sample-w", "--input", fx("disk.json"), "--grid", "32",
                   "--out", str(hulls), "--curve", str(curve)) == 0
        assert hulls.read_text().startswith("kind,vertex_index,x1,x2")
        assert curve.read_text().startswith("theta,root_index,x1,x2,singular_flag")

    def test_sample_w_with_curve_solves_the_grid_once(self, tmp_path, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        assert run("sample-w", "--input", fx("cubic_cusp.json"), "--grid", "720",
                   "--out", str(tmp_path / "w.csv"), "--curve", str(tmp_path / "q.csv")) == 0
        assert calls == [(720, 3, 3)]
        calls.clear()
        assert run("sample-w", "--input", fx("cubic_cusp.json"), "--grid", "91",
                   "--out", str(tmp_path / "w.csv"), "--curve", str(tmp_path / "q.csv")) == 0
        assert calls == [(91, 3, 3)]

    def test_sample_w_curve_and_render_make_no_exact_determinant(self, tmp_path, capsys,
                                                                  monkeypatch):
        # the dual samples come from the grid's eigenvectors, not from p
        calls = []
        real = numrange.pencil.det_pencil
        monkeypatch.setattr(numrange.pencil, "det_pencil",
                            lambda *args: calls.append(1) or real(*args))
        for name in ("cubic_cusp.json", "cardioid_circle.json", "polytope.json"):
            assert run("sample-w", "--input", fx(name), "--grid", "90",
                       "--out", str(tmp_path / "w.csv"), "--curve", str(tmp_path / "q.csv")) == 0
            assert run("render", "--input", fx(name), "--grid", "90", "--viewport=-2,2,-2,2",
                       "--out", str(tmp_path / "a.svg")) == 0
        assert calls == []
        assert run("pencil", "--input", fx("cubic_cusp.json")) == 0
        assert calls == [1]

    def test_sample_w_curve_needs_eight_rays(self, tmp_path, capsys):
        assert run("sample-w", "--input", fx("disk.json"), "--grid", "7",
                   "--out", str(tmp_path / "w.csv"), "--curve", str(tmp_path / "q.csv")) == 2
        assert "need at least 8 rays" in capsys.readouterr().err

    def test_refused_curve_writes_no_hulls(self, tmp_path, capsys):
        hulls, curve = tmp_path / "w.csv", tmp_path / "c.csv"
        assert run("sample-w", "--input", fx("disk.json"), "--grid", "5",
                   "--curve", str(curve), "--out", str(hulls)) == 2
        assert not hulls.exists() and not curve.exists()
        assert "need at least 8 rays" in capsys.readouterr().err
        assert run("sample-w", "--input", fx("disk.json"), "--grid", "5",
                   "--curve", str(curve)) == 2
        assert capsys.readouterr().out == "" and not curve.exists()

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run("sample-f", "--input", fx("cubic_cusp.json"), "--grid", "64",
                "--out", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestEighShapes:
    """The batches of every eigh a grid command runs on cubic_cusp (3x3): an
    even fan solves its angles below pi and reflects the rest, an odd fan
    solves every angle, and render, which prints an outer polygon, solves
    every angle of an even fan too (sample-w and classify: TestSampleCommands
    and TestClassifyCommand)."""

    @pytest.mark.parametrize("command, grid, shapes", [
        ("sample-f", "720", [(360, 3, 3)]),
        ("sample-f", "91", [(91, 3, 3)]),
        ("duality", "720", [(720, 3, 3)]),   # one solve of the 1440 grid
        ("render", "720", [(720, 3, 3)]),
        ("render", "90", [(90, 3, 3), (360, 3, 3)]),   # the curves take 360 rays
    ])
    def test_solve_shapes(self, tmp_path, monkeypatch, command, grid, shapes):
        calls = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        assert run(command, "--input", fx("cubic_cusp.json"), "--grid", grid,
                   "--out", str(tmp_path / "out")) == 0
        assert calls == shapes


class TestDualityCommand:
    def test_passes_on_fixture(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run("duality", "--input", fx("disk.json"), "--grid", "64",
                   "--out", str(out)) == 0
        assert "ok=true" in out.read_text()

    def test_odd_grid_is_refused(self, tmp_path, capsys):
        # grid 361 once printed complementary_ok=false with exit 1 on correct code
        out = tmp_path / "report.txt"
        assert run("duality", "--input", fx("disk.json"), "--grid", "361", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: duality needs an even grid, with antipodal angles (got 361)\n"
        assert run("duality", "--input", fx("disk.json"), "--grid", "360", "--out", str(out)) == 0
        assert "complementary_ok=true" in out.read_text()


class TestZeroMatrix:
    """F(0) is the whole plane: every ray is an unbounded boundary row."""

    def _zero(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 2, "entries": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}))
        return str(path)

    def test_sample_f_has_every_row(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run("sample-f", "--input", self._zero(tmp_path), "--grid", "8",
                   "--out", str(out)) == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "theta,y1,y2,lambda_min" and lines[-1] == ""
        assert lines[1:-1] == [f"{2 * math.pi * k / 8:.12g},inf,inf,inf" for k in range(8)]

    def test_duality_counts_unbounded_rays(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run("duality", "--input", self._zero(tmp_path), "--grid", "16",
                   "--out", str(out)) == 0
        text = out.read_text()
        assert "\nboundary_samples=0\nunbounded_rays=16\n" in text
        assert "ok=true" in text


class TestCraigCommand:
    def test_pair_file(self, capsys):
        assert run("craig", "--input", fx("craig_pair_diag.json")) == 0
        assert capsys.readouterr().out.strip() == \
            "identity=true product_zero=true rectangle=0,1,0,1"

    def test_overlap_pair(self, capsys):
        assert run("craig", "--input", fx("craig_pair_overlap.json")) == 0
        assert capsys.readouterr().out.strip() == \
            "identity=false product_zero=false rectangle=none"

    def test_rotated_pair_prints_exact_zero_sides(self, capsys):
        # a planted pair with A1 A2 = 0 exactly, A1 <= 0 <= A2: the sides at 0
        # are exact, not eigvalsh roundoff, so the line does not depend on the host
        assert run("craig", "--input", fx("craig_pair_rotated.json")) == 0
        assert capsys.readouterr().out == \
            "identity=true product_zero=true rectangle=-4,0,0,4\n"

    def test_single_matrix_splits(self, capsys):
        assert run("craig", "--input", fx("disk.json")) == 0
        out = capsys.readouterr().out
        assert "identity=false product_zero=false" in out

    def test_tol_reaches_craig_verdict(self, monkeypatch):
        seen = []
        real = numrange.cli.craig_verdict

        def spy(A1, A2, rect_tol=1e-6):
            seen.append(rect_tol)
            return real(A1, A2, rect_tol=rect_tol)

        monkeypatch.setattr(numrange.cli, "craig_verdict", spy)
        pair = fx("craig_pair_diag.json")
        assert run("craig", "--input", pair, "--tol", "1e-3") == 0
        assert run("craig", "--input", pair) == 0
        assert seen == [1e-3, 1e-6]


class TestClassifyCommand:
    def test_polytope_with_factors(self, capsys):
        assert run("classify", "--input", fx("polytope.json"),
                   "--factors", fx("polytope_factors.txt")) == 0
        out = capsys.readouterr().out
        assert "normal=true" in out
        assert "hyperbolic=true" in out
        assert "shape=polytope" in out
        assert "w_vertices=(5, 0); (3, 0); (4, 1); (4, -1)" in out
        assert "f_vertices=(-1/5, -1/5); (-1/5, 1/5)" in out
        assert "f_bounded=false" in out
        assert "f_facet_frame=(-1/5, -1/5); (-1/5, 1/5); (-1/4, 0)" in out

    def test_hermitian_vertices_on_the_real_axis(self, tmp_path, capsys):
        # eigenvalues 2 -+ sqrt(6) are not Gaussian rationals: float vertices of a real segment
        src = tmp_path / "h.json"
        src.write_text(json.dumps({"n": 2, "entries": [[[1, 0], [2, 1]], [[2, -1], [3, 0]]]}))
        assert run("classify", "--input", str(src)) == 0
        out = capsys.readouterr().out
        assert "shape=polytope" in out and "vertices_exact=false" in out
        line = next(l for l in out.splitlines() if l.startswith("vertices="))
        pts = [tuple(map(float, v.strip("()").split(", ")))
               for v in line[len("vertices="):].split("; ")]
        assert [y for _, y in pts] == [0.0, 0.0]
        assert [x for x, _ in pts] == pytest.approx([2 - math.sqrt(6), 2 + math.sqrt(6)])

    def test_disk(self, capsys):
        assert run("classify", "--input", fx("disk.json")) == 0
        out = capsys.readouterr().out
        assert "shape=smooth" in out

    def test_grid_reaches_polytope_detect(self, monkeypatch):
        seen = []
        real = numrange.cli.polytope_detect

        def spy(curve, N):
            seen.append(N)
            return real(curve, N=N)

        monkeypatch.setattr(numrange.cli, "polytope_detect", spy)
        assert run("classify", "--input", fx("disk.json"), "--grid", "48") == 0
        assert run("classify", "--input", fx("disk.json")) == 0
        assert seen == [48, 360]

    def test_polytope_verdict_solves_half_an_even_fan(self, tmp_path, monkeypatch, capsys):
        # H(theta + pi) = -H(theta): the default 360-angle fan solves its 180
        # angles below pi in one eigh, an odd fan solves every angle
        calls = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        src = tmp_path / "planted.json"
        src.write_text(canonical_json(planted_polytope_matrix()))
        for grid, solved in ((None, 180), ("361", 361)):
            calls.clear()
            assert run("classify", "--input", str(src), *(["--grid", grid] if grid else [])) == 0
            assert calls == [(solved, 5, 5)]
            lines = capsys.readouterr().out.splitlines()
            assert "shape=polytope" in lines
            assert "vertices=(-1.0, 0.0); (1.0, 0.0); (0.0, 1.0)" in lines

    @pytest.mark.parametrize("name", ["disk", "polytope"])
    def test_splits_once_and_tests_normality_once(self, monkeypatch, capsys, name):
        # the non-normal disk and the normal polytope: each exact and float
        # step of the verdict runs once, the float spectrum only when A is normal
        calls = []
        # the exact normality product runs where the pencil's cached property is computed
        Pencil = numrange.hermitian.HermitianPencil
        real_normal = Pencil.normal.func
        normal = functools.cached_property(lambda pencil: calls.append("normal") or real_normal(pencil))
        normal.__set_name__(Pencil, "normal")
        monkeypatch.setattr(Pencil, "normal", normal)
        for module, fn in ((numrange.cli, "split"), (numrange.cli, "pencil_det"),
                           (np.linalg, "eigvals")):
            real = getattr(module, fn)
            monkeypatch.setattr(module, fn, lambda *a, real=real, fn=fn: calls.append(fn) or real(*a))
        assert run("classify", "--input", fx(f"{name}.json")) == 0
        assert sorted(calls) == ["eigvals"] * (name == "polytope") + ["normal", "pencil_det", "split"]
        assert f"normal={str(name == 'polytope').lower()}" in capsys.readouterr().out

    @pytest.mark.parametrize("entries", OVERFLOWING)
    def test_non_finite_eigenvalues_are_refused(self, tmp_path, capsys, entries):
        # dual takes the exact elimination on these (TestDualCommand)
        assert run("classify", "--input", _matrix_file(tmp_path, entries)) == 2
        assert capsys.readouterr() == ("", f"error: {NON_FINITE}\n")

    @pytest.mark.parametrize("c", [[1, 0], [0, 1]])
    def test_non_normal_near_the_largest_float(self, tmp_path, capsys, c):
        # c*10^307*[[1, 1], [0, 1]] for c = 1 and i: the trial line (1, 19)
        # of the hyperbolicity check reaches 1.9*10^308 on i*10^307 in the
        # units of A, so the trial lines are solved on the pencil divided by
        # its unit, a power of two, with no overflow warning
        one = [10 ** 307 * x for x in c]
        assert run("classify", "--input", _matrix_file(tmp_path, [[one, one], [[0, 0], one]])) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        residual = [float(line.split("=")[1]) for line in lines if line.startswith("max_eig_residual=")]
        assert [line for line in lines if not line.startswith("max_eig_residual=")] == [
            "n=2", "hermitian=false", "normal=false", "pencil_degree=2", "hyperbolic=true",
            "shape=smooth"]
        assert len(residual) == 1 and residual[0] <= 1e-9
        assert err == ""

    def test_normal_matrix_takes_one_pencil_determinant(self, monkeypatch, capsys):
        # the exact spectrum of a normal matrix is certified against the p
        # that classify has already computed, with no characteristic polynomial
        calls = []
        real = numrange.exactpoly.det_pencil
        # pencil is the one module that imports det_pencil
        monkeypatch.setattr(numrange.pencil, "det_pencil", lambda *args: calls.append(1) or real(*args))
        assert run("classify", "--input", fx("polytope.json"),
                   "--factors", fx("polytope_factors.txt")) == 0
        assert "vertices_exact=true" in capsys.readouterr().out
        assert calls == [1]


class TestRenderCommand:
    def test_bounded_figure(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert run("render", "--input", fx("cubic_cusp.json"), "--grid", "180",
                   "--out", str(out)) == 0
        svg = out.read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg and "polygon" in svg and "polyline" in svg

    def test_unbounded_needs_viewport(self, tmp_path, capsys):
        out = tmp_path / "fig.svg"
        assert run("render", "--input", fx("polytope.json"), "--grid", "90",
                   "--out", str(out)) == 2
        assert "viewport" in capsys.readouterr().err

    def test_viewport_accepted_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            # negative bounds need the --viewport=... form under argparse
            assert run("render", "--input", fx("polytope.json"), "--grid", "90",
                       "--viewport=-1,1,-1,1", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_viewport(self, capsys):
        assert run("render", "--input", fx("disk.json"),
                   "--viewport", "1,0,0,1") == 2

    @pytest.mark.parametrize("viewport", ["nan,1,-1,1", "-inf,inf,-1,1", "-1,1,-1,1e400",
                                          "-1e308,1e308,-1,1"])
    def test_non_finite_viewport_refused(self, tmp_path, capsys, viewport):
        # each once drew an SVG of nan: nan passes both order checks, and an
        # infinite bound or width scales every point to nan
        out = tmp_path / "fig.svg"
        assert run("render", "--input", fx("polytope.json"), "--grid", "16",
                   f"--viewport={viewport}", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: bad viewport '{viewport}'")
        assert not out.exists()

    def test_point_range_renders_marker(self, tmp_path):
        m = tmp_path / "id.json"
        m.write_text(json.dumps({"n": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        out = tmp_path / "fig.svg"
        # W(I) is the single point (1,0); F is a half-plane, so a viewport is needed
        assert run("render", "--input", str(m), "--grid", "64",
                   "--viewport=-2,2,-2,2", "--out", str(out)) == 0
        assert "<circle" in out.read_text()


class TestInputErrors:
    def test_malformed_json_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "entries": [[0,0],\n  [0,]]}')
        assert run("decompose", "--input", str(bad)) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file(self, capsys):
        assert run("pencil", "--input", "/nonexistent.json") == 2

    def test_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "entries": [[[0, 0]], [[0, 0], [0, 0]]]}))
        assert run("pencil", "--input", str(bad)) == 2
        assert "row" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", [True, False])
    def test_malformed_craig_input_names_its_file(self, tmp_path, capsys, pair):
        # a bad A1 of a pair file and a bad single matrix take the same path
        bad = {"n": 2, "entries": [[[0, 0]], [[0, 0], [0, 0]]]}
        good = json.loads((FIXTURES / "disk.json").read_text())
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"A1": bad, "A2": good} if pair else bad))
        assert run("craig", "--input", str(src)) == 2
        assert capsys.readouterr().err.startswith(f"error: {src}: ")

    @pytest.mark.parametrize("line, message", [("y0 + 3/0*y1", "zero denominator in '3/0*y1'"),
                                               ("y0 - -y1", "sign '-' without a term")])
    def test_malformed_factor_names_its_line(self, tmp_path, capsys, line, message):
        factors = tmp_path / "factors.txt"
        factors.write_text(f"# one bad factor\n{line}\n")
        for command in ("dual", "classify"):
            assert run(command, "--input", fx("polytope.json"), "--factors", str(factors)) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {factors}:2: {message}"), err

    def test_solver_failure_is_refused_in_own_words(self, tmp_path, capsys, monkeypatch):
        # numpy's LinAlgError subclasses ValueError; its text is not shown as an input error
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        out = tmp_path / "w.csv"
        assert run("sample-w", "--input", fx("disk.json"), "--grid", "16", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: the eigensolver did not converge on this input\n"
        assert not out.exists()

    def test_bad_flag_values(self):
        assert run("duality", "--input", fx("disk.json"), "--tol", "-1") == 2
        assert run("sample-f", "--input", fx("disk.json"), "--grid", "2") == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    @pytest.mark.parametrize("command, name", [("duality", "disk.json"),
                                               ("craig", "craig_pair_diag.json")])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tmp_path, command, name, tol):
        # a nan tolerance would switch the check off (worst > nan is false), inf
        # would pass every input; "=" keeps argparse from reading -inf as a flag
        out = tmp_path / "out.txt"
        grid = ("--grid", "16") if command == "duality" else ()
        assert run(command, "--input", fx(name), *grid, f"--tol={tol}", "--out", str(out)) == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("decompose", "--grid=90"), ("pencil", "--grid=90"), ("dual", "--grid=90"),
        ("craig", "--grid=90"),
        *((c, "--tol=nan") for c in ("decompose", "pencil", "dual", "sample-w", "sample-f",
                                     "classify", "render"))])
    def test_flags_a_command_does_not_read_are_refused(self, capsys, command, flag):
        # each subcommand takes only the flags it reads; argparse refuses the rest
        with pytest.raises(SystemExit) as exc:
            run(command, "--input", fx("disk.json"), flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


GRID_90 = ("--grid", "90")


def _scaled_fixture(tmp_path, name, power):
    """The fixture with every entry part multiplied by 10**power, written to a file."""
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    k = 10 ** abs(power)
    scale = (lambda v: v * k) if power > 0 else (lambda v: [v, k])
    doc["entries"] = [[[scale(re), scale(im)] for re, im in row] for row in doc["entries"]]
    src = tmp_path / "a.json"
    src.write_text(json.dumps(doc))
    return str(src)


class TestExtremeEntries:
    @pytest.mark.parametrize("name", ["cubic_cusp", "nested_ovals"])
    @pytest.mark.parametrize("power", [100, -100])
    def test_no_arithmetic_error_escapes(self, tmp_path, name, power):
        # every subcommand exits as it does on the unscaled fixture
        src, out = _scaled_fixture(tmp_path, name, power), str(tmp_path / "out")
        for argv in (["pencil"], ["dual"], ["classify", *GRID_90], ["sample-f", *GRID_90],
                     ["sample-w", *GRID_90, "--curve", str(tmp_path / "q.csv")],
                     ["duality", *GRID_90], ["render", *GRID_90, "--viewport=-1,1,-1,1"],
                     ["craig"]):
            code = run(argv[0], "--input", src, "--out", out, *argv[1:])
            assert code == run(argv[0], "--input", fx(f"{name}.json"), "--out", out, *argv[1:]), argv

    @pytest.mark.parametrize("argv", [("sample-f", "--grid", "8"), ("sample-w", "--grid", "16"),
                                      ("duality", "--grid", "16"),
                                      ("render", "--grid", "16", "--viewport=-1,1,-1,1")])
    def test_grid_beyond_the_largest_float_is_refused(self, tmp_path, capsys, argv):
        # the Hermitian [[0, z], [conj(z), 0]], z = (1+i)*17e307, has the
        # eigenvalues +-|z| beyond the largest float: one error line, no
        # warning (an unbounded ray, a row of inf or exit 1 before)
        assert run(argv[0], "--input", _matrix_file(tmp_path, OVERFLOWING[2]), *argv[1:]) == 2
        assert capsys.readouterr() == ("", f"error: {GRID_NON_FINITE}\n")

    def test_tiny_entries_keep_every_curve_sample(self, tmp_path, capsys):
        # the ray roots of a pencil scaled by 10**-100 are the unscaled ones
        # times 10**100, and its dual samples the unscaled ones times 10**-100
        rows = {}
        for power in (0, -100):
            (tmp_path / str(power)).mkdir()
            src, curve = _scaled_fixture(tmp_path / str(power), "cubic_cusp", power), tmp_path / f"q{power}.csv"
            assert run("sample-w", "--input", src, "--grid", "90", "--out", str(tmp_path / "w.csv"),
                       "--curve", str(curve)) == 0
            rows[power] = [line.split(",") for line in curve.read_text().splitlines()[1:]]
            capsys.readouterr()
            run("classify", "--input", src, "--grid", "90")
            assert "shape=smooth" in capsys.readouterr().out.splitlines()
        assert len(rows[-100]) == len(rows[0]) > 0
        # a coordinate that is 0 up to roundoff is compared against the largest one
        coords = np.array([tiny[2:4] for tiny in rows[-100]], dtype=float)
        floor = 1e-12 * np.nanmax(np.abs(coords))
        for base, tiny in zip(rows[0], rows[-100]):
            assert (base[0], base[1], base[4]) == (tiny[0], tiny[1], tiny[4])
            np.testing.assert_allclose(np.array(tiny[2:4], dtype=float),
                                       np.array(base[2:4], dtype=float) * 1e-100, rtol=1e-9,
                                       atol=floor)

    @pytest.mark.parametrize("name, power", [("cubic_cusp", 308), ("disk", 308), ("cubic_cusp", -307)])
    def test_render_near_the_largest_float_stays_finite(self, tmp_path, capsys, name, power):
        # W(A) (or F(A), for the tiny cusp) is far larger than the viewport: its
        # polygon is clipped to a box around the viewport before it is mapped
        src, out = _scaled_fixture(tmp_path, name, power), tmp_path / "a.svg"
        assert run("render", "--input", src, "--grid", "16", "--viewport=-1,1,-1,1",
                   "--out", str(out)) == 0
        svg = out.read_text()
        assert capsys.readouterr().err == "" and "inf" not in svg and "nan" not in svg
        assert svg.count("<polygon ") == 2

    def test_tiny_entries_dual_samples_do_not_form_ray_roots(self, tmp_path, capsys):
        # the ray roots t = -1/(s*lambda) of the cusp times 10**-307 pass the
        # largest float; its dual samples, the Rayleigh pairs, read only the root mask
        src, curve = _scaled_fixture(tmp_path, "cubic_cusp", -307), tmp_path / "q.csv"
        assert run("sample-w", "--input", src, "--grid", "16", "--out", str(tmp_path / "w.csv"),
                   "--curve", str(curve)) == 0
        assert capsys.readouterr().err == ""
        rows = curve.read_text().splitlines()[1:]
        assert rows and all("inf" not in row for row in rows)

    @pytest.mark.parametrize("power", [400, -400])
    def test_beyond_float_range(self, tmp_path, capsys, power):
        # the exact subcommands answer; the numeric ones refuse, naming the entry
        src, out = _scaled_fixture(tmp_path, "cubic_cusp", power), str(tmp_path / "out")
        for argv in (["decompose"], ["pencil"], ["dual"], ["craig"]):
            assert run(argv[0], "--input", src, "--out", out, *argv[1:]) == 0, argv
        for argv in (["classify"], ["sample-f"], ["sample-w", "--curve", str(tmp_path / "q.csv")],
                     ["duality"], ["render", "--viewport=-1,1,-1,1"]):
            capsys.readouterr()
            code = run(argv[0], "--input", src, "--grid", "90", "--out", out, *argv[1:])
            assert code == 2, argv
            err = capsys.readouterr().err
            assert "entry (0, 2) has a real part" in err and "normal float range" in err, argv


class TestDecompose:
    def test_output_fields(self, capsys):
        assert run("decompose", "--input", fx("cubic_cusp.json")) == 0
        out = capsys.readouterr().out
        assert "A1 =" in out and "A2 =" in out
        assert "hermitian=false" in out and "normal=false" in out

    def test_identity_matrix(self, tmp_path, capsys):
        m = tmp_path / "id.json"
        m.write_text(json.dumps({"n": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        assert run("decompose", "--input", str(m)) == 0
        out = capsys.readouterr().out
        assert "hermitian=true" in out and "normal=true" in out


class TestParserCache:
    def _calls(self, tmp_path, capsys):
        """stdout, stderr, exit code and output file of several calls in one process."""
        argvs = [
            ["pencil", "--input", fx("cubic_cusp.json")],
            ["render", "--input", fx("disk.json"), "--grid", "16", "--out", "{out}"],
            ["render", "--input", fx("disk.json"), "--grid", "x"],
            ["sample-w", "--input", fx("disk.json"), "--grid", "7", "--curve", "{out}"],
            ["nosuch"],
            ["classify", "--input", fx("polytope.json"),
             "--factors", fx("polytope_factors.txt")],
            ["render", "--input", fx("polytope.json"), "--grid", "16"],
            ["craig", "--input", fx("craig_pair_diag.json"), "--tol", "1e-3"],
            ["duality", "--input", fx("disk.json"), "--grid", "16", "--tol", "-1"],
            ["sample-f", "--input", fx("disk.json"), "--grid", "12", "--out", "{out}"],
            ["decompose", "--input", fx("cubic_cusp.json")],
        ]
        seen = []
        for k, argv in enumerate(argvs):
            out = tmp_path / f"out{k}"
            try:
                code = main([a.replace("{out}", str(out)) for a in argv])
            except SystemExit as exc:
                code = ("exit", exc.code)
            text = capsys.readouterr()
            seen.append((code, text.out, text.err, out.read_bytes() if out.exists() else None))
            out.unlink(missing_ok=True)
        return seen

    def test_one_parser_serves_every_call(self, tmp_path, capsys, monkeypatch):
        assert numrange.cli._parser() is numrange.cli._parser()
        cached = self._calls(tmp_path, capsys)
        assert [c[0] for c in cached] == [0, 0, ("exit", 2), 2, ("exit", 2), 0, 2, 0, 2, 0, 0]
        monkeypatch.setattr(numrange.cli, "_parser", numrange.cli.build_parser)
        assert self._calls(tmp_path, capsys) == cached

    def test_rebound_handler_runs_after_an_earlier_call(self, capsys, monkeypatch):
        assert run("pencil", "--input", fx("cubic_cusp.json")) == 0
        capsys.readouterr()
        seen = []

        def spy(args):
            seen.append(args.input)
            return 0

        for name in ("cmd_pencil", "cmd_sample_w"):
            monkeypatch.setattr(numrange.cli, name, spy)
        assert run("pencil", "--input", fx("cubic_cusp.json")) == 0
        assert run("sample-w", "--input", fx("disk.json")) == 0
        assert seen == [fx("cubic_cusp.json"), fx("disk.json")]
        assert capsys.readouterr().out == ""
