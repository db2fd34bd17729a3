import json

import numpy as np
import pytest

import numrange.cli
from numrange.cli import main

from conftest import FIXTURES, GOLDEN


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

    def test_sample_w_curve_needs_eight_rays(self, tmp_path, capsys):
        assert run("sample-w", "--input", fx("disk.json"), "--grid", "7",
                   "--out", str(tmp_path / "w.csv"), "--curve", str(tmp_path / "q.csv")) == 2
        assert "need at least 8 rays" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run("sample-f", "--input", fx("cubic_cusp.json"), "--grid", "64",
                "--out", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestDualityCommand:
    def test_passes_on_fixture(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run("duality", "--input", fx("disk.json"), "--grid", "64",
                   "--out", str(out)) == 0
        assert "ok=true" in out.read_text()


class TestCraigCommand:
    def test_pair_file(self, capsys):
        assert run("craig", "--input", fx("craig_pair_diag.json")) == 0
        assert capsys.readouterr().out.strip() == \
            "identity=true product_zero=true rectangle=0,1,0,1"

    def test_overlap_pair(self, capsys):
        assert run("craig", "--input", fx("craig_pair_overlap.json")) == 0
        assert capsys.readouterr().out.strip() == \
            "identity=false product_zero=false rectangle=none"

    def test_single_matrix_splits(self, capsys):
        assert run("craig", "--input", fx("disk.json")) == 0
        out = capsys.readouterr().out
        assert "identity=false product_zero=false" in out

    def test_grid_and_tol_reach_craig_verdict(self, monkeypatch):
        seen = []
        real = numrange.cli.craig_verdict

        def spy(A1, A2, N=720, rect_tol=1e-6):
            seen.append((N, rect_tol))
            return real(A1, A2, N=N, rect_tol=rect_tol)

        monkeypatch.setattr(numrange.cli, "craig_verdict", spy)
        pair = fx("craig_pair_diag.json")
        assert run("craig", "--input", pair, "--grid", "48", "--tol", "1e-3") == 0
        assert run("craig", "--input", pair) == 0
        assert seen == [(48, 1e-3), (720, 1e-6)]


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

    def test_disk(self, capsys):
        assert run("classify", "--input", fx("disk.json")) == 0
        out = capsys.readouterr().out
        assert "shape=smooth" in out

    def test_grid_reaches_polytope_detect(self, monkeypatch):
        seen = []
        real = numrange.cli.polytope_detect

        def spy(A, N=360):
            seen.append(N)
            return real(A, N=N)

        monkeypatch.setattr(numrange.cli, "polytope_detect", spy)
        assert run("classify", "--input", fx("disk.json"), "--grid", "48") == 0
        assert run("classify", "--input", fx("disk.json")) == 0
        assert seen == [48, 360]


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

    def test_bad_flag_values(self):
        assert run("duality", "--input", fx("disk.json"), "--tol", "-1") == 2
        assert run("sample-f", "--input", fx("disk.json"), "--grid", "2") == 2


class TestExtremeEntries:
    @pytest.mark.parametrize("name", ["cubic_cusp", "nested_ovals"])
    @pytest.mark.parametrize("power", [100, -100])
    def test_no_arithmetic_error_escapes(self, tmp_path, name, power):
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        scale = (lambda v: v * 10 ** 100) if power > 0 else (lambda v: [v, 10 ** 100])
        doc["entries"] = [[[scale(re), scale(im)] for re, im in row] for row in doc["entries"]]
        src, out = tmp_path / "a.json", str(tmp_path / "out")
        src.write_text(json.dumps(doc))
        for argv in (["pencil"], ["dual"], ["classify"], ["sample-f"],
                     ["sample-w", "--curve", str(tmp_path / "q.csv")], ["duality"],
                     ["render", "--viewport=-1,1,-1,1"], ["craig"]):
            code = run(argv[0], "--input", str(src), "--grid", "90", "--out", out, *argv[1:])
            assert code in (0, 1, 2), argv


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
