"""Tests of the benchmark itself, on the reduced (smoke) job lists.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test collection,
since they run the benchmark for about a minute.
"""

from __future__ import annotations

import importlib.util
import json
import random
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
COUNTS = {m["name"] for m in BENCHMARK["per_layer"]
          if m["unit"] in ("count", "lines", "bits")}


@pytest.fixture(scope="module")
def cli():
    return run.import_numrange()


@pytest.fixture
def tmp_path():
    """Temporary directory inside the checkout, where the benchmark keeps its files."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        yield Path(tmp)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_reports_end_to_end_metrics(workload):
    result = run.measure(workload, 3, 0, 0, "smoke", log=lambda *a: None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_counts_repeat_and_self_times_add_up(workload):
    a = run.measure(workload, 3, 0, 1, "smoke", log=lambda *a: None)
    b = run.measure(workload, 3, 0, 1, "smoke", log=lambda *a: None)
    assert a["correct"] and b["correct"]
    assert set(a["metrics"]) == PER_LAYER
    for name in COUNTS:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    # every traced job: layer self times plus eig.s equal its wall time
    for r in (a, b):
        assert r["metrics"]["trace.self_gap_max"]["value"] <= run.SELF_SUM_RTOL + 0.05


def test_entry_law_matches_test_suite():
    spec = importlib.util.spec_from_file_location("suite_conftest",
                                                  HERE.parent / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    for cx in (True, False):
        ours = workloads.gaussian_matrix(4, random.Random(7), cx)
        theirs = conftest.random_gaussian_matrix(4, random.Random(7), cx)
        assert [[(e.re, e.im) for e in row] for row in theirs.entries] == ours


def test_generated_inputs_depend_only_on_the_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ja = workloads.build_jobs("exact-pencil", 5, run.ROOT, a, "smoke")
    jb = workloads.build_jobs("exact-pencil", 5, run.ROOT, b, "smoke")
    assert [j.name for j in ja] == [j.name for j in jb]
    for f in a.glob("*.json"):
        assert f.read_text() == (b / f.name).read_text()


def test_yardstick_marks_bracket_every_job(cli, tmp_path):
    jobs = workloads.build_jobs("exact-pencil", 5, run.ROOT, tmp_path, "smoke")
    runner = run.Runner(cli, jobs, tmp_path, {})
    runner.warmup()
    times = runner.timed_pass(host=True)
    assert len(runner.host) == len(times) == len(jobs)
    assert all(h > 0 for h in runner.host)
    runner.timed_pass()
    assert runner.host == []


def test_missing_function_counts_zero_with_warning(cli, monkeypatch):
    monkeypatch.setitem(tracer.FUNCTIONS, "exactpoly",
                        tracer.FUNCTIONS["exactpoly"] + ["no_such_function"])
    t = tracer.Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with t:
            pass
    assert t.missing == ["exactpoly.no_such_function"]
    assert any("no_such_function" in str(w.message) for w in caught)
    assert t.snapshot().get("exactpoly.no_such_function.calls", 0) == 0


def test_tracer_restores_the_program(cli):
    import numpy.linalg
    from numrange import exactpoly

    before = (exactpoly.tri_gcd, cli.main, numpy.linalg.eigh, exactpoly.TriPoly.__mul__)
    with tracer.Tracer():
        assert exactpoly.tri_gcd is not before[0]
    assert (exactpoly.tri_gcd, cli.main, numpy.linalg.eigh, exactpoly.TriPoly.__mul__) == before


def test_gate_rejects_a_wrong_pencil_and_dual(cli, tmp_path):
    A = workloads.generic_matrix(3, 11, 0)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(workloads.matrix_json(A)))
    from numrange.dualcurve import dual_curve_exact
    from numrange.hermitian import load_matrix, split
    from numrange.pencil import pencil_det

    p = pencil_det(split(load_matrix(path))).p
    q = dual_curve_exact(p).q
    good_p, good_q = p.to_text(), q.to_text()
    checks.run_check(("pencil_numeric", str(path)), {"out": good_p}, {})
    checks.run_check(("dual_numeric", str(path), 3), {"out": good_q}, {})
    bad_p = good_p.replace("y0^3", "y0^3 + 1/1000*y1^3", 1)
    biggest = max(abs(c) for c in checks.parse_poly(good_q).values())
    bad_q = good_q + f" + {biggest}*x0^6"
    with pytest.raises(checks.CheckFailed):
        checks.run_check(("pencil_numeric", str(path)), {"out": bad_p}, {})
    with pytest.raises(checks.CheckFailed):
        checks.run_check(("dual_numeric", str(path), 3), {"out": bad_q}, {})


def test_recorded_values_catch_a_small_change():
    text = "hausdorff_gap_N=4.103722e-05\nok=true\n"
    want = checks.summarize(text)
    checks.compare_summary(checks.summarize(text), want)
    with pytest.raises(checks.CheckFailed):
        checks.compare_summary(checks.summarize(text.replace("4.103722", "4.103922")), want)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-dual",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
