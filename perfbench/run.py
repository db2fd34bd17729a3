"""numrange benchmark.

Drives ``numrange.cli.main(argv)`` in-process, one job per subcommand call,
over the pinned fixtures and matrices drawn from ``--seed``.  Each workload
is a closed loop: one client in this process runs a fixed job list pass
after pass for ``--seconds`` seconds, after one untimed warm-up pass whose
outputs go through the correctness gate.  Later passes must reproduce the
warm-up outputs byte for byte.

    python3 perfbench/run.py --workload exact-dual --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke              # one reduced pass of every workload
    python3 perfbench/run.py --record-expected    # rewrite perfbench/expected/

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports per-layer metrics from traced passes, run
after as many untraced ones so that the tracing overhead is measured too.
Run it from the root of a numrange checkout; it imports ``src/numrange``.
See README.md beside this file for the metrics and the workloads.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: the host has two cores and the
# benchmark measures one client
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7
# the yardstick's time on an idle host: the 1st percentile of 14 000 calls on
# a 2-vCPU x86-64 VM (Python 3.11.7, numpy 2.4.6, one BLAS thread).  Times are
# reported at this speed: a job's wall time is multiplied by YARDSTICK_S over
# the mean yardstick time just before and after it.
YARDSTICK_S = 1.60e-3
YARDSTICK_CALLS = 3
JOB_LIMIT_S = 30.0        # a job past this counts as failed and is not run again
RUN_LIMIT_S = 150.0       # jobs not started by then count as failed, unrun
SELF_SUM_RTOL = 0.02      # layer self times vs traced job wall time
SELF_SUM_ATOL = 0.002
SUBCOMMANDS = ("pencil", "dual", "classify", "craig", "sample-f", "sample-w", "duality", "render")

# per-function times and counts named by the benchmark's layer table
NAMED = (
    "exactpoly.det_poly_matrix.s", "exactpoly.discriminant_binary.s",
    "exactpoly.repeated_part.s", "exactpoly.tri_gcd.s", "exactpoly.tri_gcd.calls",
    "exactpoly.gcd_squarefree.s", "exactpoly.sturm_real_root_count.s",
    "dualcurve.restricted_line_form.s", "dualcurve.sample_real_curve_points.s",
    "pencil.hyperbolicity_check.s", "rangegeom.polytope_detect.s", "hermitian.charpoly.s",
    "craig.craig_identity.s", "rangegeom.hausdorff_outer_to_inner.s", "pencil.boundary_F.s",
    "rangegeom.range_hulls.s", "dualcurve.dual_sample.s", "render.render_figure.s",
    "hermitian.matrix_from_json.s",
)


class SetupError(Exception):
    pass


class JobTimeout(BaseException):
    """Raised by the alarm inside a job; a BaseException so that no handler in
    the program under test swallows it."""


class Terminated(BaseException):
    """SIGTERM, raised through the program under test so that the run ends
    and its work directory is removed."""


def _alarm(signum, frame):
    raise JobTimeout()


def _terminate(signum, frame):
    raise Terminated()


def import_numrange():
    """Import numrange from this checkout's src/, never from elsewhere."""
    for need in (SRC / "numrange" / "cli.py", ROOT / "fixtures" / "golden"):
        if not need.exists():
            raise SetupError(f"{need.relative_to(ROOT)} is missing; run from a numrange checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numrange.cli

    if Path(numrange.cli.__file__).resolve().parent != SRC / "numrange":
        raise SetupError(f"numrange imported from {numrange.cli.__file__}, not {SRC}")
    return numrange.cli


# -- jobs and passes --------------------------------------------------------------------


class Runner:
    """Runs a job list pass after pass and gates every output."""

    def __init__(self, cli, jobs, work: Path, recorded: dict, deadline=math.inf):
        self.cli, self.jobs, self.work, self.recorded = cli, jobs, work, recorded
        self.deadline = deadline     # perf_counter() value
        self.reference: list[dict | None] = [None] * len(jobs)
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.timed_out: set[int] = set()
        self.host: list[float] = []

    def _paths(self, i):
        return self.work / f"job{i:02d}.out", self.work / f"job{i:02d}.curve"

    def run_job(self, i) -> dict:
        out_path, curve_path = self._paths(i)
        for p in (out_path, curve_path):
            p.unlink(missing_ok=True)
        argv = [a.replace("{out}", str(out_path)).replace("{curve}", str(curve_path))
                for a in self.jobs[i].argv]
        err, sink = io.StringIO(), io.StringIO()
        code, error = None, None
        limit = min(JOB_LIMIT_S, self.deadline - time.perf_counter())
        if limit <= 0:
            self.timed_out.add(i)
            return {"code": None, "error": f"not started before the {RUN_LIMIT_S:.0f} s run limit",
                    "s": JOB_LIMIT_S, "out": "", "curve": "", "err": ""}
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, limit)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except JobTimeout:
            error = f"past the {limit:.0f} s job limit"
            self.timed_out.add(i)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            error = traceback.format_exc(limit=3)
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        read = lambda p: p.read_text() if p.exists() else ""
        return {"code": code, "error": error, "s": dt, "out": read(out_path),
                "curve": read(curve_path), "err": err.getvalue()}

    def _fail(self, i, why):
        self.failed += 1
        self.errors.append(f"{self.jobs[i].name}: {why}")

    def warmup(self) -> list[dict]:
        """Untimed pass; its outputs go through every check and become the
        reference later passes must reproduce."""
        from checks import CheckFailed, run_check

        results = []
        for i, job in enumerate(self.jobs):
            res = self.run_job(i)
            results.append(res)
            self.attempted += 1
            if res["error"]:
                self._fail(i, res["error"])
                continue
            if res["code"] != job.expect_code:
                self._fail(i, f"exit {res['code']}, expected {job.expect_code}: "
                              f"{res['err'].strip()[:200]}")
                continue
            try:
                for check in job.checks:
                    run_check(check, res, self.recorded)
            except CheckFailed as exc:
                self._fail(i, str(exc))
                continue
            self.reference[i] = res
        return results

    def timed_pass(self, on_job=None, host=False) -> list[float]:
        """One pass; returns each job's time.  A job that failed its warm-up
        by running past the limit is not run again but still counts failed.
        With `host`, the yardstick runs before every job and after the last,
        and `self.host` gets, for each job, the mean of the two around it."""
        times = []
        marks = [yardstick()] if host else []
        for i, job in enumerate(self.jobs):
            self.attempted += 1
            ref = self.reference[i]
            if i in self.timed_out:
                self._fail(i, "not run again after passing the job limit")
                times.append(JOB_LIMIT_S)
                if host:
                    marks.append(marks[-1])
                continue
            res = self.run_job(i)
            if host:
                marks.append(yardstick())
            if on_job:
                on_job(i, res)
            times.append(res["s"])
            if res["error"]:
                self._fail(i, res["error"])
            elif ref is None:
                self._fail(i, "failed its warm-up check")
            elif (res["code"], res["out"], res["curve"]) != (ref["code"], ref["out"], ref["curve"]):
                self._fail(i, "output differs from the checked warm-up output")
        self.host = [(a + b) / 2 for a, b in zip(marks, marks[1:])]
        return times


def run_passes(runner, seconds, between=None, host=False):
    """Closed loop: passes until `seconds` have gone by, at least one.
    `between` runs after each pass, inside the window but outside any job.
    Returns each pass's job times and, with `host`, the yardstick times
    around each job."""
    passes, hosts = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(runner.timed_pass(host=host))
        hosts.append(runner.host)
        if between:
            between()
    return passes, hosts


class Setup:
    """Set-up samples: a fresh interpreter's `import numrange` plus generating
    the workload's inputs.  The first sample makes the inputs the run uses;
    the others are spread between passes, so that their median sees the same
    host conditions as the passes do."""

    def __init__(self, workload, seed, work: Path, size):
        self.args = (workload, seed, size)
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.times: list[float] = []    # at yardstick speed, as job times are
        self.wall: list[float] = []

    def sample(self):
        from workloads import build_jobs

        workload, seed, size = self.args
        sub = self.work / f"setup{len(self.times)}"
        sub.mkdir()
        before = yardstick()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numrange"], env=self.env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        jobs = build_jobs(workload, seed, ROOT, sub, size)
        dt = time.perf_counter() - t0
        self.wall.append(dt)
        self.times.append(dt * YARDSTICK_S / ((before + yardstick()) / 2))
        return jobs, sub

    def between_passes(self):
        if len(self.times) < SETUP_SAMPLES:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.times)


_YARD_H = None


def yardstick() -> float:
    """Mean seconds of YARDSTICK_CALLS runs of a fixed kernel of Fraction
    arithmetic and small Hermitian eigensolves, the two kinds of work numrange
    does.  Run between jobs, it measures how fast the shared host is running
    at that moment."""
    global _YARD_H
    import numpy as np

    if _YARD_H is None:
        h = np.random.default_rng(0).standard_normal((32, 8, 8))
        _YARD_H = h + h.transpose(0, 2, 1)
    t0 = time.perf_counter()
    for _ in range(YARDSTICK_CALLS):
        acc = Fraction(0)
        for k in range(1, 320):
            acc += Fraction(k % 7 - 3, k) * Fraction(k + 1, 3)
        np.linalg.eigvalsh(_YARD_H)
    return (time.perf_counter() - t0) / YARDSTICK_CALLS


def calibrate_ms() -> float:
    """Fixed Fraction-arithmetic kernel: a host-speed diagnostic, never used
    to normalise other metrics."""
    def kernel():
        acc = Fraction(0)
        for k in range(1, 1200):
            acc += Fraction(k % 7 - 3, k) * Fraction(k + 1, 3)
        return acc

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def src_lines() -> dict:
    from tracer import LAYERS

    out = {f"{layer}.src_lines": len((SRC / "numrange" / f"{layer}.py").read_text().splitlines())
           if (SRC / "numrange" / f"{layer}.py").exists() else 0 for layer in LAYERS}
    out["src.lines"] = sum(len(p.read_text().splitlines())
                           for p in (SRC / "numrange").rglob("*.py"))
    return out


def size_counters(jobs, results) -> dict:
    """Sizes of p and q and the extraneous-factor audit, read from the
    checked warm-up outputs."""
    from checks import CheckFailed, parse_poly, poly_sizes

    c = {"pencil.p_terms": 0, "pencil.p_coeff_bits_max": 0, "dualcurve.q_degree_max": 0,
         "dualcurve.q_terms": 0, "dualcurve.q_coeff_bits_max": 0,
         "dualcurve.extraneous_factors": 0}
    for job, res in zip(jobs, results):
        if res["code"] != 0:
            continue
        try:
            if job.subcommand == "pencil":
                terms, _, bits = poly_sizes(parse_poly(res["out"].strip()))
                c["pencil.p_terms"] += terms
                c["pencil.p_coeff_bits_max"] = max(c["pencil.p_coeff_bits_max"], bits)
            elif job.subcommand == "dual":
                c["dualcurve.extraneous_factors"] += res["err"].count(
                    "note: removed extraneous factor")
                for line in res["out"].strip().split("\n"):
                    if line.startswith("point"):
                        continue
                    terms, deg, bits = poly_sizes(parse_poly(line))
                    c["dualcurve.q_terms"] += terms
                    c["dualcurve.q_degree_max"] = max(c["dualcurve.q_degree_max"], deg)
                    c["dualcurve.q_coeff_bits_max"] = max(c["dualcurve.q_coeff_bits_max"], bits)
        except CheckFailed:
            pass    # already counted as a failed job by the gate
    return c


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def traced_metrics(runner, warm, seconds, log) -> dict:
    """Per-layer metrics: untraced passes for half the window, then traced
    passes for the other half; their pass-time ratio is the tracing overhead."""
    from tracer import LAYERS, Tracer

    jobs = runner.jobs
    untraced = [sum(p) for p in run_passes(runner, seconds / 2)[0]]
    traced, snaps, by_sub, refusal, gaps = [], [], [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds / 2:
        tracer = Tracer()
        seen = []     # (job, result, running total of self times after it)
        with tracer:
            traced.append(sum(runner.timed_pass(
                lambda i, res: seen.append((i, res, sum(tracer.layer_self.values()))))))
        snaps.append(tracer.snapshot())
        subs, refused, before = defaultdict(list), 0.0, 0.0
        for i, res, total in seen:
            self_sum, before = total - before, total
            gaps.append(abs(self_sum - res["s"]) / res["s"])
            if abs(self_sum - res["s"]) > SELF_SUM_RTOL * res["s"] + SELF_SUM_ATOL:
                log(f"warning: {jobs[i].name}: layer self times add up to {self_sum:.4f} s "
                    f"of {res['s']:.4f} s traced")
            subs[jobs[i].subcommand].append(res["s"])
            if res["code"] == 2:
                refused += res["s"]
        by_sub.append({sub: statistics.median(v) for sub, v in subs.items()})
        refusal.append(refused)
    log(f"{len(jobs)} jobs: {len(traced)} traced passes after "
        f"{len(untraced)} untraced; fail_rate {runner.failed}/{runner.attempted}")

    med = lambda key: statistics.median(s.get(key, 0) for s in snaps)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
        m[f"{layer}.calls"] = (med(f"{layer}.calls"), "count")
    for key, value in src_lines().items():
        m[key] = (value, "lines")
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = (statistics.median(b.get(sub, 0.0) for b in by_sub), "s")
    for key in NAMED:
        m[key] = (med(key), "count" if key.endswith(".calls") else "s")
    for key in ("eig.calls", "eig.matrices", "eig.n3_sum", "dualcurve.validation_points"):
        m[key] = (med(key), "count")
    m["eig.s"] = (med("eig.self_s"), "s")
    m["dualcurve.refusal_s"] = (statistics.median(refusal), "s")
    for key, value in size_counters(jobs, warm).items():
        m[key] = (value, "bits" if "bits" in key else "count")
    m["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    m["trace.self_gap_max"] = (max(gaps, default=0.0), "ratio")
    return m


def measure(workload, seed, seconds, trace, size="full", log=print) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    from checks import load_recorded

    deadline = time.perf_counter() + RUN_LIMIT_S
    cli = import_numrange()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        setup = Setup(workload, seed, work, size)
        jobs, inputs = setup.sample()
        calib = calibrate_ms()
        runner = Runner(cli, jobs, inputs, load_recorded(), deadline)
        warm = runner.warmup()
        if not trace:
            passes, hosts = run_passes(runner, seconds, between=setup.between_passes, host=True)
            # each job's median over the passes of its time at yardstick speed:
            # the host's speed moves by up to 3x over tens of seconds, with the
            # load of other machines, and wall times follow it
            job_s = [statistics.median(p[i] * YARDSTICK_S / h[i] for p, h in zip(passes, hosts))
                     for i in range(len(jobs))]
            metrics = {
                "pass_s": (sum(job_s), "s"),
                "job_geomean_ms": (math.exp(statistics.fmean(math.log(t * 1000) for t in job_s)), "ms"),
                "setup_s": (setup.median(), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            pass_times = [sum(p) for p in passes]
            q1, q3 = _quartiles(pass_times)
            slow = statistics.median(x for h in hosts for x in h) / YARDSTICK_S
            log(f"{workload}: {len(jobs)} jobs, {len(passes)} passes; wall seconds per pass "
                f"median {statistics.median(pass_times):.4f}, quartiles {q1:.4f} / {q3:.4f}; "
                f"wall setup_s {statistics.median(setup.wall):.4f}; host ran at 1/{slow:.3f} "
                f"of yardstick speed; fail_rate {runner.failed}/{runner.attempted} = "
                f"{runner.failed / runner.attempted:.4f}; host.calib_ms {calib:.3f}")
        else:
            metrics = traced_metrics(runner, warm, seconds, log)
            metrics["host.calib_ms"] = (calib, "ms")
    for e in dict.fromkeys(runner.errors):
        log(f"FAILED {e}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# -- expected values recorded at the seed commit ------------------------------------------


def record_expected():
    """Rewrite perfbench/expected/ from this checkout's outputs.  Run only on a
    commit whose outputs are known good: every later run is checked against it."""
    from checks import EXPECTED, RECORDED_FILE, summarize
    from workloads import build_jobs

    cli = import_numrange()
    recorded = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for size in ("full", "smoke"):
            for workload in ("exact-dual", "exact-pencil", "numeric-grid"):
                work = Path(tmp) / f"{workload}-{size}"
                work.mkdir()
                jobs = build_jobs(workload, 1, ROOT, work, size)
                runner = Runner(cli, jobs, work, {})
                for i, job in enumerate(jobs):
                    kinds = {c[0]: c for c in job.checks}
                    if not kinds.keys() & {"recorded", "classify_polytope"}:
                        continue
                    res = runner.run_job(i)
                    if res["code"] != job.expect_code:
                        raise SetupError(f"{job.name} exited {res['code']}")
                    if "recorded" in kinds:
                        recorded[kinds["recorded"][1]] = summarize(res["out"] + res["curve"])
                    if "classify_polytope" in kinds:
                        (EXPECTED / "classify_polytope.txt").write_text(res["out"])
                    print(f"recorded {job.name}")
    RECORDED_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("exact-dual", "exact-pencil", "numeric-grid"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one reduced pass of each workload (or of --workload)")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.record_expected:
            record_expected()
            return 0
        if args.smoke:
            names = [args.workload] if args.workload else ["exact-dual", "exact-pencil",
                                                           "numeric-grid"]
            results = [measure(w, args.seed, 0, args.trace, "smoke") for w in names]
            print(json.dumps({
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{w}.{k}": v for w, r in zip(names, results)
                            for k, v in r["metrics"].items()},
            }))
            return 0 if all(r["correct"] for r in results) else 1
        if not args.workload:
            ap.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
