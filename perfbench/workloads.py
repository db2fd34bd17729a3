"""Seeded inputs and the job list of each workload.

A job is one ``numrange.cli.main(argv)`` call plus the checks its output
must pass.  Inputs are the pinned fixtures and matrices drawn from the
workload seed, written as matrix JSON files into a work directory.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("exact-dual", "exact-pencil", "numeric-grid")


@dataclass
class Job:
    name: str
    argv: list[str]
    checks: list[tuple] = field(default_factory=list)
    expect_code: int = 0

    @property
    def subcommand(self) -> str:
        return self.argv[0]


# -- exact matrices as lists of (re, im) Fraction pairs ---------------------------


def gaussian_matrix(n: int, rng: random.Random, complex_entries: bool = True):
    """The entry law of the test suite's random_gaussian_matrix, drawn in the
    same order: re = randint(-4, 4)/randint(1, 3), then im likewise."""
    def entry():
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if complex_entries else Fraction(0)
        return (re, im)

    return [[entry() for _ in range(n)] for _ in range(n)]


def _conj_t(A):
    n = len(A)
    return [[(A[j][i][0], -A[j][i][1]) for j in range(n)] for i in range(n)]


def _matmul(A, B):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            re = im = Fraction(0)
            for k in range(n):
                a, b = A[i][k], B[k][j]
                re += a[0] * b[0] - a[1] * b[1]
                im += a[0] * b[1] + a[1] * b[0]
            row.append((re, im))
        out.append(row)
    return out


def _degenerate(A) -> bool:
    """A1 = 0 (A skew-Hermitian), A2 = 0 (A Hermitian), or A1 A2 = A2 A1
    (A normal): the pencil has no generic dual curve."""
    Ah = _conj_t(A)
    if A == Ah or A == [[(-re, -im) for re, im in row] for row in Ah]:
        return True
    return _matmul(A, Ah) == _matmul(Ah, A)


def to_complex(A) -> np.ndarray:
    return np.array([[float(re) + 1j * float(im) for re, im in row] for row in A])


def hermitian_parts(A) -> tuple[np.ndarray, np.ndarray]:
    M = to_complex(A) if not isinstance(A, np.ndarray) else A
    return (M + M.conj().T) / 2, (M - M.conj().T) / 2j


def _origin_interior(A) -> bool:
    """0 is interior to W(A), so F(A) is bounded and `render` needs no viewport."""
    A1, A2 = hermitian_parts(A)
    th = np.linspace(0.0, 2 * math.pi, 360, endpoint=False)
    h = np.linalg.eigvalsh(np.cos(th)[:, None, None] * A1 + np.sin(th)[:, None, None] * A2)[:, -1]
    return h.min() > 1e-2 * np.abs(h).max()


def generic_matrix(n: int, seed: int, tag: int, complex_entries: bool = True,
                   bounded_F: bool = False):
    """Matrix `tag` of a workload seed; redrawn while degenerate."""
    rng = random.Random(seed * 1009 + tag)
    while True:
        A = gaussian_matrix(n, rng, complex_entries)
        if _degenerate(A) or (bounded_F and not _origin_interior(A)):
            continue
        return A


def _rotation(n, i, j, triple):
    a, b, c = triple
    Q = [[Fraction(int(r == s)) for s in range(n)] for r in range(n)]
    Q[i][i] = Q[j][j] = Fraction(a, c)
    Q[i][j], Q[j][i] = Fraction(-b, c), Fraction(b, c)
    return Q


_TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29), (7, 24, 25), (9, 40, 41)]


def _real_matmul(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]


def craig_pair(n: int, seed: int, tag: int, planted: bool):
    """Real symmetric pair.  Planted: Q D1 Q^T, Q D2 Q^T with disjoint diagonal
    supports and a rational orthogonal Q, so A1 A2 = 0.  Generic: independent
    random symmetric matrices, redrawn in the measure-zero case A1 A2 = 0."""
    rng = random.Random(seed * 1009 + tag)
    zero = [[Fraction(0)] * n for _ in range(n)]
    while True:
        if planted:
            k = rng.randint(1, n - 1)
            d1 = [Fraction(rng.randint(-5, 5)) for _ in range(k)] + [Fraction(0)] * (n - k)
            d2 = [Fraction(0)] * k + [Fraction(rng.randint(-5, 5)) for _ in range(n - k)]
            Q = [[Fraction(int(r == s)) for s in range(n)] for r in range(n)]
            for _ in range(max(2, n)):
                i, j = rng.sample(range(n), 2)
                Q = _real_matmul(Q, _rotation(n, i, j, rng.choice(_TRIPLES)))
            Qt = [list(r) for r in zip(*Q)]
            A1 = _real_matmul(_real_matmul(Q, [[d1[i] if i == j else Fraction(0) for j in range(n)]
                                               for i in range(n)]), Qt)
            A2 = _real_matmul(_real_matmul(Q, [[d2[i] if i == j else Fraction(0) for j in range(n)]
                                               for i in range(n)]), Qt)
            return A1, A2
        A1, A2 = ([[Fraction(0)] * n for _ in range(n)] for _ in range(2))
        for M in (A1, A2):
            for i in range(n):
                M[i][i] = Fraction(rng.randint(-4, 4))
                for j in range(i + 1, n):
                    M[i][j] = M[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if _real_matmul(A1, A2) != zero:
            return A1, A2


def _frac_json(x: Fraction):
    return [x.numerator, x.denominator]


def matrix_json(A) -> dict:
    return {"n": len(A), "entries": [[[_frac_json(re), _frac_json(im)] for re, im in row]
                                     for row in A]}


def _real_json(M) -> dict:
    return matrix_json([[(x, Fraction(0)) for x in row] for row in M])


# -- job lists ------------------------------------------------------------------------

# (name, n[, complex entries]) of the matrices each workload draws from its
# seed; the smoke lists use smaller sizes of the same shapes.
_DUAL_GEN = {"full": [(f"g3{c}", 3) for c in "abcd"], "smoke": [("g3a", 3)]}
_PENCIL_GEN = {"full": [("c6a", 6, True), ("c6b", 6, True), ("c8", 8, True), ("r8", 8, False)],
               "smoke": [("c4", 4, True), ("r5", 5, False)]}
_CLASSIFY_GEN = {"full": [("k6", 6), ("k8", 8)], "smoke": [("k4", 4)]}
# pair sizes; the planted n = 8 time varies about 4x with the draw, so two of each
_CRAIG_GEN = {"full": [5, 8, 8], "smoke": [4]}
_GRID_FIXTURES = {"full": ["disk", "cubic_cusp", "cross_star", "nested_ovals"],
                  "smoke": ["disk", "cubic_cusp"]}
_GRID_GEN = {"full": [("g3", 3), ("g5", 5)], "smoke": [("g3", 3)]}
# one duality call costs about 0.4 s at grid 720, most of it the O(N^2)
# Hausdorff; three inputs keep a pass short enough for several per run
_GRID_DUALITY = {"full": {"cubic_cusp", "nested_ovals", "g5"}, "smoke": {"cubic_cusp", "g3"}}
_GRID_N = {"full": "720", "smoke": "90"}


def build_jobs(workload: str, seed: int, root: Path, work: Path, size: str = "full"):
    """Write the workload's generated inputs into `work` and return its jobs.

    `{out}` and `{curve}` in an argv stand for output files the runner
    picks for each job.
    """
    fx = root / "fixtures"
    golden = fx / "golden"
    jobs: list[Job] = []

    def put(name, doc) -> str:
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    if workload == "exact-dual":
        for name in ("cubic_cusp", "cross_star", "nested_ovals"):
            if size == "smoke" and name == "nested_ovals":
                continue
            jobs.append(Job(f"dual {name}", ["dual", "--input", str(fx / f"{name}.json")],
                            [("poly_lines", [str(golden / f"{name}_q.txt")])]))
        if size == "full":
            jobs.append(Job("dual cardioid_circle --factors",
                            ["dual", "--input", str(fx / "cardioid_circle.json"),
                             "--factors", str(fx / "cardioid_circle_factors.txt")],
                            [("poly_lines", [str(golden / "cardioid_circle_dual_cardioid.txt"),
                                             str(golden / "cardioid_circle_dual_circle.txt")])]))
        jobs.append(Job("dual polytope --factors",
                        ["dual", "--input", str(fx / "polytope.json"),
                         "--factors", str(fx / "polytope_factors.txt")],
                        [("golden_text", str(golden / "polytope_dual_points.txt"))]))
        jobs.append(Job("dual polytope", ["dual", "--input", str(fx / "polytope.json")],
                        [("refusal", "factors")], expect_code=2))
        for tag, (name, n) in enumerate(_DUAL_GEN[size]):
            path = put(name, matrix_json(generic_matrix(n, seed, tag)))
            jobs.append(Job(f"dual generic n={n} {name}", ["dual", "--input", path],
                            [("dual_numeric", path, n)]))

    elif workload == "exact-pencil":
        for tag, (name, n, cx) in enumerate(_PENCIL_GEN[size]):
            path = put(name, matrix_json(generic_matrix(n, seed, tag, cx)))
            jobs.append(Job(f"pencil generic {name}", ["pencil", "--input", path],
                            [("pencil_numeric", path)]))
        for tag, (name, n) in enumerate(_CLASSIFY_GEN[size], start=50):
            path = put(name, matrix_json(generic_matrix(n, seed, tag)))
            jobs.append(Job(f"classify generic {name}", ["classify", "--input", path],
                            [("classify_generic", path)]))
        jobs.append(Job("classify polytope --factors",
                        ["classify", "--input", str(fx / "polytope.json"),
                         "--factors", str(fx / "polytope_factors.txt")],
                        [("classify_polytope",)]))
        jobs.append(Job("craig craig_pair_diag", ["craig", "--input", str(fx / "craig_pair_diag.json")],
                        [("craig", True)]))
        jobs.append(Job("craig craig_pair_overlap",
                        ["craig", "--input", str(fx / "craig_pair_overlap.json")],
                        [("craig", False)]))
        for k, n in enumerate(_CRAIG_GEN[size]):
            for tag, planted in enumerate((True, False), start=100 + 2 * k):
                kind = "planted" if planted else "generic"
                A1, A2 = craig_pair(n, seed, tag, planted)
                path = put(f"craig{k}_{kind}{n}", {"A1": _real_json(A1), "A2": _real_json(A2)})
                jobs.append(Job(f"craig {kind} n={n} #{k}", ["craig", "--input", path],
                                [("craig", planted)]))

    elif workload == "numeric-grid":
        N = _GRID_N[size]
        inputs = [(name, str(fx / f"{name}.json"), True) for name in _GRID_FIXTURES[size]]
        for tag, (name, n) in enumerate(_GRID_GEN[size]):
            A = generic_matrix(n, seed, tag, bounded_F=True)
            inputs.append((name, put(name, matrix_json(A)), False))
        for name, path, pinned in inputs:
            # pinned fixtures are compared with values recorded at the seed
            # commit; generated ones are checked against numpy directly
            rec = [("recorded", f"{sub} {name} {N}") for sub in
                   ("sample-f", "sample-w", "duality", "render")] if pinned else [None] * 4
            jobs.append(Job(f"sample-f {name}", ["sample-f", "--input", path, "--grid", N],
                            [("f_boundary", path), rec[0]]))
            jobs.append(Job(f"sample-w {name}",
                            ["sample-w", "--input", path, "--grid", N, "--curve", "{curve}"],
                            [("hulls_nested",), rec[1]]))
            if name in _GRID_DUALITY[size]:
                jobs.append(Job(f"duality {name}", ["duality", "--input", path, "--grid", N],
                                [("duality_ok",), rec[2]]))
            jobs.append(Job(f"render {name}", ["render", "--input", path, "--grid", N],
                            [("svg",), rec[3]]))
        jobs.append(Job("render polytope --viewport",
                        ["render", "--input", str(fx / "polytope.json"), "--grid", N,
                         "--viewport=-1,1,-1,1"],
                        [("svg",), ("recorded", f"render polytope {N}")]))
        # two odd grid sizes separate per-call overhead from the O(N^2) Hausdorff
        for grid in (("90", "1440") if size == "full" else ("16", "180")):
            jobs.append(Job(f"duality cubic_cusp grid={grid}",
                            ["duality", "--input", str(fx / "cubic_cusp.json"), "--grid", grid],
                            [("duality_ok",), ("recorded", f"duality cubic_cusp {grid}")]))
        for job in jobs:
            job.checks = [c for c in job.checks if c is not None]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

    for job in jobs:
        if "{out}" not in job.argv:
            job.argv += ["--out", "{out}"]
    return jobs
