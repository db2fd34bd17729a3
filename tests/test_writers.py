"""The CSV and SVG writers against per-row f-string references.

Each writer builds one format string per document and applies `%` once;
the references below format every number on its own, as the writers did
before, and must give the same bytes.  The render branches and their
viewport/jump segments are checked against per-point references too.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from numrange.dualcurve import dual_sample, dual_sample_csv
from numrange.exactpoly import GaussianRational
from numrange.hermitian import split
from numrange.pencil import (
    CurveSample,
    CurveSampleSet,
    SpectralGrid,
    boundary_F,
    boundary_csv,
)
from numrange.rangegeom import RangeHulls, hulls_csv, range_hulls
import numrange.render as render
from numrange.rangegeom import duality_check
from numrange.render import (
    ViewportRequiredError,
    _branch_segments,
    _dual_branches,
    _fmt,
    _Panel,
    _primal_branches,
    render_figure,
)

from conftest import fixture_matrix, random_gaussian_matrix

FIXTURE_NAMES = ("disk", "cubic_cusp", "cross_star", "nested_ovals", "polytope",
                 "cardioid_circle")
GRIDS = (16, 90, 720)


def _hulls_csv_reference(hulls):
    lines = ["kind,vertex_index,x1,x2"]
    for kind, poly in (("inner", hulls.inner), ("outer", hulls.outer)):
        for i, (x, y) in enumerate(poly):
            lines.append(f"{kind},{i},{x:.12g},{y:.12g}")
    return "\n".join(lines) + "\n"


def _boundary_csv_reference(samples):
    lines = ["theta,y1,y2,lambda_min"]
    for s in samples.samples:
        if s.point is None:
            lines.append(f"{s.theta:.12g},inf,inf,inf")
        else:
            lines.append(f"{s.theta:.12g},{s.point[0]:.12g},{s.point[1]:.12g},{s.lambda_min:.12g}")
    return "\n".join(lines) + "\n"


def _dual_sample_csv_reference(samples):
    lines = ["theta,root_index,x1,x2,singular_flag"]
    for s in samples.samples:
        x1 = f"{s.point[0]:.12g}" if s.point is not None else "nan"
        x2 = f"{s.point[1]:.12g}" if s.point is not None else "nan"
        lines.append(f"{s.theta:.12g},{s.root_index},{x1},{x2},{int(s.singular)}")
    return "\n".join(lines) + "\n"


def _map_reference(self, pt):
    x, y = float(pt[0]), float(pt[1])
    return (self.px + (x - self.view[0]) * self.scale,
            self.py + (self.view[3] - y) * self.scale)


def _coords_reference(self, pts):
    return " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (_map_reference(self, p) for p in pts))


def _contains_reference(panel, pt, slack):
    x, y = float(pt[0]), float(pt[1])
    vx0, vx1, vy0, vy1 = panel.view
    dx = (vx1 - vx0) * slack
    dy = (vy1 - vy0) * slack
    return vx0 - dx <= x <= vx1 + dx and vy0 - dy <= y <= vy1 + dy


def _branch_segments_reference(branches, panel):
    """Lists of points, None for a missing one; one point at a time."""
    segs = []
    vx0, vx1, vy0, vy1 = panel.view
    jump = 0.5 * math.hypot(vx1 - vx0, vy1 - vy0)
    for pts in branches:
        cur = []
        prev = None
        for p in pts:
            ok = p is not None and _contains_reference(panel, p, 0.25)
            if ok and prev is not None and math.hypot(p[0] - prev[0], p[1] - prev[1]) > jump:
                ok_continue = False
            else:
                ok_continue = ok
            if ok_continue:
                cur.append(p)
                prev = p
            else:
                if len(cur) >= 2:
                    segs.append(cur)
                cur = [p] if ok else []
                prev = p if ok else None
        if len(cur) >= 2:
            segs.append(cur)
    return segs


def _primal_branches_reference(grid):
    branches = [[None] * len(grid.thetas) for _ in range(grid.pencil.n)]
    k, idx, t = grid.line_roots()
    for kk, i, y1, y2 in zip(k.tolist(), idx.tolist(), (t * grid.cos[k]).tolist(),
                             (t * grid.sin[k]).tolist()):
        branches[i][kk] = (y1, y2)
    return branches


def _dual_branches_reference(grid):
    branches = [[] for _ in range(grid.pencil.n)]
    for s in dual_sample(grid).samples:
        branches[s.root_index].append(s.point)
    return branches


def _inputs():
    """(label, matrix): the fixtures, seeded draws n = 1..5 and entries x 10^+-100."""
    out = [(name, fixture_matrix(name)) for name in FIXTURE_NAMES]
    rng = random.Random(606)
    for k in range(10):
        n = 1 + k % 5
        out.append((f"draw n={n} #{k}", random_gaussian_matrix(n, rng, k % 2 == 0)))
    for power in (100, -100):
        for name in ("cubic_cusp", "polytope"):
            scale = GaussianRational.of(Fraction(10) ** power)
            out.append((f"{name} x1e{power}", fixture_matrix(name).scale(scale)))
    return out


INPUTS = _inputs()


@pytest.mark.parametrize("label, A", INPUTS, ids=[label for label, _ in INPUTS])
def test_csv_writers_match_the_per_row_references(label, A):
    pencil = split(A)
    for N in GRIDS:
        grid = SpectralGrid(pencil, N)
        hulls = range_hulls(grid)
        assert hulls_csv(hulls) == _hulls_csv_reference(hulls), N
        boundary = boundary_F(grid)
        assert boundary_csv(boundary) == _boundary_csv_reference(boundary), N
        dual = dual_sample(grid)
        assert dual_sample_csv(dual) == _dual_sample_csv_reference(dual), N


@pytest.mark.parametrize("label, A", INPUTS, ids=[label for label, _ in INPUTS])
def test_render_matches_the_per_point_reference(label, A, monkeypatch):
    for N in GRIDS:
        for viewport in (None, (-2.0, 2.0, -1.5, 2.5)):
            try:
                got = render_figure(A, N=N, viewport=viewport)
            except ViewportRequiredError:
                assert viewport is None
                continue
            with monkeypatch.context() as m:
                m.setattr(_Panel, "coords", _coords_reference)
                m.setattr(_Panel, "map", _map_reference)
                assert got == render_figure(A, N=N, viewport=viewport), (N, viewport)


def test_special_values():
    """inf rows, nan dual points, singular flags, -0.0 and huge or tiny values."""
    big, tiny = 1e100, 1e-100
    boundary = CurveSampleSet("y0=1", [
        CurveSample(0.0, None),
        CurveSample(-0.0, (-0.0, 0.0), lambda_min=-0.0),
        CurveSample(1.5, (big, -tiny), lambda_min=-1e-17),
        CurveSample(math.pi, (1 / 3, -2 / 3), lambda_min=5e-324),
    ])
    assert boundary_csv(boundary) == _boundary_csv_reference(boundary)
    assert "\n0,inf,inf,inf\n-0,-0,0,-0\n" in boundary_csv(boundary)
    dual = CurveSampleSet("x0=1", [
        CurveSample(0.0, None, root_index=0, singular=True),
        CurveSample(0.25, None, root_index=2, singular=False),
        CurveSample(-0.0, (-0.0, big), root_index=1, singular=True),
        CurveSample(2.0, (-tiny, math.inf), root_index=None),
    ])
    assert dual_sample_csv(dual) == _dual_sample_csv_reference(dual)
    assert "\n0,0,nan,nan,1\n0.25,2,nan,nan,0\n-0,1,-0,1e+100,1\n" in dual_sample_csv(dual)
    hulls = RangeHulls(inner=[(-0.0, 0.0), (big, tiny)], outer=[], N=3)
    assert hulls_csv(hulls) == _hulls_csv_reference(hulls) == (
        "kind,vertex_index,x1,x2\ninner,0,-0,0\ninner,1,1e+100,1e-100\n")
    empty = RangeHulls(inner=[], outer=[], N=3)
    assert hulls_csv(empty) == _hulls_csv_reference(empty)
    # the arrays `range_hulls` stores, one of them with no rows
    arrays = RangeHulls(inner=np.array([(-0.0, 0.0), (big, -tiny), (-big, tiny)]),
                        outer=np.empty((0, 2)), N=3)
    assert hulls_csv(arrays) == _hulls_csv_reference(arrays) == (
        "kind,vertex_index,x1,x2\ninner,0,-0,0\ninner,1,1e+100,-1e-100\n"
        "inner,2,-1e+100,1e-100\n")


def test_panel_coordinates():
    panel = _Panel(-0.0, -0.0, 1.0, (0.0, 1.0, 0.0, 1.0))
    pts = [(-0.0, 1.0), (-1e-9, 0.5), (1e100, -1e100), (1e-100, 2.0), (0.1234565, 0.9999995),
           (Fraction(1, 3), 2)]
    assert panel.coords(pts) == _coords_reference(panel, pts)
    assert panel.coords(pts).startswith("-0.000000,0.000000 -0.000000,0.500000 ")
    for p in pts:
        assert [repr(float(v)) for v in panel.map(p)] == [repr(v) for v in _map_reference(panel, p)]
    rng = np.random.default_rng(8)
    for _ in range(20):
        panel = _Panel(*rng.uniform(0, 100, 2), 420.0, tuple(np.sort(rng.normal(size=4))[[0, 3, 1, 2]]))
        pts = [tuple(p) for p in rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(50, 2))]
        assert panel.coords(pts) == _coords_reference(panel, pts)


# None: the bounding boxes; the unit box; a box that cuts every curve
VIEWPORTS = (None, (-1.0, 1.0, -1.0, 1.0), (-0.3, 0.2, -0.25, 0.4))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_branch_segments_match_the_per_point_reference(name, monkeypatch):
    A = fixture_matrix(name)
    pencil = split(A)
    panels = []
    monkeypatch.setattr(render, "_branch_segments",
                        lambda branches, panel: panels.append(panel) or [])
    clipped = 0
    for N in GRIDS:
        curve_grid = SpectralGrid(pencil, max(N, 360))
        primal = (_primal_branches(curve_grid), _primal_branches_reference(curve_grid))
        dual = (_dual_branches(curve_grid), _dual_branches_reference(curve_grid))
        for viewport in VIEWPORTS:
            panels.clear()
            try:
                render_figure(A, N=N, viewport=viewport)
            except ViewportRequiredError:
                assert viewport is None
                continue
            for panel, (branches, reference) in zip(panels, (primal, dual)):
                got = _branch_segments(branches, panel)
                want = _branch_segments_reference(reference, panel)
                assert all(isinstance(seg, np.ndarray) for seg in got)
                assert repr([seg.tolist() for seg in got]) == repr(
                    [[list(p) for p in seg] for seg in want]), (N, viewport)
                clipped += len(want) > len(branches)
    assert clipped


def test_branch_segments_split_at_gaps_exits_and_jumps():
    panel = _Panel(0.0, 0.0, 100.0, (0.0, 1.0, 0.0, 1.0))   # keeps [-0.25, 1.25]^2
    nan = math.nan
    branch = [(0.0, 0.0), (0.1, 0.1), (nan, nan), (0.2, 0.2), (0.3, 0.3), (2.0, 2.0),
              (0.4, 0.4), (0.5, 0.5), (1.2, -0.2), (0.6, 0.6), (0.65, 0.6)]
    got = _branch_segments([np.array(branch), np.empty((0, 2)), np.array([branch[0]])], panel)
    assert [seg.tolist() for seg in got] == [
        [[0.0, 0.0], [0.1, 0.1]], [[0.2, 0.2], [0.3, 0.3]], [[0.4, 0.4], [0.5, 0.5]],
        [[0.6, 0.6], [0.65, 0.6]]]
    # the jump of 0.99 from (0.5, 0.5) to (1.2, -0.2) is beyond half the diagonal, 0.707
    assert [len(s) for s in _branch_segments_reference(
        [[None if math.isnan(p[0]) else p for p in branch]], panel)] == [2, 2, 2, 2]


def test_render_and_duality_make_no_residual_solve(monkeypatch):
    """Neither prints lambda_min at the exits, so neither solves F(1, y) there;
    sample-f's boundary makes the one batched solve."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    A = fixture_matrix("cubic_cusp")
    render_figure(A, N=90)
    render_figure(A, N=90, viewport=(-1.0, 1.0, -1.0, 1.0))
    assert duality_check(A, N=90).boundary_count == 90
    assert calls == []
    boundary_F(SpectralGrid(split(A), 90))
    assert calls == [(90, 3, 3)]


@pytest.mark.parametrize("N", [0, 1, 2])
def test_render_grid_check_is_the_shared_one(N):
    with pytest.raises(ValueError, match="need at least 3 support directions"):
        render_figure(fixture_matrix("disk"), N=N, viewport=(-1.0, 1.0, -1.0, 1.0))
