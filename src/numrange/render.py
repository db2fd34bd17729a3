"""Deterministic SVG rendering of the primal/dual picture.

One figure, two panels: the LMI set F(A) with the pencil curve p = 0 on the
left, the numerical range W(A) with the dual curve on the right.  Curves are
traced on one spectral grid, without the exact p: every ray through the
origin meets p = 0 at its nonzero eigenvalues, and the dual curve at the
Rayleigh pairs of their eigenvectors.  Each curve branch is one array of
points in angle order, cut into polylines by array masks (viewport and
jumps), and every polyline is formatted in one call.  No timestamps, fixed
float formatting: same input, same bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .dualcurve import dual_sample
from .hermitian import GaussianRationalMatrix, split
from .pencil import SpectralGrid, _exit_points, _uniform_fan
from .rangegeom import _outer_polygon

__all__ = ["ViewportRequiredError", "render_figure"]


class ViewportRequiredError(ValueError):
    """F(A) is unbounded and no clipping viewport was given."""


CLIP_SPANS = 1024.0   # polygons and dots are clipped this many view spans beyond the view


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _clip(P: np.ndarray, box) -> np.ndarray:
    """The part of the polygon P, an (m, 2) array, in box = (x0, x1, y0, y1), by
    Sutherland-Hodgman: P itself when inside; each new vertex, on the box, mixes
    an edge's two ends, so it is finite."""
    for axis, bound, sign in ((0, box[0], 1.0), (0, box[1], -1.0), (1, box[2], 1.0), (1, box[3], -1.0)):
        s = sign * (P[:, axis] / 4 - bound / 4)   # >= 0 inside; quartered, so no difference overflows
        inside = s >= 0
        if inside.all():
            continue
        s_prev, cross = np.roll(s, 1), inside != np.roll(inside, 1)
        a = (s_prev[cross] / (s_prev[cross] - s[cross]))[:, None]
        cut = P.copy()
        cut[cross] = np.roll(P, 1, axis=0)[cross] * (1 - a) + P[cross] * a
        cut[:, axis] = bound
        P = np.stack((cut, P), axis=1)[np.stack((cross, inside), axis=1)]
    return P


class _Panel:
    """World-to-pixel mapping for one square panel."""

    def __init__(self, x0: float, y0: float, size: float, view):
        self.px, self.py, self.size = x0, y0, size
        vx0, vx1, vy0, vy1 = view
        span = max(vx1 - vx0, vy1 - vy0)
        cx, cy = (vx0 + vx1) / 2, (vy0 + vy1) / 2
        self.view = (cx - span / 2, cx + span / 2, cy - span / 2, cy + span / 2)
        self.scale = size / span
        pad = CLIP_SPANS * span   # a point in the box maps within CLIP_SPANS panel sizes
        self.box = (self.view[0] - pad, self.view[1] + pad, self.view[2] - pad, self.view[3] + pad)

    def map(self, pts):
        """Pixel coordinates (x, y) of one point, or arrays of them for a list."""
        P = np.asarray(pts, dtype=float)
        return (self.px + (P[..., 0] - self.view[0]) * self.scale,
                self.py + (self.view[3] - P[..., 1]) * self.scale)

    def coords(self, pts) -> str:
        """The mapped points as "x,y x,y ...", each number as `_fmt` writes it."""
        x, y = self.map(pts)
        return " ".join(["%.6f,%.6f"] * len(x)) % tuple(np.stack((x, y), axis=1).ravel().tolist())

    def polygon(self, pts, fill, stroke, width=1.0, dash=None):
        pts = _clip(np.asarray(pts, dtype=float).reshape(-1, 2), self.box)
        if not len(pts):
            return ""
        coords = self.coords(pts)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" '
                f'stroke-width="{_fmt(width)}"{dash_attr}/>')

    def polyline(self, pts, stroke, width=1.2):
        if len(pts) < 2:
            return ""
        coords = self.coords(pts)
        return (f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
                f'stroke-width="{_fmt(width)}"/>')

    def dot(self, pt, r, fill):
        if not len(_clip(np.asarray(pt, dtype=float).reshape(1, 2), self.box)):
            return ""
        px, py = self.map(pt)
        return f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(r)}" fill="{fill}"/>'

    def axes(self):
        out = []
        vx0, vx1, vy0, vy1 = self.view
        if vx0 <= 0 <= vx1:
            a = self.map((0, vy0))
            b = self.map((0, vy1))
            out.append(f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
                       f'y2="{_fmt(b[1])}" stroke="#bbbbbb" stroke-width="0.7"/>')
        if vy0 <= 0 <= vy1:
            a = self.map((vx0, 0))
            b = self.map((vx1, 0))
            out.append(f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
                       f'y2="{_fmt(b[1])}" stroke="#bbbbbb" stroke-width="0.7"/>')
        out.append(f'<rect x="{_fmt(self.px)}" y="{_fmt(self.py)}" width="{_fmt(self.size)}" '
                   f'height="{_fmt(self.size)}" fill="none" stroke="#333333" stroke-width="1"/>')
        return "".join(out)


def _bbox(points, margin: float = 0.1):
    P = np.asarray(points, dtype=float)
    (x0, y0), (x1, y1) = P.min(axis=0).tolist(), P.max(axis=0).tolist()
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    return (x0 - margin * dx, x1 + margin * dx, y0 - margin * dy, y1 + margin * dy)


def _branch_segments(branches, panel):
    """Split each branch where it leaves the viewport (with a quarter of its
    width as slack) or jumps by more than half its diagonal.

    A branch is an (m, 2) array in curve order, NaN rows where it has no
    point; the segments are its maximal runs of at least two kept points
    without a jump, as array slices.
    """
    segs = []
    vx0, vx1, vy0, vy1 = panel.view
    dx, dy = (vx1 - vx0) * 0.25, (vy1 - vy0) * 0.25
    jump = 0.5 * math.hypot(vx1 - vx0, vy1 - vy0)
    for P in branches:
        x, y = P[:, 0], P[:, 1]
        ok = (vx0 - dx <= x) & (x <= vx1 + dx) & (vy0 - dy <= y) & (y <= vy1 + dy)
        # point i continues the run of point i - 1
        cont = np.zeros(len(ok), dtype=bool)
        cont[1:] = ok[1:] & ok[:-1] & ~(np.hypot(np.diff(x), np.diff(y)) > jump)
        starts = np.flatnonzero(~cont)
        ends = np.append(starts[1:], len(P))
        long = ends - starts >= 2
        segs += [P[a:b] for a, b in zip(starts[long].tolist(), ends[long].tolist())]
    return segs


def _primal_branches(grid: SpectralGrid) -> np.ndarray:
    """Points of p(1,.,.) = 0 along the grid's rays, one branch per eigenvalue
    index: an (n, N, 2) array, NaN where a ray has no root of that index."""
    branches = np.full((grid.pencil.n, len(grid.thetas), 2), np.nan)
    k, idx, t = grid.line_roots()
    branches[idx, k, 0], branches[idx, k, 1] = t * grid.cos[k], t * grid.sin[k]
    return branches


def _dual_branches(grid: SpectralGrid) -> list[np.ndarray]:
    """The dual samples of each root index in angle order, NaN where a
    sample has no chart point."""
    samp = dual_sample(grid)
    P = np.stack((samp.x, samp.y), axis=1)
    return [P[samp.root_index == i] for i in range(grid.pencil.n)]


def render_figure(A: GaussianRationalMatrix, N: int = 720,
                  viewport=None) -> str:
    """Render the two-panel figure; returns the SVG document.

    F(A) is the polygon of the grid's ray exits and W(A) its dashed outer
    hull; both curves are traced on at least 360 rays.  An unbounded F(A)
    needs `viewport` (x1min, x1max, x2min, x2max), which then frames both
    panels; without it each panel frames its own set.
    """
    pencil = split(A)
    # the outer polygon solves every angle (see SpectralGrid)
    grid = SpectralGrid.at(pencil, *_uniform_fan(N))
    k, _, y1, y2 = _exit_points(grid)
    f_pts = np.stack((y1, y2), axis=1) / pencil.unit
    unbounded = len(k) < N
    if unbounded and viewport is None:
        raise ViewportRequiredError(
            "F(A) is unbounded; pass an explicit viewport x1min,x1max,x2min,x2max")
    outer = _outer_polygon(grid.cos, grid.sin, grid.eigvals[:, -1]) * pencil.unit
    left_view = viewport if viewport is not None else _bbox(f_pts)
    right_view = viewport if viewport is not None else _bbox(outer)
    # both curves are traced on at least 360 rays
    curve_grid = grid if N >= 360 else SpectralGrid.at(pencil, *_uniform_fan(360))

    size, pad = 420.0, 30.0
    width, height = 2 * size + 3 * pad, size + 2 * pad
    left = _Panel(pad, pad, size, left_view)
    right = _Panel(2 * pad + size, pad, size, right_view)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
    ]

    # left: F(A) region + pencil curve
    if len(f_pts) >= 3 and not unbounded:
        parts.append(left.polygon(f_pts, fill="#cccccc", stroke="none"))
    elif len(f_pts):
        parts.append(left.polygon(f_pts, fill="#cccccc", stroke="#888888"))
    for seg in _branch_segments(_primal_branches(curve_grid), left):
        parts.append(left.polyline(seg, stroke="#000000"))
    parts.append(left.axes())

    # right: W(A) region + dual curve
    if len(outer) >= 3:
        parts.append(right.polygon(outer, fill="#cccccc", stroke="#555555",
                                   width=1.0, dash="6,4"))
    else:
        parts += [right.dot(p, 3.0, "#555555") for p in outer]
    for seg in _branch_segments(_dual_branches(curve_grid), right):
        parts.append(right.polyline(seg, stroke="#000000"))
    parts.append(right.axes())

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
