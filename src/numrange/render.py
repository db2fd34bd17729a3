"""Deterministic SVG rendering of the primal/dual picture.

One figure, two panels: the LMI set F(A) with the pencil curve p = 0 on the
left, the numerical range W(A) with the dual curve on the right.  Curves are
traced by intersecting every ray through the origin with p = 0 (all real
roots come from pencil eigenvalues) and, on the dual side, by gradient
images.  No timestamps, fixed float formatting: same input, same bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .dualcurve import _grid_dual_sample
from .hermitian import GaussianRationalMatrix, split
from .pencil import PencilCurve, SpectralGrid, _grid_boundary, pencil_det
from .rangegeom import _grid_hulls

__all__ = ["ViewportRequiredError", "render_figure"]


class ViewportRequiredError(ValueError):
    """F(A) is unbounded and no clipping viewport was given."""


def _fmt(v: float) -> str:
    return f"{v:.6f}"


class _Panel:
    """World-to-pixel mapping for one square panel."""

    def __init__(self, x0: float, y0: float, size: float, view):
        self.px, self.py, self.size = x0, y0, size
        vx0, vx1, vy0, vy1 = view
        span = max(vx1 - vx0, vy1 - vy0)
        cx, cy = (vx0 + vx1) / 2, (vy0 + vy1) / 2
        self.view = (cx - span / 2, cx + span / 2, cy - span / 2, cy + span / 2)
        self.scale = size / span

    def map(self, pts):
        """Pixel coordinates (x, y) of one point, or arrays of them for a list."""
        P = np.asarray(pts, dtype=float)
        return (self.px + (P[..., 0] - self.view[0]) * self.scale,
                self.py + (self.view[3] - P[..., 1]) * self.scale)

    def contains(self, pt, slack: float = 0.0) -> bool:
        x, y = float(pt[0]), float(pt[1])
        vx0, vx1, vy0, vy1 = self.view
        dx = (vx1 - vx0) * slack
        dy = (vy1 - vy0) * slack
        return vx0 - dx <= x <= vx1 + dx and vy0 - dy <= y <= vy1 + dy

    def coords(self, pts) -> str:
        """The mapped points as "x,y x,y ...", each number as `_fmt` writes it."""
        x, y = self.map(pts)
        return " ".join(["%.6f,%.6f"] * len(x)) % tuple(np.stack((x, y), axis=1).ravel().tolist())

    def polygon(self, pts, fill, stroke, width=1.0, dash=None):
        if not pts:
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
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    return (x0 - margin * dx, x1 + margin * dx, y0 - margin * dy, y1 + margin * dy)


def _branch_segments(branches, panel):
    """Split each branch polyline where it leaves the viewport or jumps."""
    segs = []
    vx0, vx1, vy0, vy1 = panel.view
    jump = 0.5 * math.hypot(vx1 - vx0, vy1 - vy0)
    for pts in branches:
        cur = []
        prev = None
        for p in pts:
            ok = p is not None and panel.contains(p, slack=0.25)
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


def _primal_branches(grid: SpectralGrid):
    """Points of p(1,.,.) = 0 along the grid's rays, one branch per eigenvalue index."""
    branches = [[None] * len(grid.thetas) for _ in range(grid.pencil.n)]
    k, idx, t = grid.line_roots()
    for kk, i, y1, y2 in zip(k.tolist(), idx.tolist(), (t * grid.cos[k]).tolist(),
                             (t * grid.sin[k]).tolist()):
        branches[i][kk] = (y1, y2)
    return branches


def _dual_branches(curve: PencilCurve, grid: SpectralGrid):
    samp = _grid_dual_sample(curve, grid)
    n = curve.pencil.n
    branches = [[] for _ in range(n)]
    for s in samp.samples:
        if s.root_index is not None:
            branches[s.root_index].append(s.point)
    return branches


def render_figure(A: GaussianRationalMatrix, N: int = 720,
                  viewport=None) -> str:
    """Render the two-panel figure; returns the SVG document."""
    if N < 3:
        raise ValueError("need at least 3 angles")
    pencil = split(A)
    curve = pencil_det(pencil)
    grid = SpectralGrid(pencil, N)
    boundary = _grid_boundary(grid)
    f_pts = boundary.finite_points()
    unbounded = boundary.all_unbounded or len(f_pts) < len(boundary.samples)
    if unbounded and viewport is None:
        raise ViewportRequiredError(
            "F(A) is unbounded; pass an explicit viewport x1min,x1max,x2min,x2max")
    hulls = _grid_hulls(grid)
    left_view = viewport if viewport is not None else _bbox(f_pts)
    w_pts = hulls.outer or hulls.inner or hulls.witnesses
    right_view = viewport if viewport is not None else _bbox(w_pts)
    # both curves are traced on at least 360 rays
    curve_grid = grid if N >= 360 else SpectralGrid(pencil, 360)

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
    elif f_pts:
        parts.append(left.polygon(f_pts, fill="#cccccc", stroke="#888888"))
    for seg in _branch_segments(_primal_branches(curve_grid), left):
        parts.append(left.polyline(seg, stroke="#000000"))
    parts.append(left.axes())

    # right: W(A) region + dual curve
    if len(hulls.outer) >= 3:
        parts.append(right.polygon(hulls.outer, fill="#cccccc", stroke="#555555",
                                   width=1.0, dash="6,4"))
    elif hulls.outer or hulls.witnesses:
        for p in (hulls.outer or hulls.witnesses[:1]):
            parts.append(right.dot(p, 3.0, "#555555"))
    for seg in _branch_segments(_dual_branches(curve, curve_grid), right):
        parts.append(right.polyline(seg, stroke="#000000"))
    parts.append(right.axes())

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
