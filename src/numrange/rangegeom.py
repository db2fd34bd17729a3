"""The numerical range W(A): support function, polygonal hulls, duality checks.

W(A) is approximated from two sides: the inner hull is the convex hull of
rank-one witnesses (eigenvectors realizing the support), the outer hull is
the intersection of the supporting half-planes.  The pairing
1 + x1*y1 + x2*y2 >= 0 between W(A) points and F(A) points is the duality
being verified; complementary pairs sit at antipodal angles of the shared
grid, so `duality_check` takes an even grid size only.  There H(theta + pi) =
-H(theta), so one eigenpair serves both: the complementary witness of the F(A)
boundary sample k, the top eigenvector of row k + N/2, is the bottom
eigenvector of the solve that places the sample.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .exactpoly import GaussianRational, TriPoly
from .hermitian import FloatRangeError, GaussianRationalMatrix, split
from .pencil import PencilCurve, SpectralGrid, _exit_points, _rayleigh

__all__ = [
    "RangeHulls",
    "DualityReport",
    "PolytopeVerdict",
    "support",
    "range_hulls",
    "member_W",
    "duality_check",
    "polytope_detect",
    "convex_hull",
    "polygon_area",
    "hausdorff_outer_to_inner",
    "hulls_csv",
]

MEMBER_TOL = 1e-7        # the support margin of `member_W`, like all below on values over the unit s
GAP_FLOOR = 1e-10        # times max(1, max|witness|): inner/outer coincide to roundoff
DEGENERATE_AREA = 1e-12  # times max(1, max|witness|)**2: the outer hull has no area
CLUSTER_TOL = 1e-8       # times max(1, max|witness|): witnesses of one polytope corner
DEDUPE_TOL = 1e-9        # times 1 + |z|: float eigenvalues of a normal A that are one
PAIRING_TOL = 1e-6       # dimensionless: the pairing 1 + x.y of `duality_check` and `duality --tol`


# -- polygon utilities (work on floats and on exact Fractions alike) -----------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Counter-clockwise convex hull (monotone chain); collinear points dropped."""
    pts = sorted(set((p[0], p[1]) for p in points))
    if len(pts) <= 2:
        return list(pts)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _cycle_hull(P: np.ndarray) -> np.ndarray:
    """`convex_hull` of the rows of an (m, 2) float array in counter-clockwise
    cyclic order, as a float array of `convex_hull`'s rows.

    After consecutive exact repeats are dropped (the first of equal points
    stays, as in `convex_hull`'s set), the cycle is certified in one array
    pass: every turn prev -> cur -> next is strictly left by `_cross`'s own
    float expression, the turn that `convex_hull` tests between neighbours,
    and the turning angles sum below 3*pi, so the cycle winds once.  A
    certified cycle is then its own hull (Graham 1972; Preparata & Shamos,
    section 3.3), and only needs to start at its lexicographically smallest
    vertex.  Any other input goes to `convex_hull`.
    """
    keep = np.ones(len(P), dtype=bool)
    keep[1:] = (P[1:] != P[:-1]).any(axis=1)
    Q = P[keep]
    if len(Q) > 1 and (Q[-1] == Q[0]).all():
        Q = Q[:-1]
    if len(Q) >= 3:
        o, b = np.roll(Q, 1, axis=0), np.roll(Q, -1, axis=0)
        ax, ay = Q[:, 0] - o[:, 0], Q[:, 1] - o[:, 1]
        turn = ax * (b[:, 1] - o[:, 1]) - ay * (b[:, 0] - o[:, 0])
        if (turn > 0).all():
            ex, ey = b[:, 0] - Q[:, 0], b[:, 1] - Q[:, 1]
            if np.arctan2(turn, ax * ex + ay * ey).sum() < 3.0 * math.pi:
                start = int(np.lexsort((Q[:, 1], Q[:, 0]))[0])
                return np.roll(Q, -start, axis=0)
    return np.array(convex_hull(P.tolist()), dtype=float).reshape(-1, 2)


def polygon_area(vertices) -> float:
    """Area of a simple polygon by the shoelace sum."""
    if len(vertices) < 3:
        return 0.0
    V = np.asarray(vertices, dtype=float)
    x, y = V[:, 0], V[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return abs(float((x * yn - xn * y).sum())) / 2.0


def hausdorff_outer_to_inner(outer, inner) -> float:
    """Hausdorff distance between nested convex polygons (outer around inner).

    Both polygons are counter-clockwise and convex, as `convex_hull` returns
    them (one or two vertices allowed), and inner lies inside outer.  For
    nested convex sets K inside L the distance is max over unit u of
    h_L(u) - h_K(u) (Schneider, Convex Bodies, section 1.8).  Between
    consecutive outward edge normals of either polygon the supporting
    vertices p of outer and v of inner are fixed, so there h_L - h_K is
    u . (p - v): its maximum over the arc is |p - v| when p - v points into
    the arc, else the larger endpoint value.  One sort of the merged normal
    angles, then O(N + M) array work; roundoff below zero is clamped.
    """
    if len(outer) == 0:
        return 0.0
    if len(inner) == 0:
        return math.inf
    P = np.asarray(outer, dtype=float)
    V = np.asarray(inner, dtype=float)
    if len(V) == 1:
        return float(np.hypot(P[:, 0] - V[0, 0], P[:, 1] - V[0, 1]).max())
    fans = [_normal_fan(P), _normal_fan(V)]
    lo = np.sort(np.concatenate([angles for angles, _ in fans]))
    hi = np.append(lo[1:], lo[0] + 2.0 * math.pi)
    mid = 0.5 * (lo + hi)
    p, v = (poly[(start + np.searchsorted(angles, mid, side="right")) % len(poly)]
            for poly, (angles, start) in zip((P, V), fans))
    dx, dy = p[:, 0] - v[:, 0], p[:, 1] - v[:, 1]
    ends = np.maximum(np.cos(lo) * dx + np.sin(lo) * dy, np.cos(hi) * dx + np.sin(hi) * dy)
    peak_inside = np.mod(np.arctan2(dy, dx) - lo, 2.0 * math.pi) <= hi - lo
    gaps = np.where(peak_inside, np.hypot(dx, dy), ends)
    return max(0.0, float(gaps.max()))


def _normal_fan(poly: np.ndarray) -> tuple[np.ndarray, int]:
    """Outward edge-normal angles of a CCW convex polygon, ascending, and the
    index r such that angles[j] <= u < angles[j+1] is supported by vertex
    (r + j + 1) mod len(poly) (u below angles[0] or past angles[-1]: vertex r)."""
    e = np.roll(poly, -1, axis=0) - poly
    phi = np.arctan2(-e[:, 0], e[:, 1])
    r = int(np.argmin(phi))
    return np.maximum.accumulate(np.roll(phi, -r)), r


# -- support function and hulls -------------------------------------------------


@dataclass
class RangeHulls:
    """Bounds of W(A) on an N-angle fan: the CCW hulls and the witnesses as
    (m, 2) float arrays, one (x, y) row each, the support values as (N,)."""
    inner: np.ndarray
    outer: np.ndarray
    N: int
    degenerate: bool = False
    witnesses: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    support_values: np.ndarray = field(default_factory=lambda: np.empty(0))


def support(grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """(h, witnesses): the support values of W(A) over the grid's angles, h_k =
    lambda_max(H_k), and their rank-one witnesses, the (N, 2) array of the W(A)
    points (v*A1v, v*A2v) of the top eigenvectors v."""
    return tuple(a * grid.pencil.unit for a in _support(grid))


def _support(grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """`support` over the pencil's unit s."""
    return grid.eigvals[:, -1], _rayleigh(grid.pencil, grid.eigvecs[:, :, -1])


def _outer_polygon(cos: np.ndarray, sin: np.ndarray, h: np.ndarray):
    """Intersection of the supporting half-planes {x . u(theta_k) <= h_k}, as a hull."""
    return _cycle_hull(_outer_vertices(cos, sin, h))


def _outer_vertices(cos: np.ndarray, sin: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The vertices of `_outer_polygon` before the hull, an (N, 2) array in angle order.

    Precondition: h is a support function sampled on a fan whose angles
    increase around the circle with gaps below pi, as on every spectral grid.
    Then every supporting line touches W(A) (at its rank-one witness), no
    half-plane is redundant, and the intersection's vertices are the N points
    C[k] where the lines of neighbouring angles k, k+1 meet.  Should roundoff
    break the precondition, `_cycle_hull` still returns a convex polygon that
    contains W(A).
    """
    cos_n, sin_n, h_n = np.roll(cos, -1), np.roll(sin, -1), np.roll(h, -1)  # next angle
    det = cos * sin_n - sin * cos_n  # sin of the angle gap, never 0
    return np.stack([(h * sin_n - h_n * sin) / det, (cos * h_n - cos_n * h) / det], axis=1)


def range_hulls(grid: SpectralGrid) -> RangeHulls:
    """Inner (witness hull) and outer (half-plane) polygonal bounds for W(A)."""
    return _hulls_of(grid, *_support(grid), grid.pencil.unit)


def _hulls_of(grid: SpectralGrid, h: np.ndarray, wit: np.ndarray, s: float = 1.0) -> RangeHulls:
    """The hulls of the grid from its support values h and witnesses wit in the unit, times s."""
    inner = _cycle_hull(wit)
    outer = _outer_polygon(grid.cos, grid.sin, h)
    scale = max(1.0, float(np.abs(wit).max()))
    degenerate = polygon_area(outer) <= DEGENERATE_AREA * scale * scale
    return RangeHulls(inner=inner * s, outer=outer * s, N=len(h), degenerate=degenerate,
                      witnesses=wit * s, support_values=h * s)


def hulls_csv(hulls: RangeHulls) -> str:
    """CSV per the hull interface: kind{inner|outer},vertex_index,x1,x2, each
    polygon read as an (m, 2) float array (pairs too) and printed by column."""
    lines, values = ["kind,vertex_index,x1,x2"], []
    for kind, poly in (("inner", hulls.inner), ("outer", hulls.outer)):
        V = np.asarray(poly, dtype=float).reshape(-1, 2)
        lines += [kind + ",%d,%.12g,%.12g"] * len(V)
        block = [None] * (3 * len(V))
        block[0::3] = range(len(V))
        block[1::3] = V[:, 0].tolist()
        block[2::3] = V[:, 1].tolist()
        values += block
    return ("\n".join(lines) + "\n") % tuple(values)


def member_W(A: GaussianRationalMatrix, x, N: int = 720,
             tol: float = MEMBER_TOL) -> bool:
    """Membership via the support oracle, with one refinement pass.

    The margin is min over angles of h(theta) - x . u(theta), refined on a
    fine fan around the grid minimum; x is in W(A) when it is >= -tol*s, s the pencil's unit.
    """
    grid = SpectralGrid(split(A), N)
    x1, x2 = float(x[0]) / grid.pencil.unit, float(x[1]) / grid.pencil.unit
    g = grid.eigvals[:, -1] - x1 * grid.cos - x2 * grid.sin
    k = int(np.argmin(g))
    mesh = 2.0 * math.pi / N
    local = SpectralGrid.at(grid.pencil, grid.thetas[k] + np.linspace(-mesh, mesh, 65))
    gl = local.eigvals[:, -1] - x1 * local.cos - x2 * local.sin
    return float(min(g.min(), gl.min())) >= -tol


# -- duality --------------------------------------------------------------------


@dataclass
class DualityReport:
    N: int
    tol: float
    pairing_min: float
    complementary_worst: float
    gap_at_N: float
    gap_at_2N: float
    gap_decreased: bool
    boundary_count: int
    unbounded_count: int
    pairing_ok: bool = False
    complementary_ok: bool = False

    @property
    def ok(self) -> bool:
        return self.pairing_ok and self.complementary_ok and self.gap_decreased

    def to_text(self) -> str:
        rows = [
            ("N", self.N),
            ("tol", f"{self.tol:.3g}"),
            ("boundary_samples", self.boundary_count),
            ("unbounded_rays", self.unbounded_count),
            ("pairing_min", f"{self.pairing_min:.6e}"),
            ("pairing_ok", str(self.pairing_ok).lower()),
            ("complementary_worst", f"{self.complementary_worst:.6e}"),
            ("complementary_ok", str(self.complementary_ok).lower()),
            ("hausdorff_gap_N", f"{self.gap_at_N:.6e}"),
            ("hausdorff_gap_2N", f"{self.gap_at_2N:.6e}"),
            ("gap_decreased", str(self.gap_decreased).lower()),
            ("ok", str(self.ok).lower()),
        ]
        return "".join(f"{k}={v}\n" for k, v in rows)


def duality_check(A: GaussianRationalMatrix, N: int = 720,
                  tol: float = PAIRING_TOL) -> DualityReport:
    """Verify the W(A)/F(A) pairing on matched angle grids.

    (a) 1 + x.y >= -tol for every witness x and boundary sample y;
    (b) every boundary sample has a complementary witness with pairing <= tol;
    (c) the inner/outer Hausdorff gap shrinks when the grid doubles, unless
        both gaps are roundoff: at most GAP_FLOOR * max(1, max|witness|) over s.
    One 2N grid serves both levels, from one eigh of its N angles below pi
    (`SpectralGrid` reflects the rest), and one Rayleigh pass; (a) and (b)
    take O(N) memory.
    N must be even: an odd grid has no antipodal angles, so the complementary
    witness of a boundary sample is not on it and (b) would fail on any input.
    """
    if N < 16:
        raise ValueError("need N >= 16")
    if N % 2:
        raise ValueError(f"duality needs an even grid, with antipodal angles (got {N})")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite (got {tol})")
    fine = SpectralGrid(split(A), 2 * N)
    grid = fine.every_other()
    k, _, y1, y2 = _exit_points(grid)
    h, wit = _support(fine)               # one Rayleigh pass; the N-grid is rows [::2]
    hulls1 = _hulls_of(grid, h[::2], wit[::2])
    hulls2 = _hulls_of(fine, h, wit)
    gap1 = hausdorff_outer_to_inner(hulls1.outer, hulls1.inner)
    gap2 = hausdorff_outer_to_inner(hulls2.outer, hulls2.inner)
    floor = GAP_FLOOR * max(1.0, float(np.abs(hulls1.witnesses).max()))
    decreased = gap2 < gap1 or (gap1 <= floor and gap2 <= floor)
    row_min = (_pairing_row_min(np.stack((y1, y2), axis=1), hulls1.witnesses)
               if k.size else np.zeros(1))   # no bounded ray: both report 0
    pairing_min, complementary_worst = float(row_min.min()), float(row_min.max())
    return DualityReport(
        N=N, tol=tol,
        pairing_min=pairing_min,
        complementary_worst=complementary_worst,
        gap_at_N=gap1 * fine.pencil.unit, gap_at_2N=gap2 * fine.pencil.unit, gap_decreased=decreased,
        boundary_count=k.size, unbounded_count=N - k.size,
        pairing_ok=pairing_min >= -tol,
        complementary_ok=complementary_worst <= tol,
    )


def _pairing_row_min(Y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """min over the rows x of W of 1 + y.x for each of the K >= 1 rows y of Y, in O(N) memory:
    ceil(K/128) row blocks of >= 2 rows when K >= 2 keep the gemm rounding of Y @ W.T (one row
    takes gemv), and min fl(1 + z) = fl(1 + min z) bit for bit, as rounding is monotone."""
    blocks = np.array_split(Y, -(-len(Y) // 128))
    return 1.0 + np.concatenate([(Yb @ W.T).min(axis=1) for Yb in blocks])


# -- polytope detection ----------------------------------------------------------


@dataclass(frozen=True)
class PolytopeVerdict:
    kind: str                       # "polytope" | "smooth" | "mixed/unknown"
    vertices: tuple | None = None   # exact Fractions when exact=True
    exact: bool = False


def polytope_detect(curve: PencilCurve, N: int = 360) -> PolytopeVerdict:
    """Detect polytopic numerical ranges from the pencil curve of A, pencil_det(split(A)).

    Normal matrices: W(A) is the convex hull of the spectrum; eigenvalues are
    exact when they are Gaussian rational (certified against p by
    `_certified_spectrum`, which raises FloatRangeError when they are not
    finite), numeric otherwise.  Non-normal matrices: best-effort clustering
    of the witnesses of `SpectralGrid(pencil, N)`, whose even fan solves
    only its angles below pi, as the verdict prints no hull; "mixed/unknown"
    is a legal verdict.
    """
    pencil, s = curve.pencil, curve.pencil.unit
    spectrum = _certified_spectrum(curve)
    if spectrum is None:
        v = _witness_verdict(_support(SpectralGrid(pencil, N))[1])
    elif spectrum[1] is not None:
        verts = convex_hull([(z.re, z.im) for z in spectrum[1]])
        return PolytopeVerdict(kind="polytope", vertices=tuple(verts), exact=True)
    else:
        # A = A1 is Hermitian: W(A) is a segment of the real axis, with no eigvals noise off it
        eigs = np.linalg.eigvalsh(pencil.float_parts()[0]) if pencil.A2.is_zero() else spectrum[0] / s
        verts = convex_hull([(float(z.real), float(z.imag)) for z in _dedupe(eigs)])
        v = PolytopeVerdict(kind="polytope", vertices=tuple(verts))
    return replace(v, vertices=v.vertices and tuple((x * s, y * s) for x, y in v.vertices))


def _witness_verdict(wit: np.ndarray) -> PolytopeVerdict:
    """The verdict on a non-normal A from the witnesses of its N-angle fan, (N, 2)
    in angle order, in the pencil's unit as are the vertices: "polytope" when runs
    of three or more witnesses, at least three of them, hold 0.9*N of the
    witnesses (the vertices are their means), "smooth" when no run is longer
    than two, "mixed/unknown" otherwise."""
    N = len(wit)
    starts, lengths = _witness_clusters(wit, CLUSTER_TOL * max(1.0, float(np.abs(wit).max())))
    big = lengths >= 3
    if big.sum() >= 3 and lengths[big].sum() >= 0.9 * N:
        runs = (wit.take(np.arange(i, i + k), axis=0, mode="wrap")
                for i, k in zip(starts[big].tolist(), lengths[big].tolist()))
        verts = convex_hull([tuple(run.mean(axis=0).tolist()) for run in runs])
        return PolytopeVerdict(kind="polytope", vertices=tuple(verts), exact=False)
    if lengths.max() <= 2:
        return PolytopeVerdict(kind="smooth")
    return PolytopeVerdict(kind="mixed/unknown")


def _witness_clusters(wit: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the runs of witnesses (one row each, in angle
    order) each within tol of the one before it.  The last run joins the
    first when the fan closes within tol: the joined run starts where the
    last one did and wraps past the last witness."""
    step = np.diff(wit, axis=0)
    starts = np.flatnonzero(np.concatenate(([True], ~(np.hypot(step[:, 0], step[:, 1]) <= tol))))
    lengths = np.diff(starts, append=len(wit))
    if len(starts) > 1 and np.hypot(*(wit[0] - wit[-1])) <= tol:
        starts[0] = starts[-1]
        lengths[0] += lengths[-1]
        starts, lengths = starts[:-1], lengths[:-1]
    return starts, lengths


def _certified_spectrum(curve: PencilCurve) -> tuple[np.ndarray, list[GaussianRational] | None] | None:
    """None for a pencil whose A = A1 + i*A2 is not normal, else (eigs, exact):
    the float eigenvalues of A, and the Gaussian rationals they round to when
    those are proven to be its spectrum, else None.  FloatRangeError when A
    is beyond the float range or eigs are not finite, LinAlgError when the
    eigensolver fails.  Its callers are `polytope_detect` (classify's
    vertices) and `cli.cmd_dual`, which refuses a proven product of linear
    forms before any elimination (`dualcurve._refuse_product_of_forms`).

    A1 and A2 of a normal A are diagonal in one unitary basis, so its pencil
    determinant p(y) = det(y0*I + y1*A1 + y2*A2) is the product of the linear
    forms y0 + a_j*y1 + b_j*y2 over its eigenvalues a_j + i*b_j, and p(t, -1, -i)
    = det(t*I - A).  If D clears the denominators of A, or those of every
    coefficient of the monic det(t*I - A), then D*z is a Gaussian integer for
    every Gaussian-rational eigenvalue z (Z[i] is integrally closed), and so
    it is for the gcd of two such D.  The denominator of p's content clears
    every coefficient of p, hence of det(t*I - A).  The float eigenvalues are
    rounded to that lattice and accepted only if the product of their linear
    forms equals p; at y = (t, -1, -i) it is prod (t - z_j) = det(t*I - A).
    That exact check is a proof for any A; normality only makes the rounding
    succeed.
    """
    pencil, p = curve.pencil, curve.p
    if not pencil.normal:
        return None
    A = pencil.A1 + pencil.A2.scale(GaussianRational.I)   # A's own store, so its floats
    eigs = np.linalg.eigvals(A.to_complex())
    if not np.isfinite(eigs).all():
        raise FloatRangeError("the float eigenvalues of A are not finite: its entries are too "
                              f"close to the largest float, {sys.float_info.max:.3g}")
    D = math.gcd(A.L, p.content.denominator)
    roots = [(round(Fraction(z.real) * D), round(Fraction(z.imag) * D)) for z in eigs]
    prod = {(0, 0, 0): 1}  # D^n times the product of the forms, on ints
    for a, b in roots:
        out = {}
        for (e0, e1, e2), v in prod.items():
            for e, c in (((e0 + 1, e1, e2), D), ((e0, e1 + 1, e2), a), ((e0, e1, e2 + 1), b)):
                out[e] = out.get(e, 0) + c * v
        prod = out
    if TriPoly._from_ints(p.vars, prod, Fraction(1, D ** len(roots))) != p:
        return eigs, None
    return eigs, [GaussianRational(Fraction(a, D), Fraction(b, D)) for a, b in roots]


def _dedupe(zs):
    """The values zs (in the pencil's unit) without those within DEDUPE_TOL*(1 + |z|) of a kept one."""
    out = []
    for z in zs:
        if not any(abs(z - w) <= DEDUPE_TOL * (1.0 + abs(z)) for w in out):
            out.append(z)
    return out
