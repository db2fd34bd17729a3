"""The numerical range W(A): support function, polygonal hulls, duality checks.

W(A) is approximated from two sides: the inner hull is the convex hull of
rank-one witnesses (eigenvectors realizing the support), the outer hull is
the intersection of the supporting half-planes.  The pairing
1 + x1*y1 + x2*y2 >= 0 between W(A) points and F(A) points is the duality
being verified; complementary pairs sit at antipodal angles of the shared
grid (use an even grid size for exact pairing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactpoly import GaussianRational
from .hermitian import GaussianRationalMatrix, charpoly, is_normal, split
from .pencil import SpectralGrid, _grid_boundary

__all__ = [
    "SupportSample",
    "RangeHulls",
    "DualityReport",
    "PolytopeVerdict",
    "support",
    "range_hulls",
    "member_W",
    "duality_check",
    "polytope_detect",
    "translate_scale_law",
    "convex_hull",
    "polygon_is_convex",
    "polygon_area",
    "point_to_polygon_distance",
    "hausdorff_outer_to_inner",
    "polygon_support",
    "hulls_csv",
]

MEMBER_TOL = 1e-7
GAP_FLOOR = 1e-10   # below this, inner/outer already coincide to roundoff


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


def polygon_is_convex(vertices, tol: float = 0.0) -> bool:
    n = len(vertices)
    if n <= 2:
        return True
    scale = max(max(abs(float(x)), abs(float(y))) for x, y in vertices) or 1.0
    for i in range(n):
        c = _cross(vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n])
        if float(c) < -tol * scale * scale:
            return False
    return True


def polygon_area(vertices) -> float:
    n = len(vertices)
    if n < 3:
        return 0.0
    s = 0.0
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        s += float(x1) * float(y2) - float(x2) * float(y1)
    return abs(s) / 2.0


def _point_segment_dist(p, a, b) -> float:
    px, py = float(p[0]), float(p[1])
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    vx, vy = bx - ax, by - ay
    L2 = vx * vx + vy * vy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / L2))
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))


def point_to_polygon_distance(p, vertices) -> float:
    """Distance from p to a convex polygon (0 inside)."""
    n = len(vertices)
    if n == 0:
        return math.inf
    if n == 1:
        return math.hypot(float(p[0]) - float(vertices[0][0]),
                          float(p[1]) - float(vertices[0][1]))
    if n == 2:
        return _point_segment_dist(p, vertices[0], vertices[1])
    inside = True
    for i in range(n):
        if float(_cross(vertices[i], vertices[(i + 1) % n], p)) < 0.0:
            inside = False
            break
    if inside:
        return 0.0
    return min(_point_segment_dist(p, vertices[i], vertices[(i + 1) % n])
               for i in range(n))


def hausdorff_outer_to_inner(outer, inner) -> float:
    """Directed Hausdorff distance for nested convex polygons (outer around inner).

    Outer vertices cannot lie strictly inside the inner polygon (nested convex
    sets), so the distance to the inner boundary is the distance to the set.
    """
    if not outer:
        return 0.0
    if not inner:
        return math.inf
    P = np.array([[float(x), float(y)] for x, y in outer])
    V = np.array([[float(x), float(y)] for x, y in inner])
    if len(V) == 1:
        return float(np.hypot(P[:, 0] - V[0, 0], P[:, 1] - V[0, 1]).max())
    A = V
    B = np.roll(V, -1, axis=0)
    AB = B - A
    L2 = (AB ** 2).sum(axis=1)
    L2safe = np.where(L2 > 0, L2, 1.0)
    AP = P[:, None, :] - A[None, :, :]
    t = np.clip((AP * AB[None, :, :]).sum(axis=-1) / L2safe, 0.0, 1.0)
    proj = A[None, :, :] + t[:, :, None] * AB[None, :, :]
    d = np.sqrt(((P[:, None, :] - proj) ** 2).sum(axis=-1)).min(axis=1)
    return float(d.max())


def polygon_support(vertices, thetas) -> np.ndarray:
    """Support function of the polygon at the given angles."""
    V = np.array([[float(x), float(y)] for x, y in vertices])
    U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    return (U @ V.T).max(axis=1)


# -- support function and hulls -------------------------------------------------


@dataclass(frozen=True)
class SupportSample:
    theta: float
    h: float
    witness: tuple[float, float]


@dataclass
class RangeHulls:
    inner: list[tuple[float, float]]
    outer: list[tuple[float, float]]
    N: int
    degenerate: bool = False
    witnesses: list[tuple[float, float]] = field(default_factory=list)
    support_values: list[float] = field(default_factory=list)


def support(A: GaussianRationalMatrix, theta: float) -> SupportSample:
    """Support of W(A) in direction theta, with a rank-one witness point.

    A one-angle spectral grid: h is lambda_max of cos*A1 + sin*A2 and the
    witness is the W(A) point of its top eigenvector.
    """
    h, wit = _support_grid(SpectralGrid.at(split(A), [theta]))
    return SupportSample(theta=theta, h=float(h[0]), witness=(float(wit[0, 0]), float(wit[0, 1])))


def _support_grid(grid: SpectralGrid):
    """Support values and rank-one witnesses over the grid's angles."""
    f1, f2 = grid.pencil.float_parts()
    top = grid.eigvecs[:, :, -1]
    x1 = np.einsum("bi,ij,bj->b", top.conj(), f1, top).real
    x2 = np.einsum("bi,ij,bj->b", top.conj(), f2, top).real
    return grid.eigvals[:, -1], np.stack([x1, x2], axis=1)


def _outer_polygon(cos: np.ndarray, sin: np.ndarray, h: np.ndarray):
    """Intersection of the supporting half-planes {x . u(theta) <= h}."""
    cos_n, sin_n, h_n = np.roll(cos, -1), np.roll(sin, -1), np.roll(h, -1)  # next angle
    det = cos * sin_n - sin * cos_n  # sin of the angle gap, never 0
    C = np.stack([(h * sin_n - h_n * sin) / det, (cos * h_n - cos_n * h) / det], axis=1)
    scale = max(1.0, float(np.abs(C).max()))
    feas = (C[:, 0][:, None] * cos[None, :] + C[:, 1][:, None] * sin[None, :]
            <= h[None, :] + 1e-9 * scale).all(axis=1)
    kept = [tuple(pt) for pt in C[feas]]
    return convex_hull(kept)


def range_hulls(A: GaussianRationalMatrix, N: int) -> RangeHulls:
    """Inner (witness hull) and outer (half-plane) polygonal bounds for W(A)."""
    if N < 3:
        raise ValueError("need at least 3 support directions")
    return _grid_hulls(SpectralGrid(split(A), N))


def _grid_hulls(grid: SpectralGrid) -> RangeHulls:
    h, wit = _support_grid(grid)
    witnesses = [tuple(map(float, p)) for p in wit]
    inner = convex_hull(witnesses)
    outer = _outer_polygon(grid.cos, grid.sin, h)
    scale = max(1.0, float(np.abs(wit).max()))
    degenerate = polygon_area(outer) <= 1e-12 * scale * scale
    return RangeHulls(inner=inner, outer=outer, N=len(h), degenerate=degenerate,
                      witnesses=witnesses, support_values=[float(v) for v in h])


def hulls_csv(hulls: RangeHulls) -> str:
    """CSV per the hull interface: kind{inner|outer},vertex_index,x1,x2."""
    lines = ["kind,vertex_index,x1,x2"]
    for kind, poly in (("inner", hulls.inner), ("outer", hulls.outer)):
        for i, (x, y) in enumerate(poly):
            lines.append(f"{kind},{i},{x:.12g},{y:.12g}")
    return "\n".join(lines) + "\n"


def member_W(A: GaussianRationalMatrix, x, N: int = 720,
             tol: float = MEMBER_TOL) -> bool:
    """Membership via the support oracle, with one refinement pass.

    The margin is min over angles of h(theta) - x . u(theta), refined on a
    fine fan around the grid minimum.
    """
    x1, x2 = float(x[0]), float(x[1])
    grid = SpectralGrid(split(A), N)
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
                  tol: float = 1e-6) -> DualityReport:
    """Verify the W(A)/F(A) pairing on matched angle grids.

    (a) 1 + x.y >= -tol for every witness x and boundary sample y;
    (b) every boundary sample has a complementary witness with pairing <= tol;
    (c) the inner/outer Hausdorff gap shrinks when the grid doubles.
    """
    if N < 16:
        raise ValueError("need N >= 16")
    fine = SpectralGrid(split(A), 2 * N)
    grid = fine.every_other()
    boundary = _grid_boundary(grid)
    pts = boundary.finite_points()
    unbounded = sum(1 for s in boundary.samples if s.point is None)
    hulls1 = _grid_hulls(grid)
    hulls2 = _grid_hulls(fine)
    gap1 = hausdorff_outer_to_inner(hulls1.outer, hulls1.inner)
    gap2 = hausdorff_outer_to_inner(hulls2.outer, hulls2.inner)
    decreased = gap2 < gap1 or (gap1 <= GAP_FLOOR and gap2 <= GAP_FLOOR)
    if pts:
        Y = np.array(pts)
        X = np.array(hulls1.witnesses)
        P = 1.0 + Y @ X.T
        pairing_min = float(P.min())
        complementary_worst = float(P.min(axis=1).max())
    else:
        pairing_min = 0.0
        complementary_worst = 0.0
    return DualityReport(
        N=N, tol=tol,
        pairing_min=pairing_min,
        complementary_worst=complementary_worst,
        gap_at_N=gap1, gap_at_2N=gap2, gap_decreased=decreased,
        boundary_count=len(pts), unbounded_count=unbounded,
        pairing_ok=pairing_min >= -tol,
        complementary_ok=complementary_worst <= tol,
    )


# -- polytope detection ----------------------------------------------------------


@dataclass(frozen=True)
class PolytopeVerdict:
    kind: str                       # "polytope" | "smooth" | "mixed/unknown"
    vertices: tuple | None = None   # exact Fractions when exact=True
    exact: bool = False


def polytope_detect(A: GaussianRationalMatrix, N: int = 360) -> PolytopeVerdict:
    """Detect polytopic numerical ranges.

    Normal matrices: W(A) is the convex hull of the spectrum; eigenvalues are
    exact when they are Gaussian rational (certified against charpoly(A)),
    numeric otherwise.  Non-normal matrices: best-effort witness clustering;
    "mixed/unknown" is a legal verdict.
    """
    if is_normal(A):
        eigs = np.linalg.eigvals(A.to_complex())
        exact = _certified_spectrum(A, eigs)
        if exact is not None:
            verts = convex_hull([(z.re, z.im) for z in exact])
            return PolytopeVerdict(kind="polytope", vertices=tuple(verts), exact=True)
        verts = convex_hull([(float(z.real), float(z.imag)) for z in _dedupe(eigs)])
        return PolytopeVerdict(kind="polytope", vertices=tuple(verts), exact=False)

    _, wit = _support_grid(SpectralGrid(split(A), N))
    scale = max(1.0, float(np.abs(wit).max()))
    tol = 1e-8 * scale
    clusters: list[list[int]] = []
    for i in range(N):
        if clusters and np.hypot(*(wit[i] - wit[clusters[-1][-1]])) <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if len(clusters) > 1 and np.hypot(*(wit[0] - wit[clusters[-1][-1]])) <= tol:
        clusters[0] = clusters.pop() + clusters[0]
    big = [c for c in clusters if len(c) >= 3]
    if len(big) >= 3 and sum(len(c) for c in big) >= 0.9 * N:
        verts = convex_hull([tuple(np.mean(wit[c], axis=0)) for c in big])
        return PolytopeVerdict(kind="polytope", vertices=tuple(verts), exact=False)
    if max(len(c) for c in clusters) <= 2:
        return PolytopeVerdict(kind="smooth")
    return PolytopeVerdict(kind="mixed/unknown")


def _certified_spectrum(A: GaussianRationalMatrix, eigs) -> list[GaussianRational] | None:
    """The eigenvalues of A as exact Gaussian rationals, or None.

    If D*A has Gaussian-integer entries, every Gaussian-rational eigenvalue
    of A is z/D with z a Gaussian integer (Z[i] is integrally closed).  So is
    it when D clears the denominators of charpoly(A), and then also for the
    gcd of two such D.  The float eigenvalues are rounded to that lattice
    and accepted only if prod (t - z_j/D) equals charpoly(A) coefficient by
    coefficient.
    """
    chi = charpoly(A)
    D = math.gcd(_denominator(e for row in A.entries for e in row), _denominator(chi))

    def lattice(x: float) -> Fraction:
        return Fraction(round(Fraction(x) * D), D)

    roots = [GaussianRational(lattice(z.real), lattice(z.imag)) for z in eigs]
    prod = [GaussianRational.ONE]            # ascending coefficients
    for r in roots:
        shifted = [GaussianRational.ZERO] + prod
        for i, c in enumerate(prod):
            shifted[i] = shifted[i] - r * c
        prod = shifted
    return roots if prod == chi else None


def _denominator(values) -> int:
    """The least D with D*z a Gaussian integer for every z in values."""
    return math.lcm(*(d for z in values for d in (z.re.denominator, z.im.denominator)))


def _dedupe(zs, tol: float = 1e-9):
    out = []
    for z in zs:
        if not any(abs(z - w) <= tol * (1 + abs(z)) for w in out):
            out.append(z)
    return out


# -- sanity law -------------------------------------------------------------------


@dataclass(frozen=True)
class TranslateScaleReport:
    c: Fraction
    max_deviation: float
    ok: bool


def translate_scale_law(A: GaussianRationalMatrix, c, N: int = 360,
                        tol: float = 1e-9) -> TranslateScaleReport:
    """Check h_{A+cI}(theta) = h_A(theta) + c*cos(theta) on the grid."""
    c = Fraction(c)
    shifted = A + GaussianRationalMatrix.identity(A.n).scale(GaussianRational.of(c))
    grid = SpectralGrid(split(A), N)
    h0 = grid.eigvals[:, -1]
    h1 = SpectralGrid(split(shifted), N).eigvals[:, -1]
    dev = float(np.abs(h1 - h0 - float(c) * grid.cos).max())
    return TranslateScaleReport(c=c, max_deviation=dev, ok=dev <= tol)
