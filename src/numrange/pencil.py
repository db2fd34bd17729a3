"""The pencil determinant p(y), the planar LMI set F(A), and the spectral grid.

Everything lives in the affine chart y0 = 1, where the origin is interior by
construction (F at the origin is the identity).  Boundary points are found by
ray shooting: along direction d the set is left where the smallest eigenvalue
of d1*A1 + d2*A2 hits -1/t.  Unboundedness is an explicit marker, never a
large float.

`SpectralGrid` is the one eigendecomposition of H(theta) = cos(theta)*A1 +
sin(theta)*A2 over a fan of angles that every numeric layer reads: F(A)
leaves the ray at -1/lambda_min(theta), W(A) is supported at theta by
lambda_max(theta) with the top eigenvector as a rank-one witness, and the
nonzero eigenvalues give every real point of p = 0 on the ray.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactpoly import (
    GaussianRational,
    TriPoly,
    det_poly_matrix,
    sturm_real_root_count,
    uni_squarefree,
)
from .hermitian import HermitianPencil, NonHermitianError

__all__ = [
    "PencilCurve",
    "RayExit",
    "CurveSample",
    "CurveSampleSet",
    "pencil_det",
    "lmi_member",
    "ray_exit",
    "boundary_F",
    "boundary_csv",
    "hyperbolicity_check",
    "HyperbolicityReport",
    "LmiPolytope",
    "lmi_polytope_vertices",
    "restrict_to_line",
    "line_roots_from_eigs",
]

YVARS = ("y0", "y1", "y2")

BOUNDARY_TOL = 1e-9          # |lambda_min| window declaring a point "on" the boundary
UNBOUNDED_CUT = 1e-12        # lambda_min above -cut*scale counts as non-negative


@dataclass(frozen=True)
class PencilCurve:
    """The determinant form p(y) of a Hermitian pencil, p(1,0,0) = 1."""

    p: TriPoly
    pencil: HermitianPencil

    def __post_init__(self):
        if self.p.eval((Fraction(1), Fraction(0), Fraction(0))) != 1:
            raise ValueError("pencil determinant must satisfy p(1,0,0) = 1")
        if not self.p.is_homogeneous() or self.p.total_degree() != self.pencil.n:
            raise ValueError("pencil determinant must be homogeneous of degree n")

    @property
    def degree(self) -> int:
        return self.pencil.n


@dataclass(frozen=True)
class RayExit:
    direction: tuple[float, float]
    t_exit: float                      # math.inf marks an unbounded direction
    point: tuple[float, float] | None  # (t*d1, t*d2) when finite
    lambda_min_at_exit: float | None   # lambda_min(F(1, point)), ~0 when finite

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.t_exit)


@dataclass(frozen=True)
class CurveSample:
    theta: float
    point: tuple[float, float] | None
    lambda_min: float | None = None
    root_index: int | None = None
    singular: bool = False


@dataclass
class CurveSampleSet:
    """Ordered affine samples of a curve or boundary, with chart metadata."""

    chart: str
    samples: list[CurveSample] = field(default_factory=list)
    all_unbounded: bool = False

    def finite_points(self) -> list[tuple[float, float]]:
        return [s.point for s in self.samples if s.point is not None]


def pencil_det(pencil: HermitianPencil) -> PencilCurve:
    """Exact det(y0*I + y1*A1 + y2*A2); imaginary parts must cancel exactly."""
    n = pencil.n
    a1, a2 = pencil.A1.entries, pencil.A2.entries
    real_input = pencil.A1.is_real() and pencil.A2.is_real()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            if i == j:
                terms[(1, 0, 0)] = Fraction(1)
            if real_input:
                if a1[i][j]:
                    terms[(0, 1, 0)] = a1[i][j].re
                if a2[i][j]:
                    terms[(0, 0, 1)] = a2[i][j].re
            else:
                if i == j:
                    terms[(1, 0, 0)] = GaussianRational.ONE
                if a1[i][j]:
                    terms[(0, 1, 0)] = a1[i][j]
                if a2[i][j]:
                    terms[(0, 0, 1)] = a2[i][j]
            row.append(TriPoly(YVARS, terms))
        rows.append(row)
    det = det_poly_matrix(rows)
    if det.has_gaussian_coeffs():
        re, im = det.real_imag()
        if not im.is_zero():
            raise NonHermitianError(
                "pencil determinant has a nonzero imaginary residue; pencil is not Hermitian")
        det = re
    return PencilCurve(det, pencil)


class SpectralGrid:
    """Eigenpairs of H_k = cos_k*A1 + sin_k*A2, ascending, from one batched eigh.

    SpectralGrid(pencil, N) is the uniform fan theta_k = 2*pi*k/N; `at` takes
    arbitrary angles (and, optionally, their exact unit directions).
    """

    __slots__ = ("pencil", "thetas", "cos", "sin", "eigvals", "eigvecs")

    def __init__(self, pencil: HermitianPencil, N: int):
        thetas = np.array([2.0 * math.pi * k / N for k in range(N)])
        self._solve(pencil, thetas, np.cos(thetas), np.sin(thetas))

    @classmethod
    def at(cls, pencil: HermitianPencil, thetas, cos=None, sin=None) -> "SpectralGrid":
        grid = cls.__new__(cls)
        thetas = np.asarray(thetas, dtype=float)
        grid._solve(pencil, thetas,
                    np.cos(thetas) if cos is None else np.asarray(cos, dtype=float),
                    np.sin(thetas) if sin is None else np.asarray(sin, dtype=float))
        return grid

    def _solve(self, pencil, thetas, cos, sin):
        f1, f2 = pencil.float_parts()
        self.pencil, self.thetas, self.cos, self.sin = pencil, thetas, cos, sin
        self.eigvals, self.eigvecs = np.linalg.eigh(
            cos[:, None, None] * f1 + sin[:, None, None] * f2)

    def every_other(self) -> "SpectralGrid":
        """The N-grid contained in this 2N-grid, without a second solve."""
        sub = SpectralGrid.__new__(SpectralGrid)
        sub.pencil = self.pencil
        for name in ("thetas", "cos", "sin", "eigvals", "eigvecs"):
            setattr(sub, name, getattr(self, name)[::2])
        return sub

    def line_roots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every real root of p(1, t*cos_k, t*sin_k) over the grid, as arrays.

        Returns (k, index, t) in (angle, eigenvalue index) order: the roots
        of `line_roots_from_eigs` for every row at once.
        """
        k, idx = np.nonzero(_root_eigs(self.eigvals))
        return k, idx, -1.0 / self.eigvals[k, idx]


def _exits(grid: SpectralGrid) -> list[tuple[float, tuple[float, float], float] | None]:
    """(t, exit point, lambda_min at the exit) per ray of the grid; None if unbounded.

    The ray leaves F(A) at t = -1/lambda_min(H_k); lambda_min above
    -UNBOUNDED_CUT*scale never reaches zero.  The residual lambda_min of
    F(1, point) at every finite exit comes from one batched solve.
    """
    w = grid.eigvals
    lam_min = w[:, 0]
    scale = np.maximum(1.0, np.abs(w).max(axis=1))
    finite = np.flatnonzero(lam_min < -UNBOUNDED_CUT * scale)
    out: list = [None] * len(lam_min)
    if finite.size:
        t = -1.0 / lam_min[finite]
        y1, y2 = t * grid.cos[finite], t * grid.sin[finite]
        f1, f2 = grid.pencil.float_parts()
        Fs = np.eye(grid.pencil.n) + y1[:, None, None] * f1 + y2[:, None, None] * f2
        lams = np.linalg.eigvalsh(Fs)[:, 0]
        for k, tk, a, b, lam in zip(finite.tolist(), t.tolist(), y1.tolist(), y2.tolist(),
                                    lams.tolist()):
            out[k] = (tk, (a, b), lam)
    return out


def lmi_member(pencil: HermitianPencil, y: tuple[float, float],
               tol: float = BOUNDARY_TOL) -> bool:
    """Membership y in F(A): lambda_min(F(1, y1, y2)) >= -tol."""
    f1, f2 = pencil.float_parts()
    F = np.eye(pencil.n) + float(y[0]) * f1 + float(y[1]) * f2
    w = np.linalg.eigvalsh(F)
    return bool(w[0] >= -tol)


def ray_exit(pencil: HermitianPencil, direction: tuple[float, float]) -> RayExit:
    """Exit of the ray t*(d1,d2), t >= 0, from F(A)."""
    d1, d2 = float(direction[0]), float(direction[1])
    nrm = math.hypot(d1, d2)
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector (got norm {nrm!r})")
    hit = _exits(SpectralGrid.at(pencil, [math.atan2(d2, d1)], [d1], [d2]))[0]
    if hit is None:
        return RayExit((d1, d2), math.inf, None, None)
    t, point, lam_at = hit
    return RayExit((d1, d2), t, point, lam_at)


def boundary_F(pencil: HermitianPencil, N: int) -> CurveSampleSet:
    """Polygonal boundary of F(A): N ray exits at equally spaced angles."""
    if N < 3:
        raise ValueError("need at least 3 angles")
    return _grid_boundary(SpectralGrid(pencil, N))


def _grid_boundary(grid: SpectralGrid) -> CurveSampleSet:
    pencil = grid.pencil
    if pencil.A1.is_zero() and pencil.A2.is_zero():
        return CurveSampleSet(chart="y0=1", samples=[], all_unbounded=True)
    samples = []
    for th, hit in zip(grid.thetas.tolist(), _exits(grid)):
        if hit is None:
            samples.append(CurveSample(theta=th, point=None, lambda_min=None))
        else:
            samples.append(CurveSample(theta=th, point=hit[1], lambda_min=hit[2]))
    return CurveSampleSet(chart="y0=1", samples=samples,
                          all_unbounded=all(s.point is None for s in samples))


def boundary_csv(samples: CurveSampleSet) -> str:
    """CSV per the boundary interface: theta,y1,y2,lambda_min ('inf' when unbounded)."""
    lines = ["theta,y1,y2,lambda_min"]
    for s in samples.samples:
        if s.point is None:
            lines.append(f"{s.theta:.12g},inf,inf,inf")
        else:
            lines.append(f"{s.theta:.12g},{s.point[0]:.12g},{s.point[1]:.12g},{s.lambda_min:.12g}")
    return "\n".join(lines) + "\n"


def restrict_to_line(p: TriPoly, d1: Fraction, d2: Fraction) -> list[Fraction]:
    """Exact coefficients of t -> p(1, t*d1, t*d2), ascending."""
    deg = max(0, p.total_degree())
    coeffs = [Fraction(0)] * (deg + 1)
    for (a, b, c), coef in p.terms.items():
        coeffs[b + c] += coef * d1**b * d2**c
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _chart_normal(f: TriPoly, k: int | None = None) -> tuple[TriPoly, int]:
    """(f(y0, 2**k*y1, 2**k*y2) with its largest coefficient scaled by a power of
    two to at most 2**512, k): exact, and its dual is that of f normalized with
    -k.  The default k brings the real chart roots near 1, or is 0 while they lie
    within about 2**32 of it, so that ordinary inputs keep their floats.  With A_j
    the largest |coefficient| of chart degree j = b + c and m the lowest, Fujiwara
    (1916) puts every nonzero root on a unit ray beyond 2**(e-1), e as below.
    """
    bits = {key: abs(c.numerator).bit_length() - c.denominator.bit_length()
            for key, c in f.terms.items()}
    if k is None:
        m = min(b + c for _, b, c in bits)
        am = max(v for (_, b, c), v in bits.items() if b + c == m)
        e = min(((am - v) / (b + c - m) for (_, b, c), v in bits.items() if b + c > m), default=0.0)
        k = round(e) if abs(e) > 32 else 0
    cap = max(v + k * (key[1] + key[2]) for key, v in bits.items()) - 512
    if k or cap > 0:
        f = TriPoly(f.vars, {key: c * Fraction(2) ** (k * (key[1] + key[2]) - max(cap, 0))
                             for key, c in f.terms.items()})
    return f, k


def line_roots_from_eigs(eigs: np.ndarray) -> list[tuple[int, float]]:
    """Real roots t = -1/lambda of det(I + t*H), tagged by eigenvalue index."""
    roots = np.flatnonzero(_root_eigs(eigs)).tolist()
    return [(idx, -1.0 / float(eigs[idx])) for idx in roots]


def _root_eigs(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues (last axis) that give a real root:
    |lambda| > 1e-14 * max(1, max |lambda|)."""
    w = np.abs(w)
    return w > 1e-14 * np.maximum(1.0, w.max(axis=-1, keepdims=True, initial=0.0))


@dataclass(frozen=True)
class LineCheck:
    direction: tuple[Fraction, Fraction]
    degree: int
    distinct_real_roots: int
    distinct_roots_expected: int
    all_real: bool
    eig_residual_max: float
    imag_residue_max: float


@dataclass
class HyperbolicityReport:
    lines: list[LineCheck]

    @property
    def ok(self) -> bool:
        return all(l.all_real for l in self.lines)

    @property
    def max_imag_residue(self) -> float:
        return max((l.imag_residue_max for l in self.lines), default=0.0)

    @property
    def max_eig_residual(self) -> float:
        return max((l.eig_residual_max for l in self.lines), default=0.0)


def hyperbolicity_check(curve: PencilCurve, trials: int = 24,
                        seed: int = 20259) -> HyperbolicityReport:
    """Real-zero check: every line through the origin meets p = 0 in real points only.

    Verified two ways per line: Sturm root counting on the exact restriction,
    and residuals of the roots predicted by pencil eigenvalues.
    """
    if trials < 1:
        raise ValueError("need at least one trial line")
    rng = random.Random(seed)
    f1, f2 = curve.pencil.float_parts()
    # exact restrictions of p(y0, 2**e*y1, 2**e*y2): roots t/2**e near 1, float coefficients
    p, e = _chart_normal(curve.p)
    checks = []
    for _ in range(trials):
        while True:
            d1 = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            d2 = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            if d1 or d2:
                break
        coeffs = restrict_to_line(p, d1, d2)
        sf = uni_squarefree(coeffs)
        deg_sf = len(sf) - 1
        distinct = sturm_real_root_count(coeffs)
        all_real = distinct == deg_sf
        # eigenvalue cross-check
        H = float(d1) * f1 + float(d2) * f2
        eigs = np.linalg.eigvalsh(H)
        fl = [float(c) for c in coeffs]
        t = np.ldexp([r for _, r in line_roots_from_eigs(eigs)], -e)
        terms = np.array([c * np.float_power(t, k) for k, c in enumerate(fl)])
        resid = float(np.max(np.abs(np.add.reduce(terms))
                             / np.maximum(np.abs(terms).max(axis=0), 1e-300), initial=0.0))
        roots = np.roots(fl[::-1]) if len(fl) > 1 else np.array([])
        imag_max = float(np.abs(roots.imag).max()) if roots.size else 0.0
        rel_imag = imag_max / max(1.0, float(np.abs(roots).max())) if roots.size else 0.0
        checks.append(LineCheck(
            direction=(d1, d2), degree=len(coeffs) - 1,
            distinct_real_roots=distinct, distinct_roots_expected=deg_sf,
            all_real=all_real, eig_residual_max=resid, imag_residue_max=rel_imag))
    return HyperbolicityReport(checks)


@dataclass(frozen=True)
class LmiPolytope:
    """Exact chart-plane structure of {y : each linear factor >= 0}.

    `vertices` are the true vertices of the feasible region (which may be
    unbounded); `facet_line_vertices` are all pairwise intersections of the
    non-redundant boundary lines, the triangle-like frame the facets sit on.
    """

    vertices: tuple[tuple[Fraction, Fraction], ...]
    bounded: bool
    facet_line_vertices: tuple[tuple[Fraction, Fraction], ...]


def _ccw_sorted(verts: list[tuple[Fraction, Fraction]]):
    if len(verts) > 2:
        cx = sum(v[0] for v in verts) / len(verts)
        cy = sum(v[1] for v in verts) / len(verts)
        verts = sorted(verts, key=lambda v: math.atan2(float(v[1] - cy), float(v[0] - cx)))
    return tuple(verts)


def _line_is_facet(i: int, lines) -> bool:
    """Does line i carry a one-dimensional face of the feasible set?"""
    c0, c1, c2 = lines[i]
    if c1 == 0 and c2 == 0:
        return False
    # base point on the line and a direction along it
    if c1:
        p0 = (-c0 / c1, Fraction(0))
    else:
        p0 = (Fraction(0), -c0 / c2)
    d = (-c2, c1)
    lo, hi = None, None  # None = unbounded on that side
    for j, (b0, b1, b2) in enumerate(lines):
        if j == i:
            continue
        alpha = b0 + b1 * p0[0] + b2 * p0[1]
        beta = b1 * d[0] + b2 * d[1]
        if beta == 0:
            if alpha < 0:
                return False
            continue
        bound = -alpha / beta
        if beta > 0:
            if lo is None or bound > lo:
                lo = bound
        else:
            if hi is None or bound < hi:
                hi = bound
    if lo is not None and hi is not None and lo >= hi:
        return False
    return True


def _recession_nontrivial(lines) -> bool:
    """Is there a direction d != 0 with all linear parts non-negative along d?"""
    normals = [(c1, c2) for _, c1, c2 in lines if c1 or c2]
    if not normals:
        return True
    for n1, n2 in normals:
        for d in ((-n2, n1), (n2, -n1)):
            if all(a * d[0] + b * d[1] >= 0 for a, b in normals):
                return True
    return False


def lmi_polytope_vertices(factors: list[TriPoly]) -> LmiPolytope:
    """Exact vertex structure of the polyhedral LMI set cut out by linear factors.

    Factors are homogeneous linear forms, sign-normalized to be positive at
    the origin (which the LMI set always contains); vertices come out
    counter-clockwise.
    """
    lines = []
    for f in factors:
        if f.is_zero() or f.total_degree() != 1:
            raise ValueError("factors must be nonzero linear forms")
        c0 = f.terms.get((1, 0, 0), Fraction(0))
        c1 = f.terms.get((0, 1, 0), Fraction(0))
        c2 = f.terms.get((0, 0, 1), Fraction(0))
        if c0 < 0:
            c0, c1, c2 = -c0, -c1, -c2
        elif c0 == 0:
            raise ValueError("factor line passes through the origin; chart vertex set undefined")
        lines.append((c0, c1, c2))
    facet_idx = [i for i in range(len(lines)) if _line_is_facet(i, lines)]
    verts: list[tuple[Fraction, Fraction]] = []
    frame: list[tuple[Fraction, Fraction]] = []
    for ii, i in enumerate(facet_idx):
        a0, a1, a2 = lines[i]
        for j in facet_idx[ii + 1:]:
            b0, b1, b2 = lines[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            y1 = (-a0 * b2 + a2 * b0) / det
            y2 = (-a1 * b0 + a0 * b1) / det
            if (y1, y2) not in frame:
                frame.append((y1, y2))
            feasible = all(c0 + c1 * y1 + c2 * y2 >= 0 for c0, c1, c2 in lines)
            if feasible and (y1, y2) not in verts:
                verts.append((y1, y2))
    return LmiPolytope(vertices=_ccw_sorted(verts),
                       bounded=not _recession_nontrivial(lines),
                       facet_line_vertices=_ccw_sorted(frame))
