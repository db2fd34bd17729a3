"""The pencil determinant p(y), the planar LMI set F(A), and the spectral grid.

Everything lives in the affine chart y0 = 1, where the origin is interior by
construction (F at the origin is the identity).  Boundary points are found by
ray shooting: along direction d the set is left where the smallest eigenvalue
of d1*A1 + d2*A2 hits -1/t.  Unboundedness is an explicit marker, never a
large float.

`SpectralGrid` is the one eigendecomposition of H(theta) = cos(theta)*A1 +
sin(theta)*A2 over a fan of angles that every numeric layer reads: F(A)
leaves the ray at -1/lambda_min(theta), W(A) is supported at theta by
lambda_max(theta) with the top eigenvector as a rank-one witness, the
nonzero eigenvalues give every real point of p = 0 on the ray, and their
eigenvectors v the tangent lines there, the points (v*A1v, v*A2v) of q = 0.
Since H(theta + pi) = -H(theta), lambda_max(theta + pi) = -lambda_min(theta)
(Kippenhahn 1951): the complementary W(A) witness of boundary sample k, the
top eigenvector of row k + N/2 on an even grid, is the bottom eigenvector of
the solve that places the sample.  The grid solves on A/s, s the power of two
`HermitianPencil.unit`, so every threshold is a constant.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactpoly import TriPoly, det_pencil
from .hermitian import FloatRangeError, HermitianPencil, NonHermitianError, _cleared_parts

__all__ = [
    "PencilCurve",
    "RayExit",
    "CurveSample",
    "CurveSampleSet",
    "SpectralGrid",
    "pencil_det",
    "lmi_member",
    "ray_exit",
    "boundary_F",
    "boundary_csv",
    "hyperbolicity_check",
    "HyperbolicityReport",
    "LmiPolytope",
    "lmi_polytope_vertices",
]

YVARS = ("y0", "y1", "y2")

BOUNDARY_TOL = 1e-9          # |lambda_min| window declaring a point "on" the boundary
UNBOUNDED_CUT = 1e-12        # lambda_min above -cut*max(1, row max |lambda|) counts as non-negative
ROOT_CUT = 1e-14             # |lambda| above cut*max(1, row max |lambda|) gives a real root
UNIT_TOL = 1e-12             # |norm - 1| allowed of a ray direction


@dataclass(frozen=True)
class PencilCurve:
    """The determinant form p(y) of a Hermitian pencil, p(1,0,0) = 1."""

    p: TriPoly
    pencil: HermitianPencil

    def __post_init__(self):
        p = self.p
        if p.content * sum(v for (_, b, e), v in p.ints.items() if not b and not e) != 1:
            raise ValueError("pencil determinant must satisfy p(1,0,0) = 1")
        if not p.is_homogeneous() or p.total_degree() != self.pencil.n:
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


class CurveSampleSet:
    """Ordered affine samples of a curve or boundary, with chart metadata.

    The samples are held as columns, one entry per sample: the float arrays
    `theta`, `x` and `y`, the mask `finite` of the samples that have a point
    (x, y) (x and y are not read elsewhere), the bools `singular`, and the
    floats `lambda_min` (read where `finite`) and the ints `root_index`
    (objects when some are None), each None when the set has none.
    `CurveSampleSet(chart, samples, all_unbounded)` converts a list of
    `CurveSample`s to columns once; `of_columns` takes the columns.  The
    `samples` list is built from the columns on first use, so the numeric
    layers make no object per sample.
    """

    def __init__(self, chart: str, samples: list[CurveSample] = (),
                 all_unbounded: bool = False):
        samples = list(samples)
        finite = [s.point is not None for s in samples]
        xy = np.array([s.point if ok else (math.nan, math.nan) for s, ok in zip(samples, finite)],
                      dtype=float).reshape(-1, 2)
        lam = [s.lambda_min if ok else 0.0 for s, ok in zip(samples, finite)]
        index = [s.root_index for s in samples]
        if all(i is None for i in index):
            index = None
        self._fill(chart, all_unbounded, np.array([s.theta for s in samples], dtype=float),
                   xy[:, 0], xy[:, 1], np.array(finite, dtype=bool),
                   None if None in lam else np.array(lam, dtype=float),
                   None if index is None else np.array(index, dtype=object if None in index else int),
                   np.array([s.singular for s in samples], dtype=bool))
        self._samples = samples

    @classmethod
    def of_columns(cls, chart: str, theta, x, y, finite, all_unbounded: bool = False,
                   lambda_min=None, root_index=None, singular=None) -> "CurveSampleSet":
        out = cls.__new__(cls)
        out._fill(chart, all_unbounded, theta, x, y, finite, lambda_min, root_index,
                  np.zeros(len(theta), dtype=bool) if singular is None else singular)
        out._samples = None
        return out

    def _fill(self, chart, all_unbounded, theta, x, y, finite, lambda_min, root_index, singular):
        self.chart, self.all_unbounded = chart, all_unbounded
        self.theta, self.x, self.y, self.finite = theta, x, y, finite
        self.lambda_min, self.root_index, self.singular = lambda_min, root_index, singular

    def __len__(self) -> int:
        return len(self.theta)

    @property
    def samples(self) -> list[CurveSample]:
        if self._samples is None:
            n = len(self)
            pts = [(a, b) if ok else None for a, b, ok in
                   zip(self.x.tolist(), self.y.tolist(), self.finite.tolist())]
            lam = [None] * n if self.lambda_min is None else self.lambda_min.tolist()
            index = [None] * n if self.root_index is None else self.root_index.tolist()
            self._samples = [CurveSample(th, pt, None if pt is None else lm, i, sg)
                             for th, pt, lm, i, sg in
                             zip(self.theta.tolist(), pts, lam, index, self.singular.tolist())]
        return self._samples


def pencil_det(pencil: HermitianPencil) -> PencilCurve:
    """Exact det(y0*I + y1*A1 + y2*A2), a real polynomial.

    With C1 = L*A1 and C2 = L*A2 cleared to Gaussian integers by the lcm L of
    the denominators, p(y) = L^-n * det(L*y0*I + y1*C1 + y2*C2), so the
    coefficient of y0^a * y1^b * y2^c is that of det(y0*I + y1*C1 + y2*C2)
    over L^(b+c); `det_pencil` gives it from characteristic polynomials
    modulo primes.  p is stored as 1/L^n times the ints L^(n-b-c) times that
    coefficient, with no Fraction per term.  `det_pencil` takes Hermitian
    pencils only, so a pencil built around HermitianPencil's own check raises
    NonHermitianError here.
    """
    if not (pencil.A1.is_hermitian() and pencil.A2.is_hermitian()):
        raise NonHermitianError("pencil is not Hermitian")
    L, _, _, Q = _integer_pencil(pencil.A1, pencil.A2)
    n = pencil.n
    Lk = [L ** k for k in range(n + 1)]
    p = TriPoly._from_ints(YVARS, {e: c * Lk[n - e[1] - e[2]] for e, c in Q.items()},
                           Fraction(1, Lk[n]))
    return PencilCurve(p, pencil)


def _integer_pencil(A1, A2) -> tuple[int, tuple, tuple, dict]:
    """(L, C1, C2, Q): the joint denominator lcm L, the `_cleared_parts` Cj of
    L*Aj, and the int terms {(a, b, c): v} of the real Q = det(y0*I + y1*C1 + y2*C2),
    for Hermitian A1 and A2."""
    L = math.lcm(A1.L, A2.L)
    C1, C2 = _cleared_parts(A1, L), _cleared_parts(A2, L)
    return L, C1, C2, det_pencil(C1, C2)


class SpectralGrid:
    """Eigenpairs of H_k/s = (cos_k*A1 + sin_k*A2)/s, s the pencil's `unit`, ascending,
    from one batched eigh; the eigenvectors give W(A)'s witnesses and the points
    of q = 0.  FloatRangeError when s*max|lambda| passes the largest float.

    SpectralGrid(pencil, N) is the uniform fan theta_k = 2*pi*k/N, N >= 3; `at`
    takes arbitrary angles (and, optionally, their exact unit directions), one
    direction as `at(pencil, [theta])`.  Since H(theta + pi) = -H(theta)
    (Kippenhahn 1951), an even N solves only the rows k < N/2 and fills row
    k + N/2 with their reflection: eigenvalues negated in reverse order,
    eigenvector columns reversed, while thetas, cos and sin stay those of
    `_uniform_fan(N)`.  An odd N has no antipodal rows and solves every angle.
    The reflected rows equal a solve at their own angles only up to roundoff,
    and the printed hull vertices of a polytopal W(A) depend on those bits:
    they keep or drop near-coincident corner points by them.  So the commands
    that print a hull or an outer polygon, `sample-w` and `render`, solve
    every angle, with `at(pencil, *_uniform_fan(N))`, until those roundoff
    clouds are merged; `sample-f`, `duality`, `member_W` and `classify` take
    the reflection.
    """

    __slots__ = ("pencil", "thetas", "cos", "sin", "eigvals", "eigvecs")

    def __init__(self, pencil: HermitianPencil, N: int):
        thetas, cos, sin = _uniform_fan(N)
        if N % 2:
            self._solve(pencil, thetas, cos, sin)
            return
        m = N // 2
        self._solve(pencil, thetas[:m], cos[:m], sin[:m])
        w, V = self.eigvals, self.eigvecs
        self.thetas, self.cos, self.sin = thetas, cos, sin
        self.eigvals = np.concatenate((w, -w[:, ::-1]))
        self.eigvecs = np.concatenate((V, V[:, :, ::-1]))

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
        if not math.isfinite(pencil.unit * float(np.abs(self.eigvals).max(initial=0.0))):
            raise FloatRangeError("the eigenvalues of cos(theta)*A1 + sin(theta)*A2 pass the largest "
                                  f"float, {np.finfo(float).max:.3g}: the entries of A are too close to it")

    def every_other(self) -> "SpectralGrid":
        """The N-grid contained in this 2N-grid, without a second solve: bit for
        bit SpectralGrid(pencil, N) when N is even."""
        sub = SpectralGrid.__new__(SpectralGrid)
        sub.pencil = self.pencil
        for name in ("thetas", "cos", "sin", "eigvals", "eigvecs"):
            setattr(sub, name, getattr(self, name)[::2])
        return sub

    def line_roots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every real root of p(1, t*cos_k, t*sin_k) over the grid, as arrays.

        Returns (k, index, t) in (angle, eigenvalue index) order: t = -1/(s*lambda), s
        the pencil's unit, for every lambda in the ray-root mask (`_root_eigs`) but
        those whose t passes the largest float (s tiny): a root there has no point.
        """
        k, idx = np.nonzero(_root_eigs(self.eigvals))
        t, s = -1.0 / self.eigvals[k, idx], self.pencil.unit
        ok = np.abs(t) <= float(np.finfo(float).max) * s   # inf, not an overflow, when s > 1
        return k[ok], idx[ok], t[ok] / s


def _rayleigh(pencil: HermitianPencil, V: np.ndarray) -> np.ndarray:
    """The W(A) points (v*A1v, v*A2v)/s of the unit rows v of V, an (m, 2) array
    in the pencil's unit s: the witnesses of the grid's top eigenvectors and
    the dual samples of its ray-root eigenvectors."""
    f1, f2 = pencil.float_parts()
    x1 = np.einsum("bi,ij,bj->b", V.conj(), f1, V).real
    x2 = np.einsum("bi,ij,bj->b", V.conj(), f2, V).real
    return np.stack([x1, x2], axis=1)


def _uniform_fan(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thetas, cos, sin) of the fan theta_k = 2*pi*k/N, N >= 3, as `SpectralGrid(pencil, N)` solves it."""
    if N < 3:
        raise ValueError("need at least 3 support directions")
    thetas = np.arange(N) * (2.0 * math.pi) / N   # 2*pi*k/N bit for bit
    return thetas, np.cos(thetas), np.sin(thetas)


def _exit_points(grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(k, t, y1, y2): the rays k of the grid that leave F(A), and where, t and y times the unit s.

    On the eigenvalues of H_k/s the ray leaves at t = -1/lambda_min, at (y1, y2) =
    t*(cos_k, sin_k); lambda_min above -UNBOUNDED_CUT*max(1, the row's max |lambda|)
    never reaches zero, and that ray is unbounded.
    """
    w = grid.eigvals
    lam_min = w[:, 0]
    k = np.flatnonzero(lam_min < -UNBOUNDED_CUT * np.maximum(1.0, np.abs(w).max(axis=1)))
    t = -1.0 / lam_min[k]
    return k, t, t * grid.cos[k], t * grid.sin[k]


def _exit_residuals(pencil: HermitianPencil, y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """lambda_min(F(1, y/s)) at every point y of `_exit_points`, from one batched solve."""
    f1, f2 = pencil.float_parts()
    Fs = np.eye(pencil.n) + y1[:, None, None] * f1 + y2[:, None, None] * f2
    return np.linalg.eigvalsh(Fs)[:, 0]


def lmi_member(pencil: HermitianPencil, y: tuple[float, float],
               tol: float = BOUNDARY_TOL) -> bool:
    """Membership y in F(A): lambda_min(F(1, y1, y2)) >= -tol."""
    y1, y2 = np.array([float(y[0])]) * pencil.unit, np.array([float(y[1])]) * pencil.unit
    return bool(_exit_residuals(pencil, y1, y2)[0] >= -tol)


def ray_exit(pencil: HermitianPencil, direction: tuple[float, float]) -> RayExit:
    """Exit of the ray t*(d1,d2), t >= 0, from F(A)."""
    d1, d2 = float(direction[0]), float(direction[1])
    nrm = math.hypot(d1, d2)
    if abs(nrm - 1.0) > UNIT_TOL:
        raise ValueError(f"direction must be a unit vector (got norm {nrm!r})")
    grid = SpectralGrid.at(pencil, [math.atan2(d2, d1)], [d1], [d2])
    k, t, y1, y2 = _exit_points(grid)
    if not k.size:
        return RayExit((d1, d2), math.inf, None, None)
    lam, s = _exit_residuals(pencil, y1, y2), pencil.unit
    return RayExit((d1, d2), float(t[0]) / s, (float(y1[0]) / s, float(y2[0]) / s), float(lam[0]))


def boundary_F(grid: SpectralGrid) -> CurveSampleSet:
    """Polygonal boundary of F(A): the exits of the grid's rays, with the
    residual lambda_min at every exit; unbounded rays hold inf."""
    k, _, y1, y2 = _exit_points(grid)
    N, s = len(grid.thetas), grid.pencil.unit
    finite = np.zeros(N, dtype=bool)
    finite[k] = True
    x, y, lam = np.full(N, math.inf), np.full(N, math.inf), np.full(N, math.inf)
    x[k], y[k], lam[k] = y1 / s, y2 / s, _exit_residuals(grid.pencil, y1, y2)
    return CurveSampleSet.of_columns("y0=1", grid.thetas, x, y, finite,
                                     all_unbounded=not k.size, lambda_min=lam)


def boundary_csv(samples: CurveSampleSet) -> str:
    """CSV per the boundary interface: theta,y1,y2,lambda_min ('inf' when unbounded)."""
    f = samples.finite
    cols = np.stack([samples.theta] + [np.where(f, c, math.inf) for c in
                                       (samples.x, samples.y, samples.lambda_min)], axis=1)
    return ("theta,y1,y2,lambda_min\n" + "%.12g,%.12g,%.12g,%.12g\n" * len(f)) % tuple(
        cols.ravel().tolist())


def _integer_form(p: TriPoly) -> tuple[int, list[list[tuple[int, int, int]]]]:
    """(L, by_degree): L*p has integer coefficients, and by_degree[k] lists
    (b, c, L*coefficient) for the terms y0**a * y1**b * y2**c with b + c = k."""
    num = p.content.numerator
    by_degree = [[] for _ in range(max(0, p.total_degree()) + 1)]
    for (_, b, c), v in p.ints.items():
        by_degree[b + c].append((b, c, num * v))
    return p.content.denominator, by_degree


def _restriction(form, d1: Fraction, d2: Fraction, s: Fraction) -> tuple[list[int], int, list[float]]:
    """(N, w, coeffs) for p(1, t*d1/s, t*d2/s), p of form = `_integer_form(p)`.

    With d1 = a1/b1, d2 = a2/b2 and s = g/h, coefficient k is N[k] / (L * w**k)
    for the integers N[k] = sum L*coef * (a1*b2*h)**b * (a2*b1*h)**c and w = b1*b2*g > 0;
    coeffs holds those quotients over 2**c correctly rounded to floats (int / int is,
    as `float(Fraction)` is), c >= 0 the least that keeps them below about 2**1001:
    0 within the bound of `hyperbolicity_check`.  Top zeros are dropped.
    """
    L, by_degree = form
    u, v = d1.numerator * d2.denominator * s.denominator, d2.numerator * d1.denominator * s.denominator
    w = d1.denominator * d2.denominator * s.numerator
    upow, vpow = [u**i for i in range(len(by_degree))], [v**i for i in range(len(by_degree))]
    N = [sum(C * upow[b] * vpow[c] for b, c, C in terms) for terms in by_degree]
    while len(N) > 1 and not N[-1]:
        N.pop()
    c = max(0, max(n.bit_length() - (L * w ** k).bit_length() for k, n in enumerate(N)) - 1000)
    return N, w, [n / (L * w ** k << c) for k, n in enumerate(N)]


def _sign_certificate(N: list[int], w: int, roots: list[float]) -> bool:
    """Do exact signs prove that c(t) = sum_k N[k] * (t/w)**k, w > 0, has
    d = len(N) - 1 distinct real roots?

    The d predicted roots only place d + 1 points: the midpoints of the sorted
    predictions and one point beyond each end.  If c is nonzero there with
    alternating signs, each of the d gaps holds a root.  At x = m/D, D a power
    of two, c(x) has the sign of sum_k N[k] * m**k * (D*w)**(d-k).
    """
    d = len(N) - 1
    if d < 1 or len(roots) != d:
        return False
    r = sorted(roots)
    xs = [r[0] - 1.0 - abs(r[0]), *((a + b) / 2 for a, b in zip(r, r[1:])),
          r[-1] + 1.0 + abs(r[-1])]
    if not all(map(math.isfinite, xs)):
        return False
    ratios = [x.as_integer_ratio() for x in xs]
    D = max(den for _, den in ratios)
    scaled = [n * (D * w) ** (d - k) for k, n in enumerate(N)]
    prev = 0
    for num, den in ratios:
        m, acc = num * (D // den), 0
        for s in reversed(scaled):
            acc = acc * m + s
        if acc == 0 or (prev and (acc > 0) == (prev > 0)):
            return False
        prev = acc
    return True


def _sturm(N: list[int]) -> tuple[int, int]:
    """(distinct real roots, degree of the squarefree part) of c(t) = sum_k N[k] * (t/w)**k,
    w > 0, from one Sturm chain of the integer polynomial sum_k N[k] * s**k (s = t/w
    keeps roots and multiplicities); its last element is gcd(c, c').

    Each remainder is a pseudo-remainder that scales the dividend by |lead| at
    every step (lead**(delta+1) could be negative), divided by its content and
    negated: a positive multiple of the rational chain's element, so degrees and
    signs agree.  The counts at -inf and +inf read the leads.
    """
    c = list(N)
    while c and not c[-1]:
        c.pop()
    if len(c) <= 1:
        return 0, len(c) - 1
    chain = [c, [k * x for k, x in enumerate(c)][1:]]
    while True:
        a, b = chain[-2], chain[-1]
        g, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(a) >= len(b):
            f, shift = s * a[-1], len(a) - len(b)
            a = [g * x for x in a[:shift]] + [g * x - f * y for x, y in zip(a[shift:-1], b)]
            while a and not a[-1]:
                a.pop()
        if not a:
            break
        content = math.gcd(*a)
        chain.append([-x // content for x in a])
    at_pos = [p[-1] > 0 for p in chain]
    at_neg = [up == (len(p) % 2 == 1) for up, p in zip(at_pos, chain)]
    neg, pos = (sum(x != y for x, y in zip(v, v[1:])) for v in (at_neg, at_pos))
    return neg - pos, len(c) - len(chain[-1])


def _root_eigs(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues (last axis) of the normalised pencil that give a
    real root: |lambda| > ROOT_CUT * max(1, max |lambda|)."""
    w = np.abs(w)
    return w > ROOT_CUT * np.maximum(1.0, w.max(axis=-1, keepdims=True, initial=0.0))


@dataclass(frozen=True)
class LineCheck:
    direction: tuple[Fraction, Fraction]
    degree: int
    distinct_real_roots: int
    distinct_roots_expected: int
    all_real: bool
    eig_residual_max: float


@dataclass
class HyperbolicityReport:
    lines: list[LineCheck]

    @property
    def ok(self) -> bool:
        return all(l.all_real for l in self.lines)

    @property
    def max_eig_residual(self) -> float:
        return max((l.eig_residual_max for l in self.lines), default=0.0)


def hyperbolicity_check(curve: PencilCurve, trials: int = 24,
                        seed: int = 20259) -> HyperbolicityReport:
    """Real-zero check: every line through the origin meets p = 0 in real points only.

    Verified two ways per line: exactly, by the sign-change certificate on the
    restriction at points placed by the eigenvalue-predicted roots, or a Sturm
    count where it fails (repeated or missed roots); numerically, by the
    relative residual of the float restriction at the predicted roots, the
    max_eig_residual that `classify` prints.  One batched eigvalsh predicts the
    roots of all lines; no other root solve runs.

    Both halves read p in the pencil's unit s = `HermitianPencil.unit`: line d
    restricts p(y0, y1/s, y2/s), whose roots are t = -1/lambda for the eigenvalues
    lambda of (d1*A1 + d2*A2)/s and whose coefficient k is their k-th elementary
    symmetric function: 1, the residual's floor, for k = 0.  The parts of A/s lie
    below M = 2**33 (M = 2 once s != 1) and |d| <= 20, so by Hadamard coefficient k
    is below C(n, k)*(sqrt(k)*40*sqrt(2)*M)**k, a float for n <= 24 (n <= 100 once
    s != 1).  Past that bound `_restriction` divides the floats by one power of two:
    the verdict stands, but t**k may underflow and the residual lose digits.
    """
    if trials < 1:
        raise ValueError("need at least one trial line")
    rng = random.Random(seed)
    draws = ((Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
              Fraction(rng.randint(-20, 20), rng.randint(1, 9))) for _ in itertools.count())
    dirs = list(itertools.islice(filter(any, draws), trials))
    f1, f2 = curve.pencil.float_parts()
    eigs = np.linalg.eigvalsh(np.array([float(d1) * f1 + float(d2) * f2 for d1, d2 in dirs]))
    form, s = _integer_form(curve.p), Fraction(curve.pencil.unit)
    checks = []
    for (d1, d2), line_eigs, mask in zip(dirs, eigs, _root_eigs(eigs)):
        N, w, coeffs = _restriction(form, d1, d2, s)
        t = -1.0 / line_eigs[mask]
        if _sign_certificate(N, w, t.tolist()):
            distinct = deg_sf = len(N) - 1
        else:
            distinct, deg_sf = _sturm(N)
        # eigenvalue cross-check
        terms = np.array([c * np.float_power(t, k) for k, c in enumerate(coeffs)])
        resid = float(np.max(np.abs(np.add.reduce(terms)) / np.abs(terms).max(axis=0), initial=0.0))
        checks.append(LineCheck((d1, d2), len(coeffs) - 1, distinct, deg_sf, distinct == deg_sf,
                                eig_residual_max=resid))
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
    p0 = (-c0 / c1, Fraction(0)) if c1 else (Fraction(0), -c0 / c2)
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
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    return lo is None or hi is None or lo < hi


def _recession_nontrivial(lines) -> bool:
    """Is there a direction d != 0 with all linear parts non-negative along d?"""
    normals = [(c1, c2) for _, c1, c2 in lines if c1 or c2]
    return not normals or any(all(a * d1 + b * d2 >= 0 for a, b in normals)
                              for n1, n2 in normals for d1, d2 in ((-n2, n1), (n2, -n1)))


def lmi_polytope_vertices(factors: list[TriPoly]) -> LmiPolytope:
    """Exact vertex structure of the polyhedral LMI set cut out by linear factors.

    Factors are homogeneous linear forms, sign-normalized to be positive at
    the origin (which the LMI set always contains); vertices come out
    counter-clockwise.
    """
    lines = []
    for f in factors:
        if f.is_zero() or f.total_degree() != 1 or not f.is_homogeneous():
            raise ValueError("factors must be nonzero homogeneous linear forms")
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
