import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from numrange import exactpoly
from numrange.exactpoly import ExactDivisionError, GaussianRational, TriPoly, parse_poly
from numrange.hermitian import GaussianRationalMatrix, _entry_scale, load_matrix, split
from numrange.pencil import SpectralGrid, _uniform_fan, pencil_det
from numrange.rangegeom import (
    CLUSTER_TOL,
    DEDUPE_TOL,
    PolytopeVerdict,
    _cross,
    _witness_clusters,
    convex_hull,
    support,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = FIXTURES / "golden"

YVARS = ("y0", "y1", "y2")
XVARS = ("x0", "x1", "x2")


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN


def fixture_matrix(name: str) -> GaussianRationalMatrix:
    return load_matrix(FIXTURES / f"{name}.json")


def golden_poly(name: str, vars) -> TriPoly:
    return parse_poly((GOLDEN / name).read_text().strip(), vars)


def cardioid_circle_dual_residual(x1: float, x2: float) -> float:
    """The smallest relative residual |q(1, x1, x2)| / scale over the golden
    duals of cardioid_circle's two components, the cardioid and the circle."""
    qs = [golden_poly(f"cardioid_circle_dual_{part}.txt", ("x0", "x1", "x2"))
          for part in ("cardioid", "circle")]
    return min(abs(v) / s for v, s in (eval_with_scale(q, (1.0, x1, x2)) for q in qs))


def planted_polytope_matrix() -> GaussianRationalMatrix:
    """diag(1, i, -1) plus the block [[i/3, 1/5], [0, i/3]]: non-normal, and
    W(A) is the triangle (-1, 0), (1, 0), (0, 1), since W of the block is the
    disk of radius 1/10 about i/3, which lies inside it."""
    c = GaussianRational(Fraction(0), Fraction(1, 3))
    A = GaussianRationalMatrix.diagonal(
        [GaussianRational.ONE, GaussianRational.I, -GaussianRational.ONE, c, c])
    rows = [list(row) for row in A.entries]
    rows[3][4] = GaussianRational(Fraction(1, 5), Fraction(0))
    return GaussianRationalMatrix(rows)


def random_gaussian_matrix(n: int, rng: random.Random,
                           complex_entries: bool = True) -> GaussianRationalMatrix:
    def entry():
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if complex_entries else Fraction(0)
        return GaussianRational(re, im)

    return GaussianRationalMatrix([[entry() for _ in range(n)] for _ in range(n)])


def mixed_magnitude_matrix(n: int, rng: random.Random) -> GaussianRationalMatrix:
    """An n x n matrix whose real and imaginary parts are each +-d * 10^k,
    d in 1..9 and k in {-400, -200, 0, 200, 400}: far outside the float range,
    and on both sides of it within one matrix."""
    def part():
        return rng.choice((-1, 1)) * rng.randint(1, 9) * Fraction(10) ** rng.choice(
            (-400, -200, 0, 200, 400))

    return GaussianRationalMatrix([[GaussianRational(part(), part()) for _ in range(n)]
                                   for _ in range(n)])


def random_tripoly(rng: random.Random, vars=YVARS, max_deg: int = 3,
                   terms: int = 4) -> TriPoly:
    t = {}
    for _ in range(terms):
        e = [rng.randint(0, max_deg) for _ in range(3)]
        while sum(e) > max_deg:
            e[rng.randrange(3)] = max(0, e[rng.randrange(3)] - 1)
        t[tuple(e)] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return TriPoly(vars, t)


# -- seeded Craig pairs ------------------------------------------------------------

# rational (cos, sin) pairs from Pythagorean triples, for exact orthogonal rotations
_TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29), (7, 24, 25), (9, 40, 41)]


def _rational_rotation(n: int, i: int, j: int, triple) -> GaussianRationalMatrix:
    a, b, c = triple
    cos, sin = Fraction(a, c), Fraction(b, c)
    rows = [[GaussianRational.ONE if r == s else GaussianRational.ZERO
             for s in range(n)] for r in range(n)]
    rows[i][i] = GaussianRational.of(cos)
    rows[j][j] = GaussianRational.of(cos)
    rows[i][j] = GaussianRational.of(-sin)
    rows[j][i] = GaussianRational.of(sin)
    return GaussianRationalMatrix(rows)


def _random_rational_orthogonal(n: int, rng: random.Random) -> GaussianRationalMatrix:
    Q = GaussianRationalMatrix.identity(n)
    for _ in range(max(2, n)):
        i, j = rng.sample(range(n), 2)
        Q = Q @ _rational_rotation(n, i, j, rng.choice(_TRIPLES))
    return Q


def planted_product_zero_pair(n: int, rng: random.Random):
    """Hermitian pair with A1 A2 = 0 exactly: disjoint diagonal supports
    conjugated by one rational orthogonal matrix."""
    if n < 2:
        raise ValueError("need n >= 2")
    k = rng.randint(1, n - 1)
    d1 = [Fraction(rng.randint(-5, 5)) for _ in range(k)] + [Fraction(0)] * (n - k)
    d2 = [Fraction(0)] * k + [Fraction(rng.randint(-5, 5)) for _ in range(n - k)]
    Q = _random_rational_orthogonal(n, rng)
    Qt = Q.conj_transpose()
    D1 = GaussianRationalMatrix.diagonal(d1)
    D2 = GaussianRationalMatrix.diagonal(d2)
    return Q @ D1 @ Qt, Q @ D2 @ Qt


def generic_hermitian_pair(n: int, rng: random.Random, complex_entries: bool = False):
    """Seeded Hermitian pair with no planted structure."""

    def herm():
        rows = [[GaussianRational.ZERO] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = GaussianRational.of(Fraction(rng.randint(-4, 4)))
            for j in range(i + 1, n):
                re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                im = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if complex_entries else Fraction(0)
                rows[i][j] = GaussianRational(re, im)
                rows[j][i] = GaussianRational(re, -im)
        return GaussianRationalMatrix(rows)

    return herm(), herm()


# -- views of library objects that only tests read ------------------------------


def constant_value(f: TriPoly) -> Fraction:
    """The value of a constant polynomial (0 for the zero polynomial)."""
    if not f.is_constant():
        raise ValueError("not a constant polynomial")
    return f.terms.get((0, 0, 0), Fraction(0))


def eval_with_scale(f: TriPoly, point) -> tuple[float, float]:
    """(value, largest monomial magnitude) of f at a float point.

    |f(x)| / scale is the relative residual of a numeric sample.  Terms are
    summed in `sorted_terms` order, so equal polynomials give equal floats
    however they were built.
    """
    p0, p1, p2 = (float(x) for x in point)
    total = 0.0
    scale = 0.0
    for (a, b, c), coef in f.sorted_terms():
        v = float(coef) * (p0 ** a) * (p1 ** b) * (p2 ** c)
        total += v
        scale = max(scale, abs(v))
    return total, scale


def with_vars(f: TriPoly, vars) -> TriPoly:
    """The same coefficients over another variable triple."""
    return TriPoly(vars, f.terms)


def divides(f: TriPoly, g: TriPoly) -> bool:
    """Does f divide g exactly?"""
    try:
        g.divexact(f)
        return True
    except (ExactDivisionError, ZeroDivisionError):
        return False


def finite_points(samples) -> list[tuple[float, float]]:
    """The finite (x, y) points of a CurveSampleSet, read from its columns."""
    f = samples.finite
    return list(zip(samples.x[f].tolist(), samples.y[f].tolist()))


def canonical_json(A: GaussianRationalMatrix) -> str:
    """A matrix document with every part as [num, den] in lowest terms."""
    ents = [[(e.re.as_integer_ratio(), e.im.as_integer_ratio()) for e in row]
            for row in A.entries]
    return json.dumps({"n": A.n, "entries": ents}, separators=(",", ":"))


def polygon_support(vertices, thetas) -> np.ndarray:
    """Support function of the polygon at the given angles."""
    V = np.asarray(vertices, dtype=float)
    U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    return (U @ V.T).max(axis=1)


# -- the rational Sturm chain, the reference for pencil._sturm -------------------


def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _rational_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = _trim(list(a))
    while len(a) >= len(b):
        f, shift = a[-1] / b[-1], len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] -= f * y
        a = _trim(a)
    return a


def _sign_changes(vals) -> int:
    signs = [v > 0 for v in vals if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def reference_sturm(coeffs) -> tuple[int, int]:
    """(distinct real roots, degree of the squarefree part) of a rational
    polynomial, from the Sturm chain c, c', -rem(c, c'), ... in Fractions; its
    last element is gcd(c, c')."""
    c = _trim([Fraction(x) for x in coeffs])
    if len(c) <= 1:
        return 0, len(c) - 1
    chain = [c, [x * k for k, x in enumerate(c)][1:]]
    while r := _rational_rem(chain[-2], chain[-1]):
        chain.append([-x for x in r])
    at_pos = [p[-1] for p in chain]
    at_neg = [p[-1] if len(p) % 2 else -p[-1] for p in chain]
    return _sign_changes(at_neg) - _sign_changes(at_pos), len(c) - len(chain[-1])


# -- a Fraction-dict reference of TriPoly arithmetic ---------------------------
#
# Polynomials as {exponent triple: nonzero Fraction}, each operation term by
# term, as TriPoly computed them before it kept one integer store.


def _ref_clean(f: dict) -> dict:
    return {e: c for e, c in f.items() if c}


def _ref_lead(f: dict):
    return max(f, key=lambda e: (sum(e), e))


def reference_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return _ref_clean(out)


def reference_neg(f: dict) -> dict:
    return {e: -c for e, c in f.items()}


def reference_mul(f: dict, g: dict) -> dict:
    out = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            k = (ef[0] + eg[0], ef[1] + eg[1], ef[2] + eg[2])
            out[k] = out.get(k, 0) + cf * cg
    return _ref_clean(out)


def reference_pow(f: dict, k: int) -> dict:
    out = {(0, 0, 0): Fraction(1)}
    for _ in range(k):
        out = reference_mul(out, f)
    return out


def reference_partial(f: dict, i: int) -> dict:
    out = {}
    for e, c in f.items():
        if e[i]:
            k = list(e)
            k[i] -= 1
            out[tuple(k)] = c * e[i]
    return out


def reference_divexact(f: dict, g: dict) -> dict | None:
    """f/g by division on grlex leads in Q[v]; None when a remainder is left."""
    rem, q, glead = dict(f), {}, _ref_lead(g)
    while rem:
        flead = _ref_lead(rem)
        e = tuple(a - b for a, b in zip(flead, glead))
        if min(e) < 0:
            return None
        q[e] = rem[flead] / g[glead]
        rem = reference_add(rem, reference_mul({e: -q[e]}, g))
    return q


def reference_content(f: dict) -> Fraction:
    """The positive rational c with f/c integer and primitive; 0 for {}."""
    return Fraction(math.gcd(*(c.numerator for c in f.values())),
                    math.lcm(*(c.denominator for c in f.values())))


def reference_primitive(f: dict) -> dict:
    """f over its content, with a positive grlex lead."""
    if not f:
        return {}
    c = reference_content(f)
    if f[_ref_lead(f)] < 0:
        c = -c
    return {e: v / c for e, v in f.items()}


def random_term_dicts(rng: random.Random, count: int) -> list[dict]:
    """Seeded Fraction term dicts: the zero polynomial and constants, then
    up to 8 terms of degree <= 4, with random signs (so negative grlex leads),
    each scaled by 10^0 or 10^(+-100), or term by term by a mix of them."""
    out = [{}, {(0, 0, 0): Fraction(-3, 7)}, {(0, 0, 0): Fraction(10) ** 100}]
    while len(out) < count:
        f = {}
        for _ in range(rng.randint(1, 8)):
            e = [rng.randint(0, 4) for _ in range(3)]
            while sum(e) > 4:
                e[rng.randrange(3)] = 0
            f[tuple(e)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        mode = rng.randrange(4)
        if mode < 3:
            s = Fraction(10) ** (0, 100, -100)[mode]
            f = {e: c * s for e, c in f.items()}
        else:
            f = {e: c * Fraction(10) ** rng.choice((0, 100, -100)) for e, c in f.items()}
        out.append(_ref_clean(f))
    return out


# -- polygon checks on hulls (floats and Fractions alike) ----------------------


def polygon_is_convex(vertices, tol: float = 0.0) -> bool:
    """Does the vertex cycle turn left (or go straight, within tol) at every corner?"""
    n = len(vertices)
    if n <= 2:
        return True
    scale = max(max(abs(float(x)), abs(float(y))) for x, y in vertices) or 1.0
    for i in range(n):
        c = _cross(vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n])
        if float(c) < -tol * scale * scale:
            return False
    return True


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


# -- a Fraction reference of the matrix intake ---------------------------------
#
# Matrices as lists of rows of GaussianRational entries with Fraction parts,
# each operation entry by entry, as the matrix layer computed them before it
# kept one integer store per matrix.


def reference_from_json(obj) -> list[list[GaussianRational]]:
    """The entries of a well-formed matrix document."""
    part = lambda v: Fraction(v) if isinstance(v, int) else Fraction(v[0], v[1])
    return [[GaussianRational(part(e[0]), part(e[1])) for e in row] for row in obj["entries"]]


def reference_split(rows):
    n, half = len(rows), Fraction(1, 2)
    e = rows
    A1 = [[GaussianRational((e[i][j].re + e[j][i].re) * half, (e[i][j].im - e[j][i].im) * half)
           for j in range(n)] for i in range(n)]
    A2 = [[GaussianRational((e[i][j].im + e[j][i].im) * half, (e[j][i].re - e[i][j].re) * half)
           for j in range(n)] for i in range(n)]
    return A1, A2


def reference_matmul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), GaussianRational.ZERO) for col in zip(*B)]
            for row in A]


def reference_conj_transpose(A):
    return [[e.conjugate() for e in col] for col in zip(*A)]


def reference_is_hermitian(A) -> bool:
    return A == reference_conj_transpose(A)


def reference_is_normal(A) -> bool:
    star = reference_conj_transpose(A)
    return reference_matmul(star, A) == reference_matmul(A, star)


def reference_cleared_parts(A) -> tuple[int, list, list]:
    """(L, re, im): L the lcm of the denominators of every part, L*A = re + i*im."""
    L = math.lcm(*(x.denominator for row in A for e in row for x in (e.re, e.im)))
    return (L, [[int(e.re * L) for e in row] for row in A],
            [[int(e.im * L) for e in row] for row in A])


def reference_to_complex(A):
    """The complex128 view from float(Fraction) per part, or the text of the
    FloatRangeError for the first part, in row-major order, outside the
    normal float range."""
    out = np.empty((len(A), len(A)), dtype=np.complex128)
    for i, row in enumerate(A):
        for j, e in enumerate(row):
            for x, part in ((e.re, "real"), (e.im, "imaginary")):
                try:
                    f = float(x)
                except OverflowError:
                    f = math.inf
                if x and not sys.float_info.min <= abs(f) < math.inf:
                    exp10 = math.log10(abs(x.numerator)) - math.log10(x.denominator)
                    return (f"entry ({i}, {j}) has a {part} part of about 1e{exp10:+.0f}, outside "
                            f"the normal float range [{sys.float_info.min:.3g}, "
                            f"{sys.float_info.max:.3g}]")
                if part == "real":
                    out.real[i, j] = f
                else:
                    out.imag[i, j] = f
    return out


def reference_charpoly(A) -> list[GaussianRational]:
    """Ascending coefficients of det(t*I - A): those of det(t*I - C) for the
    Gaussian integer matrix C = L*A over L^(n-k), the latter by
    Faddeev-LeVerrier on (re, im) int pairs."""
    L, cr, ci = reference_cleared_parts(A)
    n = len(A)

    def mul(X, Y):
        (xr, xi), (yr, yi) = X, Y
        return ([[sum(xr[i][k] * yr[k][j] - xi[i][k] * yi[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)],
                [[sum(xr[i][k] * yi[k][j] + xi[i][k] * yr[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)])

    c = [(0, 0)] * n + [(1, 0)]
    M = ([[0] * n for _ in range(n)], [[0] * n for _ in range(n)])
    for k in range(1, n + 1):
        M = mul((cr, ci), M)
        for i in range(n):
            M[0][i][i] += c[n - k + 1][0]
            M[1][i][i] += c[n - k + 1][1]
        CM = mul((cr, ci), M)
        tr = (sum(CM[0][i][i] for i in range(n)), sum(CM[1][i][i] for i in range(n)))
        assert tr[0] % k == 0 and tr[1] % k == 0
        c[n - k] = (-tr[0] // k, -tr[1] // k)
    return [GaussianRational(Fraction(a, L ** (n - k)), Fraction(b, L ** (n - k)))
            for k, (a, b) in enumerate(c)]


def charpoly_from_p(A) -> list[GaussianRational]:
    """Ascending coefficients of det(t*I - A) = p(t, -1, -i), read off the pencil
    determinant p of split(A) (Kippenhahn 1951): the term v*y0^k*y1^b*y2^c adds
    v*(-1)^b*(-i)^c = v*(-1)^(b+c)*i^c to the coefficient of t^k."""
    p = pencil_det(split(A)).p
    parts = [[Fraction(0), Fraction(0)] for _ in range(A.n + 1)]
    for (k, b, c), v in p.terms.items():
        parts[k][c % 2] += -v if (b + c + c // 2) % 2 else v   # i^c = (-1)^(c//2) * i^(c%2)
    return [GaussianRational(re, im) for re, im in parts]


def support_shift_deviation(A, c, N: int = 360) -> tuple[float, float]:
    """(max |h_{A+cI} - h_A - c*cos|, the larger pencil unit) over an N-angle fan: the
    translate law of the support function, W(A + cI) = W(A) + c."""
    c = Fraction(c)
    shifted = A + GaussianRationalMatrix.identity(A.n).scale(GaussianRational.of(c))
    grid, grid_c = SpectralGrid(split(A), N), SpectralGrid(split(shifted), N)
    dev = float(np.abs(support(grid_c)[0] - support(grid)[0] - float(c) * grid.cos).max())
    return dev, max(grid.pencil.unit, grid_c.pencil.unit)


def matrix_document(rows, rng: random.Random) -> dict:
    """A matrix document of the entries, each part written in a random one of
    the accepted forms: an int (when it is one), [num, den] with a negative
    denominator, or [num, den] not in lowest terms."""

    def part(x: Fraction):
        form = rng.randrange(3)
        if form == 0 and x.denominator == 1:
            return x.numerator
        k = rng.choice((1, 2, 3, 10 ** 20))
        sign = -1 if form == 1 else 1
        return [sign * k * x.numerator, sign * k * x.denominator]

    return {"n": len(rows), "entries": [[[part(e.re), part(e.im)] for e in row] for row in rows]}


def random_intake_entries(n: int, rng: random.Random, kind: str) -> list[list[GaussianRational]]:
    """Seeded entries of one of the kinds "small" (parts k/d with |k| <= 9),
    "wide" (numerators up to 2^54 or 2^62 over the denominators 1, 3 and 7,
    or up to 2^70 over 1 and two denominators up to 2^60),
    "huge" and "tiny" (small parts but two, of size 10^(+-300..400))."""

    bits, dens = rng.choice(((54, [1, 3, 7]), (62, [1, 3, 7]),
                             (70, [rng.randint(1, 2 ** 60) for _ in range(2)] + [1])))

    def part():
        if kind == "wide":
            return Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.choice(dens))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    rows = [[[part(), part() if rng.random() < 0.8 else Fraction(0)] for _ in range(n)]
            for _ in range(n)]
    if kind in ("huge", "tiny"):
        for _ in range(2):
            big = rng.randint(1, 999) * Fraction(10) ** rng.randint(300, 400)
            row = rows[rng.randrange(n)][rng.randrange(n)]
            row[rng.randrange(2)] = (big if kind == "huge" else 1 / big) * rng.choice((-1, 1))
    return [[GaussianRational(*e) for e in row] for row in rows]


def reference_polytope_verdict(A: GaussianRationalMatrix, N: int) -> PolytopeVerdict:
    """The verdict of `rangegeom.polytope_detect` on a non-normal A with
    every angle of the N-fan solved: the support witnesses of one
    `SpectralGrid.at` on the whole fan, clustered and judged by the same rules."""
    grid = SpectralGrid.at(split(A), *_uniform_fan(N))
    return _witness_verdict_of(support(grid)[1], grid.pencil.unit)


def earlier_polytope_detect(A: GaussianRationalMatrix, N: int = 360) -> PolytopeVerdict:
    """`rangegeom.polytope_detect(A, N)` as it read before it took the pencil
    curve: normality by A*A == AA*, then the float spectrum certified against
    p, or the witnesses of the N-fan, half of it solved when N is even."""
    pencil = split(A)
    f1, f2 = pencil.A1.to_complex(), pencil.A2.to_complex()
    scale = _entry_scale(f1, f2)
    star = reference_conj_transpose(A.entries)
    if reference_matmul(star, A.entries) != reference_matmul(A.entries, star):
        if N % 2:
            wit = support(SpectralGrid(pencil, N))[1]
        else:
            grid = SpectralGrid.at(pencil, *(a[:N // 2] for a in _uniform_fan(N)))
            V = grid.eigvecs[:, :, 0]
            low = np.stack([np.einsum("bi,ij,bj->b", V.conj(), f, V).real for f in (f1, f2)], axis=1)
            wit = np.concatenate((support(grid)[1], low))
        return _witness_verdict_of(wit, scale)
    p = pencil_det(pencil).p
    M = A.to_complex()
    eigs = np.linalg.eigvals(M)
    D = math.gcd(A.L, p.content.denominator)
    roots = [(round(Fraction(z.real) * D), round(Fraction(z.imag) * D)) for z in eigs]
    prod = TriPoly.constant(1, p.vars)
    for a, b in roots:
        prod = prod * TriPoly(p.vars, {(1, 0, 0): 1, (0, 1, 0): Fraction(a, D),
                                       (0, 0, 1): Fraction(b, D)})
    if prod == p:
        verts = convex_hull([(Fraction(a, D), Fraction(b, D)) for a, b in roots])
        return PolytopeVerdict(kind="polytope", vertices=tuple(verts), exact=True)
    if A.is_hermitian():
        eigs = np.linalg.eigvalsh(M)
    kept = []
    for z in eigs:
        if not any(abs(z - w) <= DEDUPE_TOL * (scale + abs(z)) for w in kept):
            kept.append(z)
    verts = convex_hull([(float(z.real), float(z.imag)) for z in kept])
    return PolytopeVerdict(kind="polytope", vertices=tuple(verts), exact=False)


def _witness_verdict_of(wit: np.ndarray, scale: float) -> PolytopeVerdict:
    """The verdict on the witnesses of an N-fan, (N, 2) in angle order, and the
    pencil's entry scale: runs of three or more that hold 0.9*N of them make a
    polytope of their means, runs of at most two a smooth range."""
    N = len(wit)
    starts, lengths = _witness_clusters(wit, CLUSTER_TOL * max(scale, float(np.abs(wit).max())))
    big = lengths >= 3
    if big.sum() >= 3 and lengths[big].sum() >= 0.9 * N:
        runs = (wit.take(np.arange(i, i + k), axis=0, mode="wrap")
                for i, k in zip(starts[big].tolist(), lengths[big].tolist()))
        verts = convex_hull([tuple(run.mean(axis=0).tolist()) for run in runs])
        return PolytopeVerdict(kind="polytope", vertices=tuple(verts), exact=False)
    if lengths.max() <= 2:
        return PolytopeVerdict(kind="smooth")
    return PolytopeVerdict(kind="mixed/unknown")


def reference_vandermonde_inverse(m: int, P: int) -> np.ndarray:
    """The inverse mod P of the Vandermonde matrix [j^d], j, d < m, built
    column by column through Newton interpolation of the unit vectors
    (`exactpoly._interpolate`), O(m^3)."""
    units = ([int(i == j) for i in range(m)] for j in range(m))
    return np.array([exactpoly._interpolate(range(m), e, P) for e in units], dtype=np.int64).T


def reference_gradient_certificate(F: dict, Q: dict) -> tuple[int, ...]:
    """`exactpoly._gradient_certificate` by multiplication matrices: the same
    primes, seeded lines and redraw rule, but s = Q(G_0, G_1, G_2) mod r is
    built from the n x n matrices of multiplication by G_i in F_P[t]/(r),
    every monomial of degree d from those of degree d - 1."""
    dotmod = exactpoly._dotmod
    n = max(map(sum, F))
    polys = [F] + [{e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in F.items() if e[i]}
                   for i in range(3)]
    exps = np.array([e for H in polys for e in H], dtype=np.intp).T
    owner = (np.repeat(np.arange(4), [len(H) for H in polys]) == np.arange(4)[:, None]).astype(np.int64)
    top = [c for e, c in F.items() if sum(e) == n]
    primes = list(itertools.islice((P for P in exactpoly._primes(exactpoly._CERTIFICATE_PRIMES)
                                    if any(c % P for c in top)), 2))
    P = np.array(primes, dtype=np.int64)[:, None]
    P3 = P[:, :, None]
    W = np.array([reference_vandermonde_inverse(n + 1, prime) for prime in primes])
    coefs = np.array([[c % prime for H in polys for c in H.values()] for prime in primes], dtype=np.int64)
    rng = random.Random(exactpoly._CERTIFICATE_SEED)
    while True:
        ab = np.array([[rng.randrange(prime) for _ in range(6)] for prime in primes], dtype=np.int64)
        y = np.fmod(ab[:, :3, None] + ab[:, 3:, None] * np.arange(n + 1), P3)  # (draw, var, node)
        pw = np.ones((2, 3, n + 1, n + 1), dtype=np.int64)  # pw[draw, var, k] = y^k
        for k in range(1, n + 1):
            pw[:, :, k] = np.fmod(pw[:, :, k - 1] * y, P3)
        terms = coefs[:, :, None]
        for v in range(3):
            terms = np.fmod(terms * pw[:, v, exps[v]], P3)
        values = np.fmod(owner @ terms, P3)  # F and its partials at the nodes
        coeffs = dotmod(W[:, None], values[:, :, None], P3)  # constant term first
        lead = coeffs[:, 0, n]
        if lead.all():
            break
    inv = np.array([pow(int(c), -1, prime) for c, prime in zip(lead, primes)], dtype=np.int64)[:, None]
    r = np.fmod(coeffs[:, 0, :n] * inv, P)  # the monic r without its t^n
    X, cols = coeffs[:, 1:, :n], []  # X = t^j * G mod r, for j = 0..n-1
    for _ in range(n):
        cols.append(X)
        top = X[:, :, -1:]
        X = np.concatenate((np.zeros_like(top), X[:, :, :-1]), axis=2)
        X = np.fmod(X + P3 - np.fmod(top * r[:, None], P3), P3)
    M = np.stack(cols, axis=3)[:, None]  # M[draw, 0, i] multiplies by G_i
    # the monomials of degree d in the order (a + b, a), so (a, b, c) is row
    # d(d+1)(d+2)/6 + (a+b)(a+b+1)/2 + a: each level is G_2 times the last,
    # then G_1 times its c = 0 block and G_0 times its (d-1, 0, 0)
    V = np.zeros((2, 1, n), dtype=np.int64)
    V[:, 0, 0] = 1
    levels = [V]
    P4 = P3[:, :, None]
    for d in range(1, max(map(sum, Q)) + 1):
        GV = dotmod(M, V[:, :, None, None], P4)  # GV[draw, row, i] = G_i * V[draw, row]
        V = np.concatenate((GV[:, :, 2], GV[:, -d:, 1], GV[:, -1:, 0]), axis=1)
        levels.append(V)
    rows = [(a + b + c) * (a + b + c + 1) * (a + b + c + 2) // 6 + (a + b) * (a + b + 1) // 2 + a
            for a, b, c in Q]
    qc = np.array([[c % prime for c in Q.values()] for prime in primes], dtype=np.int64)
    s = dotmod(np.concatenate(levels, axis=1)[:, rows].transpose(0, 2, 1), qc[:, None], P)
    return () if s.any() else tuple(primes)
