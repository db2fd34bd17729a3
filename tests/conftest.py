import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from numrange.exactpoly import GaussianRational, TriPoly, parse_poly
from numrange.hermitian import GaussianRationalMatrix, load_matrix
from numrange.rangegeom import _cross

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
    return min(abs(v) / s for v, s in (q.eval_with_scale((1.0, x1, x2)) for q in qs))


def random_gaussian_matrix(n: int, rng: random.Random,
                           complex_entries: bool = True) -> GaussianRationalMatrix:
    def entry():
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if complex_entries else Fraction(0)
        return GaussianRational(re, im)

    return GaussianRationalMatrix([[entry() for _ in range(n)] for _ in range(n)])


def random_tripoly(rng: random.Random, vars=YVARS, max_deg: int = 3,
                   terms: int = 4) -> TriPoly:
    t = {}
    for _ in range(terms):
        e = [rng.randint(0, max_deg) for _ in range(3)]
        while sum(e) > max_deg:
            e[rng.randrange(3)] = max(0, e[rng.randrange(3)] - 1)
        t[tuple(e)] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return TriPoly(vars, t)


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
