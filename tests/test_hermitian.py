import json
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from numrange.exactpoly import GaussianRational
from numrange.hermitian import (
    GaussianRationalMatrix,
    HermitianPencil,
    MatrixFormatError,
    NonHermitianError,
    charpoly,
    is_normal,
    matrix_from_json,
    rank_one_value,
    split,
)

from conftest import fixture_matrix, random_gaussian_matrix

G = GaussianRational.of
I_UNIT = GaussianRational.I


def matrix(rows):
    return GaussianRationalMatrix(
        [[e if isinstance(e, GaussianRational) else G(Fraction(e)) for e in row]
         for row in rows])


NILPOTENT = matrix([[0, 1], [0, 0]])


class TestSplit:
    def test_cubic_fixture(self):
        pencil = split(fixture_matrix("cubic_cusp"))
        assert pencil.A1 == matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert pencil.A2 == matrix([[0, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_identity(self):
        pencil = split(GaussianRationalMatrix.identity(3))
        assert pencil.A1 == GaussianRationalMatrix.identity(3)
        assert pencil.A2.is_zero()

    def test_nilpotent(self):
        pencil = split(NILPOTENT)
        half = Fraction(1, 2)
        assert pencil.A1 == matrix([[0, G(half)], [G(half), 0]])
        assert pencil.A2 == matrix([[0, GaussianRational(Fraction(0), -half)],
                                    [GaussianRational(Fraction(0), half), 0]])

    def test_reconstruction_exact(self):
        rng = random.Random(101)
        for _ in range(10):
            A = random_gaussian_matrix(rng.randint(1, 6), rng)
            pencil = split(A)
            assert pencil.A1 + pencil.A2.scale(I_UNIT) == A
            assert pencil.A1.is_hermitian() and pencil.A2.is_hermitian()

    def test_pencil_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            HermitianPencil(NILPOTENT, GaussianRationalMatrix.zero(2))

    @staticmethod
    def _split_reference(A):
        """The splitting through matrix sums and Gaussian-rational scalings."""
        star = A.conj_transpose()
        return ((A + star).scale(G(Fraction(1, 2))),
                (A - star).scale(GaussianRational(Fraction(0), Fraction(-1, 2))))

    def test_entrywise_split_matches_the_matrix_formula(self):
        rng = random.Random(2024)
        mats = [fixture_matrix(name) for name in ("cubic_cusp", "cross_star", "nested_ovals",
                                                  "cardioid_circle", "disk", "polytope")]
        for n in range(1, 9):
            for cx in (False, True):
                for power in (0, 100, -100):
                    mats.append(random_gaussian_matrix(n, rng, cx).scale(G(Fraction(10) ** power)))
        for A in mats:
            pencil = split(A)
            assert (pencil.A1, pencil.A2) == self._split_reference(A)

    def test_is_hermitian_matches_the_conjugate_transpose(self):
        rng = random.Random(77)
        for _ in range(40):
            A = random_gaussian_matrix(rng.randint(1, 5), rng, rng.random() < 0.5)
            for M in (A, A + A.conj_transpose(), split(A).A2):
                assert M.is_hermitian() == (M == M.conj_transpose())
        # one off-diagonal entry that is the transpose, not the conjugate
        assert not matrix([[1, I_UNIT], [I_UNIT, 1]]).is_hermitian()
        assert not matrix([[I_UNIT, 0], [0, 1]]).is_hermitian()

    def test_non_hermitian_pairs_are_refused(self):
        rng = random.Random(5)
        for _ in range(10):
            A = random_gaussian_matrix(rng.randint(2, 5), rng)
            pencil = split(A)
            assert not A.is_hermitian()
            with pytest.raises(NonHermitianError, match="A1"):
                HermitianPencil(A, pencil.A2)
            with pytest.raises(NonHermitianError, match="A2"):
                HermitianPencil(pencil.A1, A)

    def test_float_parts_converted_once_and_read_only(self):
        pencil = split(fixture_matrix("cubic_cusp"))
        f1, f2 = pencil.float_parts()
        assert pencil.float_parts()[0] is f1 and pencil.float_parts()[1] is f2
        assert np.array_equal(f1, pencil.A1.to_complex())
        with pytest.raises(ValueError):
            f1[0, 0] = 5.0


class TestNormal:
    def test_polytope_fixture_is_normal(self):
        assert is_normal(fixture_matrix("polytope"))

    def test_nilpotent_not_normal(self):
        assert not is_normal(NILPOTENT)

    def test_hermitian_always_normal(self):
        rng = random.Random(107)
        for _ in range(6):
            A = random_gaussian_matrix(rng.randint(2, 5), rng)
            H = split(A).A1
            assert is_normal(H)

    def test_matches_rational_products(self):
        # against A* A == A A* over Q(i); H + i*c*H^2 is normal, a random A is not
        rng = random.Random(109)
        seen = set()
        for k in range(12):
            A = random_gaussian_matrix(rng.randint(1, 5), rng)
            if k % 2:
                H = split(A).A1
                A = H + (H @ H).scale(G(0, Fraction(rng.randint(1, 5), 3)))
            A = A.scale(G(Fraction(1, 10 ** 40 + rng.randint(1, 9))))
            Astar = A.conj_transpose()
            ref = (Astar @ A) == (A @ Astar)
            assert is_normal(A) == ref
            seen.add(ref)
        assert seen == {True, False}


class TestRankOneValue:
    def test_identity(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        w /= np.linalg.norm(w)
        x = rank_one_value(GaussianRationalMatrix.identity(4), w)
        assert np.allclose(x, (1.0, 0.0), atol=1e-12)

    def test_basis_vector_picks_diagonal(self):
        x = rank_one_value(fixture_matrix("cubic_cusp"), [0.0, 1.0, 0.0])
        assert np.allclose(x, (1.0, 0.0), atol=1e-14)

    def test_nilpotent_mixed_vector(self):
        w = np.array([1.0, 1.0]) / np.sqrt(2.0)
        x = rank_one_value(NILPOTENT, w)
        assert np.allclose(x, (0.5, 0.0), atol=1e-14)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            rank_one_value(NILPOTENT, [1.0, 1.0])

    def test_inside_outer_hull(self):
        # the outer polygon is the intersection of the supporting half-planes,
        # so membership is the vectorized constraint x . u(theta) <= h(theta)
        from numrange.rangegeom import range_hulls

        rng = np.random.default_rng(11)
        for name in ("cubic_cusp", "disk"):
            A = fixture_matrix(name)
            hulls = range_hulls(A, 360)
            thetas = np.array([2 * np.pi * k / 360 for k in range(360)])
            U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
            h = np.array(hulls.support_values)
            W = rng.normal(size=(10_000, A.n)) + 1j * rng.normal(size=(10_000, A.n))
            W /= np.linalg.norm(W, axis=1, keepdims=True)
            pts = np.array([rank_one_value(A, w) for w in W])
            assert (pts @ U.T <= h[None, :] + 1e-8).all()


class TestCharpoly:
    def test_matches_eigenvalues(self):
        rng = random.Random(109)
        for _ in range(6):
            n = rng.randint(2, 5)
            A = random_gaussian_matrix(n, rng)
            coeffs = charpoly(A)
            assert coeffs[-1] == GaussianRational.ONE
            # evaluate at the float eigenvalues of A
            z = np.linalg.eigvals(A.to_complex())
            poly = np.array([complex(c) for c in coeffs[::-1]])
            vals = np.polyval(poly, z)
            assert np.abs(vals).max() < 1e-6 * max(1.0, np.abs(z).max()) ** n

    def test_matches_sympy_exactly(self):
        rng = random.Random(113)
        t = sp.symbols("t")
        for n in range(1, 9):
            A = random_gaussian_matrix(n, rng)
            M = sp.Matrix([[sp.Rational(e.re.numerator, e.re.denominator)
                            + sp.I * sp.Rational(e.im.numerator, e.im.denominator)
                            for e in row] for row in A.entries])
            ref = [sp.expand(c) for c in M.charpoly(t).all_coeffs()[::-1]]
            got = [sp.Rational(c.re.numerator, c.re.denominator)
                   + sp.I * sp.Rational(c.im.numerator, c.im.denominator)
                   for c in charpoly(A)]
            assert got == ref
            assert all(isinstance(c, GaussianRational) for c in charpoly(A))


class TestMatrixJson:
    def test_full_and_shorthand(self):
        obj = {"n": 2, "entries": [[[[1, 2], [0, 1]], [3, -1]], [[0, 0], [1, 0]]]}
        A = matrix_from_json(obj)
        assert A[0, 0] == GaussianRational(Fraction(1, 2), Fraction(0))
        assert A[0, 1] == GaussianRational(Fraction(3), Fraction(-1))
        assert A[1, 1] == GaussianRational.ONE

    def test_canonical_roundtrip(self):
        rng = random.Random(113)
        A = random_gaussian_matrix(3, rng)
        again = matrix_from_json(json.loads(A.canonical_json()))
        assert again == A

    @pytest.mark.parametrize("obj", [
        [],
        {"n": 2},
        {"n": 0, "entries": []},
        {"n": 2, "entries": [[[0, 0]], [[0, 0], [0, 0]]]},
        {"n": 1, "entries": [[[[1, 0], [0, 0]]]]},   # zero denominator
        {"n": 1, "entries": [["x"]]},
    ])
    def test_malformed(self, obj):
        with pytest.raises(MatrixFormatError):
            matrix_from_json(obj)
