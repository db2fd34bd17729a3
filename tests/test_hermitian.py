import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

import numrange.cli

from numrange.exactpoly import GaussianRational
from numrange.hermitian import (
    FloatRangeError,
    GaussianRationalMatrix,
    HermitianPencil,
    MatrixFormatError,
    NonHermitianError,
    _cleared_parts,
    _int_matmul,
    is_normal,
    matrix_from_json,
    split,
)

from conftest import (
    canonical_json,
    charpoly_from_p,
    fixture_matrix,
    matrix_document,
    random_gaussian_matrix,
    random_intake_entries,
    reference_charpoly,
    reference_cleared_parts,
    reference_from_json,
    reference_is_hermitian,
    reference_is_normal,
    reference_matmul,
    reference_split,
    reference_to_complex,
)

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

    def test_non_hermitian_messages(self):
        zero = GaussianRationalMatrix.zero(2)
        for pair, text in (((NILPOTENT, zero), "A1 is not Hermitian"),
                           ((zero, NILPOTENT), "A2 is not Hermitian"),
                           ((NILPOTENT, NILPOTENT), "A1 is not Hermitian")):
            with pytest.raises(NonHermitianError) as exc:
                HermitianPencil(*pair)
            assert str(exc.value) == text

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
        assert np.array_equal(f1, pencil.A1.to_complex()) and pencil.unit == 1.0
        with pytest.raises(ValueError):
            f1[0, 0] = 5.0

    @pytest.mark.parametrize("power", [-300, -100, 100, 300])
    def test_float_parts_are_the_parts_over_the_unit(self, power):
        # one division by the power of two s = unit, exact: the largest part lies in [1, 2)
        pencil = split(fixture_matrix("cubic_cusp").scale(G(Fraction(10) ** power)))
        s = pencil.unit
        assert math.frexp(s)[0] == 0.5 and abs(math.log10(s) - power) < 1
        for f, part in zip(pencil.float_parts(), (pencil.A1, pencil.A2)):
            assert np.array_equal(f * s, part.to_complex())
        m = max(float(np.abs(x).max()) for f in pencil.float_parts() for x in (f.real, f.imag))
        assert 1.0 <= m < 2.0


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


def _int_matmul_reference(A, B):
    (ar, ai), (br, bi) = A, B
    n = range(len(ar))
    return ([[sum(ar[i][k] * br[k][j] - ai[i][k] * bi[k][j] for k in n) for j in n] for i in n],
            [[sum(ar[i][k] * bi[k][j] + ai[i][k] * br[k][j] for k in n) for j in n] for i in n])


class TestIntMatmul:
    def test_matches_the_triple_loop_past_int64(self):
        # parts up to 2^100 overflow any fixed-width product; the sums must stay exact
        rng = random.Random(2718)
        for n in (1, 2, 3, 5, 8):
            for bits in (10, 63, 64, 100):
                part = lambda: [[rng.randint(-2**bits, 2**bits) for _ in range(n)] for _ in range(n)]
                A, B = (part(), part()), (part(), part())
                got = _int_matmul(A, B)
                assert got == _int_matmul_reference(A, B), (n, bits)
                assert all(type(x) is int for P in got for row in P for x in row)
                assert all(type(row) is list for P in got for row in P)

    def test_reads_tuple_rows(self):
        A = ([(1, 2), (3, 4)], [(0, 1), (1, 0)])
        assert _int_matmul(A, A) == _int_matmul_reference(A, A)


class TestRankOneValue:
    def test_inside_outer_hull(self):
        # the outer polygon is the intersection of the supporting half-planes,
        # so membership of the rank-one values w*Aw = (w*A1w, w*A2w) of unit
        # vectors w is the vectorized constraint x . u(theta) <= h(theta)
        from numrange.pencil import SpectralGrid
        from numrange.rangegeom import range_hulls

        rng = np.random.default_rng(11)
        for name in ("cubic_cusp", "disk"):
            A = fixture_matrix(name)
            hulls = range_hulls(SpectralGrid(split(A), 360))
            thetas = np.array([2 * np.pi * k / 360 for k in range(360)])
            U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
            h = np.array(hulls.support_values)
            W = rng.normal(size=(10_000, A.n)) + 1j * rng.normal(size=(10_000, A.n))
            W /= np.linalg.norm(W, axis=1, keepdims=True)
            z = np.einsum("bi,ij,bj->b", W.conj(), A.to_complex(), W)
            pts = np.stack([z.real, z.imag], axis=1)
            assert (pts @ U.T <= h[None, :] + 1e-8).all()


class TestCharpoly:
    """det(t*I - A) read off the pencil determinant of split(A) as p(t, -1, -i)."""

    def test_matches_eigenvalues(self):
        rng = random.Random(109)
        for _ in range(6):
            n = rng.randint(2, 5)
            A = random_gaussian_matrix(n, rng)
            coeffs = charpoly_from_p(A)
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
                   for c in charpoly_from_p(A)]
            assert got == ref


MALFORMED = [
    ([], "matrix document must be a JSON object"),
    ({"n": 2}, "missing key 'entries'"),
    ({"n": 0, "entries": []}, "bad size n=0"),
    ({"n": 2, "entries": [[[0, 0]], [[0, 0], [0, 0]]]}, "row 0 must have 2 entries"),
    ({"n": 1, "entries": [[[[1, 0], [0, 0]]]]}, "zero denominator in [1, 0]"),
    ({"n": 1, "entries": [["x"]]},
     "bad entry 'x': expected [re, im] ints or [[re_num,re_den],[im_num,im_den]]"),
    ({"entries": []}, "missing key 'n'"),
    ({"n": "2", "entries": []}, "bad size n='2'"),
    ({"n": 2, "entries": 5}, "expected 2 rows, got int"),
    ({"n": 2, "entries": [[0, 0]]}, "expected 2 rows, got 1"),
    ({"n": 1, "entries": [[[0, [1, False]]]]}, "zero denominator in [1, False]"),
    ({"n": 1, "entries": [[[1.5, 0]]]}, "bad rational 1.5: expected int or [num, den]"),
    ({"n": 1, "entries": [[[[1, 2, 3], 0]]]}, "bad rational [1, 2, 3]: expected int or [num, den]"),
    ({"n": 1, "entries": [[[[1, 2.0], 0]]]}, "bad rational [1, 2.0]: expected int or [num, den]"),
    ({"n": 1, "entries": [[[0, 0, 0]]]},
     "bad entry [0, 0, 0]: expected [re, im] ints or [[re_num,re_den],[im_num,im_den]]"),
    ({"n": 2, "entries": [[["x"], [0, 0]], [[0, 0]]]},
     "bad entry ['x']: expected [re, im] ints or [[re_num,re_den],[im_num,im_den]]"),
    ({"n": 2, "entries": [[[0, 0], [0, 0]], 7]}, "row 1 must have 2 entries"),
    ({"n": 1, "entries": [[[[1, 0], "y"]]]}, "zero denominator in [1, 0]"),
    ({"n": 1, "entries": [[[None, [1, 0]]]]}, "bad rational None: expected int or [num, den]"),
]


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
        again = matrix_from_json(json.loads(canonical_json(A)))
        assert again == A

    @pytest.mark.parametrize("obj, message", MALFORMED, ids=[f"obj{i}" for i in range(len(MALFORMED))])
    def test_malformed(self, obj, message, tmp_path):
        # the first failing check in row-major order (real part before imaginary
        # part) names the error; the CLI prefixes the file name
        with pytest.raises(MatrixFormatError) as exc:
            matrix_from_json(obj)
        assert str(exc.value) == message
        path = tmp_path / "m.json"
        for doc in (obj, {"A1": obj, "A2": {"n": 1, "entries": [[[0, 0]]]}}):
            path.write_text(json.dumps(doc))
            loaders = (numrange.cli._load_pair,) if "A1" in doc else (numrange.cli._load_matrix,
                                                                       numrange.cli._load_pair)
            for load in loaders:
                with pytest.raises(numrange.cli.InputError) as exc:
                    load(str(path))
                assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("build", [
        lambda: GaussianRationalMatrix([]),
        lambda: GaussianRationalMatrix.identity(0),
        lambda: GaussianRationalMatrix.identity(-1),
        lambda: GaussianRationalMatrix.zero(0),
        lambda: GaussianRationalMatrix.zero(-2),
        lambda: GaussianRationalMatrix.diagonal([]),
    ], ids=["entries", "identity0", "identity-1", "zero0", "zero-2", "diagonal"])
    def test_empty_matrix_refused(self, build):
        with pytest.raises(MatrixFormatError, match=r"^matrix must be square and non-empty$"):
            build()

    def test_denominators_are_normalised(self):
        # a negative denominator moves its sign to the numerator, a non-reduced
        # one is reduced, and JSON true is the int 1
        A = matrix_from_json({"n": 2, "entries": [[[[1, -2], [2, 4]], [True, [False, True]]],
                                                  [[[-6, -4], [0, -3]], [[5, 10], 1]]]})
        assert A == matrix(
            [[GaussianRational(Fraction(-1, 2), Fraction(1, 2)), G(1)],
             [G(Fraction(3, 2)), GaussianRational(Fraction(1, 2), Fraction(1))]])
        assert canonical_json(A) == (
            '{"n":2,"entries":[[[[-1,2],[1,2]],[[1,1],[0,1]]],[[[3,2],[0,1]],[[1,2],[1,1]]]]}')

    @pytest.mark.parametrize("part, exponents", [
        ([[10 ** 400, 1], 0], ("real", "+400", "+400")),
        ([[1, -10 ** 400], 0], ("real", "-400", "-400")),
        ([0, [7, 10 ** 400]], ("imaginary", "-399", "-399")),
        ([0, [-10 ** 400, 3]], ("imaginary", "+400", "+399")),
        ([[1, 2 ** 1074], 0], ("real", "-323", "-324")),
    ])
    def test_float_range_error(self, part, exponents):
        # the float view of A, then that of A1 = (A + A*)/2 or A2, each of
        # whose parts at (0, 1) is half the one of A
        A = matrix_from_json({"n": 2, "entries": [[[1, 0], part], [[0, 0], [0, 1]]]})
        kind, *exps = exponents
        for to_float, exp in zip((A.to_complex, lambda: split(A).float_parts()), exps):
            with pytest.raises(FloatRangeError) as exc:
                to_float()
            assert str(exc.value) == (f"entry (0, 1) has a {kind} part of about 1e{exp}, "
                                      f"outside the normal float range [2.23e-308, 1.8e+308]")

    def test_float_range_error_of_a_split_part(self):
        # 2^-1022 is the smallest normal float; the split halves it
        A = matrix_from_json({"n": 2, "entries": [[[1, 0], [[1, 2 ** 1022], 0]], [[0, 0], [0, 1]]]})
        assert A.to_complex()[0, 1] == 2.0 ** -1022
        with pytest.raises(FloatRangeError) as exc:
            split(A).float_parts()
        assert str(exc.value) == ("entry (0, 1) has a real part of about 1e-308, outside the "
                                  "normal float range [2.23e-308, 1.8e+308]")



def _intake_cases():
    """(rows, document) pairs: n = 1..8, each entry kind of
    `random_intake_entries`, its Hermitian part H and, for the kinds without
    10^(+-300) parts, the normal H + i*c*H^2."""
    rng = random.Random(1807)
    for n in range(1, 9):
        for kind in ("small", "wide", "huge", "tiny"):
            rows = random_intake_entries(n, rng, kind)
            H = reference_split(rows)[0]
            yield rows, matrix_document(rows, rng)
            yield H, matrix_document(H, rng)
            if kind in ("small", "wide"):
                c = GaussianRational(Fraction(0), Fraction(rng.randint(1, 5), 3))
                N = [[h + c * h2 for h, h2 in zip(r, r2)]
                     for r, r2 in zip(H, reference_matmul(H, H))]
                yield N, matrix_document(N, rng)


class TestIntakeAgainstFractionReference:
    """The integer store against the Fraction reference of `conftest`, on
    matrices read from documents and built from entries alike."""

    def test_every_intake_operation(self):
        seen = set()
        for rows, doc in _intake_cases():
            assert reference_from_json(doc) == rows
            A, B = matrix_from_json(doc), GaussianRationalMatrix(rows)
            assert A.entries == B.entries == tuple(map(tuple, rows))
            assert A == B and hash(A) == hash(B) and A.n == B.n == len(rows)
            ref = reference_to_complex(rows)
            for M in (A, B):
                if isinstance(ref, str):
                    with pytest.raises(FloatRangeError) as exc:
                        M.to_complex()
                    assert str(exc.value) == ref
                else:
                    # bit for bit, signed zeros included
                    assert M.to_complex().view(np.uint64).tolist() == ref.view(np.uint64).tolist()
            pencil, (R1, R2) = split(A), reference_split(rows)
            assert pencil.A1.entries == tuple(map(tuple, R1))
            assert pencil.A2.entries == tuple(map(tuple, R2))
            hermitian, normal = reference_is_hermitian(rows), reference_is_normal(rows)
            assert A.is_hermitian() == hermitian and is_normal(A) == normal
            L, re, im = reference_cleared_parts(rows)
            assert A.L == L
            assert _cleared_parts(A, L) == (re, im)
            assert _cleared_parts(A, 6 * L) == tuple([[6 * x for x in row] for row in p]
                                                     for p in (re, im))
            assert charpoly_from_p(A) == reference_charpoly(rows)
            seen |= {("float range error", isinstance(ref, str)), ("hermitian", hermitian),
                     ("normal", normal)}
            for part in (x for row in doc["entries"] for e in row for x in e):
                if isinstance(part, list):
                    seen |= {"negative" if part[1] < 0 else "fraction",
                             "non-reduced" if math.gcd(*part) > 1 else "fraction",
                             "wide" if abs(part[0]) > 2 ** 53 else "fraction"}
        # the cases reach every input form and both sides of each predicate
        assert seen == {"negative", "fraction", "non-reduced", "wide"} | {
            (name, value) for name in ("float range error", "hermitian", "normal")
            for value in (True, False)}
