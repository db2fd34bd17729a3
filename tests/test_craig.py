import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

import numrange.craig
import numrange.pencil
import numrange.rangegeom
from numrange.craig import (
    RECT_TOL,
    CraigDisagreementError,
    craig_identity,
    craig_verdict,
    product_zero,
    verdict_line,
)
from numrange.exactpoly import GaussianRational, TriPoly
from numrange.hermitian import (GaussianRationalMatrix, HermitianPencil, NonHermitianError,
                                _entry_scale, split)
from numrange.pencil import pencil_det
from numrange.rangegeom import member_W, polytope_detect

from conftest import _random_rational_orthogonal, generic_hermitian_pair, planted_product_zero_pair


F = Fraction


def diag(*vals):
    return GaussianRationalMatrix.diagonal([GaussianRational.of(F(v)) for v in vals])


def _craig_identity_reference(A1, A2) -> bool:
    """The identity on the rational pencil determinant, with `TriPoly` products."""
    p = pencil_det(HermitianPencil(A1, A2)).p
    left = TriPoly(p.vars, {(0, b, c): coef for (_, b, c), coef in p.terms.items()})
    right1 = TriPoly(p.vars, {e: coef for e, coef in left.terms.items() if not e[2]})
    right2 = TriPoly(p.vars, {e: coef for e, coef in left.terms.items() if not e[1]})
    return left == right1 * right2


class TestIdentity:
    def test_orthogonal_diagonal_supports(self):
        assert craig_identity(diag(1, 0), diag(0, 1))

    def test_overlapping_supports(self):
        assert not craig_identity(diag(1, 1), diag(1, 1))

    def test_scaled_pair(self):
        assert craig_identity(diag(1, 0), diag(0, 2))

    def test_non_hermitian_rejected(self):
        nil = GaussianRationalMatrix(
            [[GaussianRational.ZERO, GaussianRational.ONE],
             [GaussianRational.ZERO, GaussianRational.ZERO]])
        with pytest.raises(NonHermitianError):
            craig_identity(nil, diag(0, 1))

    def test_non_hermitian_message(self):
        nil = GaussianRationalMatrix(
            [[GaussianRational.ZERO, GaussianRational.ONE],
             [GaussianRational.ZERO, GaussianRational.ZERO]])
        for pair in ((nil, diag(0, 1)), (diag(0, 1), nil)):
            for check in (craig_identity, craig_verdict):
                with pytest.raises(NonHermitianError) as exc:
                    check(*pair)
                assert str(exc.value) == "craig predicates need Hermitian inputs"


class TestProductZero:
    def test_examples(self):
        assert product_zero(diag(1, 0), diag(0, 1))
        assert not product_zero(diag(1, 1), diag(1, 1))

    def test_planted_instances(self):
        rng = random.Random(503)
        for _ in range(10):
            A1, A2 = planted_product_zero_pair(rng.randint(2, 6), rng)
            assert A1.is_hermitian() and A2.is_hermitian()
            assert product_zero(A1, A2)

    def test_matches_rational_products(self):
        # against A1 @ A2 over Q(i), with coprime huge denominators
        rng = random.Random(509)
        seen = set()
        for k in range(12):
            pair = planted_product_zero_pair if k % 2 else generic_hermitian_pair
            A1, A2 = pair(rng.randint(2, 5), rng)
            A2 = A2.scale(GaussianRational.of(F(1, 10 ** 40 + 3)))
            ref = (A1 @ A2).is_zero()
            assert product_zero(A1, A2) == ref
            seen.add(ref)
        assert seen == {True, False}


class TestVerdict:
    def test_unit_square_rectangle(self):
        v = craig_verdict(diag(1, 0), diag(0, 1))
        assert v.identity_holds and v.product_zero
        assert v.rectangle == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        assert verdict_line(v) == "identity=true product_zero=true rectangle=0,1,0,1"

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), 0.0])
    @pytest.mark.parametrize("planted", [True, False])
    def test_refuses_a_tolerance_that_is_not_positive_and_finite(self, tol, planted):
        pair = (diag(1, 0), diag(0, 1)) if planted else (diag(1, 1), diag(1, 1))
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            craig_verdict(*pair, rect_tol=tol)

    def test_rectangle_is_the_bounding_box_of_a_segment(self):
        # A = diag(1, i) = A1 + i*A2 is normal: W(A) is the segment from 1 to i, and
        # the unit square of the verdict is only its bounding box
        A = GaussianRationalMatrix.diagonal([GaussianRational.ONE, GaussianRational(F(0), F(1))])
        pencil = split(A)
        assert (pencil.A1, pencil.A2) == (diag(1, 0), diag(0, 1))
        assert verdict_line(craig_verdict(pencil.A1, pencil.A2)).endswith("rectangle=0,1,0,1")
        assert member_W(A, (0.5, 0.5)) and not member_W(A, (0.9, 0.9))
        v = polytope_detect(pencil_det(split(A)))
        assert (v.kind, v.exact, v.vertices) == ("polytope", True, ((F(0), F(1)), (F(1), F(0))))

    def test_negative_case_has_no_rectangle(self):
        v = craig_verdict(diag(1, 1), diag(1, 1))
        assert not v.identity_holds and not v.product_zero
        assert v.rectangle is None
        assert verdict_line(v) == "identity=false product_zero=false rectangle=none"

    def test_spectra_rectangle(self):
        v = craig_verdict(diag(2, 0, 0), diag(0, -1, 3))
        (lo1, lo2), _, (hi1, hi2), _ = v.rectangle
        assert (lo1, hi1, lo2, hi2) == (0.0, 2.0, -1.0, 3.0)

    @pytest.mark.parametrize("planted", [True, False])
    def test_one_pencil_per_verdict(self, monkeypatch, planted):
        # the identity reads the integer store and the cross-check the float
        # views of A1 and A2, so no pencil is built and each matrix is checked
        # for Hermitian symmetry once, by `_check_pair`
        rng = random.Random(503)
        A1, A2 = (planted_product_zero_pair if planted else generic_hermitian_pair)(4, rng)
        built = []
        post_init = HermitianPencil.__post_init__
        monkeypatch.setattr(HermitianPencil, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        checks = []
        is_hermitian = GaussianRationalMatrix.is_hermitian
        monkeypatch.setattr(GaussianRationalMatrix, "is_hermitian",
                            lambda self: checks.append(self) or is_hermitian(self))
        assert craig_verdict(A1, A2).identity_holds == planted
        assert built == [] and checks == [A1, A2]

    def test_planted_verdict_solves_no_eigenvectors_and_no_hull(self, monkeypatch):
        # the rectangle comes from one eigvalsh of each of A1 and A2, and its
        # certificate from p's own factors; no batched solve, no eigenvectors,
        # no hull, and p and its Fractions are never built
        A1, A2 = planted_product_zero_pair(5, random.Random(503))

        def forbidden(*args, **kwargs):
            raise AssertionError("craig_verdict called a solve or hull it does not read")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        for module in (numrange.craig, numrange.pencil, numrange.rangegeom):
            for name in ("pencil_det", "_cycle_hull", "convex_hull"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        solved = _spy_eigvalsh(monkeypatch)
        assert craig_verdict(A1, A2).identity_holds
        assert [a.shape for a in solved] == [(5, 5), (5, 5)]

    def test_cross_check_failure_path(self):
        # the extreme eigenvalues of A1 are (1 +- sqrt(5))/2, which no float
        # meets within 1e-300; an integer spectrum may be met exactly
        z, one = GaussianRational.ZERO, GaussianRational.ONE
        A1 = GaussianRationalMatrix([[one, one, z], [one, z, z], [z, z, z]])
        A2 = diag(0, 0, 1)
        v = craig_verdict(A1, A2)
        assert verdict_line(v) == (
            "identity=true product_zero=true rectangle=-0.61803398875,1.61803398875,0,1")
        with pytest.raises(CraigDisagreementError) as info:
            craig_verdict(A1, A2, rect_tol=1e-300)
        assert str(info.value) == ("rectangle side lo1=-0.61803398875 is not within "
                                   "1.00e-300 of the least eigenvalue of A1")

    def test_rotated_planted_pair_cross_check(self):
        rng = random.Random(509)
        A1, A2 = planted_product_zero_pair(5, rng)
        v = craig_verdict(A1, A2)
        assert v.identity_holds and v.product_zero
        w1 = np.linalg.eigvalsh(A1.to_complex())
        assert abs(v.rectangle[0][0] - w1[0]) < 1e-12


def _unit_twist(A1, A2, rng):
    """(U A1 U*, U A2 U*) for a diagonal U of Gaussian rationals of modulus 1: a
    complex Hermitian pair with the spectra and the product zero-ness of (A1, A2)."""
    units = (GaussianRational(F(3, 5), F(4, 5)), GaussianRational(F(5, 13), F(-12, 13)),
             GaussianRational(F(0), F(1)), GaussianRational.ONE)
    U = GaussianRationalMatrix.diagonal([rng.choice(units) for _ in range(A1.n)])
    Ut = U.conj_transpose()
    return U @ A1 @ Ut, U @ A2 @ Ut


def _spy_eigvalsh(monkeypatch, edit=None):
    """Record each array that np.linalg.eigvalsh solves; `edit(k, w)` may change the
    eigenvalues w of the k-th solve before they are returned."""
    solved, eigvalsh = [], np.linalg.eigvalsh

    def spy(a):
        solved.append(a)
        w = eigvalsh(a)
        if edit is not None:
            edit(len(solved), w)
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return solved


def _generic_block_pair(n, rng):
    """Q (G1 + 0) Q*, Q (0 + G2) Q* for generic complex Hermitian blocks G1, G2 and a
    rational orthogonal Q: A1 A2 = 0, with irrational extreme eigenvalues."""
    k, z = rng.randint(1, n - 1), GaussianRational.ZERO
    G1 = generic_hermitian_pair(k, rng, complex_entries=True)[0].entries
    G2 = generic_hermitian_pair(n - k, rng, complex_entries=True)[0].entries
    A1 = GaussianRationalMatrix([list(r) + [z] * (n - k) for r in G1] + [[z] * n] * (n - k))
    A2 = GaussianRationalMatrix([[z] * n] * k + [[z] * k + list(r) for r in G2])
    Q = _random_rational_orthogonal(n, rng)
    Qt = Q.conj_transpose()
    return Q @ A1 @ Qt, Q @ A2 @ Qt


def _exact_extremes(A):
    """The least and the greatest eigenvalue of the Hermitian A: sympy's exact real
    roots of its characteristic polynomial."""
    M = sp.Matrix(A.n, A.n, lambda i, j: sp.Rational(A.re[i][j], A.L)
                  + sp.I * sp.Rational(A.im[i][j], A.L))
    x = sp.Symbol("x")
    roots = sp.real_roots(sp.Poly(sp.expand(M.charpoly(x).as_expr()), x, domain=sp.QQ))
    return roots[0], roots[-1]


class TestHalfFan:
    # the rectangle is the support function of W(A) on the four axis directions
    # 0, pi/2, pi, 3*pi/2; H(theta + pi) = -H(theta), so one eigvalsh and one
    # chi_j(t) = det(t*I - L*A_j) give the sides along +-u_j: lambda_max and
    # -lambda_min, each certified by Descartes counts within rect_tol*s of the
    # exact extreme eigenvalue

    def test_outcomes_match_the_full_fan_reference(self):
        # the reference: sympy's exact extreme eigenvalues of A1 and A2, the exact
        # support values on all four directions
        rng = random.Random(541)
        for n in range(2, 6):
            planted = planted_product_zero_pair(n, rng)
            for A1, A2 in (planted, _unit_twist(*planted, rng), _generic_block_pair(n, rng)):
                v = craig_verdict(A1, A2)
                (lo1, lo2), _, (hi1, hi2), _ = v.rectangle
                s = _entry_scale(A1.to_complex(), A2.to_complex())
                for A, sides in ((A1, (lo1, hi1)), (A2, (lo2, hi2))):
                    for side, exact in zip(sides, _exact_extremes(A)):
                        if exact == 0:   # printed as an exact, positive zero
                            assert (side, np.copysign(1.0, side)) == (0.0, 1.0), n
                        else:
                            assert abs(sp.Float(side, 30) - exact.evalf(30)) <= RECT_TOL * s, n
            A1, A2 = generic_hermitian_pair(n, rng, complex_entries=n % 2 == 0)
            assert craig_verdict(A1, A2).rectangle is None

    def test_planted_pairs_pass(self):
        # every planted pair (A1 A2 = 0 exactly, both singular) is certified,
        # and each spectrum holds 0
        for n in range(3, 7):
            for seed in range(500, 540):
                A1, A2 = planted_product_zero_pair(n, random.Random(seed))
                (lo1, lo2), _, (hi1, hi2), _ = craig_verdict(A1, A2).rectangle
                assert lo1 <= 0 <= hi1 and lo2 <= 0 <= hi2, (n, seed)

    @pytest.mark.parametrize("step", [-10, 10])
    @pytest.mark.parametrize("side", ["lo1", "hi1", "lo2", "hi2"])
    def test_a_moved_side_is_refused(self, monkeypatch, side, step):
        # hi1 and lo2 of the rotated pair are exact zeros, lo1 and hi2 are -4 and 4
        A1, A2 = planted_product_zero_pair(5, random.Random(509))
        assert verdict_line(craig_verdict(A1, A2)).endswith("rectangle=-4,0,0,4")
        j, at = int(side[-1]), 0 if side.startswith("lo") else -1

        def move(k, w):
            if k == j:
                w[at] += step * RECT_TOL * _entry_scale(A1.to_complex(), A2.to_complex())

        _spy_eigvalsh(monkeypatch, move)
        with pytest.raises(CraigDisagreementError, match=f"^rectangle side {side}="):
            craig_verdict(A1, A2)

    @pytest.mark.parametrize("units", [16, 90, 720])
    def test_reflected_support_value_is_checked(self, monkeypatch, units):
        # lowering lambda_min of A1 moves only the support value along -u_1
        # (theta = pi), read from the same solve and the same chi_1 as lambda_max
        A1, A2 = planted_product_zero_pair(5, random.Random(503))
        assert craig_verdict(A1, A2).identity_holds
        s = _entry_scale(A1.to_complex(), A2.to_complex())

        def lower_first_min(k, w):
            if k == 1:
                w[0] -= units * RECT_TOL * s

        _spy_eigvalsh(monkeypatch, lower_first_min)
        with pytest.raises(CraigDisagreementError, match="^rectangle side lo1="):
            craig_verdict(A1, A2)

    def test_complex_pair_solves_in_complex_arithmetic(self, monkeypatch):
        i = GaussianRational(F(0), F(1))
        z, one = GaussianRational.ZERO, GaussianRational.ONE
        A1 = diag(1, 0, 0)
        A2 = GaussianRationalMatrix([[z, z, z], [z, one, i], [z, -i, one]])
        solved = _spy_eigvalsh(monkeypatch)
        v = craig_verdict(A1, A2)
        assert verdict_line(v) == "identity=true product_zero=true rectangle=0,1,0,2"
        assert [(a.shape, a.dtype) for a in solved] == [((3, 3), np.complex128)] * 2


class TestEquivalence:
    def test_planted_and_generic_agree(self):
        rng = random.Random(521)
        for _ in range(15):
            A1, A2 = planted_product_zero_pair(rng.randint(2, 6), rng)
            assert craig_identity(A1, A2) == product_zero(A1, A2) == True
        for k in range(15):
            A1, A2 = generic_hermitian_pair(rng.randint(2, 5), rng,
                                            complex_entries=(k % 3 == 0))
            assert craig_identity(A1, A2) == product_zero(A1, A2)

    def test_integer_identity_matches_the_rational_reference(self):
        rng = random.Random(523)
        seen = set()
        for n in range(2, 9):
            pairs = [planted_product_zero_pair(n, rng), generic_hermitian_pair(n, rng),
                     generic_hermitian_pair(n, rng, complex_entries=True)]
            small = GaussianRational.of(F(1, 10 ** 40 + 3))
            pairs += [(A1, A2.scale(small)) for A1, A2 in pairs]
            for A1, A2 in pairs:
                ref = _craig_identity_reference(A1, A2)
                assert craig_identity(A1, A2) == ref, n
                seen.add(ref)
        assert seen == {True, False}

    def test_exactness_no_tolerance(self):
        # a pair whose product is tiny but nonzero must come out false
        eps = F(1, 10**30)
        A1 = diag(1, 0)
        A2 = GaussianRationalMatrix(
            [[GaussianRational.of(eps), GaussianRational.ZERO],
             [GaussianRational.ZERO, GaussianRational.ONE]])
        assert not product_zero(A1, A2)
        assert not craig_identity(A1, A2)
