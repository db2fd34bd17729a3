import random
from fractions import Fraction

import numpy as np
import pytest

import numrange.craig
import numrange.pencil
import numrange.rangegeom
from numrange.craig import (
    CraigDisagreementError,
    craig_identity,
    craig_verdict,
    product_zero,
    verdict_line,
)
from numrange.exactpoly import GaussianRational, TriPoly
from numrange.hermitian import GaussianRationalMatrix, HermitianPencil, NonHermitianError, split
from numrange.pencil import pencil_det
from numrange.rangegeom import member_W, polytope_detect

from conftest import generic_hermitian_pair, planted_product_zero_pair, reference_craig_outcome


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

    def test_needs_three_support_directions(self):
        with pytest.raises(ValueError, match="need at least 3 support directions"):
            craig_verdict(diag(1, 0), diag(0, 1), N=2)

    @pytest.mark.parametrize("N", [0, 1, 2])
    @pytest.mark.parametrize("planted", [True, False])
    def test_grid_is_checked_before_either_branch(self, N, planted):
        # the overlapping pair has no rectangle, so it never reaches the grid
        pair = (diag(1, 0), diag(0, 1)) if planted else (diag(1, 1), diag(1, 1))
        with pytest.raises(ValueError, match="need at least 3 support directions"):
            craig_verdict(*pair, N=N)

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
        v = polytope_detect(A)
        assert (v.kind, v.exact, v.vertices) == ("polytope", True, ((F(0), F(1)), (F(1), F(0))))

    def test_negative_case_has_no_rectangle(self):
        v = craig_verdict(diag(1, 1), diag(1, 1))
        assert not v.identity_holds and not v.product_zero
        assert v.rectangle is None and v.eigen_pairs is None
        assert verdict_line(v) == "identity=false product_zero=false rectangle=none"

    def test_spectra_rectangle(self):
        v = craig_verdict(diag(2, 0, 0), diag(0, -1, 3))
        (lo1, lo2), _, (hi1, hi2), _ = v.rectangle
        assert (lo1, hi1, lo2, hi2) == (0.0, 2.0, -1.0, 3.0)
        assert v.eigen_pairs[0] == (0.0, 0.0, 2.0)
        assert v.eigen_pairs[1] == (-1.0, 0.0, 3.0)

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
        assert craig_verdict(A1, A2, N=48).identity_holds == planted
        assert built == [] and checks == [A1, A2]

    def test_planted_verdict_solves_no_eigenvectors_and_no_hull(self, monkeypatch):
        # the cross-check reads lambda_max on half the fan and -lambda_min on its
        # reflection from one eigvalsh, and the box of the half-plane vertices;
        # p and its Fractions are never built
        A1, A2 = planted_product_zero_pair(5, random.Random(503))

        def forbidden(*args, **kwargs):
            raise AssertionError("craig_verdict called a solve or hull it does not read")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        for module in (numrange.craig, numrange.pencil, numrange.rangegeom):
            for name in ("pencil_det", "_cycle_hull", "convex_hull"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        assert craig_verdict(A1, A2).identity_holds

    def test_cross_check_failure_path(self):
        A1, A2 = planted_product_zero_pair(5, random.Random(509))
        assert craig_verdict(A1, A2).identity_holds
        with pytest.raises(CraigDisagreementError) as info:
            craig_verdict(A1, A2, rect_tol=1e-300)
        assert str(info.value).startswith(
            "rectangle disagrees with the bounding box of sampled W(A) by")

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
    """Record each array that np.linalg.eigvalsh solves; `edit` may change the
    eigenvalues of a batched solve before they are returned."""
    solved, eigvalsh = [], np.linalg.eigvalsh

    def spy(a):
        solved.append(a)
        w = eigvalsh(a)
        if edit is not None and a.ndim == 3:
            edit(w)
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return solved


class TestHalfFan:
    # H(theta + pi) = -H(theta): an even fan solves its angles below pi and
    # reads lambda_max at theta + pi as -lambda_min at theta

    # N = 2 (mod 4) adds pi/2 to the solved half, odd N adds pi/2, pi, 3*pi/2
    @pytest.mark.parametrize("N, rows", [(16, 8), (720, 360), (90, 46), (45, 48), (721, 724)])
    def test_even_fan_solves_half_its_angles_and_odd_fan_all(self, monkeypatch, N, rows):
        A1, A2 = planted_product_zero_pair(5, random.Random(503))
        solved = _spy_eigvalsh(monkeypatch)
        assert craig_verdict(A1, A2, N=N).identity_holds
        fans = [a for a in solved if a.ndim == 3]
        assert [(a.shape, a.dtype) for a in fans] == [((rows, 5, 5), np.float64)]
        # the printed rectangle still comes from the complex parts
        assert [a.dtype for a in solved if a.ndim == 2] == [np.complex128] * 2

    def test_complex_pair_solves_in_complex_arithmetic(self, monkeypatch):
        i = GaussianRational(F(0), F(1))
        z, one = GaussianRational.ZERO, GaussianRational.ONE
        A1 = diag(1, 0, 0)
        A2 = GaussianRationalMatrix([[z, z, z], [z, one, i], [z, -i, one]])
        solved = _spy_eigvalsh(monkeypatch)
        v = craig_verdict(A1, A2, N=16)
        assert verdict_line(v) == "identity=true product_zero=true rectangle=0,1,0,2"
        assert [(a.shape, a.dtype) for a in solved if a.ndim == 3] == [((8, 3, 3), np.complex128)]

    @staticmethod
    def _lower_first_min(w):
        w[0, 0] -= 1.0

    @pytest.mark.parametrize("N", [16, 90, 720])
    def test_reflected_support_value_is_checked(self, monkeypatch, N):
        # lowering lambda_min of the row at theta = 0 moves only the support
        # value along -u_0 (theta = pi), which the rectangle's left edge must meet
        A1, A2 = planted_product_zero_pair(5, random.Random(503))
        assert craig_verdict(A1, A2, N=N).identity_holds
        _spy_eigvalsh(monkeypatch, self._lower_first_min)
        with pytest.raises(CraigDisagreementError, match="rectangle disagrees"):
            craig_verdict(A1, A2, N=N)

    @pytest.mark.parametrize("N", [45, 721])
    def test_odd_fan_reads_no_lambda_min(self, monkeypatch, N):
        # no angle of an odd fan has its antipode on the fan
        A1, A2 = planted_product_zero_pair(5, random.Random(503))
        _spy_eigvalsh(monkeypatch, self._lower_first_min)
        assert craig_verdict(A1, A2, N=N).identity_holds

    @pytest.mark.parametrize("N, axes", [(90, [(0, 1)]), (45, [(0, 1), (-1, 0), (0, -1)])])
    def test_missing_axis_directions_are_solved_exactly(self, monkeypatch, N, axes):
        # each added row is cos*A1 + sin*A2 with cos, sin in {0, +-1}: exactly
        # +-A1 or +-A2, in angle order between the fan's neighbours
        A1, A2 = planted_product_zero_pair(5, random.Random(509))
        solved = _spy_eigvalsh(monkeypatch)
        assert craig_verdict(A1, A2, N=N).identity_holds
        (fan,) = [a for a in solved if a.ndim == 3]
        f1, f2 = A1.to_complex().real, A2.to_complex().real
        for q, (c, s) in enumerate(axes, start=1):
            k = N * q // 4 + q  # fan angles below q*pi/2, then the q - 1 axes before it
            assert np.array_equal(fan[k], c * f1 + s * f2), (N, q)

    def test_planted_pairs_pass_at_every_grid(self):
        # the rectangle check of a planted pair (A1 A2 = 0 exactly) passes at
        # every N, also where the fan has no axis direction of its own
        for n in range(3, 7):
            for seed in range(500, 540):
                A1, A2 = planted_product_zero_pair(n, random.Random(seed))
                want = verdict_line(craig_verdict(A1, A2))
                for N in (45, 88, 90, 91, 721):
                    assert verdict_line(craig_verdict(A1, A2, N=N)) == want, (n, seed, N)

    def test_outcomes_match_the_full_fan_reference(self):
        # the verdict line, or the disagreement message, of planted real and
        # complex pairs and of generic pairs
        rng = random.Random(541)
        for n in range(2, 9):
            planted = planted_product_zero_pair(n, rng)
            for A1, A2 in (planted, _unit_twist(*planted, rng), generic_hermitian_pair(n, rng)):
                for N in (3, 4, 16, 45, 90, 720, 721):
                    try:
                        got = verdict_line(craig_verdict(A1, A2, N=N))
                    except CraigDisagreementError as exc:
                        got = str(exc)
                    assert got == reference_craig_outcome(A1, A2, N), (n, N)


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
