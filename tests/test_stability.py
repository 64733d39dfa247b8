"""GIT stability: torus classifier, Hilbert-Mumford weights, quotient inequality."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsmoduli import stability
from higgsmoduli._record import Record
from higgsmoduli.geometry import hilbert_poly
from higgsmoduli.stability import (
    Block,
    EmptyProfile,
    ExpressionMismatch,
    FiltrationData,
    NonIntegerWeight,
    NonPositiveEuler,
    Stability,
    hm_weight,
    quotient_semistability_test,
    torus_classify,
)


def classify(*weights):
    return torus_classify(weights)


class TestTorusClassifier:
    def test_golden_cases(self):
        assert classify(1, 2) is Stability.UNSTABLE
        assert classify(0) is Stability.STRICTLY_POLYSTABLE
        assert classify(-1, 2) is Stability.STABLE

    def test_all_negative_is_unstable(self):
        # the inverse one-parameter subgroup drives these to zero
        assert classify(-1, -2) is Stability.UNSTABLE

    def test_zero_boundary_cases(self):
        assert classify(0, 1) is Stability.STRICTLY_SEMISTABLE
        assert classify(-1, 0) is Stability.STRICTLY_SEMISTABLE
        assert classify(0, 0) is Stability.STRICTLY_POLYSTABLE

    def test_empty_profile(self):
        for empty in ((), [], iter(())):
            with pytest.raises(EmptyProfile):
                torus_classify(empty)

    def test_non_integer_weights_raise_type_error(self):
        # read with operator.index: never truncated, never parsed from text
        for weights in ([0.5], [0.5, -0.5], ["1"], ["1", "-1"], [1, 2.0]):
            with pytest.raises(TypeError):
                torus_classify(weights)

    @given(st.lists(st.integers(-10, 10), min_size=1, max_size=8), st.integers(1, 5))
    @settings(max_examples=120)
    def test_invariant_under_positive_scaling(self, weights, c):
        assert classify(*weights) is classify(*(c * w for w in weights))

    @given(st.lists(st.integers(-10, 10), min_size=1, max_size=8))
    @settings(max_examples=120)
    def test_negation_symmetry(self, weights):
        # lambda -> 1/lambda negates every weight but fixes the verdict
        assert classify(*weights) is classify(*(-w for w in weights))

    @given(st.lists(st.integers(-10, 10), min_size=1, max_size=8))
    @settings(max_examples=120)
    def test_lattice_predicates(self, weights):
        verdict = classify(*weights)
        stable = verdict is Stability.STABLE
        polystable = verdict in (Stability.STABLE, Stability.STRICTLY_POLYSTABLE)
        semistable = verdict is not Stability.UNSTABLE
        if stable:
            assert polystable
        if polystable:
            assert semistable


def random_filtration(rng):
    # rejection-sample weights: strictly decreasing with sum N_i a_i = 0
    while True:
        s = rng.randint(1, 4)
        dims = [rng.randint(1, 3) for _ in range(s)]
        if s == 1:
            weights = [0]
        else:
            weights = sorted(rng.sample(range(-12, 13), s), reverse=True)
            if sum(n * a for n, a in zip(dims, weights)) != 0:
                continue
        blocks = [
            Block(n, a, rng.randint(1, 3), rng.randint(-5, 5))
            for n, a in zip(dims, weights)
        ]
        return FiltrationData(blocks, m=rng.randint(-4, 20), g=rng.randint(2, 6))


class TestHilbertMumfordWeight:
    def test_single_block_is_zero(self):
        f = FiltrationData([(3, 0, 2, 1)], m=7, g=2)
        assert hm_weight(f) == 0

    def test_two_block_example(self):
        f = FiltrationData([(1, 1, 1, 0), (1, -1, 1, 1)], m=5, g=2)
        assert hm_weight(f) == 1

    def test_weight_scales_linearly(self):
        base = FiltrationData([(1, 1, 1, 0), (1, -1, 1, 1)], m=5, g=2)
        for c in (2, 3, 7):
            scaled = FiltrationData([(1, c, 1, 0), (1, -c, 1, 1)], m=5, g=2)
            assert hm_weight(scaled) == c * hm_weight(base)

    def test_validation(self):
        with pytest.raises(ValueError):
            FiltrationData([], m=5, g=2)
        with pytest.raises(ValueError):
            FiltrationData([(1, 1, 1, 0), (1, 1, 1, 0)], m=5, g=2)  # not decreasing
        with pytest.raises(ValueError):
            FiltrationData([(1, 1, 1, 0), (2, -1, 1, 0)], m=5, g=2)  # sum != 0
        with pytest.raises(ValueError):
            FiltrationData([(0, 0, 1, 0)], m=5, g=2)
        with pytest.raises(ValueError):
            FiltrationData([(1, 0, 0, 0)], m=5, g=2)
        with pytest.raises(ValueError):
            FiltrationData([(1, 0, 1, 0)], m=5, g=1)

    def test_two_expressions_agree_on_1000_random_filtrations(self):
        # hm_weight asserts the partial-sum form internally; a thousand
        # seeded draws exercise the identity across shapes and twists
        rng = random.Random(20260819)
        for _ in range(1000):
            hm_weight(random_filtration(rng))

    def test_a_non_integral_euler_characteristic_is_refused(self, monkeypatch):
        # the partial-sum form is N times the weight, divided by N exactly;
        # chi = 1/2 on both blocks makes the weight 1/2, and the division fails
        monkeypatch.setattr(stability, "hilbert_poly", lambda r, d, g, m: Fraction(1, 2))
        with pytest.raises(NonIntegerWeight):
            hm_weight(FiltrationData([(2, 1, 1, 0), (1, -2, 1, 0)], m=5, g=2))

    def test_forms_that_disagree_are_refused(self, monkeypatch):
        # the two forms are equal exactly when sum N_i a_i = 0; a filtration
        # built past that check (sum N_i a_i = 1, N = 2, chi = 1 on each block)
        # puts the partial-sum form 1 above the first
        monkeypatch.setattr(stability, "hilbert_poly", lambda r, d, g, m: 1)
        f = object.__new__(FiltrationData)
        Record.__init__(f, (Block(1, 1, 1, 0), Block(1, 0, 1, 0)), 5, 2)
        with pytest.raises(ExpressionMismatch, match="-1 != 0"):
            hm_weight(f)


class TestQuotientInequality:
    def test_full_space_is_equality(self):
        assert quotient_semistability_test(3, 2, 1, 3, 2, 1, 2, 10)

    def test_destabilizing_subbundle_fails(self):
        # slope 1 line inside the slope-1/2 bundle
        assert not quotient_semistability_test(2, 1, 1, 3, 2, 1, 2, 10)

    def test_low_slope_subbundle_passes(self):
        assert quotient_semistability_test(1, 1, 0, 3, 2, 1, 2, 10)

    def test_nonpositive_euler_rejected(self):
        with pytest.raises(NonPositiveEuler):
            quotient_semistability_test(1, 1, 0, 3, 2, 1, 2, 0)

    @pytest.mark.parametrize("args", [
        (5, 1, 0, 3, 2, 1, 2, 10),  # a 5-dimensional subspace of C^3
        (1, 3, 0, 3, 2, 1, 2, 10),  # a rank-3 subsheaf of a rank-2 sheaf
        (5, 1, 0, 3, 2, 1, 2, 0),  # refused before the Euler characteristics are read
    ])
    def test_sub_larger_than_total_rejected(self, args):
        with pytest.raises(ValueError, match="subsheaf"):
            quotient_semistability_test(*args)

    @pytest.mark.parametrize(
        "rprime,dprime,expect",
        [(1, 1, False), (1, 0, True)],
    )
    def test_verdict_stabilizes_to_slope_comparison(self, rprime, dprime, expect):
        # N' and N are frozen at the embedding twist n; sweeping the test
        # twist m upward, the leading terms give N'r <= Nr', which at large n
        # is the slope test mu' <= mu
        r, d, g, n = 2, 1, 2, 2
        nprime = hilbert_poly(rprime, dprime, g, n)
        total = hilbert_poly(r, d, g, n)
        verdicts = [
            quotient_semistability_test(nprime, rprime, dprime, total, r, d, g, m)
            for m in range(6, 40)
        ]
        assert verdicts[-10:] == [expect] * 10
