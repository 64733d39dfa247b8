"""Moduli of stable rank-2 bundles: closed form vs Harder-Narasimhan recursion."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsmoduli import bundles
from higgsmoduli.bundles import (
    classifying_space_poly,
    poincare_N_closed,
    poincare_N_recursion,
    recursion_strata_count,
    strata_equivariant_poly,
)
from higgsmoduli.exactpoly import IntPoly, NonDivisible, TailNonzero

N_G2 = IntPoly([1, 0, 1, 4, 1, 0, 1])


class TestClosedForm:
    def test_genus_two(self):
        assert poincare_N_closed(2) == N_G2

    def test_degree(self):
        for g in range(2, 7):
            assert poincare_N_closed(g).degree() == 6 * (g - 1)

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            poincare_N_closed(1)
        with pytest.raises(ValueError):
            poincare_N_closed(0)


class TestRecursionIngredients:
    def test_stratum_series_genus_two(self):
        s = strata_equivariant_poly(2, 5)
        assert [s.coefficient(i) for i in range(5)] == [1, 8, 30, 72, 129]

    def test_stratum_series_is_square(self):
        # ((1+t)^{2g} / (1-t^2))^2, checked by squaring the half-series
        g, order = 3, 8
        from higgsmoduli.exactpoly import series_expand

        half = series_expand(IntPoly([1, 1]) ** (2 * g), [IntPoly([1, 0, -1])], order)
        full = strata_equivariant_poly(g, order)
        assert (half * half.poly).poly == full.poly

    def test_classifying_space_genus_two(self):
        s = classifying_space_poly(2, 4)
        assert [s.coefficient(i) for i in range(4)] == [1, 4, 8, 16]

    def test_order_edge_cases(self):
        assert classifying_space_poly(2, 1).poly == IntPoly([1])
        assert classifying_space_poly(2, 0).poly == IntPoly([])
        assert strata_equivariant_poly(2, 1).poly == IntPoly([1])

    def test_strata_count_genus_two(self):
        # codims 4, 8 and 12 fall inside the default window 8g = 16
        assert recursion_strata_count(2) == 3

    def test_strata_count_grows_with_genus(self):
        counts = [recursion_strata_count(g) for g in range(2, 8)]
        assert counts == sorted(counts)
        assert all(c >= 1 for c in counts)


class TestRecursion:
    def test_genus_two(self):
        assert poincare_N_recursion(2) == N_G2

    def test_matches_closed_form(self):
        for g in range(2, 6):
            assert poincare_N_recursion(g) == poincare_N_closed(g)

    def test_larger_order_same_answer(self):
        g = 3
        default = poincare_N_recursion(g)
        assert poincare_N_recursion(g, order=8 * g + 5) == default

    def test_order_too_small_rejected(self):
        with pytest.raises(ValueError):
            poincare_N_recursion(2, order=7)

    @pytest.mark.parametrize("g", [2, 3, 10])
    def test_minimum_order_is_exactly_8g_minus_5(self, g):
        # the window must hold P_t of the semistable stratum, of degree 8g - 6
        assert poincare_N_recursion(g, order=8 * g - 5) == poincare_N_closed(g)
        with pytest.raises(ValueError, match=f"at least {8 * g - 5} "):
            poincare_N_recursion(g, order=8 * g - 6)

    @pytest.mark.parametrize("g", [2, 3, 10])
    @pytest.mark.parametrize("at", [0, 1, -1])
    def test_a_remainder_in_any_jacobian_pass_is_caught(self, monkeypatch, g, at):
        # dividing by 1 - t in place of one of the 2g factors 1 + t leaves a
        # remainder in that pass: the quotient so far is nonzero at t = 1
        from higgsmoduli import exactpoly

        def swapped(num, factors):
            factors = list(factors)
            factors[at] = IntPoly([1, -1])
            return exactpoly.poly_exact_div(num, factors)

        monkeypatch.setattr(bundles, "poly_exact_div", swapped)
        with pytest.raises(NonDivisible):
            poincare_N_recursion(g)

    @pytest.mark.parametrize("g", [2, 3, 10])
    def test_dropped_stratum_fails_the_guard(self, monkeypatch, g):
        # the guard coefficients past degree 8g - 6 catch a missing stratum
        # before the final division does
        strata_codims = bundles._strata_codims
        monkeypatch.setattr(bundles, "_strata_codims", lambda g, w: strata_codims(g, w)[:-1])
        with pytest.raises(TailNonzero):
            poincare_N_recursion(g)

    def test_matches_closed_form_genus_100(self):
        assert poincare_N_recursion(100) == poincare_N_closed(100)

    def test_product_count_independent_of_strata(self, monkeypatch):
        # Strata are shifted, never multiplied, so the number of polynomial
        # products does not grow with the number of strata.
        multiply = IntPoly.__mul__
        calls = 0

        def counting(self, other):
            nonlocal calls
            calls += 1
            return multiply(self, other)

        monkeypatch.setattr(IntPoly, "__mul__", counting)
        monkeypatch.setattr(IntPoly, "__rmul__", counting)
        counts = []
        for g in (10, 40):
            calls = 0
            poincare_N_recursion(g)
            counts.append(calls)
        assert recursion_strata_count(10) < recursion_strata_count(40)
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("g", range(2, 13))
    def test_one_codimension_call_per_stratum(self, monkeypatch, g):
        # one per kept stratum, plus the first one past the window
        from higgsmoduli import strata

        codim = strata.hn_codim_rank2
        calls = 0

        def counting(g, k):
            nonlocal calls
            calls += 1
            return codim(g, k)

        monkeypatch.setattr(strata, "hn_codim_rank2", counting)
        assert poincare_N_recursion(g) == poincare_N_closed(g)
        made = calls  # read before recursion_strata_count adds its own calls
        assert made == recursion_strata_count(g) + 1


class TestTopologicalProperties:
    @given(st.integers(2, 7))
    @settings(max_examples=6, deadline=None)
    def test_palindromic(self, g):
        # Poincare duality for the smooth projective moduli space
        assert poincare_N_closed(g).is_palindromic()

    @given(st.integers(2, 7))
    @settings(max_examples=6, deadline=None)
    def test_first_betti_number_vanishes(self, g):
        assert poincare_N_closed(g).coefficient(1) == 0

    @given(st.integers(2, 7))
    @settings(max_examples=6, deadline=None)
    def test_connected(self, g):
        assert poincare_N_closed(g).coefficient(0) == 1
