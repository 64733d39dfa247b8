"""Higgs moduli: Bialynicki-Birula stratified sum vs the four-term closed form."""
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsmoduli import higgs, strata
from higgsmoduli.bundles import poincare_N_closed
from higgsmoduli.exactpoly import IntPoly, NonDivisible, coeff_extract_x
from higgsmoduli.higgs import DegreeOverflow, fixed_locus_poincare, poincare_M_closed, poincare_M_stratified
from higgsmoduli.strata import bb_codimension, variant_hodge_numbers

M_G2 = IntPoly([1, 0, 1, 4, 2, 34, 2])


def mutated_closed_form(original, mutant):
    """poincare_M_closed with one source fragment replaced, run in the module's namespace."""
    source = inspect.getsource(higgs.poincare_M_closed)
    assert source.count(original) == 1, original
    namespace = dict(vars(higgs))
    exec(source.replace(original, mutant), namespace)
    return namespace["poincare_M_closed"]


class TestStratumIndex:
    """The index k of fixed_locus_poincare and bb_codimension."""

    def test_valid_range(self):
        # k = g - 1 is the last stratum: kbar = 2 * 3 - 2 * 2 - 1 = 1
        assert fixed_locus_poincare(3, 2).degree() == 2 * 1
        assert bb_codimension(3, 2) == 2 * (3 + 2 * 2 - 2)

    def test_invalid(self):
        for compute in (fixed_locus_poincare, bb_codimension):
            with pytest.raises(ValueError):
                compute(2, 0)
            with pytest.raises(ValueError):
                compute(2, 2)  # k must stay below g
            with pytest.raises(ValueError):
                compute(1, 1)


class TestFixedLoci:
    def test_frozen_examples(self):
        assert fixed_locus_poincare(2, 1) == IntPoly([1, 34, 1])
        assert fixed_locus_poincare(3, 2) == IntPoly([1, 258, 1])
        assert fixed_locus_poincare(3, 1) == IntPoly([1, 6, 16, 278, 16, 6, 1])

    def test_middle_coefficient_carries_the_point_count(self):
        # the 2^{2g}-1 extra middle classes sit in degree kbar
        g, k = 2, 1
        kbar = 2 * g - 2 * k - 1
        from higgsmoduli.exactpoly import coeff_extract_x

        sym = coeff_extract_x(g, kbar)
        extra = (2 ** (2 * g) - 1) * math.comb(2 * g - 2, kbar)
        assert fixed_locus_poincare(g, k).coefficient(kbar) == sym.coefficient(kbar) + extra

    @given(st.integers(2, 7).flatmap(lambda g: st.tuples(st.just(g), st.integers(1, g - 1))))
    @settings(max_examples=25)
    def test_palindromic_about_kbar(self, gk):
        g, k = gk
        p = fixed_locus_poincare(g, k)
        kbar = 2 * g - 2 * k - 1
        assert p.degree() == 2 * kbar
        assert p.is_palindromic()


class TestVariantHodgeNumbers:
    """The one table of the cover sectors' classes, read by the cover term and the mirror."""

    @pytest.mark.parametrize("g", range(2, 13))
    def test_cover_term_is_the_sector_count_times_the_exterior_power(self, g):
        for k in range(1, g):
            kbar = 2 * g - 2 * k - 1
            cover = fixed_locus_poincare(g, k) - coeff_extract_x(g, kbar)
            assert cover == IntPoly([0] * kbar + [(4**g - 1) * math.comb(2 * g - 2, kbar)])

    @pytest.mark.parametrize("g", range(2, 13))
    def test_each_list_sums_to_the_dimension_and_is_symmetric(self, g):
        for k in range(1, g):
            kbar = 2 * g - 2 * k - 1
            hodge = variant_hodge_numbers(g, k)
            assert len(hodge) == kbar + 1
            assert sum(hodge) == math.comb(2 * g - 2, kbar)
            assert hodge == hodge[::-1]

    def test_entries_are_products_of_binomials(self):
        g, k = 5, 1
        kbar = 2 * g - 2 * k - 1
        expected = [math.comb(g - 1, p) * math.comb(g - 1, kbar - p) for p in range(kbar + 1)]
        assert variant_hodge_numbers(g, k) == expected

    def test_invalid(self):
        for g, k in [(2, 0), (2, 2), (1, 1)]:
            with pytest.raises(ValueError):
                variant_hodge_numbers(g, k)


class TestCodimension:
    def test_frozen_examples(self):
        assert bb_codimension(2, 1) == 4
        assert bb_codimension(3, 1) == 6
        assert bb_codimension(3, 2) == 10

    def test_every_stratum_tops_out_at_the_space_dimension(self):
        # shift + fixed-locus degree: 2(g+2k-2) + 2(2g-2k-1) = 6g-6 for all k
        for g in range(2, 8):
            for k in range(1, g):
                kbar = 2 * g - 2 * k - 1
                assert bb_codimension(g, k) + 2 * kbar == 6 * g - 6


class TestStratifiedSum:
    def test_genus_two(self):
        p = poincare_M_stratified(2)
        assert p == M_G2
        assert p.evaluate(1) == 44

    @pytest.mark.parametrize("g", [2, 3, 10])
    def test_stratum_past_the_middle_dimension_overflows(self, monkeypatch, g):
        # a codimension two too large lifts the k = 1 summand past 6g - 6
        original = strata.bb_codimension
        monkeypatch.setattr(strata, "bb_codimension", lambda g, k: original(g, k) + (2 if k == 1 else 0))
        with pytest.raises(DegreeOverflow):
            poincare_M_stratified(g)

    def test_term_weights_genus_two(self):
        # N contributes t^5 coefficient 0; the k=1 fixed locus enters at t^4
        # with weight t^1 on the middle class: 34 = middle coefficient
        n = poincare_N_closed(2)
        p = poincare_M_stratified(2)
        assert p.coefficient(5) - n.coefficient(5) == 34
        assert p.coefficient(4) - n.coefficient(4) == 1

    def test_agrees_with_bundle_moduli_below_first_stratum(self):
        # strata enter at degree 2g; below that M looks like N
        for g in range(2, 6):
            n, m = poincare_N_closed(g), poincare_M_stratified(g)
            for i in range(2 * g):
                assert m.coefficient(i) == n.coefficient(i)

    def test_degree(self):
        for g in range(2, 6):
            assert poincare_M_stratified(g).degree() == 6 * g - 6


class TestClosedForm:
    def test_genus_two(self):
        assert poincare_M_closed(2) == M_G2

    def test_closed_t5_coefficient_genus_two(self):
        # the lone odd-degree survivor at g=2: 34 from strata, 32 of it from
        # the two point-count terms of the closed form
        assert poincare_M_closed(2).coefficient(5) == 34

    def test_matches_stratified(self):
        for g in range(2, 6):
            assert poincare_M_closed(g) == poincare_M_stratified(g)

    @pytest.mark.parametrize(
        "original, mutant",
        [
            ("term3 = (g - 1) * (", "term3 = g * ("),
            (".shift(4 * g - 3)", ".shift(4 * g - 2)"),
            ("_ONE_PLUS_T ** (2 * g - 1)", "_ONE_PLUS_T ** (2 * g)"),
            ("_ONE_PLUS_T3 ** (2 * g)", "_ONE_PLUS_T3 ** (2 * g - 1)"),
        ],
        ids=["term3-factor", "term3-shift", "term3-power", "term1-power"],
    )
    def test_mutated_rational_term_fails_its_own_check(self, original, mutant):
        closed = mutated_closed_form(original, mutant)
        for g in (2, 3, 10):
            with pytest.raises(ArithmeticError):
                closed(g)

    def test_a_bracket_not_divisible_by_4_fails_its_own_check(self):
        # 1 + t + t^2 in place of 1 + t^2 puts 4g - 2 at t^1 of the bracket
        closed = mutated_closed_form("_ONE_PLUS_T2 ** 2", "IntPoly([1, 1, 1]) ** 2")
        for g in (2, 3, 10):
            with pytest.raises(NonDivisible, match="not divisible by 4"):
                closed(g)

    def test_mutated_polynomial_term_needs_the_other_route(self):
        # the fourth term is a polynomial, so no division or degree check sees
        # a wrong coefficient; only the comparison with the strata does
        closed = mutated_closed_form("2 ** (2 * g - 1)", "2 ** (2 * g - 2)")
        for g in (2, 3, 10):
            assert closed(g).degree() == 6 * g - 6
            assert closed(g) != poincare_M_stratified(g)

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            poincare_M_closed(1)
        with pytest.raises(ValueError):
            poincare_M_stratified(1)


class TestEulerNumbers:
    @given(st.integers(2, 6))
    @settings(max_examples=5, deadline=None)
    def test_euler_characteristic_identity(self, g):
        # at t = -1 each symmetric product contributes (-1)^kbar C(2g-2,kbar)
        # with kbar odd, so chi(M) = chi(N) - 2^{2g} sum_odd C(2g-2,*)
        #                          = chi(N) - 2^{4g-3}
        chi_n = poincare_N_closed(g).evaluate(-1)
        chi_m = poincare_M_stratified(g).evaluate(-1)
        assert chi_m == chi_n - 2 ** (4 * g - 3)

    def test_euler_number_genus_two(self):
        # 1 - 0 + 1 - 4 + 2 - 34 + 2 = -32
        assert poincare_M_stratified(2).evaluate(-1) == -32
