"""Dimensions, spectral-curve numerology, Hilbert polynomials, and HN codimensions."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsmoduli.geometry import (
    UnsupportedCombination,
    hilbert_poly,
    hitchin_base_dim,
    moduli_dim,
    spectral_numbers,
)
from higgsmoduli.strata import hn_codim_rank2


def hitchin_base_dim_by_terms(r, g, reduced):
    """h^0 of K^i summed one term at a time, the oracle for the closed form."""
    total = 0
    for i in range(2 if reduced else 1, r + 1):
        total += g if i == 1 else (2 * i - 1) * (g - 1)
    return total


@pytest.mark.parametrize(
    "call",
    [
        lambda: moduli_dim(2.5, 2, "higgs"),
        lambda: moduli_dim(2, 2.0, "higgs"),
        lambda: spectral_numbers(2.5, 2, 1),
        lambda: spectral_numbers(2, 2, 1.5),
        lambda: hitchin_base_dim(2, 3.5),
        lambda: hilbert_poly(2, 1, 2, 0.5),
    ],
    ids=["params-rank", "params-genus", "spectral-rank", "spectral-degree", "base-genus",
         "hilbert-twist"],
)
def test_non_integer_input_raises_type_error(call):
    # r, d, g and n are read with operator.index, never truncated or carried into the formulas
    with pytest.raises(TypeError):
        call()


class TestModuliDim:
    def test_rank_two_genus_two(self):
        assert moduli_dim(2, 2, "bundles") == 3
        assert moduli_dim(2, 2, "higgs") == 6
        assert moduli_dim(2, 2, "bundles", group="GL") == 5
        assert moduli_dim(2, 2, "higgs", group="GL") == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            moduli_dim(0, 2, "bundles")
        with pytest.raises(ValueError):
            moduli_dim(2, 1, "bundles")
        with pytest.raises(UnsupportedCombination):
            moduli_dim(2, 2, "bundles", group="SO")

    def test_space_aliases(self):
        # a space is one of the three names the CLI passes: no alias, no other case
        for space in ("betti", "dolbeault", "Higgs", "BUNDLES", "hitchin_base"):
            with pytest.raises(UnsupportedCombination):
                moduli_dim(2, 2, space)

    @pytest.mark.parametrize("value", [None, "betti", "sl", "Gl", 2, ["SL"]])
    def test_unsupported_group_or_space(self, value):
        with pytest.raises(UnsupportedCombination):
            moduli_dim(2, 2, "higgs", group=value)
        with pytest.raises(UnsupportedCombination):
            moduli_dim(2, 2, value)

    def test_pgl_matches_sl(self):
        # the PGL space is a finite quotient of the SL space
        for space in ("bundles", "higgs", "hitchin-base"):
            assert moduli_dim(3, 4, space, group="SL") == moduli_dim(3, 4, space, group="PGL")

    def test_higgs_is_double(self):
        for group in ("GL", "SL"):
            for r in (1, 2, 3):
                for g in (2, 3, 5):
                    assert moduli_dim(r, g, "higgs", group) == 2 * moduli_dim(r, g, "bundles", group)

    def test_unknown_space(self):
        with pytest.raises(UnsupportedCombination):
            moduli_dim(2, 2, "flat-connections")


class TestHitchinBase:
    def test_rank_two_genus_two(self):
        assert hitchin_base_dim(2, 2) == 5
        assert hitchin_base_dim(2, 2, reduced=True) == 3

    def test_rank_one(self):
        assert hitchin_base_dim(1, 5) == 5  # H^0 of the canonical bundle
        assert hitchin_base_dim(1, 5, reduced=True) == 0

    @pytest.mark.parametrize("reduced", [False, True])
    def test_closed_form_matches_term_sum(self, reduced):
        for r in range(1, 41):
            for g in range(2, 13):
                assert hitchin_base_dim(r, g, reduced) == hitchin_base_dim_by_terms(r, g, reduced)

    def test_validation(self):
        with pytest.raises(ValueError):
            hitchin_base_dim(0, 2)
        with pytest.raises(ValueError):
            hitchin_base_dim(2, 1)

    def test_half_dimension_identity(self):
        # full base: g + sum_{i>=2} (2i-1)(g-1) = (g-1)r^2 + 1 = dim GL Higgs / 2
        # reduced:   sum_{i>=2} (2i-1)(g-1) = (r^2-1)(g-1) = dim SL Higgs / 2
        for r in range(1, 7):
            for g in range(2, 11):
                full = hitchin_base_dim(r, g)
                reduced = hitchin_base_dim(r, g, reduced=True)
                assert 2 * full == moduli_dim(r, g, "higgs", group="GL")
                if r >= 2:
                    assert 2 * reduced == moduli_dim(r, g, "higgs", group="SL")

    def test_moduli_dim_routes_to_base(self):
        assert moduli_dim(2, 2, "hitchin-base", group="GL") == 5
        assert moduli_dim(2, 2, "hitchin-base", group="SL") == 3


class TestSpectralNumbers:
    def test_frozen_examples(self):
        assert tuple(spectral_numbers(2, 2, 1)) == (4, 5, 3)
        assert tuple(spectral_numbers(1, 3, 0)) == (0, 3, 0)
        assert tuple(spectral_numbers(3, 2, 0)) == (12, 10, 6)

    def test_field_names(self):
        n = spectral_numbers(2, 2, 1)
        assert n.ramification_degree == 4
        assert n.spectral_genus == 5
        assert n.line_degree_delta == 3

    @given(st.integers(1, 6), st.integers(2, 10), st.integers(-8, 8))
    @settings(max_examples=60)
    def test_riemann_hurwitz(self, r, g, d):
        n = spectral_numbers(r, g, d)
        # 2 g(Y) - 2 = r (2g - 2) + deg R
        assert 2 * n.spectral_genus - 2 == r * (2 * g - 2) + n.ramification_degree

    @given(st.integers(1, 6), st.integers(2, 10), st.integers(-8, 8))
    @settings(max_examples=60)
    def test_pushforward_euler_characteristic(self, r, g, d):
        # chi(L on Y) = chi(pushforward on X): delta + 1 - g(Y) = d + r(1-g)
        n = spectral_numbers(r, g, d)
        assert n.line_degree_delta + 1 - n.spectral_genus == d + r * (1 - g)


class TestHilbertPoly:
    def test_frozen_examples(self):
        assert hilbert_poly(2, 1, 2, 3) == 5
        assert hilbert_poly(2, 1, 2, 0) == -1

    @given(st.integers(1, 5), st.integers(-6, 6), st.integers(2, 8), st.integers(-5, 15))
    @settings(max_examples=60)
    def test_difference_is_the_rank(self, r, d, g, n):
        assert hilbert_poly(r, d, g, n + 1) - hilbert_poly(r, d, g, n) == r

    def test_riemann_roch_at_zero_twist(self):
        # chi(E) = d + r(1-g)
        assert hilbert_poly(3, 2, 4, 0) == 2 + 3 * (1 - 4)


class TestHNCodim:
    def test_rank_two_strata(self):
        assert hn_codim_rank2(2, 1) == 4
        assert hn_codim_rank2(2, 2) == 8
        assert hn_codim_rank2(5, 1) == 10

    def test_matches_recursion_window(self):
        # the recursion drops stratum k once 2g + 4k - 4 reaches the window
        for g in range(2, 6):
            for k in range(1, 5):
                assert hn_codim_rank2(g, k) == 2 * g + 4 * k - 4

    def test_real_codimension_of_atiyah_bott(self):
        # Atiyah-Bott: the stratum of HN type (d1, d2), d1 > d2, has complex
        # codimension d1 - d2 + g - 1; on degree 1 the unstable types are
        # (k, 1 - k), k >= 1, the first being (1, 0)
        for g in range(2, 8):
            for k in range(1, 6):
                d1, d2 = k, 1 - k
                assert d1 > d2 and d1 + d2 == 1
                assert hn_codim_rank2(g, k) == 2 * (d1 - d2 + g - 1)
        assert hn_codim_rank2(4, 1) == 2 * 4  # (1, 0): real codimension 2g
