"""Rank-2 topological mirror symmetry: fixed-locus classes vs Weil-pairing average."""
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import higgsmoduli.mirror as mirror_mod
from higgsmoduli import cli, strata
from higgsmoduli.exactpoly import NonDivisible
from higgsmoduli.mirror import (
    IdentityViolation,
    MirrorReport,
    PairingNotAlternating,
    PairingNotBilinear,
    TrivialElement,
    e_poly_kappa_lhs,
    e_poly_rhs,
    fermionic_shift,
    mirror_verify,
    weil_pairing,
)

LHS_G2 = {(4, 3): -1, (3, 4): -1}
# The largest genus the command line accepts, read from its table
MAX_GENUS = dict(cli.COMMANDS["mirror",][2])["--genus"]["cap"]


def literal_minus_count(g, gamma):
    """N_-(gamma) by the literal loop over every gamma', through the module's pairing."""
    return sum(1 for other in range(4**g) if mirror_mod.weil_pairing(g, gamma, other) < 0)


def first_pair_only(g, a, b):
    """Bilinear and alternating, but degenerate for g > 1: only bits 0 and g pair."""
    return -1 if ((a & (b >> g)) ^ ((a >> g) & b)) & 1 else 1


def not_bilinear(g, a, b):
    """-1 on every pair of nonzero elements: each row is all ones, as for a nondegenerate form."""
    return 1 if a == 0 or b == 0 else -1


@st.composite
def packed_pairs(draw):
    g = draw(st.integers(1, MAX_GENUS))
    return g, draw(st.integers(0, 4**g - 1)), draw(st.integers(0, 4**g - 1))


@given(packed_pairs())
def test_packed_element_against_its_definition(case):
    # up to the command line's cap, where 2g bits span several machine words
    # and a shift off by g would show
    g, a, b = case
    x, y = mirror_mod._bits(g, a), mirror_mod._bits(g, b)
    assert x == tuple((a >> i) & 1 for i in range(2 * g))
    assert sum(bit << i for i, bit in enumerate(x)) == a
    exponent = sum(x[i] * y[g + i] + x[g + i] * y[i] for i in range(g))
    assert weil_pairing(g, a, b) == (-1) ** exponent


class TestWeilPairing:
    def test_genus_one_table(self):
        # pairing exponent a1 b2 + a2 b1 on (Z/2)^2
        assert weil_pairing(1, 1, 2) == -1  # (1,0) vs (0,1)
        assert weil_pairing(1, 1, 1) == 1
        assert weil_pairing(1, 3, 1) == -1
        assert weil_pairing(1, 0, 3) == 1

    def test_mismatched_genus(self):
        # an element of the genus-2 group is not one of the genus-1 group
        with pytest.raises(ValueError, match="integers from 0 to 4"):
            weil_pairing(1, 0, 4)

    @pytest.mark.parametrize("g", [1, 2, 5, MAX_GENUS])
    def test_refuses_what_is_not_an_element(self, g):
        for a in (-1, 4**g, 4**g + 1, -(4**g)):
            for args in ((a, 1), (1, a), (a, a)):
                with pytest.raises(ValueError, match=f"genus-{g} group"):
                    weil_pairing(g, *args)
        for a in (1.0, 0.5, "1", None, (1,)):
            for args in ((a, 1), (1, a)):
                with pytest.raises(TypeError):
                    weil_pairing(g, *args)
        with pytest.raises(TypeError):
            weil_pairing(float(g), 1, 1)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_alternating(self, g):
        for a in range(4**g):
            assert weil_pairing(g, a, a) == 1

    @pytest.mark.parametrize("g", [1, 2])
    def test_bilinear(self, g):
        elements = range(4**g)
        for a in elements:
            for b in elements:
                for c in elements:
                    assert weil_pairing(g, a ^ b, c) == weil_pairing(g, a, c) * weil_pairing(g, b, c)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_nondegenerate(self, g):
        # only the zero element pairs trivially with everything
        for a in range(4**g):
            if all(weil_pairing(g, a, b) == 1 for b in range(4**g)):
                assert a == 0

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_symmetric(self, g):
        # mod 2 the alternating pairing is symmetric
        for a in range(4**g):
            for b in range(4**g):
                assert weil_pairing(g, a, b) == weil_pairing(g, b, a)


class TestFermionicShift:
    def test_values(self):
        assert fermionic_shift(2) == 2
        assert fermionic_shift(3) == 4
        assert fermionic_shift(10) == 18

    def test_total_shift_matches_lhs_weight(self):
        # (g-1) + F(g) = 3g - 3, the (uv) weight on the Hodge-sum side
        for g in range(2, 12):
            assert (g - 1) + fermionic_shift(g) == 3 * g - 3


class TestLhs:
    def test_genus_two(self):
        assert e_poly_kappa_lhs(2) == LHS_G2

    def test_genus_three_corner(self):
        assert e_poly_kappa_lhs(3)[7, 6] == -2

    def test_only_odd_total_degree_monomials(self):
        for g in (2, 3, 4):
            for (p, q), c in e_poly_kappa_lhs(g).items():
                assert (p + q) % 2 == 1
                assert c != 0


@pytest.mark.parametrize("g", range(2, 9))
def test_both_sides_store_no_zeros(g):
    # dict equality is polynomial equality only while neither side holds a
    # zero; at minus = 2^(2g-1) every coefficient at even p + q cancels
    assert 0 not in e_poly_kappa_lhs(g).values()
    for minus in (0, 1 << (2 * g - 1)):
        assert 0 not in mirror_mod._rhs_from_count(g, minus).values()
    assert len(mirror_mod._rhs_from_count(g, 1 << (2 * g - 1))) == g * g // 2


def nonzero(coeffs):
    """The polynomial with these coefficients, written as both sides write theirs: without zeros."""
    return {key: c for key, c in coeffs.items() if c}


def hand_written_lhs(g):
    """The left side as a direct sum: (uv)^(3g-3) times -C(g-1,p) C(g-1,q) u^p v^q over odd p+q."""
    shift = 3 * g - 3
    coeffs = {}
    for p in range(g):
        for q in range(g):
            if (p + q) % 2 == 1:
                coeffs[(p + shift, q + shift)] = -math.comb(g - 1, p) * math.comb(g - 1, q)
    return coeffs


def pascal_row(sign, n):
    """Coefficients of (1 + sign t)^n, by Pascal's rule."""
    row = [1]
    for _ in range(n):
        row = [a + sign * b for a, b in zip(row + [0], [0] + row)]
    return row


def half_difference_lhs(g):
    """(1/2) (uv)^(3g-3) [(1-u)^(g-1) (1-v)^(g-1) - (1+u)^(g-1) (1+v)^(g-1)]."""
    minus, plus = pascal_row(-1, g - 1), pascal_row(1, g - 1)
    coeffs = {}
    for p in range(g):
        for q in range(g):
            twice = minus[p] * minus[q] - plus[p] * plus[q]
            assert twice % 2 == 0
            coeffs[(p + 3 * g - 3, q + 3 * g - 3)] = twice // 2
    return nonzero(coeffs)


def pascal_rhs(g, minus):
    """
    The right side for a count N_-(gamma) = minus, by Pascal's rule:
    (uv)^(3g-3) [(4^g - minus) (1-u)^(g-1) (1-v)^(g-1) - minus (1+u)^(g-1) (1+v)^(g-1)] / 4^g.
    """
    total = 4**g
    twisted, plain = pascal_row(-1, g - 1), pascal_row(1, g - 1)
    coeffs = {}
    for p in range(g):
        for q in range(g):
            summed = (total - minus) * twisted[p] * twisted[q] - minus * plain[p] * plain[q]
            assert summed % total == 0
            coeffs[(p + 3 * g - 3, q + 3 * g - 3)] = summed // total
    return nonzero(coeffs)


def shifted_first_codimension(monkeypatch):
    """Mutant: the stratum over F_1 attached two real dimensions too deep."""
    original = strata.bb_codimension
    monkeypatch.setattr(strata, "bb_codimension", lambda g, k: original(g, k) + (2 if k == 1 else 0))


def moved_hodge_unit(monkeypatch):
    """Mutant: one class of type (kbar, 0) moved to type (0, kbar); every sum is kept."""
    original = strata.variant_hodge_numbers

    def moved(g, k):
        hodge = original(g, k)
        hodge[0] += 1
        hodge[-1] -= 1
        return hodge

    monkeypatch.setattr(strata, "variant_hodge_numbers", moved)


class TestLhsFromFixedLoci:
    """The left side is the dual of the variant classes that the Betti pipeline adds."""

    @pytest.mark.parametrize("g", range(2, 11))
    def test_matches_the_hand_written_sum(self, g):
        assert e_poly_kappa_lhs(g) == hand_written_lhs(g)

    @pytest.mark.parametrize("g", range(2, 11))
    def test_matches_the_closed_form(self, g):
        assert e_poly_kappa_lhs(g) == half_difference_lhs(g)

    def test_genus_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            e_poly_kappa_lhs(1)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_shifted_codimension_fails_both_routes(self, g, monkeypatch, capsys):
        shifted_first_codimension(monkeypatch)
        with pytest.raises(IdentityViolation):
            mirror_verify(g)
        assert cli.run(["mirror", "--genus", str(g)]) == 1
        assert cli.run(["poincare", "--space", "higgs", "--genus", str(g)]) == 1

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_moved_hodge_type_fails_only_the_mirror(self, g, monkeypatch, capsys):
        # Betti numbers see only p + q, so only the mirror check can catch this
        moved_hodge_unit(monkeypatch)
        with pytest.raises(IdentityViolation):
            mirror_verify(g)
        assert cli.run(["poincare", "--space", "higgs", "--genus", str(g), "--via", "both"]) == 0


class TestPrym:
    """
    The right side at N_-(gamma) = 0 is the Prym E-polynomial
    (1+u)^(g-1) (1+v)^(g-1) with the sign twist and the shift (uv)^(3g-3):
    (uv)^(3g-3) (1-u)^(g-1) (1-v)^(g-1).
    """

    def test_genus_four_example(self):
        row = pascal_row(-1, 3)
        assert mirror_mod._rhs_from_count(4, 0)[2 + 9, 1 + 9] == row[2] * row[1] == -9

    def test_symmetric_in_u_v(self):
        for g in (2, 3, 4, 5):
            p = mirror_mod._rhs_from_count(g, 0)
            for (a, b), c in p.items():
                assert p[b, a] == c

    def test_value_at_one_one(self):
        # the untwisted sum has 2^(2g-2) points-worth of cohomology at u = v = 1
        for g in (2, 3, 4):
            p = mirror_mod._rhs_from_count(g, 0)
            assert sum((-1) ** (a + b) * c for (a, b), c in p.items()) == 4 ** (g - 1)

    @pytest.mark.parametrize("g", range(2, 11))
    @pytest.mark.parametrize("half", [False, True], ids=["minus=0", "minus=half"])
    def test_matches_the_pascal_oracle(self, g, half):
        minus = (1 << (2 * g - 1)) if half else 0
        assert mirror_mod._rhs_from_count(g, minus) == pascal_rhs(g, minus)

    def test_reads_one_binomial_row(self, monkeypatch):
        calls = 0

        def counted(n, k):
            nonlocal calls
            calls += 1
            return math.comb(n, k)

        monkeypatch.setattr(mirror_mod, "comb", counted)
        p = mirror_mod._rhs_from_count(10, 0)
        assert calls == 10
        assert p[3 + 27, 4 + 27] == -math.comb(9, 3) * math.comb(9, 4)

    @pytest.mark.parametrize("g", [2, 3, 10])
    def test_count_that_is_not_a_character_count_is_not_divisible(self, g):
        # 4^g - 2 over 4^g at u^0 v^0: the average of a count no pairing gives is not integral
        with pytest.raises(NonDivisible, match=f"divisible by {4**g}"):
            mirror_mod._rhs_from_count(g, 1)


class TestRhs:
    def test_matches_lhs_genus_two(self):
        assert e_poly_rhs(2, 1) == LHS_G2

    def test_independent_of_gamma(self):
        polys = [e_poly_rhs(2, gamma) for gamma in range(1, 16)]
        assert all(p == polys[0] for p in polys)

    def test_every_genus_from_two_accepted(self):
        # the layer has no cap of its own: the command line caps the genus it passes
        for g in (11, 32):
            assert e_poly_rhs(g, 1) == e_poly_kappa_lhs(g)
        with pytest.raises(ValueError, match="at least 2"):
            e_poly_rhs(1, 1)

    def test_trivial_element_rejected(self):
        for g in (2, 3, MAX_GENUS):
            with pytest.raises(TrivialElement):
                e_poly_rhs(g, 0)

    def test_genus_mismatch_rejected(self):
        # 4^g and past are elements of a larger group; a negative int is none
        for g in (2, 3, MAX_GENUS):
            for gamma in (4**g, 4**g + 1, -1):
                with pytest.raises(ValueError, match=f"genus-{g} group") as exc_info:
                    e_poly_rhs(g, gamma)
                assert not isinstance(exc_info.value, TrivialElement)
        with pytest.raises(TypeError):
            e_poly_rhs(2, 1.0)

    def test_small_genus_rejected(self):
        with pytest.raises(ValueError):
            e_poly_rhs(1, 1)


class TestWalshHadamardCount:
    """
    N_-(gamma) = (4^g - S[row]) / 2, where S[row], the Walsh-Hadamard character
    sum of gamma's row, is 4^g at the zero row and 0 at every other row.
    """

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_counts_match_the_literal_loop(self, g):
        gammas = range(1, 4**g)
        counts = list(mirror_mod._minus_counts(g, gammas))
        assert [gamma for gamma, _ in counts] == list(gammas)
        for gamma, minus in counts:
            assert minus == literal_minus_count(g, gamma) == 1 << (2 * g - 1)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_counts_match_the_literal_loop_for_a_degenerate_pairing(self, g, monkeypatch):
        monkeypatch.setattr(mirror_mod, "weil_pairing", first_pair_only)
        gammas = range(1, 4**g)
        counts = dict(mirror_mod._minus_counts(g, gammas))
        for gamma in gammas:
            assert counts[gamma] == literal_minus_count(g, gamma)
        assert set(counts.values()) == {0, 1 << (2 * g - 1)}


class TestMirrorVerify:
    def test_genus_two_exhaustive(self):
        report = mirror_verify(2)
        assert isinstance(report, MirrorReport)
        assert report.genus == 2
        assert report.elements_checked == 15
        assert report.lhs == LHS_G2
        assert report.rhs_sample == LHS_G2

    def test_genus_three_exhaustive(self):
        assert mirror_verify(3).elements_checked == 63

    def test_genus_seven_exhaustive(self):
        report = mirror_verify(7)
        assert report.elements_checked == 16383

    def test_sampled_sweep_memory_is_bounded(self):
        # a sampled sweep allocates nothing of size 4^g
        for g, sample in [(8, 8), (10, 64)]:
            mirror_verify(g, sample=sample)  # warm imports and caches outside the measurement
            tracemalloc.start()
            try:
                report = mirror_verify(g, sample=sample)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.elements_checked == sample
            assert peak < 1024 * 1024, (g, sample, peak)

    def test_sampled_sweep(self):
        report = mirror_verify(7, sample=5, seed=11)
        assert report.elements_checked == 5

    def test_every_genus_from_two_accepted(self):
        for g in (11, 32):
            report = mirror_verify(g, sample=3)
            assert report.elements_checked == 3
        with pytest.raises(ValueError, match="at least 2"):
            mirror_verify(1, sample=1)

    @pytest.fixture
    def drawn(self, monkeypatch):
        """Every gamma the check reads, in order."""
        drawn = []
        counts = mirror_mod._minus_counts
        monkeypatch.setattr(mirror_mod, "_minus_counts",
                            lambda g, gammas: counts(g, (drawn.append(x) or x for x in gammas)))
        return drawn

    @pytest.mark.parametrize("g", [32, MAX_GENUS])
    def test_sample_past_ssize_t(self, g, drawn):
        # from g = 32 on, 4^g - 1 does not fit a C ssize_t, so no range of the
        # population can be sampled; the draw holds only the values it draws
        report = mirror_verify(g, sample=100, seed=7)
        assert report.elements_checked == 100
        assert len(set(drawn)) == 100 and all(0 < gamma < 4**g for gamma in drawn)

    def test_sample_draws_distinct_nonzero_elements(self, drawn):
        # one short of the whole group: every nonzero element but one
        mirror_verify(2, sample=14, seed=5)
        assert len(set(drawn)) == 14 and all(0 < gamma < 16 for gamma in drawn)
        # a single draw reaches every nonzero element over a few seeds
        drawn.clear()
        for seed in range(200):
            mirror_verify(2, sample=1, seed=seed)
        assert len(set(drawn)) == 15

    def test_sample_is_seed_deterministic(self):
        a = mirror_verify(4, sample=6, seed=3)
        b = mirror_verify(4, sample=6, seed=3)
        assert a == b

    def test_detects_perturbed_shift(self, monkeypatch):
        import higgsmoduli.mirror as mirror_mod

        monkeypatch.setattr(mirror_mod, "fermionic_shift", lambda g: 2 * g - 1)
        with pytest.raises(IdentityViolation) as exc_info:
            mirror_verify(2)
        assert exc_info.value.genus == 2

    def test_detects_perturbed_pairing(self, monkeypatch):
        import higgsmoduli.mirror as mirror_mod

        monkeypatch.setattr(mirror_mod, "weil_pairing", lambda g, a, b: 1)
        with pytest.raises(IdentityViolation):
            mirror_verify(2)

    def test_rejects_a_pairing_that_is_not_alternating(self, monkeypatch):
        # its rows are all ones, so the count alone would match a nondegenerate form
        monkeypatch.setattr(mirror_mod, "weil_pairing", not_bilinear)
        with pytest.raises(PairingNotAlternating) as exc_info:
            mirror_verify(2)
        assert exc_info.value.gamma_bits == (1, 0, 0, 0)
        assert exc_info.value.value == -1

    def test_violation_names_the_first_sampled_gamma(self, monkeypatch):
        monkeypatch.setattr(mirror_mod, "weil_pairing", lambda g, a, b: 1)
        with pytest.raises(IdentityViolation) as exc_info:
            mirror_verify(4, sample=5, seed=3)
        err = exc_info.value
        assert err.gamma_bits == (1, 0, 1, 1, 1, 1, 0, 0)
        assert (err.monomial, err.lhs_coeff, err.rhs_coeff) == ((9, 9), 0, 1)

    def test_violation_reports_the_monomial(self, monkeypatch):
        import higgsmoduli.mirror as mirror_mod

        monkeypatch.setattr(mirror_mod, "fermionic_shift", lambda g: 2 * g)
        with pytest.raises(IdentityViolation) as exc_info:
            mirror_verify(2)
        err = exc_info.value
        assert err.lhs_coeff != err.rhs_coeff


class TestCheckFailureMessages:
    """The three errors a failed mirror check raises: exact text and attributes."""

    @pytest.mark.parametrize(
        "error, message, attributes",
        [
            (IdentityViolation(3, (1, 0, 0, 1, 1, 0), (4, 2), 7, -1),
             "genus 3, gamma 100110: coefficient of u^4 v^2 is 7 on the left, -1 on the right",
             {"genus": 3, "gamma_bits": (1, 0, 0, 1, 1, 0), "monomial": (4, 2), "lhs_coeff": 7,
              "rhs_coeff": -1}),
            (PairingNotAlternating(2, (0, 1, 1, 0), -1),
             "genus 2, gamma 0110: w(gamma, gamma) is -1, not 1; the pairing is not alternating",
             {"genus": 2, "gamma_bits": (0, 1, 1, 0), "value": -1}),
            (PairingNotBilinear(4, (1, 1, 0, 0, 0, 0, 0, 1)),
             "genus 4, gamma 11000001: the basis rows it combines sum to zero, but its own row "
             "is not zero; the pairing is not linear in its first argument",
             {"genus": 4, "gamma_bits": (1, 1, 0, 0, 0, 0, 0, 1)}),
        ],
        ids=["identity-violation", "not-alternating", "not-bilinear"],
    )
    def test_text_and_attributes(self, error, message, attributes):
        assert isinstance(error, ArithmeticError)
        assert error.args == (message,)
        assert str(error) == message
        assert vars(error) == attributes


def sweep_outcome(g):
    """The oracle: what the sweep over every nonzero gamma, in increasing order, raises where."""
    lhs = e_poly_kappa_lhs(g)
    try:
        for gamma, minus in mirror_mod._minus_counts(g, range(1, 4**g)):
            if mirror_mod._rhs_from_count(g, minus) != lhs:
                return IdentityViolation, mirror_mod._bits(g, gamma)
    except PairingNotAlternating as exc:
        return PairingNotAlternating, exc.gamma_bits
    return None, None


def certificate_outcome(g):
    try:
        report = mirror_verify(g)
    except (IdentityViolation, PairingNotAlternating, PairingNotBilinear) as exc:
        return type(exc), exc.gamma_bits
    assert report.elements_checked == 4**g - 1
    return None, None


def alternating_but_at_e012(g, a, b):
    """The standard pairing, except w(gamma*, gamma*) = -1 at gamma* = e_0 + e_1 + e_2."""
    if a == b == 0b111:
        return -1
    return weil_pairing(g, a, b)


def not_symmetric(g, a, b):
    """Bilinear, +1 on the diagonal, but w(e_0, e_1) = -1 and w(e_1, e_0) = 1: not alternating."""
    return -weil_pairing(g, a, b) if a & 1 and b & 2 else weil_pairing(g, a, b)


def e1_sent_to_e0(g, a, b):
    """The standard form pulled back along e_1 -> e_0: alternating, with e_0 + e_1 in its kernel."""

    def fold(x):
        # bit 0 becomes bit 0 + bit 1, and bit 1 becomes 0
        return (x & ~3) | ((x ^ (x >> 1)) & 1)

    return weil_pairing(g, fold(a), fold(b))


def e1_copies_e0(g, a, b):
    """The standard pairing, except that e_1's row is e_0's."""
    return weil_pairing(g, 1 if a == 2 else a, b)


class TestCertificate:
    """The exhaustive check certifies over GF(2) what the sweep reads gamma by gamma."""

    MUTANTS = {
        "standard": (None, None),
        "fermionic_shift": ("fermionic_shift", lambda g: 2 * g - 1),
        "constant": ("weil_pairing", lambda g, a, b: 1),
        "first_pair_only": ("weil_pairing", first_pair_only),
        "not_bilinear": ("weil_pairing", not_bilinear),
        "not_symmetric": ("weil_pairing", not_symmetric),
        "e1_sent_to_e0": ("weil_pairing", e1_sent_to_e0),
    }

    @pytest.mark.parametrize("g", range(2, 7))
    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_certificate_and_sweep_agree(self, mutant, g, monkeypatch):
        name, value = self.MUTANTS[mutant]
        if name:
            monkeypatch.setattr(mirror_mod, name, value)
        outcome = sweep_outcome(g)
        assert certificate_outcome(g) == outcome
        assert (outcome[0] is None) == (mutant == "standard")

    def test_a_pairing_odd_on_one_weight_three_element_passes(self, monkeypatch):
        # The stated gap: the certificate reads w(gamma, gamma) on weights 1 and 2
        # only, which decides it everywhere for a pairing linear in its first
        # argument.  This one is not, and only the sweep reads gamma* itself.
        monkeypatch.setattr(mirror_mod, "weil_pairing", alternating_but_at_e012)
        mirror_verify(3)  # the certificate raises nothing
        assert sweep_outcome(3) == (PairingNotAlternating, (1, 1, 1, 0, 0, 0))

    def test_a_kernel_vector_with_a_nonzero_row_is_not_bilinear(self, monkeypatch, capsys):
        # rows e_0 and e_1 agree, so e_0 + e_1 spans the kernel, yet it pairs
        # as in the standard form
        monkeypatch.setattr(mirror_mod, "weil_pairing", e1_copies_e0)
        with pytest.raises(PairingNotBilinear) as exc_info:
            mirror_verify(3)
        assert exc_info.value.gamma_bits == (1, 1, 0, 0, 0, 0)
        assert cli.run(["mirror", "--genus", "3"]) == 1
        assert "not linear in its first argument" in capsys.readouterr().err

    def test_pairing_calls_grow_as_g_squared(self, monkeypatch):
        calls = 0

        def counted(g, a, b):
            nonlocal calls
            calls += 1
            return weil_pairing(g, a, b)

        monkeypatch.setattr(mirror_mod, "weil_pairing", counted)
        report = mirror_verify(10)
        assert report.elements_checked == 4**10 - 1
        assert calls < 1000


class TestAtTheCap:
    """The certificate's cost and the mutants, at the largest genus the command line accepts."""

    MUTANTS = {
        "shifted_first_codimension": shifted_first_codimension,
        "constant_pairing": lambda mp: mp.setattr(mirror_mod, "weil_pairing", lambda g, a, b: 1),
        "fermionic_shift": lambda mp: mp.setattr(mirror_mod, "fermionic_shift", lambda g: 2 * g - 1),
        "moved_hodge_unit": moved_hodge_unit,
    }

    def test_pairing_calls(self, monkeypatch):
        g = MAX_GENUS
        n = 2 * g
        calls = 0

        def counted(g, a, b):
            nonlocal calls
            calls += 1
            return weil_pairing(g, a, b)

        monkeypatch.setattr(mirror_mod, "weil_pairing", counted)
        report = mirror_verify(g)
        assert report.elements_checked == 4**g - 1
        # self-pairings on weights 1 and 2, the Gram rows, the kernel vector's row, the one gamma
        assert calls <= n * (n + 1) // 2 + n * n + 2 * n + 1

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_mutant_fails(self, mutant, monkeypatch):
        self.MUTANTS[mutant](monkeypatch)
        with pytest.raises(IdentityViolation) as exc_info:
            mirror_verify(MAX_GENUS)
        assert exc_info.value.genus == MAX_GENUS


class TestExponentBookkeeping:
    @given(st.integers(2, 5))
    @settings(max_examples=4, deadline=None)
    def test_sides_live_in_matching_degrees(self, g):
        lhs = e_poly_kappa_lhs(g)
        rhs = e_poly_rhs(g, 1)
        assert max(p + q for p, q in lhs) == max(p + q for p, q in rhs)
        assert min(p + q for p, q in lhs) == min(p + q for p, q in rhs)

    def test_counts_at_u_v_one(self):
        # both sides collapse to the same signed count; -2 at genus 2
        assert sum(e_poly_kappa_lhs(2).values()) == -2
        assert sum(e_poly_rhs(2, 3).values()) == -2
