"""Exact-arithmetic kernel: polynomials and truncated series; the mirror's bivariate record."""
import json
import math
import operator
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import higgsmoduli.exactpoly as exactpoly
from higgsmoduli import cli
from higgsmoduli.bundles import poincare_N_closed, poincare_N_recursion
from higgsmoduli.exactpoly import (
    IntPoly,
    NonDivisible,
    TailNonzero,
    TruncSeries,
    _shifted_sum,
    coeff_extract_x,
    poly_exact_div,
    series_expand,
)
from higgsmoduli.higgs import poincare_M_closed, poincare_M_stratified

ONE_PLUS_T = IntPoly([1, 1])
ONE_MINUS_T = IntPoly([1, -1])


def schoolbook(p, q):
    """The dense double loop, kept here as the oracle for the sparse product."""
    if p.is_zero() or q.is_zero():
        return IntPoly()
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, c in enumerate(p.coeffs):
        for j, d in enumerate(q.coeffs):
            out[i + j] += c * d
    return IntPoly(out)


def macdonald_double_loop(g, n):
    """[x^n] (1 + xt)^(2g) / ((1 - x)(1 - x t^2)) summed term by term, O(n g)."""
    out = [0] * (2 * n + 1)
    for c in range(min(n, 2 * g) + 1):
        for b in range(n - c + 1):
            out[c + 2 * b] += math.comb(2 * g, c)
    return IntPoly(out)


def binomial_row(a, b, k, n):
    """Coefficients of (a + b t^k)^n from math.comb."""
    out = [0] * (k * n + 1)
    for j in range(n + 1):
        out[k * j] = math.comb(n, j) * a ** (n - j) * b**j
    return out


# 0, 1, the byte boundary, and the powers the pipelines take at g = 200
POWER_EXPONENTS = [0, 1, 255, 256, 400, 800]

HUGE = 2**600
coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.builds(lambda m, sign: sign * m, st.integers(HUGE, 2**640), st.sampled_from([1, -1])),
)
polys = st.lists(coefficients, max_size=12).map(IntPoly)
# divisor factors 1 + t^k and 1 - t^k, the only ones division accepts
factors = st.lists(
    st.builds(lambda k, s: IntPoly([1] + [0] * (k - 1) + [s]), st.integers(1, 4), st.sampled_from([1, -1])),
    max_size=4,
)
NOT_ONE_PLUS_MINUS_T_K = [
    IntPoly([]), IntPoly([1]), IntPoly([4]), IntPoly([0, 1]), IntPoly([0, 2]), IntPoly([-1, 1]),
    IntPoly([1, 2]), IntPoly([1, 1, 1]), IntPoly([1, 0, -2]), IntPoly([2, 0, 2]), 4,
]


class Interrupted(Exception):
    """Stops a computation part-way; unlike KeyboardInterrupt, pytest carries on."""


def interrupt_parity_prefix(after):
    """A sys.settrace hook that raises Interrupted at the after-th line event
    inside exactpoly._parity_prefix."""
    events = 0

    def local(frame, event, arg):
        nonlocal events
        events += event == "line"
        if events == after:
            raise Interrupted
        return local

    return lambda frame, event, arg: local if frame.f_code is exactpoly._parity_prefix.__code__ else None


def product(polys):
    out = IntPoly([1])
    for p in polys:
        out = schoolbook(out, p)
    return out


class TestIntPoly:
    def test_trailing_zeros_trimmed(self):
        assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])
        assert IntPoly([0, 0]).is_zero()
        assert IntPoly([]).is_zero()

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            IntPoly([1.5])
        with pytest.raises(TypeError):
            IntPoly([1, "2"])

    def test_bool_coefficients_are_stored_as_int(self):
        poly = IntPoly([True, 2])
        assert all(type(c) is int for c in poly.coeffs)
        assert json.dumps(poly.to_coeff_list()) == "[1, 2]"

    def test_degree_and_valuation(self):
        p = IntPoly([0, 0, 3, 0, 5])
        assert p.degree() == 4
        assert p.valuation() == 2
        assert IntPoly([]).degree() == -1

    def test_arithmetic(self):
        p, q = IntPoly([1, 2]), IntPoly([3, 0, 1])
        assert p + q == IntPoly([4, 2, 1])
        assert p - p == IntPoly([])
        assert p * q == IntPoly([3, 6, 1, 2])
        assert p * 0 == IntPoly([])
        assert -p == IntPoly([-1, -2])

    def test_difference_with_cancelled_top_is_trimmed(self):
        p, q = IntPoly([1, 2, 3, 4]), IntPoly([0, 5, 3, 4])
        assert (p - q).coeffs == (1, -3)
        assert (q - p).coeffs == (-1, 3)
        assert (p - p).coeffs == ()
        assert (p + -q).degree() == 1

    @pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
    def test_int_operand_is_a_type_error(self, op):
        # the operator protocol's error, in either order, not an internal attribute's
        with pytest.raises(TypeError):
            op(IntPoly([1]), 1)
        with pytest.raises(TypeError):
            op(1, IntPoly([1]))

    def test_float_factor_is_a_type_error(self):
        # an int or an IntPoly multiplies; anything else gets the operator
        # protocol's error, in either order, as + and - do
        with pytest.raises(TypeError):
            IntPoly([1, 2]) * 1.5
        with pytest.raises(TypeError):
            1.5 * IntPoly([1, 2])

    def test_pow(self):
        assert ONE_PLUS_T**4 == IntPoly([1, 4, 6, 4, 1])
        assert ONE_PLUS_T**0 == IntPoly([1])
        with pytest.raises(ValueError):
            ONE_PLUS_T ** (-1)

    def test_evaluate(self):
        p = IntPoly([1, 0, 1, 4, 1, 0, 1])
        assert p.evaluate(1) == 8
        assert p.evaluate(-1) == 0
        assert p.evaluate(0) == 1

    def test_shift_and_truncate(self):
        p = IntPoly([1, 2, 3])
        assert p.shift(2) == IntPoly([0, 0, 1, 2, 3])
        assert p.truncate(2) == IntPoly([1, 2])
        assert p.truncate(0) == IntPoly([])

    def test_palindromic(self):
        assert IntPoly([1, 0, 1, 4, 1, 0, 1]).is_palindromic()
        assert not IntPoly([1, 2]).is_palindromic()
        assert IntPoly([]).is_palindromic()


class TestShiftedSum:
    @given(st.lists(st.tuples(st.integers(0, 20), polys), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_sum_of_shifted_polynomials(self, terms):
        # coefficient by coefficient: IntPoly.__add__ is itself a _shifted_sum
        expected = [0] * max((shift + len(p.coeffs) for shift, p in terms), default=0)
        for shift, p in terms:
            for i, c in enumerate(p.coeffs):
                expected[shift + i] += c
        assert _shifted_sum((shift, p.coeffs) for shift, p in terms) == IntPoly(expected)

    def test_each_term_is_freed_before_the_next_is_built(self):
        # the fixed loci and the strata are built lazily and must not pile up
        live = 0

        class Term(tuple):
            def __del__(self):
                nonlocal live
                live -= 1

        def terms():
            nonlocal live
            for k in range(1, 5):
                assert live == 0
                live += 1
                yield k, Term((k, -k))

        assert _shifted_sum(terms()) == IntPoly([0, 1, 1, 1, 1, -4])

    def test_cancelled_top_is_trimmed(self):
        assert _shifted_sum([(0, (1, 1)), (1, (-1,))]) == IntPoly([1])
        assert _shifted_sum([]) == IntPoly()


class TestKroneckerProduct:
    @given(polys, polys)
    @settings(max_examples=200)
    def test_matches_schoolbook(self, p, q):
        assert p * q == schoolbook(p, q)

    @given(polys)
    @settings(max_examples=100)
    def test_square_matches_schoolbook(self, p):
        # both operands are one object
        assert p * p == schoolbook(p, p)

    @given(st.lists(coefficients, min_size=1, max_size=5).map(IntPoly), st.integers(0, 9))
    @settings(max_examples=100)
    def test_pow_matches_repeated_schoolbook(self, p, n):
        expected = IntPoly([1])
        for _ in range(n):
            expected = schoolbook(expected, p)
        assert p**n == expected

    @given(coefficients, st.integers(0, 5), polys)
    def test_single_term_operands(self, c, k, q):
        m = IntPoly([0] * k + [c])
        assert m * q == q * m == schoolbook(m, q)

    def test_zero_operands(self):
        assert IntPoly() * ONE_PLUS_T == ONE_PLUS_T * IntPoly() == IntPoly()
        assert IntPoly() ** 0 == IntPoly([1])
        assert IntPoly() ** 3 == IntPoly()

    @pytest.mark.parametrize(
        "m",
        [1, 255, 256, 2**63 - 1, 2**64, HUGE - 1, HUGE + 1],
        ids=["1", "2^8-1", "2^8", "2^63-1", "2^64", "2^600-1", "2^600+1"],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257])
    def test_worst_carry(self, m, n):
        # every product coefficient sums min(i + 1, n) terms of magnitude m^2,
        # and the middle one reaches m * m * n, the most any coefficient can be
        for sign in (1, -1):
            p, q = IntPoly([sign * m] * n), IntPoly([m] * n)
            expected = schoolbook(p, q)
            assert expected.coefficient(n - 1) == sign * m * m * n
            assert p * q == expected
            assert q * p == expected
        square = IntPoly([-m] * n)
        assert square * square == schoolbook(square, IntPoly([-m] * n))

    def test_pow_reaches_its_bound(self):
        # (sum |a_i|)^n bounds every coefficient of p^n; a one-term base attains it
        assert IntPoly([-HUGE]) ** 5 == IntPoly([-(HUGE**5)])
        assert IntPoly([3, 3]) ** 8 == IntPoly([3**8 * math.comb(8, k) for k in range(9)])

    @pytest.mark.parametrize("n", POWER_EXPONENTS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_binomial_powers_match_comb_rows(self, k, n):
        for a in (1, -1, 3, -3):
            for b in (1, -1, 3, -3):
                base = IntPoly([a] + [0] * (k - 1) + [b])
                assert base**n == IntPoly(binomial_row(a, b, k, n))

    @pytest.mark.parametrize("n", POWER_EXPONENTS)
    def test_pow_strips_the_valuation(self, n):
        # (t^2 - 3t^5)^n = t^(2n) (1 - 3t^3)^n
        base = IntPoly([0, 0, 1, 0, 0, -3])
        assert base**n == IntPoly([0] * (2 * n) + binomial_row(1, -3, 3, n))

    def test_pow_of_product_matches_product_of_pows(self):
        # the left side is one recurrence on a four-term base, the right one sparse product
        assert (ONE_PLUS_T * IntPoly([1, 0, 0, 1])) ** 800 == ONE_PLUS_T**800 * IntPoly([1, 0, 0, 1]) ** 800

    @pytest.mark.parametrize("g", [2, 10, 48])
    def test_pipeline_products_have_a_short_factor(self, g, monkeypatch):
        # the product costs nnz(sparser) * len(other) steps, so it is linear
        # in the other operand while one factor has few nonzero coefficients;
        # every product the four pipelines make has one with at most five
        sparser = []
        mul = IntPoly.__mul__

        def recording(p, q):
            if isinstance(q, IntPoly):
                sparser.append(min(len(c) - c.count(0) for c in (p.coeffs, q.coeffs)))
            return mul(p, q)

        monkeypatch.setattr(IntPoly, "__mul__", recording)
        monkeypatch.setattr(IntPoly, "__rmul__", recording)
        for pipeline in (poincare_N_closed, poincare_N_recursion, poincare_M_closed, poincare_M_stratified):
            pipeline(g)
        assert sparser and max(sparser) <= 5, max(sparser)

    def test_a_binomial_factor_is_walked_in_either_order(self, monkeypatch):
        # (1 - t^398) times the 397 nonzero coefficients of P_t(S^198 X) at
        # g = 100: the binomial is longer but sparser, so it gives the rows
        rows = []

        def recording(terms):
            terms = list(terms)
            rows.append(len(terms))
            return _shifted_sum(terms)

        monkeypatch.setattr(exactpoly, "_shifted_sum", recording)
        binomial, dense = IntPoly([1] + [0] * 397 + [-1]), coeff_extract_x(100, 198)
        products = binomial * dense, dense * binomial
        assert rows == [2, 2]
        assert products[0] == products[1] == dense - dense.shift(398)


class TestPolyExactDiv:
    def test_moduli_closed_form_g2(self):
        # [(1+t^3)^4 - t^4 (1+t)^4] / [(1-t^2)(1-t^4)] = 1 + t^2 + 4t^3 + t^4 + t^6
        num = IntPoly([1, 0, 0, 1]) ** 4 - IntPoly([0, 0, 0, 0, 1]) * ONE_PLUS_T**4
        den = [IntPoly([1, 0, -1]), IntPoly([1, 0, 0, 0, -1])]
        assert poly_exact_div(num, den) == IntPoly([1, 0, 1, 4, 1, 0, 1])

    def test_binomial_quotient(self):
        assert poly_exact_div(ONE_PLUS_T**4, [ONE_PLUS_T, ONE_PLUS_T]) == ONE_PLUS_T**2
        assert poly_exact_div(ONE_PLUS_T**4, []) == ONE_PLUS_T**4

    def test_factor_other_than_one_plus_minus_t_k_is_refused(self):
        # zero, constants, a multiple of t, or any other shape: only 1 + t^k
        # and 1 - t^k divide, so no division strips a power of t
        for factor in NOT_ONE_PLUS_MINUS_T_K:
            with pytest.raises(ValueError):
                poly_exact_div(ONE_PLUS_T**4, [ONE_PLUS_T, factor])

    def test_non_divisible(self):
        with pytest.raises(NonDivisible):
            poly_exact_div(ONE_PLUS_T, [ONE_MINUS_T])
        with pytest.raises(NonDivisible):
            poly_exact_div(IntPoly([1, 1, 1]), [ONE_PLUS_T])
        with pytest.raises(NonDivisible):
            poly_exact_div(IntPoly([1]), [ONE_PLUS_T])  # degree too low
        with pytest.raises(NonDivisible):
            poly_exact_div(IntPoly([0, 1]), [IntPoly([1, 0, 1])])  # degree too low, k = 2

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_a_remainder_in_any_pass_is_caught(self, n):
        # (1+t)^(n-1) (1 + t^2) divides exactly by 1 + t n - 1 times; the n-th
        # pass leaves the remainder 2 of (1 + t^2) / (1 + t)
        num = ONE_PLUS_T ** (n - 1) * IntPoly([1, 0, 1])
        assert poly_exact_div(num, [ONE_PLUS_T] * (n - 1)) == IntPoly([1, 0, 1])
        with pytest.raises(NonDivisible, match="remainder is nonzero"):
            poly_exact_div(num, [ONE_PLUS_T] * n)

    def test_a_malformed_factor_is_refused_before_any_pass(self):
        # 1 - t leaves the remainder 2 of 1 + t, but the 1 + 2t after it is
        # refused first: every factor is checked before the first pass
        with pytest.raises(ValueError):
            poly_exact_div(ONE_PLUS_T, [ONE_MINUS_T, IntPoly([1, 2])])

    def test_zero_cases(self):
        assert poly_exact_div(IntPoly([]), [ONE_PLUS_T]) == IntPoly([])
        with pytest.raises(ValueError):
            poly_exact_div(ONE_PLUS_T, [IntPoly([])])

    @given(polys, factors)
    def test_multiply_then_divide_round_trips(self, pa, fs):
        assert poly_exact_div(schoolbook(pa, product(fs)), fs) == pa

    @given(polys, factors.filter(bool), st.lists(coefficients, min_size=1, max_size=16))
    @settings(max_examples=200)
    def test_remainder_only_the_top_coefficients_reveal(self, pa, fs, r):
        # every pass is a running sum, which never fails on its own, so only
        # the vanishing of a pass's last k entries can reject a + r / divisor
        divisor = product(fs)
        pr = IntPoly(r).truncate(divisor.degree())
        assume(not pr.is_zero())
        with pytest.raises(NonDivisible, match="remainder is nonzero"):
            poly_exact_div(schoolbook(pa, divisor) + pr, fs)


class TestTruncSeries:
    def test_geometric_like_expansion(self):
        # (1+t)^2 / (1-t) = 1 + 3t + 4t^2 + 4t^3 + 4t^4 + ...
        s = series_expand(ONE_PLUS_T**2, [ONE_MINUS_T], 5)
        assert [s.coefficient(i) for i in range(5)] == [1, 3, 4, 4, 4]

    def test_factor_other_than_one_plus_minus_t_k_is_refused(self):
        # among them t, whose zero constant term has no power-series inverse
        for factor in NOT_ONE_PLUS_MINUS_T_K:
            with pytest.raises(ValueError):
                series_expand(ONE_PLUS_T, [factor], 3)

    def test_coefficient_past_order(self):
        s = series_expand(ONE_PLUS_T, [ONE_MINUS_T], 3)
        with pytest.raises(IndexError):
            s.coefficient(3)

    def test_order_zero_is_empty(self):
        s = series_expand(ONE_PLUS_T, [ONE_MINUS_T], 0)
        assert s.order == 0
        with pytest.raises(IndexError):
            s.coefficient(0)

    def test_polynomial_part_guard(self):
        s = series_expand(ONE_PLUS_T, [ONE_MINUS_T], 6)
        with pytest.raises(TailNonzero):
            s.polynomial_part(2)
        exact = TruncSeries(IntPoly([1, 2]), 6)
        assert exact.polynomial_part(3) == IntPoly([1, 2])

    @pytest.mark.parametrize("max_degree", [0, 3, 7])
    def test_polynomial_part_reads_the_first_guard_coefficient(self, max_degree):
        # the only nonzero coefficient past max_degree sits right above it
        s = TruncSeries(IntPoly([1] + [0] * max_degree + [5]), max_degree + 4)
        with pytest.raises(TailNonzero, match=f"at t\\^{max_degree + 1} "):
            s.polynomial_part(max_degree)
        assert s.polynomial_part(max_degree + 1) == s.poly

    def test_series_multiplication_matches_polynomial(self):
        p, q = IntPoly([1, 2, 3]), IntPoly([4, 0, 5])
        s = TruncSeries(p, 4) * q
        assert s.order == 4
        assert s.poly == (p * q).truncate(4)
        assert q * TruncSeries(p, 4) == s

    @given(polys, polys, st.integers(0, 14))
    def test_truncated_product_matches_full_product(self, p, q, order):
        product = TruncSeries(p, order) * q
        assert product.order == order
        assert product.poly == schoolbook(p, q).truncate(order)

    def test_a_series_multiplies_only_a_polynomial(self):
        # the series keeps its order, which no other operand has a rule for
        s = TruncSeries(ONE_PLUS_T, 5)
        for other in (TruncSeries(ONE_PLUS_T, 3), 3):
            with pytest.raises(TypeError):
                s * other
            with pytest.raises(TypeError):
                other * s

    @given(polys, factors, st.integers(0, 16))
    @settings(max_examples=60)
    def test_expansion_times_denominator_recovers_numerator(self, pn, fs, order):
        s = series_expand(pn, fs, order)
        assert s.order == order
        assert schoolbook(s.poly, product(fs)).truncate(order) == pn.truncate(order)

    @given(polys, factors, st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=60)
    def test_truncation_consistency(self, pn, fs, o1, o2):
        # expanding further and then truncating matches the shorter expansion
        lo, hi = sorted((o1, o2))
        short = series_expand(pn, fs, lo)
        long = series_expand(pn, fs, hi)
        assert long.poly.truncate(lo) == short.poly


class TestCoeffExtract:
    def test_frozen_examples(self):
        assert coeff_extract_x(2, 1) == IntPoly([1, 4, 1])
        assert coeff_extract_x(3, 3) == IntPoly([1, 6, 16, 26, 16, 6, 1])
        assert coeff_extract_x(2, 0) == IntPoly([1])

    def test_validation(self):
        with pytest.raises(ValueError):
            coeff_extract_x(-1, 2)
        with pytest.raises(ValueError):
            coeff_extract_x(2, -1)

    def test_a_refused_float_genus_leaves_the_cache_integral(self):
        # 2.0 == 2 as a cache key: a float read after the cache is touched would
        # leave float prefix sums behind for every later call at genus 2
        coeff_extract_x(3, 1)
        with pytest.raises(TypeError):
            coeff_extract_x(2.0, 1)
        assert all(type(c) is int for c in coeff_extract_x(2, 3).coeffs)
        assert all(type(c) is int for c in poincare_M_stratified(2).coeffs)

    @given(st.integers(2, 6), st.integers(0, 8))
    @settings(max_examples=40)
    def test_palindromic_about_n(self, g, n):
        p = coeff_extract_x(g, n)
        assert p.degree() <= 2 * n
        coeffs = p.to_coeff_list() + [0] * (2 * n + 1 - len(p.to_coeff_list()))
        assert coeffs == coeffs[::-1]

    @given(st.integers(2, 6), st.integers(0, 8))
    @settings(max_examples=40)
    def test_euler_characteristic(self, g, n):
        # chi(S^n X) = (-1)^n C(2g-2, n)
        assert coeff_extract_x(g, n).evaluate(-1) == (-1) ** n * math.comb(
            2 * g - 2, n
        )

    @given(st.integers(2, 6), st.integers(0, 8))
    @settings(max_examples=40)
    def test_nonnegative_coefficients(self, g, n):
        assert all(c >= 0 for c in coeff_extract_x(g, n).to_coeff_list())

    @given(st.integers(0, 12), st.integers(0, 30))
    @settings(max_examples=100)
    def test_matches_double_loop(self, g, n):
        assert coeff_extract_x(g, n) == macdonald_double_loop(g, n)

    @pytest.mark.parametrize(
        "g, n",
        [(50, 97), (50, 99), (50, 100), (50, 101), (50, 160), (7, 40)]
        # top = min(2g, n) = 0 and 1, and the plateau's parity either side of 2g
        + [(g, n) for g in range(4) for n in range(4 * g + 4)],
    )
    def test_matches_double_loop_either_side_of_2g(self, g, n):
        assert coeff_extract_x(g, n) == macdonald_double_loop(g, n)

    def test_interleaved_genera_match_fresh_results(self):
        # the binomial row is cached for one genus at a time; switching genus must rebuild it
        calls = [(g, n) for n in (0, 3, 9, 11, 16) for g in (5, 7, 5)]
        assert [coeff_extract_x(g, n) for g, n in calls] == [macdonald_double_loop(g, n) for g, n in calls]

    def test_interleaved_rising_and_falling_n_match_the_double_loop(self):
        # the cached row of one genus grows when a later call needs more and is
        # sliced when it needs less
        calls = [(g, n) for n in (3, 16, 0, 11, 9, 21, 1) for g in (5, 7, 5)]
        assert [coeff_extract_x(g, n) for g, n in calls] == [macdonald_double_loop(g, n) for g, n in calls]

    @pytest.mark.parametrize("g", [3, 10, 40])
    @pytest.mark.parametrize("rising", [True, False], ids=["rising", "falling"])
    def test_growth_order_matches_fresh_results(self, g, rising, monkeypatch):
        # rising n grows the cached row call by call; falling n, the
        # stratified sum's order, builds it once and slices it
        monkeypatch.setattr(exactpoly, "_PARITY_PREFIX", {})
        ns = list(range(4 * g + 3))
        fresh = {}
        for n in ns:
            exactpoly._PARITY_PREFIX.clear()
            fresh[n] = coeff_extract_x(g, n)
        exactpoly._PARITY_PREFIX.clear()
        for n in ns if rising else reversed(ns):
            assert coeff_extract_x(g, n) == fresh[n], n

    @pytest.mark.parametrize("via", ["kernel", "cli"])
    def test_an_interrupted_extension_leaves_a_correct_row(self, via, monkeypatch, capsys):
        # an extension stopped part-way, as by KeyboardInterrupt or MemoryError,
        # must leave the cache correct for every later call at that genus
        monkeypatch.setattr(exactpoly, "_PARITY_PREFIX", {})
        argv = ["macdonald", "--genus", "10", "--n", "15", "--format", "json"]
        if via == "cli":
            assert cli.run(argv) == 0
            fresh, read = capsys.readouterr().out, lambda: cli.run(argv) or capsys.readouterr().out
        else:
            fresh, read = coeff_extract_x(10, 15), lambda: coeff_extract_x(10, 15)
        exactpoly._PARITY_PREFIX.clear()
        coeff_extract_x(10, 3)  # caches the row up to c = 4
        previous = sys.gettrace()
        sys.settrace(interrupt_parity_prefix(after=10))
        try:
            with pytest.raises(Interrupted):
                coeff_extract_x(10, 15)
        finally:
            sys.settrace(previous)
        assert 5 < len(exactpoly._PARITY_PREFIX[10]) < 16  # stopped part-way
        assert read() == fresh

    def test_small_n_builds_only_the_head_of_the_row(self, monkeypatch):
        # C(10000, 0..10000) would take about 12 MB; n = 1 needs two of its sums
        monkeypatch.setattr(exactpoly, "_PARITY_PREFIX", {})
        tracemalloc.start()
        try:
            poly = coeff_extract_x(5000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert poly == IntPoly([1, 10000, 1])
        assert peak < 1024 * 1024, peak

    @given(st.integers(2, 5), st.integers(0, 6))
    @settings(max_examples=30)
    def test_against_brute_force_series(self, g, n):
        # [x^n] (1+xt)^{2g} / ((1-x)(1-x t^2)) by direct convolution in x
        order = n + 1
        coeffs_x = [IntPoly([]) for _ in range(order)]
        for c in range(min(n, 2 * g) + 1):
            coeffs_x[c] = IntPoly([0] * c + [math.comb(2 * g, c)])
        # multiply by sum_j x^j and then by sum_j (x t^2)^j
        acc = [IntPoly([]) for _ in range(order)]
        for i in range(order):
            for j in range(order - i):
                acc[i + j] = acc[i + j] + coeffs_x[i]
        acc2 = [IntPoly([]) for _ in range(order)]
        for i in range(order):
            for j in range(order - i):
                acc2[i + j] = acc2[i + j] + acc[i] * IntPoly([0] * (2 * j) + [1])
        assert acc2[n] == coeff_extract_x(g, n)

