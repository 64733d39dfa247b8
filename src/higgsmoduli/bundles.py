"""
Betti numbers of the moduli space of rank-2, odd-degree stable bundles.

Let N-check denote the moduli space of stable holomorphic bundles of rank 2
and degree 1 with fixed determinant on a genus-g curve.  Its Poincare
polynomial is computed here by two independent routes and the agreement of
the two is the correctness test for both:

* the closed formula of Harder and Narasimhan,

      P_t = [(1+t^3)^(2g) - t^(2g) (1+t)^(2g)] / [(1-t^2)(1-t^4)],

  an exact polynomial division (the remainder is asserted to vanish);

* the gauge-theoretic recursion of Atiyah and Bott.  The space C of
  holomorphic structures on a fixed rank-2 degree-1 bundle is stratified by
  Harder-Narasimhan type.  The unstable types are (k, 1-k), k >= 1, the
  first being (1, 0); the stratum of type (k, 1-k) has complex codimension
  g + 2k - 2, so it enters shifted by t^(2g + 4k - 4), its real
  codimension, with equivariant Poincare series
  ((1+t)^(2g)/(1-t^2))^2, while C itself is contractible with
  P_t(B Gauge) = [(1+t)(1+t^3)]^(2g) / ((1-t^2)^2 (1-t^4)).  Peeling the
  unstable strata off the classifying-space series leaves the semistable
  stratum, and dividing out the central C^* (one factor 1/(1-t^2)) and the
  Jacobian factor (1+t)^(2g) leaves P_t(N-check).

The infinite stratum sum is truncated at the first stratum whose codimension
exceeds the working window; since the k-th stratum only contributes from
degree 2g + 4k - 4 upward, this truncation is exact, not approximate.
"""
import operator

from . import strata
from .exactpoly import IntPoly, TruncSeries, _shifted_sum, poly_exact_div, series_expand
from .strata import _check_genus

_ONE_PLUS_T = IntPoly([1, 1])
_ONE_PLUS_T3 = IntPoly([1, 0, 0, 1])
_ONE_MINUS_T2 = IntPoly([1, 0, -1])
_ONE_MINUS_T4 = IntPoly([1, 0, 0, 0, -1])
# The factors of (1-t^2)(1-t^4), the denominator of both closed forms:
# Harder-Narasimhan's and Hitchin's.
_HN_DENOM = (_ONE_MINUS_T2, _ONE_MINUS_T4)


def poincare_N_closed(g: int) -> IntPoly:
    """
    The Harder-Narasimhan closed formula, as an exact polynomial of degree
    6(g-1).  A nonzero remainder in the division cannot happen for a correct
    numerator and is re-raised as the implementation bug it would be.
    """
    g = _check_genus(g)
    numerator = _ONE_PLUS_T3 ** (2 * g) - (_ONE_PLUS_T ** (2 * g)).shift(2 * g)
    return poly_exact_div(numerator, _HN_DENOM)


def strata_equivariant_poly(g: int, order: int) -> TruncSeries:
    """
    Equivariant Poincare series ((1+t)^(2g)/(1-t^2))^2 of any unstable
    stratum, truncated at `order`.  The series is independent of which
    stratum: every stratum retracts onto a product of two Jacobian factors
    times two copies of BC^*.
    """
    g = _check_genus(g)
    return series_expand(_ONE_PLUS_T ** (4 * g), (_ONE_MINUS_T2, _ONE_MINUS_T2), order)


def classifying_space_poly(g: int, order: int) -> TruncSeries:
    """
    Poincare series [(1+t)(1+t^3)]^(2g) / ((1-t^2)^2 (1-t^4)) of the
    classifying space of the complex gauge group, truncated at `order`.
    """
    g = _check_genus(g)
    numerator = (_ONE_PLUS_T * _ONE_PLUS_T3) ** (2 * g)
    return series_expand(numerator, (_ONE_MINUS_T2, _ONE_MINUS_T2, _ONE_MINUS_T4), order)


def _strata_codims(g: int, window: int) -> list[int]:
    # Read through the module at each call, so a wrapper installed on
    # strata.hn_codim_rank2 is called.
    codims = []
    codim = strata.hn_codim_rank2(g, 1)
    while codim < window:
        codims.append(codim)
        codim = strata.hn_codim_rank2(g, len(codims) + 1)
    return codims


def recursion_strata_count(g: int, order: int | None = None) -> int:
    """
    How many unstable strata lie below the window order, 8g by default.
    order stays only because perfbench/tracer.py passes it positionally
    (ROADMAP.md item 0a); no recursion runs in that window.
    """
    g = _check_genus(g)
    return len(_strata_codims(g, 8 * g if order is None else operator.index(order)))


def _recursion_terms(g: int, window: int):
    # (shift, coefficients): the classifying-space series, then each negated
    # stratum series cut at the window; each is built when the sum reads it
    yield 0, classifying_space_poly(g, window).poly.coeffs
    minus = (-strata_equivariant_poly(g, window).poly).coeffs
    for codim in _strata_codims(g, window):
        yield codim, minus[:window - codim]


def poincare_N_recursion(g: int) -> IntPoly:
    """
    The Atiyah-Bott recursion.  Subtracts the stratum series, each shifted
    by its codimension and cut at the window, from the classifying-space
    series: the negated series is added into one list, in window - codim
    additions per stratum and no multiplication.  Then multiplies by
    (1 - t^2) to remove the central C^*, and divides exactly by the
    Jacobian factor (1+t)^(2g): 2g divisions by 1 + t, each an O(g) running
    sum, so O(g^2) additions in all.  Exactness of every one of those
    divisions, and the vanishing of all window coefficients above degree
    8g - 6 before them, are checked; either failure would mean a
    transcription or implementation error.
    """
    g = _check_genus(g)
    # The window covers P_t of the semistable stratum before the final
    # division, of degree exactly 8g - 6, and five coefficients more: a
    # guard range that polynomial_part requires to be zero.
    window = 8 * g
    acc = _shifted_sum(_recursion_terms(g, window))
    n_series = TruncSeries(acc, window) * _ONE_MINUS_T2
    n_poly = n_series.polynomial_part(8 * g - 6)
    return poly_exact_div(n_poly, [_ONE_PLUS_T] * (2 * g))
