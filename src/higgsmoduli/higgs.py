"""
Betti numbers of the rank-2, odd-degree SL Higgs moduli space.

Let M-check denote the moduli space of stable SL_2 Higgs bundles of degree 1
on a genus-g curve, a holomorphic symplectic variety of complex dimension
6g - 6.  Its Poincare polynomial is computed by two independent routes:

* the Bialynicki-Birula stratified sum over the fixed loci of the circle
  action scaling the Higgs field.  The fixed locus F_0 is the bundle moduli
  space N-check; for k = 1 .. g-1 the fixed locus F_k is a 2^(2g)-cover of
  the kbar-th symmetric product of the curve, kbar = 2g - 2k - 1, attached
  with real codimension 2(g + 2k - 2).  Since the stratification is perfect,

      P_t(M-check) = P_t(N-check)
                     + sum_k t^(2(g+2k-2)) P_t(F_k).

  The Poincare polynomial of F_k splits into the part pulled back from the
  symmetric product (Macdonald's formula) plus the classes of the
  (2^(2g) - 1) nontrivial cover sectors.  Those classes span the kbar-th
  exterior power of the first cohomology of a 2-torsion local system, of
  Hodge numbers h^(p, kbar-p) = C(g-1, p) C(g-1, kbar-p) and total dimension
  C(2g-2, kbar), concentrated in cohomological degree kbar, so they enter
  with weight t^kbar.  The count is sometimes stated without that weight;
  the weight is forced by where the classes live, and only with it does the
  stratified sum reproduce the closed form below.

  The table of those classes, strata.variant_hodge_numbers, and the
  codimensions, strata.bb_codimension, live in the strata module, and this
  module reads both through it at call time.  The mirror module dualises
  the same table, at the same codimensions, into the left side of the
  mirror identity, so an error in either function reaches both checks.

* Hitchin's closed form: four terms, three of them infinite series over
  the Harder-Narasimhan denominator (1-t^2)(1-t^4) whose sum is a
  polynomial.  Their summed numerator must divide exactly; that division is
  the correctness test of the transcription.
"""
from . import strata
from .bundles import _HN_DENOM, _ONE_MINUS_T4, _ONE_PLUS_T, _ONE_PLUS_T3, poincare_N_closed
from .exactpoly import IntPoly, NonDivisible, _shifted_sum, coeff_extract_x, poly_exact_div
from .strata import _check_genus, _check_stratum


class DegreeOverflow(ArithmeticError):
    """A stratum contribution exceeded the middle-dimension degree bound."""


def fixed_locus_poincare(g: int, k: int) -> IntPoly:
    """
    Poincare polynomial of the fixed locus F_k:
    P_t(S^kbar X) + (2^(2g) - 1) t^kbar sum_p h^(p, kbar-p), with
    kbar = 2g - 2k - 1 an odd number between 1 and 2g - 3: the cover term
    is the table of strata.variant_hodge_numbers at u = v = t.
    """
    g, k, kbar = _check_stratum(g, k)
    covers = (2 ** (2 * g) - 1) * sum(strata.variant_hodge_numbers(g, k))
    return _shifted_sum([(0, coeff_extract_x(g, kbar).coeffs), (kbar, (covers,))])


def _bb_summands(g: int):
    # (shift, coefficients) of each summand, built only when the sum reads it
    yield 0, poincare_N_closed(g).coeffs
    for k in range(1, g):
        yield strata.bb_codimension(g, k), fixed_locus_poincare(g, k).coeffs


def poincare_M_stratified(g: int) -> IntPoly:
    """
    The stratified sum: the bundle moduli contribution plus one shifted
    fixed-locus polynomial per k.  The fixed loci are built one at a time and
    added into one coefficient list.  Every summand tops out at degree
    exactly 6g - 6; anything larger is flagged as a bug.
    """
    g = _check_genus(g)
    total = _shifted_sum(_bb_summands(g))
    if total.degree() > 6 * g - 6:
        raise DegreeOverflow(f"degree {total.degree()} exceeds {6 * g - 6}")
    return total


_ONE_MINUS_T = IntPoly([1, -1])
_ONE_PLUS_T2 = IntPoly([1, 0, 1])


def poincare_M_closed(g: int) -> IntPoly:
    """
    Hitchin's closed form:

        (1+t^3)^(2g) / ((1-t^2)(1-t^4))
        - t^(4g-4) [(1+t^2)^2 (1+t)^(2g) - (1+t)^4 (1-t)^(2g)]
                                            / (4 (1-t^2)(1-t^4))
        - (g-1) t^(4g-3) (1+t)^(2g-2) / (1-t)
        + 2^(2g-1) t^(4g-4) [(1+t)^(2g-2) - (1-t)^(2g-2)].

    The bracket is divisible by 4 (both differences vanish mod 4), and
    (1-t^2)(1-t^4) / (1-t) = (1+t)(1-t^4), so the first three terms are one
    numerator over (1-t^2)(1-t^4), divided exactly before the polynomial
    fourth term is added.  A remainder raises NonDivisible and a degree
    above 6g - 6 raises DegreeOverflow.  Only errors in the first three
    terms trip these checks: a wrong fourth term still has degree 6g - 6,
    and only the comparison with poincare_M_stratified exposes it.
    """
    g = _check_genus(g)
    bracket = _ONE_PLUS_T2 ** 2 * _ONE_PLUS_T ** (2 * g) - _ONE_PLUS_T ** 4 * _ONE_MINUS_T ** (2 * g)
    if any(c % 4 for c in bracket.coeffs):
        raise NonDivisible("the bracket of Hitchin's second term is not divisible by 4")
    quarter = IntPoly._of_ints(c // 4 for c in bracket.coeffs)
    term3 = (g - 1) * (_ONE_PLUS_T ** (2 * g - 1) * _ONE_MINUS_T4).shift(4 * g - 3)
    numerator = _ONE_PLUS_T3 ** (2 * g) - quarter.shift(4 * g - 4) - term3
    evens = _ONE_PLUS_T ** (2 * g - 2) - _ONE_MINUS_T ** (2 * g - 2)
    total = poly_exact_div(numerator, _HN_DENOM) + (evens * 2 ** (2 * g - 1)).shift(4 * g - 4)
    if total.degree() > 6 * g - 6:
        raise DegreeOverflow(f"degree {total.degree()} exceeds {6 * g - 6}")
    return total
