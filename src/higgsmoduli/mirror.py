"""
The rank-2 topological mirror symmetry identity, checked exactly.

For a genus-g curve, write Gamma = Jac(X)[2], a group of order 2^(2g)
modeled here as bit vectors of length 2g, each held as one 2g-bit integer
whose bit i is coordinate i, so the group law is xor.  The Weil pairing on
Gamma, induced by Poincare duality, is the standard symplectic form over
GF(2): bit i pairs with bit g+i.  Any nondegenerate alternating form is
equivalent to this one, and nothing below uses more than that.

The identity of Hausel and Thaddeus, in the rank-2 unraveling, equates

* the variant part of the E-polynomial of the SL_2 Higgs moduli space for a
  nontrivial character kappa.  It lives on the fixed loci F_k of the circle
  action, and is read from the same table the Betti pipeline uses:
  strata.variant_hodge_numbers gives the variant Hodge numbers of F_k and
  strata.bb_codimension where F_k is attached.  The compactly supported
  E-polynomial is the dual (uv)^(6g-6) E(1/u, 1/v) of those classes;

* the gamma-sector of the stringy E-polynomial of the PGL_2 space: the
  Prym-variety E-polynomial averaged against the Weil pairing over all of
  Gamma, shifted by (uv)^(g-1) for the fixed-locus dimension and by
  (uv)^(F) with fermionic shift F = 2g - 2.

Both sides carry the E-polynomial sign convention, which weights the
monomial u^p v^q by (-1)^(p+q); concretely the sign arrives on the left as
(-1)^(p+q) on each class of type (p, q), and on the right as the
substitution (u, v) -> (-u, -v) on the bare Hodge sum.  The right side is
written in one pass, each of its g^2 coefficients once, from math.comb,
which the strata binomial row of the left side reads too; a test pins that
the sides share no package function.  Both sides are plain dicts from
(p, q) to the coefficient of u^p v^q, which each side writes directly and
without zeros, so dict equality is equality of polynomials and the check
loads neither the polynomial kernel nor the Betti pipelines.

The right-hand average depends on gamma only through the count
N_-(gamma) = #{gamma' : w(gamma, gamma') = -1}, and that count is always read
off the pairing itself, never a closed form, so the right side stays an
independent oracle for the fixed-locus classes on the left.  For a pairing
bilinear in its second argument, w(gamma, -) is a character of GF(2)^(2g),
fixed by its row on the 2g basis vectors: a nonzero row is a nontrivial
character, -1 on exactly half the group, so N_-(gamma) = 2^(2g-1), and a
zero row gives N_-(gamma) = 0.  Reading the row is O(g) pairings per gamma.

A sampled check sweeps its elements: it reads each gamma's row and checks
that the pairing is alternating, w(gamma, gamma) = 1, for every gamma it
reads.  The exhaustive check is a certificate over GF(2) instead, and it
assumes one thing more than the sweep: that the pairing is linear in its
first argument too.  Then every nonzero gamma has a nonzero row exactly when
the 2g x 2g Gram matrix w(e_i, e_j) is nonsingular, and w(gamma, gamma) = 1
for every gamma exactly when it does so on the elements of weight 1 and 2
(the matrix is symmetric with zero diagonal).  Reading those takes O(g^2)
pairings, and elimination on rows packed into ints O(g^2) word operations,
where the sweep reads (4^g - 1)(2g + 1) pairings.  A singular matrix
yields a kernel vector, whose zero row fails the identity; a kernel vector
whose row is nonzero all the same raises PairingNotBilinear.  Every genus
g >= 2 is accepted; the command line caps the genus it passes.
"""
import operator
from collections import defaultdict, namedtuple
from math import comb

from . import strata


class TrivialElement(ValueError):
    """The averaging side is indexed by nonzero group elements only."""


class _CheckFailure(ArithmeticError):
    """A failed check at one element gamma; the message opens with the genus and gamma's bits."""

    def __init__(self, genus, gamma_bits, what):
        self.genus = genus
        self.gamma_bits = gamma_bits
        super().__init__(f"genus {genus}, gamma {''.join(map(str, gamma_bits))}: {what}")


class IdentityViolation(_CheckFailure):
    """The two sides of the mirror identity differ; carries the first mismatch."""

    def __init__(self, genus, gamma_bits, monomial, lhs_coeff, rhs_coeff):
        self.monomial = monomial
        self.lhs_coeff = lhs_coeff
        self.rhs_coeff = rhs_coeff
        p, q = monomial
        super().__init__(genus, gamma_bits, f"coefficient of u^{p} v^{q} is {lhs_coeff} "
                         f"on the left, {rhs_coeff} on the right")


class PairingNotAlternating(_CheckFailure):
    """w(gamma, gamma) != 1: the pairing is not the alternating form the count assumes."""

    def __init__(self, genus, gamma_bits, value):
        self.value = value
        super().__init__(genus, gamma_bits,
                         f"w(gamma, gamma) is {value}, not 1; the pairing is not alternating")


class PairingNotBilinear(_CheckFailure):
    """A Gram kernel vector with a nonzero row: w is not linear in its first argument."""

    def __init__(self, genus, gamma_bits):
        super().__init__(genus, gamma_bits,
                         "the basis rows it combines sum to zero, but its own row is not zero; "
                         "the pairing is not linear in its first argument")


def _bits(g: int, gamma: int) -> tuple[int, ...]:
    """gamma's 2g bits, bit 0 first: the gamma_bits a failed check reports."""
    return tuple((gamma >> i) & 1 for i in range(2 * g))


def weil_pairing(g: int, a: int, b: int) -> int:
    """
    The symplectic pairing w(a, b) = (-1)^(sum_i a_i b_(g+i) + a_(g+i) b_i)
    of two elements of the genus-g group, each a 2g-bit integer whose bit i
    is its i-th coordinate, valued in {+1, -1}.  Bilinear, alternating,
    nondegenerate.  Raises ValueError unless 0 <= a, b < 4^g.

    >>> weil_pairing(1, 0b01, 0b10)
    -1
    >>> weil_pairing(2, 0b1101, 0b1101)
    1
    >>> weil_pairing(2, 0b0001, 0b1100)
    -1
    """
    g, a, b = operator.index(g), operator.index(a), operator.index(b)
    if not (0 <= a < 1 << 2 * g and 0 <= b < 1 << 2 * g):
        raise ValueError(f"elements of the genus-{g} group are integers from 0 to 4^{g} - 1")
    parity = ((a & (b >> g)) ^ ((a >> g) & b)).bit_count() & 1
    return -1 if parity else 1


def fermionic_shift(g: int) -> int:
    """
    The fermionic shift F(gamma) = 2g - 2 of any nontrivial gamma: half the
    complex codimension (6g-6) - (2g-2) of the gamma-fixed locus, since the
    gamma-action preserves the holomorphic symplectic form.
    """
    g = strata._check_genus(g)
    return 2 * g - 2


def e_poly_kappa_lhs(g: int) -> dict[tuple[int, int], int]:
    """
    The variant E-polynomial for any nontrivial character kappa (the result
    is the same for all of them): the dual (uv)^(6g-6) E(1/u, 1/v) of the
    variant classes of the fixed loci F_k, k = 1 .. g-1.  A class of Hodge
    type (p, q) on F_k, with E-sign (-1)^(p+q), attached at complex
    codimension c = bb_codimension(g, k) / 2, lands on
    u^(6g-6-c-p) v^(6g-6-c-q).

    Both functions are read through the strata module at call time, so the
    mirror check sees exactly the geometry the Betti pipeline uses.

    >>> e_poly_kappa_lhs(2)
    {(4, 3): -1, (3, 4): -1}
    """
    g = strata._check_genus(g)
    # Two strata put classes on one monomial only if their codimensions are
    # wrong; the dual is still the sum, so the classes add.
    coeffs = defaultdict(int)
    for k in range(1, g):
        top = 6 * g - 6 - strata.bb_codimension(g, k) // 2
        hodge = strata.variant_hodge_numbers(g, k)
        for p, h in enumerate(hodge):
            q = len(hodge) - 1 - p
            coeffs[(top - p, top - q)] += (-1) ** (p + q) * h
    return {key: c for key, c in coeffs.items() if c}


def _check_alternating(g: int, gamma: int) -> None:
    """Raise PairingNotAlternating unless gamma pairs to 1 with itself."""
    self_pairing = weil_pairing(g, gamma, gamma)
    if self_pairing != 1:
        raise PairingNotAlternating(g, _bits(g, gamma), self_pairing)


def _minus_counts(g: int, gammas):
    """
    Yield (gamma, N_-(gamma)) with N_-(gamma) = #{gamma' : w(gamma, gamma') = -1}.

    N_-(gamma) is 2^(2g-1) when w(gamma, e_j) = -1 on some basis vector e_j
    and 0 otherwise, which is the count when the pairing is bilinear in its
    second argument.  Each gamma must pair to 1 with itself, or
    PairingNotAlternating is raised.
    """
    basis = [1 << j for j in range(2 * g)]
    half = 1 << (2 * g - 1)
    for gamma in gammas:
        _check_alternating(g, gamma)
        yield gamma, half if any(weil_pairing(g, gamma, e) < 0 for e in basis) else 0


def _certificate(g: int) -> int:
    """
    The one gamma whose check stands for all 4^g - 1, given a pairing linear
    in its first argument: e_0 when the Gram matrix over GF(2) is
    nonsingular, else its smallest nonzero kernel vector, the first gamma
    the sweep would find with a zero row.  Raises PairingNotAlternating at
    the first element of weight 1 or 2 with w(gamma, gamma) != 1, and
    PairingNotBilinear at a kernel vector whose row is not zero.
    """
    n = 2 * g
    for gamma in sorted((1 << i) | (1 << j) for i in range(n) for j in range(i + 1)):
        _check_alternating(g, gamma)
    basis = [1 << j for j in range(n)]
    rows = [sum(e for e in basis if weil_pairing(g, a, e) < 0) for a in basis]
    # Eliminate row by row, keeping which basis vectors each reduced row combines.
    # The first row i to vanish gives a kernel vector with top bit i, and the
    # only one: rows 0 .. i-1 are independent, so no kernel vector is smaller.
    pivots = {}
    for i, row in enumerate(rows):
        combo = 1 << i
        while row and row.bit_length() in pivots:
            pivot_row, pivot_combo = pivots[row.bit_length()]
            row ^= pivot_row
            combo ^= pivot_combo
        if row:
            pivots[row.bit_length()] = row, combo
            continue
        if any(weil_pairing(g, combo, e) < 0 for e in basis):
            raise PairingNotBilinear(g, _bits(g, combo))
        return combo
    return 1


def _rhs_from_count(g: int, minus: int) -> dict[tuple[int, int], int]:
    """
    The right side for a gamma with N_-(gamma) = minus, written one
    coefficient at a time from one binomial row.

    The local-system average (1/2^(2g)) sum over gamma' of
    w(gamma, gamma') (1 + w u)^(g-1) (1 + w v)^(g-1) has 2^(2g) - minus
    terms with w = +1 and minus terms with w = -1, so its coefficient of
    u^p v^q is

        ((2^(2g) - minus) - minus (-1)^(p+q)) C(g-1, p) C(g-1, q) / 2^(2g),

    an exact division that raises NonDivisible on a remainder.  The sign
    convention multiplies it by (-1)^(p+q), and the shift moves it to
    u^(p+s) v^(q+s) with s = (g-1) + F.  A zero coefficient is left out.
    """
    total = 1 << (2 * g)
    shift = (g - 1) + fermionic_shift(g)
    row = [comb(g - 1, p) for p in range(g)]
    coeffs = {}
    for p, a in enumerate(row):
        for q, b in enumerate(row):
            sign = -1 if (p + q) % 2 else 1
            quot, rem = divmod(((total - minus) - minus * sign) * a * b, total)
            if rem:
                from .exactpoly import NonDivisible

                raise NonDivisible(f"coefficient of u^{p} v^{q} is not divisible by {total}")
            if quot:
                coeffs[(p + shift, q + shift)] = sign * quot
    return coeffs


def e_poly_rhs(g: int, gamma: int) -> dict[tuple[int, int], int]:
    """
    The gamma-sector of the stringy E-polynomial: the averaged Prym
    E-polynomial, in the E-polynomial sign convention, times
    (uv)^(g-1) (uv)^(F(gamma)).

    The average takes N_-(gamma) from gamma's row of the pairing on the
    basis vectors, which assumes the pairing is bilinear in its second
    argument.  Raises TrivialElement for gamma = 0, and ValueError for g
    below 2 or for gamma not in 0 .. 4^g - 1.
    """
    g = strata._check_genus(g)
    if (gamma := operator.index(gamma)) == 0:
        raise TrivialElement("the averaging sector is indexed by nonzero gamma")
    [(_, minus)] = _minus_counts(g, [gamma])
    return _rhs_from_count(g, minus)


# A plain value: its two E-polynomials are dicts, so a report is not hashable.
MirrorReport = namedtuple("MirrorReport", "genus elements_checked lhs rhs_sample")


def mirror_verify(g: int, sample: int | None = None, seed: int = 0) -> MirrorReport:
    """
    Check e_poly_kappa_lhs(g) == e_poly_rhs(g, gamma) exactly, for every
    nonzero gamma (sample=None, or a sample at least 4^g - 1) or for
    `sample` of them chosen with the given seed.  The sampled check makes
    `sample` draws and holds O(sample) values at any genus, and reads each
    count from gamma's row of the pairing; the right side is built and
    compared once per distinct N_-(gamma).  The exhaustive check
    certifies over GF(2) that every count is the same, assuming the pairing
    is linear in its first argument, and then checks the one gamma the
    certificate returns.  It reads O(g^2) pairings, so the CLI runs it by
    default at every genus it accepts.
    Returns a MirrorReport on success; raises IdentityViolation with the first
    differing coefficient otherwise, PairingNotAlternating or
    PairingNotBilinear for a pairing the count cannot use, or ValueError
    for g below 2.
    """
    g = strata._check_genus(g)
    population = (1 << (2 * g)) - 1
    if sample is None or (sample := operator.index(sample)) >= population:
        sample, gammas = population, [_certificate(g)]
    else:
        if sample < 1:
            raise ValueError("sample must be positive")
        import random

        # Floyd's draw: `sample` distinct values, uniform, in `sample` steps.
        # random.sample takes the population's len, past ssize_t from g = 32 on.
        draw, gammas = random.Random(seed).randrange, {}
        for top in range(population - sample + 1, population + 1):
            value = draw(1, top + 1)
            gammas[top if value in gammas else value] = None
    lhs = e_poly_kappa_lhs(g)
    rhs_by_count = {}
    for gamma, minus in _minus_counts(g, gammas):  # at least one gamma, so rhs is bound
        if minus in rhs_by_count:
            continue
        rhs = rhs_by_count[minus] = _rhs_from_count(g, minus)
        if rhs != lhs:
            key = min(key for key in lhs.keys() | rhs.keys() if lhs.get(key, 0) != rhs.get(key, 0))
            raise IdentityViolation(g, _bits(g, gamma), key, lhs.get(key, 0), rhs.get(key, 0))
    return MirrorReport(genus=g, elements_checked=sample, lhs=lhs, rhs_sample=rhs)
