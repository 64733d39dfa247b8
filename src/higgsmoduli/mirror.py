"""
The rank-2 topological mirror symmetry identity, checked exactly.

For a genus-g curve, write Gamma = Jac(X)[2], a group of order 2^(2g)
modeled here as bit vectors of length 2g, each held as one 2g-bit integer.
The Weil pairing on Gamma, induced by Poincare duality, is the standard
symplectic form over GF(2): bit i pairs with bit g+i.  Any nondegenerate
alternating form is equivalent to this one, and nothing below uses more
than that.

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
written in one pass, each of its g^2 coefficients once, from a binomial row
of its own (math.comb); it shares no code with the left side, which reads
the binomial row of the strata module.  Both sides are BivarPoly records, a
sparse map from (p, q) to the coefficient of u^p v^q that each side writes
directly, so the check loads neither the polynomial kernel nor the Betti
pipelines.

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
where the sweep reads (4^g - 1)(2g + 1) pairings; the certificate builds
each element it reads from an int in O(1) word operations.  A singular
matrix yields a kernel vector, whose zero row fails the identity; a kernel
vector whose row is nonzero all the same raises PairingNotBilinear.  Every
genus g >= 2 is accepted; the command line caps the genus it passes.
"""
import operator
from collections import defaultdict
from math import comb

from . import strata
from ._record import Record


class LengthMismatch(ValueError):
    """Bit vectors of different lengths cannot be paired."""


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


class BivarPoly(Record):
    """
    A sparse polynomial in u and v with integer coefficients, held as a
    value: a validated map from exponent pairs (p, q) to the coefficient of
    u^p v^q.  It does no arithmetic; whoever builds one writes each
    coefficient.

    The coefficient map never stores zeros, so equality of maps is equality
    of polynomials.  The map is a dict, so the record is unhashable.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs=None):
        clean: dict[tuple[int, int], int] = {}
        for (p, q), c in (coeffs or {}).items():
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients only, got {c!r}")
            key = operator.index(p), operator.index(q)
            if min(key) < 0:
                raise ValueError("exponents must be nonnegative")
            if c != 0:
                clean[key] = c
        super().__init__(clean)

    def coefficient(self, p: int, q: int) -> int:
        return self.coeffs.get((p, q), 0)

    def monomials(self):
        """Items in a stable (sorted) order."""
        return sorted(self.coeffs.items())

    def to_sorted_dict(self) -> dict[str, int]:
        """Keys "p,q" in sorted exponent order (JSON-friendly)."""
        return {f"{p},{q}": c for (p, q), c in self.monomials()}

    def __repr__(self):
        if not self.coeffs:
            return "BivarPoly('0')"
        parts = []
        for (p, q), c in self.monomials():
            term = "".join(
                [f"u^{p}" if p > 1 else "u" if p == 1 else "", f"v^{q}" if q > 1 else "v" if q == 1 else ""]
            ) or "1"
            parts.append(f"{c:+d} {term}")
        return f"BivarPoly('{' '.join(parts)}')"


class Gamma2Element(Record):
    """
    An element of Gamma = Jac(X)[2] as a bit vector of length 2g.  The group
    law is componentwise addition mod 2.  It is stored as its genus and one
    packed integer, bit i of `bits` in bit i of the integer, so building,
    adding and pairing elements take a few word operations; `bits` is read
    from the integer, and equality, hashing and repr go by `bits` alone.

    >>> e = Gamma2Element.from_int(0b1101, 2)
    >>> e.bits
    (1, 0, 1, 1)
    >>> e == Gamma2Element((1, 0, 1, 1))
    True
    """

    __slots__ = ("g", "_packed")
    _fields = ("bits",)

    def __init__(self, bits):
        bits = tuple(map(operator.index, bits))
        if len(bits) == 0 or len(bits) % 2 != 0:
            raise ValueError("bit vector must have positive even length 2g")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("entries must be 0 or 1")
        self._fill(len(bits) // 2, sum(b << i for i, b in enumerate(bits)))

    def _fill(self, g: int, packed: int) -> "Gamma2Element":
        """Set the genus and the packed integer, unchecked; every element is built here."""
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "_packed", packed)
        return self

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self._packed >> i) & 1 for i in range(2 * self.g))

    def is_zero(self) -> bool:
        return self._packed == 0

    @classmethod
    def from_int(cls, value: int, g: int) -> "Gamma2Element":
        g, value = operator.index(g), operator.index(value)
        if g < 1:
            raise ValueError("bit vector must have positive even length 2g")
        if not 0 <= value < 1 << (2 * g):
            raise ValueError("value out of range")
        return object.__new__(cls)._fill(g, value)

    def __add__(self, other: "Gamma2Element") -> "Gamma2Element":
        if self.g != other.g:
            raise LengthMismatch("elements live in different groups")
        return object.__new__(Gamma2Element)._fill(self.g, self._packed ^ other._packed)


def weil_pairing(a: Gamma2Element, b: Gamma2Element) -> int:
    """
    The symplectic pairing w(a, b) = (-1)^(sum_i a_i b_(g+i) + a_(g+i) b_i),
    valued in {+1, -1}.  Bilinear, alternating, nondegenerate.
    """
    if a.g != b.g:
        raise LengthMismatch("elements live in different groups")
    x, y = a._packed, b._packed
    parity = ((x & (y >> a.g)) ^ ((x >> a.g) & y)).bit_count() & 1
    return -1 if parity else 1


def fermionic_shift(g: int) -> int:
    """
    The fermionic shift F(gamma) = 2g - 2 of any nontrivial gamma: half the
    complex codimension (6g-6) - (2g-2) of the gamma-fixed locus, since the
    gamma-action preserves the holomorphic symplectic form.
    """
    strata._check_genus(g)
    return 2 * g - 2


def e_poly_kappa_lhs(g: int) -> BivarPoly:
    """
    The variant E-polynomial for any nontrivial character kappa (the result
    is the same for all of them): the dual (uv)^(6g-6) E(1/u, 1/v) of the
    variant classes of the fixed loci F_k, k = 1 .. g-1.  A class of Hodge
    type (p, q) on F_k, with E-sign (-1)^(p+q), attached at complex
    codimension c = bb_codimension(g, k) / 2, lands on
    u^(6g-6-c-p) v^(6g-6-c-q).

    Both functions are read through the strata module at call time, so the
    mirror check sees exactly the geometry the Betti pipeline uses.
    """
    strata._check_genus(g)
    # Two strata put classes on one monomial only if their codimensions are
    # wrong; the dual is still the sum, so the classes add.
    coeffs = defaultdict(int)
    for k in range(1, g):
        top = 6 * g - 6 - strata.bb_codimension(g, k) // 2
        hodge = strata.variant_hodge_numbers(g, k)
        for p, h in enumerate(hodge):
            q = len(hodge) - 1 - p
            coeffs[(top - p, top - q)] += (-1) ** (p + q) * h
    return BivarPoly(coeffs)


def _minus_counts(g: int, gammas):
    """
    Yield (gamma, N_-(gamma)) with N_-(gamma) = #{gamma' : w(gamma, gamma') = -1}.

    N_-(gamma) is 2^(2g-1) when w(gamma, e_j) = -1 on some basis vector e_j
    and 0 otherwise, which is the count when the pairing is bilinear in its
    second argument.  Each gamma must pair to 1 with itself, or
    PairingNotAlternating is raised.
    """
    basis = [Gamma2Element.from_int(1 << j, g) for j in range(2 * g)]
    half = 1 << (2 * g - 1)
    for gamma in gammas:
        self_pairing = weil_pairing(gamma, gamma)
        if self_pairing != 1:
            raise PairingNotAlternating(g, gamma.bits, self_pairing)
        yield gamma, half if any(weil_pairing(gamma, e) < 0 for e in basis) else 0


def _certificate(g: int) -> Gamma2Element:
    """
    The one gamma whose check stands for all 4^g - 1, given a pairing linear
    in its first argument: e_0 when the Gram matrix over GF(2) is
    nonsingular, else its smallest nonzero kernel vector, the first gamma
    the sweep would find with a zero row.  Raises PairingNotAlternating at
    the first element of weight 1 or 2 with w(gamma, gamma) != 1, and
    PairingNotBilinear at a kernel vector whose row is not zero.
    """
    n = 2 * g
    for value in sorted((1 << i) | (1 << j) for i in range(n) for j in range(i + 1)):
        gamma = Gamma2Element.from_int(value, g)
        self_pairing = weil_pairing(gamma, gamma)
        if self_pairing != 1:
            raise PairingNotAlternating(g, gamma.bits, self_pairing)
    basis = [Gamma2Element.from_int(1 << j, g) for j in range(n)]
    rows = [sum(1 << j for j, e in enumerate(basis) if weil_pairing(a, e) < 0) for a in basis]
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
        gamma = Gamma2Element.from_int(combo, g)
        if any(weil_pairing(gamma, e) < 0 for e in basis):
            raise PairingNotBilinear(g, gamma.bits)
        return gamma
    return basis[0]


def _rhs_from_count(g: int, minus: int) -> BivarPoly:
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
    u^(p+s) v^(q+s) with s = (g-1) + F.
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
            coeffs[(p + shift, q + shift)] = sign * quot
    return BivarPoly(coeffs)


def e_poly_rhs(g: int, gamma: Gamma2Element) -> BivarPoly:
    """
    The gamma-sector of the stringy E-polynomial: the averaged Prym
    E-polynomial, in the E-polynomial sign convention, times
    (uv)^(g-1) (uv)^(F(gamma)).

    The average takes N_-(gamma) from gamma's row of the pairing on the
    basis vectors, which assumes the pairing is bilinear in its second
    argument.  Raises ValueError for g below 2.
    """
    strata._check_genus(g)
    if gamma.g != g:
        raise LengthMismatch(f"gamma has length {2 * gamma.g}, expected {2 * g}")
    if gamma.is_zero():
        raise TrivialElement("the averaging sector is indexed by nonzero gamma")
    [(_, minus)] = _minus_counts(g, [gamma])
    return _rhs_from_count(g, minus)


class MirrorReport(Record):
    __slots__ = _fields = ("genus", "elements_checked", "lhs", "rhs_sample")

    def __init__(self, genus: int, elements_checked: int, lhs: BivarPoly, rhs_sample: BivarPoly):
        super().__init__(genus, elements_checked, lhs, rhs_sample)


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
    certificate returns.  It reads O(g^2) pairings and builds each element
    from an int, never through the validating constructor, so the CLI runs
    it by default at every genus it accepts.
    Returns a report on success; raises IdentityViolation with the first
    differing coefficient otherwise, PairingNotAlternating or
    PairingNotBilinear for a pairing the count cannot use, or ValueError
    for g below 2.
    """
    strata._check_genus(g)
    population = (1 << (2 * g)) - 1
    if sample is None or sample >= population:
        sample, gammas = population, [_certificate(g)]
    else:
        if sample < 1:
            raise ValueError("sample must be positive")
        import random

        # Floyd's draw: `sample` distinct values, uniform, in `sample` steps.
        # random.sample takes the population's len, past ssize_t from g = 32 on.
        draw, values = random.Random(seed).randrange, {}
        for top in range(population - sample + 1, population + 1):
            value = draw(1, top + 1)
            values[top if value in values else value] = None
        gammas = (Gamma2Element.from_int(value, g) for value in values)
    lhs = e_poly_kappa_lhs(g)
    rhs_by_count = {}
    for gamma, minus in _minus_counts(g, gammas):  # at least one gamma, so rhs is bound
        if minus in rhs_by_count:
            continue
        rhs = rhs_by_count[minus] = _rhs_from_count(g, minus)
        if rhs != lhs:
            for key in sorted(set(lhs.coeffs) | set(rhs.coeffs)):
                if lhs.coefficient(*key) != rhs.coefficient(*key):
                    raise IdentityViolation(g, gamma.bits, key, lhs.coefficient(*key), rhs.coefficient(*key))
    return MirrorReport(genus=g, elements_checked=sample, lhs=lhs, rhs_sample=rhs)
