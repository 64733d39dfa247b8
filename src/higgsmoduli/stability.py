"""
Combinatorial GIT stability: torus weight profiles and Hilbert-Mumford weights.

Three calculations, all in exact integer arithmetic:

* torus_classify decides the GIT status of a point under a one-parameter
  torus action from the multiset of weights on its nonzero coordinates,
  passed as a plain iterable of ints, by the limit analysis of the orbit at
  0 and at infinity.  The inverse subgroup lambda -> 1/lambda negates the
  profile, so the classifier is symmetric under negation; this extends the
  familiar one-direction case analysis (which looks only at lambda -> 0) to
  profiles whose weights are all nonpositive.

* hm_weight evaluates the Hilbert-Mumford weight of a weighted filtration
  in its two standard forms,

      -sum_i a_i chi(G_i(m))
    = sum_(i<s) (a_(i+1) - a_i) [chi(E_i(m)) - (dim F_i / N) chi(E(m))],

  and asserts their agreement at runtime (they are equal exactly when the
  weights satisfy the special-linear constraint sum N_i a_i = 0, which
  FiltrationData checks when it is built).

* quotient_semistability_test evaluates the subspace inequality
  N'/chi(E'(m)) <= N/chi(E(m)) in cross-multiplied integer form.
"""
import enum
import operator
from collections import namedtuple

from ._record import Record
from .geometry import hilbert_poly


class EmptyProfile(ValueError):
    """A weight profile must be nonempty (a point has a nonzero lift)."""


class ExpressionMismatch(ArithmeticError):
    """The two forms of the Hilbert-Mumford weight disagreed (a bug)."""


class NonIntegerWeight(ArithmeticError):
    """The partial-sum form of the weight failed to be an integer (a bug)."""


class NonPositiveEuler(ValueError):
    """chi(E(m)) must be positive; take the twist m large enough."""


class Stability(enum.Enum):
    UNSTABLE = "Unstable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    STRICTLY_POLYSTABLE = "StrictlyPolystable"
    STABLE = "Stable"


def torus_classify(weights) -> Stability:
    """
    Classify a point from its weight profile P: the multiset of torus
    weights on its nonzero coordinates, read with operator.index, so a float
    or a string raises TypeError.  P must be nonempty (a point has a nonzero
    lift), else EmptyProfile.

    lim_(lambda->0) lambda.y exists iff min P >= 0 and is 0 iff min P > 0;
    lim_(lambda->inf) exists iff max P <= 0 and is 0 iff max P < 0.  Hence:
    all weights of one strict sign means 0 lies in the orbit closure
    (unstable); P = {0} is a fixed point with positive-dimensional
    stabilizer (strictly polystable); weights of both signs mean neither
    limit exists, so the orbit is closed with finite stabilizer (stable);
    and a profile touching 0 from one side only has a limit that is a
    nonzero fixed point outside the orbit (strictly semistable).
    """
    weights = tuple(map(operator.index, weights))
    if not weights:
        raise EmptyProfile("a weight profile must be nonempty")
    lo, hi = min(weights), max(weights)
    if lo > 0 or hi < 0:
        return Stability.UNSTABLE
    if lo == 0 and hi == 0:
        return Stability.STRICTLY_POLYSTABLE
    if lo < 0 < hi:
        return Stability.STABLE
    return Stability.STRICTLY_SEMISTABLE


Block = namedtuple("Block", "N a r d")
Block.__doc__ = "One graded piece of a weighted filtration: dimension, weight, rank, degree."


class FiltrationData(Record):
    """
    A weighted filtration of C^N with strictly decreasing integer weights
    a_1 > ... > a_s satisfying sum N_i a_i = 0 (a one-parameter subgroup of
    SL_N), each graded piece carrying the rank and degree of a sheaf whose
    Euler characteristics enter the weight.
    """

    __slots__ = _fields = ("blocks", "m", "g")

    def __init__(self, blocks, m: int, g: int):
        blocks = tuple(Block(*map(operator.index, b)) for b in blocks)
        m, g = operator.index(m), operator.index(g)
        if not blocks:
            raise ValueError("a filtration needs at least one block")
        if any(b.N < 1 for b in blocks):
            raise ValueError("block dimensions must be positive")
        if any(b.r < 1 for b in blocks):
            raise ValueError("block ranks must be positive")
        if any(x.a <= y.a for x, y in zip(blocks, blocks[1:])):
            raise ValueError("weights must be strictly decreasing")
        if sum(b.N * b.a for b in blocks) != 0:
            raise ValueError("weights must satisfy sum N_i a_i = 0")
        if g < 2:
            raise ValueError("genus must be at least 2")
        super().__init__(blocks, m, g)

    @property
    def N(self) -> int:
        return sum(b.N for b in self.blocks)


def hm_weight(f: FiltrationData) -> int:
    """
    The Hilbert-Mumford weight of the filtration, computed as
    -sum a_i chi(G_i(m)) and re-derived through the partial-sum form as a
    runtime cross-check; the second form is assembled in integers scaled by
    N = dim C^N, and must divide by N exactly.
    """
    chis = [hilbert_poly(b.r, b.d, f.g, f.m) for b in f.blocks]
    first = -sum(b.a * chi for b, chi in zip(f.blocks, chis))

    total_chi = sum(chis)
    total_dim = f.N
    scaled = 0  # N times the partial-sum form
    partial_chi = 0
    partial_dim = 0
    for i in range(len(f.blocks) - 1):
        partial_chi += chis[i]
        partial_dim += f.blocks[i].N
        step = f.blocks[i + 1].a - f.blocks[i].a
        scaled += step * (partial_chi * total_dim - partial_dim * total_chi)
    second, remainder = divmod(scaled, total_dim)
    if remainder:
        raise NonIntegerWeight(f"partial-sum form gave {scaled}/{total_dim}")
    if first != second:
        raise ExpressionMismatch(f"{first} != {second}")
    return first


def quotient_semistability_test(
    Nprime: int, rprime: int, dprime: int, N: int, r: int, d: int, g: int, m: int
) -> bool:
    """
    The subspace inequality N'/chi(E'(m)) <= N/chi(E(m)), evaluated as
    N' chi(E(m)) <= N chi(E'(m)) so no rationals appear.  Both Euler
    characteristics must be positive, which holds once m is large enough.
    A subspace of C^N has N' <= N and a subsheaf of a rank-r sheaf has
    r' <= r; anything else raises ValueError.
    """
    Nprime, N, rprime, r = map(operator.index, (Nprime, N, rprime, r))
    if Nprime < 0 or N < 1:
        raise ValueError("dimensions must be nonnegative, total positive")
    if Nprime > N or rprime > r:
        raise ValueError(f"a subsheaf needs N' <= N and r' <= r, got N'={Nprime}, N={N}, "
                         f"r'={rprime}, r={r}")
    chi_sub = hilbert_poly(rprime, dprime, g, m)
    chi_total = hilbert_poly(r, d, g, m)
    if chi_sub <= 0 or chi_total <= 0:
        raise NonPositiveEuler(f"chi values {chi_sub}, {chi_total} must be positive")
    return Nprime * chi_total <= N * chi_sub
