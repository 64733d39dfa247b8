"""
Exact polynomial and power-series arithmetic over the integers.

Everything downstream is bookkeeping with generating functions, so this module
is deliberately small and strict: dense integer polynomials in one variable t
(the carrier for Poincare polynomials) and truncated power series in t (the
carrier for rational-function expansions whose tails must cancel).  The
E-polynomials of the mirror check, sparse in two variables u, v, are plain
dicts of the mirror module, with no arithmetic of their own.
All coefficients are arbitrary-precision Python integers; there is no
floating point and no rounding anywhere.

A polynomial is represented by the tuple of its coefficients starting with
the constant term, so 1 - 2t + t^3 is IntPoly([1, -2, 0, 1]).  A truncated
series of order n knows the coefficients of t^0 .. t^(n-1) and nothing else;
a series times a polynomial keeps the series' order.

Polynomial products walk the nonzero coefficients of the operand with fewer
of them, scale the other operand by each one into a row shifted to its
exponent, and add the rows through the same shifted sum as + and -, in
O(nnz(sparser) len(other)) steps whoever calls them: a binomial 1 +- t^k
times any polynomial costs two rows.

Powers use J.C.P. Miller's power-series recurrence (Knuth, TAOCP vol. 2,
section 4.7): q = p^n satisfies p q' = n p' q, which gives each coefficient
of q from the ones below it through one division by k p_0.  The quotient is
an integer because q has integer coefficients, so the division is exact;
every step checks its remainder, and a nonzero one raises NonDivisible rather
than being rounded.  For the sparse bases the pipelines raise to powers in
the hundreds, this costs a few small-by-big multiplications per coefficient.

Every divisor the pipelines meet is a product of factors 1 + t^k and
1 - t^k, so division takes its divisor as that sequence of factors and has
one primitive: dividing a coefficient list in place by 1 - s t^k, s = +-1,
is the strided running sum q_i += s q_(i-k), O(length) exact additions.  A
series expansion is that and nothing more.  An exact division also proves
its remainder zero without multiplying back.  Write num = q (1 - s t^k) + r
with deg r < k.  Run over the deg(num) + 1 coefficients of num, the sum
gives the series q + r/(1 - s t^k) up to t^(deg num).  q stops at degree
deg(num) - k, and r/(1 - s t^k) = sum over j of s^j r t^(jk) puts each of
r's k coefficients, up to sign, exactly once into the last k entries.  So
those entries all vanish exactly when r = 0: they are dropped, and the next
factor divides the quotient.  A nonzero one raises NonDivisible instead of
returning an approximation.
"""
import math
import operator

from ._record import Record


class NonDivisible(ArithmeticError):
    """Exact division failed: the quotient would not have integer polynomial form."""


class TailNonzero(ArithmeticError):
    """A series that should have stabilized to a polynomial kept nonzero terms."""


def _trimmed(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class IntPoly(Record):
    """
    A dense polynomial in t with integer coefficients, trailing zeros trimmed.
    Each coefficient is read with operator.index, so a float or a string
    raises TypeError and True is stored as 1.

    >>> IntPoly([1, 0, 1, 4])
    IntPoly('1 + t^2 + 4t^3')
    >>> IntPoly([0, 0]).coeffs
    ()
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trimmed(list(map(operator.index, coeffs))))

    @classmethod
    def _of_ints(cls, coeffs) -> "IntPoly":
        """Wrap coefficients that are ints by construction, skipping the per-coefficient check."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", _trimmed(list(coeffs)))
        return poly

    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient; -1 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return -1

    def evaluate(self, x):
        """
        Evaluate at a point, which may be an int or a Fraction.

        >>> IntPoly([1, 0, 1, 4, 1, 0, 1]).evaluate(1)
        8
        """
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def truncate(self, order: int) -> "IntPoly":
        """Drop all terms of degree >= order."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        return self if order >= len(self.coeffs) else IntPoly._of_ints(self.coeffs[:order])

    def shift(self, k: int) -> "IntPoly":
        """Multiply by t^k."""
        if (k := operator.index(k)) < 0:
            raise ValueError("shift must be nonnegative")
        return IntPoly._of_ints((0,) * k + self.coeffs)

    def is_palindromic(self) -> bool:
        """Whether the coefficient sequence reads the same in both directions."""
        return self.coeffs == self.coeffs[::-1]

    def to_coeff_list(self) -> list[int]:
        """Coefficients as a plain list, index = exponent (JSON-friendly)."""
        return list(self.coeffs)

    def text(self, braces: str = "") -> str:
        """
        Ascending-power display, the convention of the Betti-number tables.
        braces, empty or two characters, encloses each exponent above 1:
        "{}" gives the exponents of LaTeX.

        >>> print(IntPoly([-1, 1, 0, -3]))
        -1 + t - 3t^3
        >>> IntPoly([0, 2, 0, 0, 0, 0, 0, 0, 0, 0, -1]).text("{}")
        '2t - t^{10}'
        """
        left, right = braces[:1], braces[1:]
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                power = "t" if i == 1 else f"t^{left}{i}{right}"
                term = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts) if parts else "0"

    __str__ = text

    def __repr__(self):
        return f"IntPoly('{self}')"

    def __add__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        return _shifted_sum([(0, self.coeffs), (0, other.coeffs)])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + -other if isinstance(other, IntPoly) else NotImplemented

    def __neg__(self) -> "IntPoly":
        return IntPoly._of_ints(-c for c in self.coeffs)

    def __mul__(self, other: "int | IntPoly") -> "IntPoly":
        """
        The product, in O(nnz(sparser) len(other)) steps.

        Each nonzero coefficient b_j of the sparser operand (on a tie, the
        shorter) scales the other operand into one row shifted by t^j, and
        the rows add through the shifted sum that + and - use.
        """
        if isinstance(other, int):
            return IntPoly._of_ints(map(operator.index(other).__mul__, self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if (len(a) - a.count(0), len(a)) < (len(b) - b.count(0), len(b)):
            a, b = b, a
        return _shifted_sum((j, tuple(map(c.__mul__, a))) for j, c in enumerate(b) if c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        """
        The n-th power, by Miller's recurrence after stripping the factor t^v.

        With p_0 the constant term of the stripped base, q = p^n has q_0 =
        p_0^n and, for k >= 1,

            k p_0 q_k = sum over i >= 1 with p_i != 0 of ((n + 1) i - k) p_i q_(k-i),

        one exact division per coefficient; the result is shifted back by v n.

        >>> IntPoly([0, 1, 0, 0, -1]) ** 3
        IntPoly('t^3 - 3t^6 + 3t^9 - t^12')
        """
        if (n := operator.index(n)) < 0:
            raise ValueError("negative powers are not polynomials")
        if n == 0:
            return IntPoly([1])
        if (v := self.valuation()) < 0:
            return self
        p = self.coeffs[v:]
        p0 = p[0]
        terms = [(i, c) for i, c in enumerate(p) if i and c]
        q = [p0**n]
        for k in range(1, n * (len(p) - 1) + 1):
            acc = 0
            for i, c in terms:
                if i > k:
                    break
                acc += ((n + 1) * i - k) * c * q[k - i]
            quot, rem = divmod(acc, k * p0)
            if rem:
                raise NonDivisible(f"coefficient {acc} of t^{k} is not divisible by {k * p0}")
            q.append(quot)
        return IntPoly._of_ints([0] * (v * n) + q)


def _shifted_sum(terms) -> IntPoly:
    """
    The sum of t^shift times the polynomial with coefficients coeffs, over the
    (shift, coeffs) pairs of terms.  Each term is added slice-wise into one
    list, and no shifted or padded polynomial is built for it: the part of
    the term that overlaps the sum so far costs one addition a coefficient,
    and the part past its end is appended as it is.  Sums, differences and
    products of IntPolys all add here.

    >>> _shifted_sum([(0, (1, 1)), (1, (2,)), (3, (0, 5))])
    IntPoly('1 + 3t + 5t^4')
    """
    out: list[int] = []
    for shift, coeffs in terms:
        out += [0] * (shift - len(out))
        end = min(len(out), shift + len(coeffs))
        out[shift:end] = map(operator.add, out[shift:end], coeffs)
        out += coeffs[end - shift:]
        del coeffs  # freed before terms builds the next one
    return IntPoly._of_ints(out)


class TruncSeries(Record):
    """
    A power series in t known modulo t^order: its known coefficients are
    poly's below order, and those at or beyond it are unknown.  Three things
    read it: the recursion's product by a polynomial, which keeps the
    series' order, the polynomial_part guard, and the tracer's .order.
    """

    __slots__ = _fields = ("poly", "order")

    def __init__(self, poly: IntPoly, order: int):
        order = operator.index(order)
        object.__setattr__(self, "poly", poly.truncate(order))
        object.__setattr__(self, "order", order)

    def polynomial_part(self, max_degree: int) -> IntPoly:
        """
        The series as an exact polynomial of degree <= max_degree.

        Every known coefficient above max_degree must vanish; a nonzero one
        means the expected tail cancellation did not happen.
        """
        head = self.poly.truncate(end := operator.index(max_degree) + 1)
        for i, c in enumerate(self.poly.coeffs[end:], end):
            if c:
                raise TailNonzero(f"coefficient {c} at t^{i} past degree {max_degree}")
        return head

    def __mul__(self, other: IntPoly) -> "TruncSeries":
        # Terms at or past the order cannot reach a kept coefficient.
        if not isinstance(other, IntPoly):
            return NotImplemented
        return TruncSeries(self.poly * other.truncate(self.order), self.order)

    __rmul__ = __mul__


def _divide(coeffs: list[int], factors, exact: bool) -> IntPoly:
    """
    Divide coeffs in place by each factor 1 - s t^k, s = +-1, in turn: the
    running sum q_i += s q_(i-k) over the list.  When exact, each pass's
    last k entries are its remainder, which must vanish and is dropped.  A
    factor of any other form raises ValueError.
    """
    steps = []
    for factor in factors:
        f = getattr(factor, "coeffs", ())
        if len(f) < 2 or f[0] != 1 or f[-1] not in (1, -1) or any(f[1:-1]):
            raise ValueError(f"a divisor factor must be 1 + t^k or 1 - t^k, got {factor}")
        steps.append((len(f) - 1, operator.sub if f[-1] == 1 else operator.add))
    for k, step in steps:
        for i in range(k, len(coeffs)):
            coeffs[i] = step(coeffs[i], coeffs[i - k])
        if exact:
            if any(coeffs[-k:]):
                raise NonDivisible("remainder is nonzero")
            del coeffs[-k:]
    return IntPoly._of_ints(coeffs)


def poly_exact_div(numerator: IntPoly, factors) -> IntPoly:
    """
    Divide exactly by the product of factors, each 1 + t^k or 1 - t^k,
    raising NonDivisible if the quotient is not a polynomial.

    One running sum per factor, O(deg num) exact additions, and no product:
    the last k entries of each pass must vanish, which proves its remainder
    zero (see the module docstring).

    >>> poly_exact_div(IntPoly([1, 0, 0, 0, -1]), [IntPoly([1, 0, -1])])
    IntPoly('1 + t^2')
    >>> poly_exact_div(IntPoly([1, 1]), [IntPoly([1, -1])])
    Traceback (most recent call last):
        ...
    higgsmoduli.exactpoly.NonDivisible: remainder is nonzero
    """
    return _divide(list(numerator.coeffs), factors, exact=True)


def series_expand(numerator: IntPoly, factors, order: int) -> TruncSeries:
    """
    Expand numerator over the product of factors, each 1 + t^k or 1 - t^k,
    as a power series modulo t^order.

    >>> series_expand(IntPoly([1]), [IntPoly([1, -1])], 4).poly
    IntPoly('1 + t + t^2 + t^3')
    """
    series = TruncSeries(numerator, order)
    coeffs = list(series.poly.coeffs) + [0] * (series.order - len(series.poly.coeffs))
    return TruncSeries(_divide(coeffs, factors, exact=False), series.order)


def coeff_extract_x(g: int, n: int) -> IntPoly:
    """
    Coefficient of x^n in (1 + xt)^(2g) / ((1 - x)(1 - x t^2)), as a polynomial in t.

    This is Macdonald's formula: the result is the Poincare polynomial of the
    n-th symmetric product of a genus-g curve.  Expanding all three factors
    and collecting x^n gives the convolution

        sum over a + b + c = n of  C(2g, c) t^(c + 2b),

    so the coefficient of t^j is the sum of C(2g, c) over c = j (mod 2) with
    0 <= c <= min(j, 2n - j, 2g), and those of t^(2n-j) and t^j are equal.
    With top = min(2g, n), the parity prefix sums of the binomial row give
    the rise j = 0 .. top + 1.  Past t^(2g) the row is zero, so the sums
    alternate between the last two, and repeating them extends the rise to
    t^n; cut at t^n, the rise is then mirrored, along one path for every n.
    The parity prefix sums are built only up to top + 1 and cached, as a
    list alone, for the genus of the last call.  A call needing more
    resumes them from math.comb, and an interrupted extension leaves a
    correct, shorter list.  Calls at one genus (the fixed loci of one Higgs
    moduli space) share them: O(min(n, 2g)) integer steps to grow them,
    and O(n) list slicing for each call.

    >>> coeff_extract_x(2, 1)
    IntPoly('1 + 4t + t^2')
    """
    g, n = operator.index(g), operator.index(n)  # before a float reaches the cache
    if g < 0 or n < 0:
        raise ValueError("g and n must be nonnegative")
    top = min(2 * g, n)
    rise = _parity_prefix(g, top + 1)[:top + 2]
    half = (rise + rise[-2:] * ((n - top) // 2))[:n + 1]
    return IntPoly._of_ints(half + half[-2::-1])


# coeff_extract_x's parity prefix sums, for one genus: the list alone, each
# entry correct given the ones before it, extended from math.comb.
_PARITY_PREFIX: dict[int, list[int]] = {}


def _parity_prefix(g: int, top: int) -> list[int]:
    """prefix[c] = C(2g, c) + C(2g, c - 2) + C(2g, c - 4) + ... for c = 0 .. top at least."""
    if len(prefix := _PARITY_PREFIX.get(g, [])) > top:
        return prefix
    _PARITY_PREFIX.clear()
    _PARITY_PREFIX[g] = prefix
    binom = math.comb(2 * g, len(prefix))
    for c in range(len(prefix), top + 1):
        prefix.append(binom + (prefix[c - 2] if c >= 2 else 0))
        binom = binom * (2 * g - c) // (c + 1)
    return prefix
