"""
Integer invariants of the moduli spaces and their spectral geometry.

Everything here is a closed-form calculation on a compact Riemann surface X
of genus g >= 2: complex dimensions of the moduli spaces of bundles and Higgs
bundles, which depend on rank, genus and structure group only (no degree
enters moduli_dim), the dimension of the Hitchin base by Riemann-Roch, genus
and ramification of spectral curves by Riemann-Hurwitz, the degree shift of
a pushed-forward line bundle by Grothendieck-Riemann-Roch, and Hilbert
polynomials of twisted bundles.

The codimensions of the Harder-Narasimhan strata that the Atiyah-Bott
recursion peels off are not here: they live with the other stratification
data in the strata module, so no Poincare call loads this one.
"""
import operator
from collections import namedtuple


class UnsupportedCombination(ValueError):
    """A (group, space) selector with no tabulated dimension formula."""


_GROUPS = ("GL", "SL", "PGL")
_SPACES = ("bundles", "higgs", "hitchin-base")


def _check_rank_genus(r: int, g: int, *rest: int) -> tuple[int, ...]:
    """
    The domain of every formula here: positive rank, genus at least 2.
    Returns r, g and the rest read with operator.index, so a float or a
    string raises TypeError rather than being truncated or carried along.
    """
    r, g, *rest = map(operator.index, (r, g, *rest))
    if r < 1:
        raise ValueError("rank must be positive")
    if g < 2:
        raise ValueError("genus must be at least 2")
    return (r, g, *rest)


def moduli_dim(r: int, g: int, space: str, group: str = "SL") -> int:
    """
    Complex dimension of a moduli space of rank r on a genus-g curve.  No
    degree enters: each formula depends on rank, genus and group only.

    space is "bundles", "higgs" or "hitchin-base", and group is "GL", "SL" or
    "PGL"; any other value raises UnsupportedCombination.  For bundles:
    dim = (g-1) r^2 + 1 for GL_r, and (r^2 - 1)(g-1) for SL_r.  The Higgs
    (equivalently Betti / character variety) spaces are holomorphic
    symplectic and have exactly twice those dimensions.  The PGL_r spaces are
    finite quotients of the SL_r ones by the group of r-torsion line bundles,
    so their dimensions coincide with the SL_r values.  "hitchin-base" gives
    the dimension of the full Hitchin base for GL_r and of the reduced
    (traceless) base for SL_r and PGL_r.
    """
    r, g = _check_rank_genus(r, g)
    if group not in _GROUPS:
        raise UnsupportedCombination(f"unknown structure group {group!r}")
    if space not in _SPACES:
        raise UnsupportedCombination(f"unknown space {space!r}")
    if space == "hitchin-base":
        return hitchin_base_dim(r, g, reduced=group != "GL")
    base = (g - 1) * r * r + 1 if group == "GL" else (r * r - 1) * (g - 1)
    return base if space == "bundles" else 2 * base


def hitchin_base_dim(r: int, g: int, reduced: bool = False) -> int:
    """
    Dimension of the Hitchin base, the direct sum of the spaces of
    holomorphic i-differentials for i = 1..r (or 2..r when reduced).

    By Riemann-Roch, h^0 of the i-th power of the canonical bundle, a line
    bundle of degree 2i(g-1), is g for i = 1 and, for i >= 2 where the degree
    exceeds 2g-2 and h^1 vanishes, 2i(g-1) + 1 - g = (2i-1)(g-1).  The odd
    numbers 3 + 5 + ... + (2r-1) sum to r^2 - 1, so the total is
    (g-1)(r^2-1), plus g for the unreduced base: half the dimension of the
    corresponding Higgs moduli space.
    """
    r, g = _check_rank_genus(r, g)
    return (g - 1) * (r * r - 1) + (0 if reduced else g)


SpectralNumbers = namedtuple("SpectralNumbers", "ramification_degree spectral_genus line_degree_delta")


def spectral_numbers(r: int, g: int, d: int) -> SpectralNumbers:
    """
    Numerical invariants of a smooth spectral curve Y over X for rank r.

    The characteristic-polynomial cover Y -> X inside the total space of the
    canonical bundle has ramification divisor of degree 2r(r-1)(g-1), hence
    by Riemann-Hurwitz genus g(Y) = r^2(g-1) + 1.  A line bundle L on Y
    pushes forward to a rank-r bundle on X whose degree is, by
    Grothendieck-Riemann-Roch, deg L + (1 - g(Y)) - r(1 - g); solving for
    deg L with prescribed pushforward degree d gives the shift delta.
    """
    r, g, d = _check_rank_genus(r, g, d)
    ram = 2 * r * (r - 1) * (g - 1)
    gy = r * r * (g - 1) + 1
    delta = d - (1 - gy) + r * (1 - g)
    return SpectralNumbers(ram, gy, delta)


def hilbert_poly(r: int, d: int, g: int, n: int) -> int:
    """
    Euler characteristic chi(E(n)) = d + r(n + 1 - g) of a twisted bundle of
    rank r and degree d on a genus-g curve (Riemann-Roch; the twist by O(n)
    adds rn to the degree).
    """
    r, g, d, n = _check_rank_genus(r, g, d, n)
    return d + r * (n + 1 - g)
