"""
The integer data of the two stratifications, and nothing else.

Both Poincare pipelines that sum over strata, and the mirror check, read
their strata here:

* the Atiyah-Bott recursion peels off the Harder-Narasimhan strata of type
  (k, 1-k), k >= 1, at the real codimensions of hn_codim_rank2;

* the Bialynicki-Birula sum adds the fixed loci F_k, k = 1 .. g-1, of the
  circle action on the Higgs moduli space at the real codimensions of
  bb_codimension.  variant_hodge_numbers is the one table of the classes a
  nontrivial cover sector of F_k adds; fixed_locus_poincare in the higgs
  module sums it at u = v = t, and the mirror module dualises it into the
  left side of the mirror identity, so an error in the table or in the
  codimensions reaches both checks.

The module imports nothing from the package, so the mirror check loads it
without the polynomial kernel.  Its readers call these functions through
the module at call time (strata.bb_codimension(g, k)), so a wrapper
installed on the module attribute reaches every reader.  Genus and index
are read with operator.index, and only the int it returns enters a formula:
a float or a string raises TypeError, and an integer-like type gives the
int's result.
"""
import functools
import math
import operator


def _check_genus(g: int) -> int:
    """The genus of every rank-2 pipeline and of the mirror check: an integer, at least 2."""
    if (g := operator.index(g)) < 2:
        raise ValueError("genus must be at least 2")
    return g


def _check_stratum(g: int, k: int) -> tuple[int, int, int]:
    """Nontrivial fixed loci are indexed by k = 1 .. g-1; returns g, k and kbar = 2g - 2k - 1."""
    g = _check_genus(g)
    if not 1 <= (k := operator.index(k)) <= g - 1:
        raise ValueError(f"k must lie in 1 .. {g - 1}")
    return g, k, 2 * g - 2 * k - 1


@functools.lru_cache(maxsize=1)
def _binomial_row(g: int) -> tuple[int, ...]:
    """
    C(g-1, c) for c = 0 .. 2g-3, math.comb's row: it is zero past c = g-1,
    so every index kbar - p of variant_hodge_numbers reads it.  One row
    serves the g - 1 fixed loci of a genus.
    """
    return tuple(math.comb(g - 1, c) for c in range(2 * g - 2))


def variant_hodge_numbers(g: int, k: int) -> list[int]:
    """
    The Hodge numbers h^(p, kbar-p) = C(g-1, p) C(g-1, kbar-p), p = 0 .. kbar,
    of the classes one nontrivial cover sector of F_k adds: the kbar-th
    exterior power of H^1 of a 2-torsion local system, whose Hodge numbers
    are those of a (g-1)-dimensional abelian variety.  The list sums to
    C(2g-2, kbar) and reads the same backwards.

    >>> variant_hodge_numbers(3, 1)
    [0, 2, 2, 0]
    """
    g, _, kbar = _check_stratum(g, k)
    row = _binomial_row(g)
    return list(map(operator.mul, row[:kbar + 1], row[kbar::-1]))


def bb_codimension(g: int, k: int) -> int:
    """
    Real codimension 2(g + 2k - 2) of the stratum flowing down to F_k.  With
    kbar = 2g - 2k - 1 the complex dimension of F_k, kbar + (g + 2k - 2) =
    3g - 3 ties the stratum weights to the middle dimension.
    """
    g, k, _ = _check_stratum(g, k)
    return 2 * (g + 2 * k - 2)


def hn_codim_rank2(g: int, k: int) -> int:
    """
    Real codimension 2g + 4k - 4 of the stratum of holomorphic structures of
    Harder-Narasimhan type (k, 1-k), k >= 1, on a rank-2, degree-1 bundle:
    twice Atiyah-Bott's complex codimension d1 - d2 + g - 1 of type
    (d1, d2), here g + 2k - 2.  The first stratum, k = 1, is of type (1, 0).
    """
    g = _check_genus(g)
    if (k := operator.index(k)) < 1:
        raise ValueError("k must be at least 1")
    return 2 * g + 4 * k - 4
