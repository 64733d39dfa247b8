"""
Exact topological invariants of rank-2 moduli spaces over a genus-g curve.

Everything is computed in exact integer (or rational) arithmetic: Poincare
polynomials of the moduli spaces of stable bundles and of Higgs bundles,
each by two independent pipelines; the rank-2 topological mirror-symmetry
identity between E-polynomials, checked on every group element; dimension and
spectral-curve numerology; and a combinatorial GIT stability toolkit.

Every public name below resolves lazily, on first use, so importing the
package (or its command line) loads only the modules a caller touches.
"""

_EXPORTS = {
    "exactpoly": (
        "IntPoly", "NonDivisible", "TailNonzero", "TruncSeries", "coeff_extract_x",
        "poly_exact_div", "series_expand",
    ),
    "bundles": (
        "classifying_space_poly", "poincare_N_closed", "poincare_N_recursion",
        "recursion_strata_count", "strata_equivariant_poly",
    ),
    "strata": ("bb_codimension", "hn_codim_rank2", "variant_hodge_numbers"),
    "higgs": ("DegreeOverflow", "fixed_locus_poincare", "poincare_M_closed", "poincare_M_stratified"),
    "mirror": (
        "IdentityViolation", "MirrorReport", "PairingNotAlternating", "PairingNotBilinear",
        "TrivialElement", "e_poly_kappa_lhs", "e_poly_rhs", "fermionic_shift", "mirror_verify",
        "weil_pairing",
    ),
    "geometry": (
        "SpectralNumbers", "UnsupportedCombination", "hilbert_poly", "hitchin_base_dim",
        "moduli_dim", "spectral_numbers",
    ),
    "stability": (
        "Block", "EmptyProfile", "ExpressionMismatch", "FiltrationData",
        "NonIntegerWeight", "NonPositiveEuler", "Stability", "hm_weight",
        "quotient_semistability_test", "torus_classify",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    """PEP 562: import the submodule that defines a public name on first access."""
    from importlib import import_module

    if name in _EXPORTS:  # a submodule itself, as after an eager import
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
