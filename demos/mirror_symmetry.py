"""
Topological mirror symmetry in rank 2
=====================================

The variant E-polynomial of the SL side against the gamma-twisted stringy
E-polynomial of the PGL side, element by element over the 2-torsion group.
The left side is the dual of the variant Hodge classes of the fixed loci
of the circle action, the same classes the Higgs Betti numbers count; the
right side averages the Prym E-polynomials against Weil-pairing signs, so
the two sides agree for no shallow reason.
"""

from higgsmoduli import (
    Gamma2Element,
    IdentityViolation,
    e_poly_kappa_lhs,
    e_poly_rhs,
    fermionic_shift,
    mirror_verify,
    weil_pairing,
)

# the two sides at genus 2, written out
g = 2
lhs = e_poly_kappa_lhs(g)
print(f"genus {g} left side:  {lhs.to_sorted_dict()}")
gamma = Gamma2Element.from_int(1, g)
print(f"genus {g} right side: {e_poly_rhs(g, gamma).to_sorted_dict()}")
print(f"fermionic shift F = {fermionic_shift(g)}, "
      f"total (uv) weight (g-1)+F = {3 * g - 3}")

# the Weil pairing that drives the average: alternating, nondegenerate
a = Gamma2Element((1, 0, 0, 0))
b = Gamma2Element((0, 0, 1, 0))
print(f"\npairing of dual basis vectors: {weil_pairing(a, b)}")
print(f"pairing of anything with itself: {weil_pairing(a, a)}")

# exhaustive checks: a certificate over GF(2) (the Gram matrix of the pairing
# on the basis is nonsingular, symmetric, zero on the diagonal) covers every
# nonzero gamma, assuming the pairing is linear in its first argument too
# (mirror_verify raises at the first failed check, so a returned report passed)
for g in (2, 3, 4):
    report = mirror_verify(g)
    print(f"\ngenus {g}: {report.elements_checked} elements checked, pass")

# a sampled sweep at larger genus, seeded for reproducibility
report = mirror_verify(7, sample=12, seed=1)
print(f"genus 7: {report.elements_checked} sampled elements, pass")

# what failure looks like: push the right side one (uv) notch sideways
import higgsmoduli.mirror as mirror_module

original = mirror_module.fermionic_shift
mirror_module.fermionic_shift = lambda g: 2 * g - 1
try:
    mirror_verify(2)
except IdentityViolation as err:
    print(f"\nperturbed shift detected: {err}")
finally:
    mirror_module.fermionic_shift = original
