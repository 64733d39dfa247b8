"""
GIT stability by hand
=====================

Torus weight profiles, Hilbert-Mumford weights of weighted filtrations, and
the quotient-construction semistability inequality, all in exact integers.
"""

from higgsmoduli import (
    FiltrationData,
    hilbert_poly,
    hm_weight,
    quotient_semistability_test,
    torus_classify,
)

# a point under a one-parameter torus action is classified by the weights
# appearing on its nonzero coordinates
profiles = [(1, 2), (0,), (-1, 2), (-1, -2), (0, 3), (-4, 0), (-1, 0, 1)]
for weights in profiles:
    verdict = torus_classify(weights)
    print(f"weights {str(weights):>12}  ->  {verdict.value}")

# destabilizing one-parameter subgroups come as weighted filtrations; the
# weight is computed two independent ways and cross-checked internally
print()
filt = FiltrationData([(1, 1, 1, 0), (1, -1, 1, 1)], m=5, g=2)
print(f"two-block filtration, m=5, genus 2: weight {hm_weight(filt)}")

for c in (2, 3, 5):
    scaled = FiltrationData([(1, c, 1, 0), (1, -c, 1, 1)], m=5, g=2)
    print(f"weights scaled by {c}: weight {hm_weight(scaled)}")

# the subspace inequality of the quotient construction: rank 2, degree 1,
# genus 2, embedding twist n=2, so N = chi(E(2)) = 3
print()
r, d, g, n = 2, 1, 2, 2
N = hilbert_poly(r, d, g, n)
cases = [
    ("slope-1 line (destabilizes)", 1, 1),
    ("slope-0 line (harmless)", 1, 0),
    ("the full space", 2, 1),
]
for label, rp, dp in cases:
    Np = hilbert_poly(rp, dp, g, n) if (rp, dp) != (r, d) else N
    verdict = quotient_semistability_test(Np, rp, dp, N, r, d, g, m=10)
    print(f"{label:<30} inequality holds: {verdict}")

# sweeping the test twist m shows the verdict settling on the slope test
print()
rp, dp = 1, 1
Np = hilbert_poly(rp, dp, g, n)
verdicts = [quotient_semistability_test(Np, rp, dp, N, r, d, g, m)
            for m in range(6, 16)]
print(f"slope-1 line across m=6..15: {verdicts}")
