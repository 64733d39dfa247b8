"""
Dimension counts and spectral-curve numerology
==============================================

Moduli dimensions for GL, SL, and PGL, the Hitchin base in full and reduced
form, and the numerology of the rank-r spectral cover.
"""

from higgsmoduli import (
    coeff_extract_x,
    hitchin_base_dim,
    moduli_dim,
    spectral_numbers,
)

print("rank 2, odd degree:")
print(f"{'g':>3} {'bundles SL':>11} {'bundles GL':>11} {'higgs SL':>9} "
      f"{'higgs GL':>9} {'base red':>9} {'base full':>10}")
spaces = ("bundles", "higgs", "hitchin-base")  # no degree enters a dimension
for g in range(2, 8):
    sl = {space: moduli_dim(2, g, space, group="SL") for space in spaces}
    gl = {space: moduli_dim(2, g, space, group="GL") for space in spaces}
    print(f"{g:>3} {sl['bundles']:>11} {gl['bundles']:>11} {sl['higgs']:>9} {gl['higgs']:>9} "
          f"{sl['hitchin-base']:>9} {gl['hitchin-base']:>10}")

# the Hitchin map is a Lagrangian fibration: base is half the total space
print()
for r in (2, 3, 4):
    g = 3
    half = moduli_dim(r, g, "higgs", group="SL") // 2
    print(f"r={r}, g={g}: reduced base {hitchin_base_dim(r, g, reduced=True)}"
          f" == half the SL Higgs dimension {half}")

# spectral covers: degree of the ramification divisor, genus upstairs, and
# the line-bundle degree that pushes forward to the prescribed one
print()
print(f"{'(r,g,d)':>10} {'ram deg':>8} {'genus Y':>8} {'delta':>6}")
for r, g, d in [(2, 2, 1), (2, 3, 1), (3, 2, 0), (4, 2, 3), (1, 3, 0)]:
    s = spectral_numbers(r, g, d)
    print(f"{str((r, g, d)):>10} {s.ramification_degree:>8} "
          f"{s.spectral_genus:>8} {s.line_degree_delta:>6}")

# generic Hitchin fibers are abelian: at rank 2 their dimension matches the
# spectral genus minus the base curve's Jacobian contribution on the GL side
print()
r, g, d = 2, 3, 1
s = spectral_numbers(r, g, d)
gl_total = moduli_dim(r, g, "higgs", group="GL")
print(f"r={r}, g={g}: spectral genus {s.spectral_genus} "
      f"(fiber Jacobian) + full base {hitchin_base_dim(r, g)} "
      f"= {s.spectral_genus + hitchin_base_dim(r, g)} = GL Higgs {gl_total}")

# the n-th symmetric product of the curve, whose classes seed the
# Bialynicki-Birula fixed loci
print()
for n in range(4):
    print(f"P_t(S^{n}X), g=2: {coeff_extract_x(2, n).to_coeff_list()}")
