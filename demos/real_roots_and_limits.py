"""
Real roots, interlacing, and limit statistics
=============================================

The combined peak polynomials are real-rooted with all zeros in [-1, 0):
a high-multiplicity zero at -1, found by exact division, plus simple zeros
certified by exact Sturm counts inside (-1, 0).
"""

from fractions import Fraction

from peakpoly import families as F
from peakpoly import roots as R

# Small cases factor by hand: R_3 = (1+x)^2 (1+2x), R_4 = (1+x)^3 (1+5x).
for n in (3, 4, 5):
    g = F.reduced_tan_sec_poly(n)
    print(f"R_{n} = (1+x)^{n // 2 + 1} * ({g})")

# Certified structure for every n up to 25: multiplicity floor(n/2)+1 at -1,
# ceil(n/2)-1 simple zeros counted inside (-1, 0) by the Sturm chain of G_n.
for n in (5, 10, 15, 25):
    R.certify_root_structure(n)
    g = F.reduced_tan_sec_poly(n)  # divides out (1+x)^(floor(n/2)+1) and checks G_n(-1) != 0
    mult = F.tan_sec_poly(n).degree - g.degree
    inside = R.sturm_chain(g).count(Fraction(-1), Fraction(0))
    print(f"n={n}: multiplicity {mult} at -1, {inside} simple zeros in (-1, 0)")

# Consecutive polynomials weakly interlace; with their common factor divided
# out, the certificate is the Cauchy index of G_n/G_{n+1} over R, read off the
# leading coefficients and degrees of one remainder sequence.
print("\ninterlacing certified for n = 1..25:", all(R.certify_interlacing(n) for n in range(1, 26)))

# Exact coefficient statistics: the mean is (2n-1)/3 and the variance
# (8n+8)/45 from n = 4 on, so the variance grows without bound.
print("\n n   mu        sigma^2")
for n in range(4, 16):
    stats = R.clt_stats(n)
    print(f"{n:>2}   {str(stats.mu):<8}  {stats.sigma2}")

# Darroch's rule pins the largest coefficient of each row near the mean.
for n in (5, 6, 12, 25):
    mode = R.mode_bracket(n)
    print(f"row {n}: argmax {mode.argmax} within allowed {mode.allowed}")
