"""
Peak statistics and their triangles
===================================

Counting interior peaks and left peaks over the symmetric group, and how the
two triangles interleave into a single family.
"""

import sys

from peakpoly import distribution, perm_stats
from peakpoly import families as F

# A permutation is read in one-line notation.  21435 has one interior peak
# (the 4 at position 3) and two left peaks (position 1 also counts, because
# the boundary convention prepends a zero).
print("stats of 21435:", perm_stats((2, 1, 4, 3, 5)))

# Exhaustive enumeration gives the exact distribution of each statistic.
for n in range(1, 7):
    print(f"n={n}  pk:", distribution(n, "pk").counts, " lpk:", distribution(n, "lpk").counts)

# The same numbers come out of two-term recurrences (OEIS A008303/A008971),
# with no enumeration at all.
print("\ninterior-peak triangle, rows 1..8")
for row in F.peak_triangle(8):
    print(" ", row)
print("left-peak triangle, rows 1..8")
for row in F.left_peak_triangle(8):
    print(" ", row)

# Interleaving the two rows (odd slots from pk, even slots from lpk) yields
# the triangle of coefficients of the n-th derivative of tan + sec.
print("\ncombined triangle, rows 0..6")
for row in F.tan_sec_triangle(6):
    print(" ", row)

# Row facts: leading entry 1, second entry 2^(n-1), row sum 2 n!, and the
# last entry is the Euler number E_n (alternating permutations).
euler = F.euler_numbers(10)
for n in range(2, 9):
    row = F.tan_sec_triangle(n)[n]
    if row[1] != 2 ** (n - 1) or row[n] != euler[n]:
        sys.exit(f"row facts fail at n = {n}: {row}")
print("\nrow facts hold for n <= 8; Euler numbers:", euler)
