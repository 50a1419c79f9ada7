"""
Generating functions, verified exactly
======================================

Each family has a closed-form exponential generating function.  Instead of
manipulating square roots and quotients numerically, every identity is
cross-multiplied into polynomial form and checked coefficient by coefficient
in exact integer arithmetic: series are stored in Hurwitz form (entry n is
n! times the z^n coefficient), so no 1/n! is ever formed.
"""

from fractions import Fraction

from peakpoly import families as F
from peakpoly import series as S

# All eight closed forms hold exactly through z^16.
for family in S.EGFS:
    outcome = S.verify_gf(family, 16)
    print(f"family {family:>2}: {'exact match to z^16' if outcome is None else outcome}")

# The closed forms can also be *solved* for the families, giving a derivation
# route completely independent of the recurrences.
solved = S.solved_family_polys("W", 8)
print("\npeak polynomials from the closed form:")
for n in range(1, 9):
    assert solved[n] == F.peak_poly(n)
    print(f"  W_{n} =", solved[n])

# The combined family satisfies a first-order PDE; with the series known
# through z^16 the PDE holds exactly in every checkable coefficient.
print("\nPDE check:", "pass" if S.verify_pde(16) is None else "fail")

# A substitution identity ties the signed-permutation family to the Eulerian
# polynomials: x + T(x,z) = (1+x) A(x, z(1+x)), i.e. T_n = (1+x)^(n+1) A_n.
print("T/A shift check:", "pass" if S.verify_t_vs_eulerian(12, poly_nmax=5) is None else "fail")
for n in range(1, 5):
    print(f"  T_{n} =", F.signed_interleave_poly(n))

# Belt and suspenders: the literal transcendental closed form, evaluated in
# 320-bit arithmetic, agrees with the exact truncated series; the truncation
# remainder bound is part of the report.
report = S.numeric_spotcheck(Fraction(1, 2), Fraction(1, 20), 20, 1e-15)
print(
    f"\nnumeric spot-check at x0=1/2, t0=1/20: rel error {report.rel_error:.2e}"
    f" (remainder bound {report.remainder_bound:.2e})"
)
