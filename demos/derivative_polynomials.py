"""
Derivative polynomials of tangent and secant
============================================

Repeated differentiation of tan and sec stays inside polynomials in tan:
the n-th derivative of tan is P_n(tan), and of sec is sec * Q_n(tan).
"""

import sys

from peakpoly import families as F

ps = [F.tangent_derivative_poly(n) for n in range(7)]
qs = [F.secant_derivative_poly(n) for n in range(7)]
for n in range(7):
    print(f"P_{n} =", ps[n])
for n in range(7):
    print(f"Q_{n} =", qs[n])

# Their constant terms are the tangent numbers (odd n) and secant numbers
# (even n) -- exactly the Euler numbers that count alternating permutations.
print("\nconstants:", [int((ps[n] if n % 2 else qs[n])(0)) for n in range(7)])
print("Euler:    ", list(F.euler_numbers(6)))

# Cvijovic's closed formulas rebuild P_n and Q_n from the higher-order
# tangent/secant numbers alone (n! times the x^n coefficient of tan^k and
# sec * tan^k); the rebuild agrees with the recurrence route coefficient by
# coefficient.
for n in range(7):
    if F.cvijovic_polys(n) != (ps[n], qs[n]):
        sys.exit(f"closed-formula rebuild differs from the recurrences at n = {n}")
print("\nclosed-formula rebuild matches the recurrences for n <= 6")

# The peak rows expand the same polynomials: for example
# P_3(y) = 4 y^2 (1+y^2) + 2 (1+y^2)^2 built from the row (4, 2).
from peakpoly.polynomial import Poly

one_plus_y2 = Poly((1, 0, 1))
expansion = 4 * Poly((0, 0, 1)) * one_plus_y2 + 2 * one_plus_y2**2
print("\npeak-row expansion of P_3:", expansion, "==", ps[3])
