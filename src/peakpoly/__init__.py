"""Exact combinatorics of permutation peak statistics.

The package computes the peak/descent polynomial families of the symmetric
and hyperoctahedral groups in exact integer arithmetic, verifies the
identities and generating functions relating them by independent routes
(recurrence, series, brute-force enumeration), and certifies the real-root,
interlacing and limit-law structure of the combined tan+sec derivative
family.
"""

from .polynomial import (
    ClearPowerTooSmall,
    DivisionByZeroPoly,
    NonzeroRemainder,
    Poly,
    gcd_poly,
    primitive_part,
)
from .permutations import (
    LimitExceeded,
    NotAPermutation,
    NotASignedPermutation,
    PermStats,
    SignedStats,
    StatDistribution,
    count_alternating,
    distribution,
    perm_stats,
    signed_distribution,
    signed_stats,
)
from . import families, identities, roots, series

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "NonzeroRemainder",
    "DivisionByZeroPoly",
    "ClearPowerTooSmall",
    "gcd_poly",
    "primitive_part",
    "PermStats",
    "SignedStats",
    "StatDistribution",
    "NotAPermutation",
    "NotASignedPermutation",
    "LimitExceeded",
    "perm_stats",
    "signed_stats",
    "distribution",
    "signed_distribution",
    "count_alternating",
    "families",
    "series",
    "roots",
    "identities",
    "__version__",
]
