"""Exact combinatorics of permutation peak statistics.

The package computes the peak/descent polynomial families of the symmetric
and hyperoctahedral groups in exact integer arithmetic, verifies the
identities and generating functions relating them by independent routes
(recurrence, series, brute-force enumeration), and certifies the real-root,
interlacing and limit-law structure of the combined tan+sec derivative
family.

Importing the package loads no layer: each name of `__all__` imports its
module on first access (PEP 562), so a caller pays only for the layers it
reads.  `from peakpoly import *` loads them all.
"""

__version__ = "0.1.0"

# Each public name, with the module that defines it; a submodule maps to None.
_FROM = {
    **dict.fromkeys(("Poly", "NonzeroRemainder", "DivisionByZeroPoly", "gcd_poly", "primitive_part"), "polynomial"),
    **dict.fromkeys(("PermStats", "SignedStats", "StatDistribution", "NotAPermutation", "NotASignedPermutation",
                     "LimitExceeded", "perm_stats", "signed_stats", "distribution", "signed_distribution",
                     "count_alternating"), "permutations"),
    **dict.fromkeys(("families", "series", "roots", "identities")),
}

__all__ = [*_FROM, "__version__"]


def __getattr__(name: str):
    if name not in _FROM:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_FROM[name] or name}", __name__)
    value = module if _FROM[name] is None else getattr(module, name)
    globals()[name] = value
    return value
