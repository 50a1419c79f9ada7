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

Every layer refuses a count the same way, with the exception and the check
defined here, in the one module every layer loads: a count below a
function's minimum raises LimitExceeded as `<name> <value> below minimum
<minimum>`, naming the function's argument, and one above an enumeration or
CLI cap as `<name> <value> above cap <cap>`.
"""

__version__ = "0.1.0"


class LimitExceeded(ValueError):
    """A count outside what the library accepts, in any layer: below a
    function's minimum or above an enumeration or CLI cap.  The CLI exits 3."""


def _at_least(name: str, value: int, minimum: int) -> None:
    """Refuse a count below its minimum: LimitExceeded, `<name> <value> below
    minimum <minimum>`.  It only checks an argument and computes no value
    that the routes of a family are compared on, so routes may share it."""
    if value < minimum:
        raise LimitExceeded(f"{name} {value} below minimum {minimum}")


# Each public name, with the module that defines it; a submodule maps to None.
_FROM = {
    **dict.fromkeys(("Poly", "NonzeroRemainder", "DivisionByZeroPoly", "gcd_poly", "primitive_part"), "polynomial"),
    **dict.fromkeys(("PermStats", "SignedStats", "StatDistribution", "NotAPermutation", "NotASignedPermutation",
                     "perm_stats", "signed_stats", "distribution", "signed_distribution",
                     "count_alternating"), "permutations"),
    **dict.fromkeys(("families", "series", "roots", "identities")),
}

__all__ = [*_FROM, "LimitExceeded", "__version__"]


def __getattr__(name: str):
    if name not in _FROM:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_FROM[name] or name}", __name__)
    value = module if _FROM[name] is None else getattr(module, name)
    globals()[name] = value
    return value
