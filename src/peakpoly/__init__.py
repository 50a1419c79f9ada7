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

Every layer refuses a count the same way, with the exception and the two
checks defined here, in the one module every layer loads: a count below a
function's minimum raises LimitExceeded from _at_least as `<name> <value>
below minimum <minimum>`, and one above a cap (the enumeration caps, the
solved z-order, a verify range) from _at_most as `<name> <value> above cap
<cap>`, each naming the function's argument.  Only the CLI words a cap of
its own, the one that names a family.

So do two more shared rules: a certificate's counterexample is a Violation,
which `identities.run` reports as `fail` (any other exception is an `error`),
and Poly and TruncSeries share one immutable-value base.
"""

__version__ = "0.1.0"


class LimitExceeded(ValueError):
    """A count outside what the library accepts, in any layer: below a
    function's minimum or above a cap.  The CLI exits 3."""


def _at_least(name: str, value: int, minimum: int) -> None:
    """Refuse a count below its minimum: LimitExceeded, `<name> <value> below
    minimum <minimum>`.  It only checks an argument and computes no value
    that the routes of a family are compared on, so routes may share it."""
    if value < minimum:
        raise LimitExceeded(f"{name} {value} below minimum {minimum}")


def _at_most(name: str, value: int, cap: int) -> None:
    """Refuse a count above its cap: LimitExceeded, `<name> <value> above cap
    <cap>`.  Like _at_least, it only checks an argument."""
    if value > cap:
        raise LimitExceeded(f"{name} {value} above cap {cap}")


class Violation(Exception):
    """A certificate found a counterexample at n: the check reports `fail`.
    A subclass may keep a second base, which its callers' `except`s name."""


class _Value:
    """An immutable value: of one class and equal slots (in `__slots__` order),
    two are equal, and they hash and pickle as their slot tuple.  A subclass's
    constructor sets its slots with object.__setattr__."""

    __slots__ = ()

    def _slot_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._slot_values() == other._slot_values()

    def __hash__(self) -> int:
        return hash(self._slot_values())

    def __reduce__(self):
        return self.__class__, self._slot_values()


# Each public name, with the module that defines it; a submodule maps to None.
_FROM = {
    **dict.fromkeys(("Poly", "NonzeroRemainder", "DivisionByZeroPoly", "gcd_poly", "primitive_part"), "polynomial"),
    **dict.fromkeys(("PermStats", "StatDistribution", "NotAPermutation", "perm_stats", "distribution",
                     "signed_distribution", "count_alternating"), "permutations"),
    **dict.fromkeys(("families", "series", "roots", "identities")),
}

__all__ = [*_FROM, "LimitExceeded", "Violation", "__version__"]


def __getattr__(name: str):
    if name not in _FROM:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_FROM[name] or name}", __name__)
    value = module if _FROM[name] is None else getattr(module, name)
    globals()[name] = value
    return value
