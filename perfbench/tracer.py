"""Span and count wrappers around the public functions of peakpoly's modules.

`Tracer.install()` wraps, in the running process, every public module-level
function of each layer module (and the methods listed in METHODS), and
rebinds the wrapper in every peakpoly namespace that binds the original;
`roots`, for one, imports `gcd_poly` by name.  The package source is not
touched.  It also counts the processes that pools start.

A span is recorded when a call enters a different layer than its caller's,
with its name, start, end, parent span and request id.  A call nested in the
same layer folds into its caller's span, which leaves every layer's self
time unchanged and keeps the span count bounded.  Every wrapped call is
counted, and each function's time is summed over its outermost calls.
Spans stay in memory until `dump`, which the traced process calls once its
work is done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import multiprocessing.process
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "identities", "families", "series", "roots", "polynomial", "permutations")

# Class methods that are layer boundaries: the arithmetic that the layer
# metrics name (mul, divmod, Horner evaluation, Sturm evaluation) and the
# other non-trivial operations.  O(1) accessors stay unwrapped so their
# callers' spans are not drowned in bookkeeping.
METHODS = {
    "polynomial": {
        "Poly": (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
            "__pow__", "__divmod__", "__call__", "derivative", "compose", "exact_div",
            "subst_cleared",
        ),
    },
    "series": {
        "TruncSeries": ("__add__", "__sub__", "__mul__", "scale", "shift_z", "truncate", "dz", "dx", "egf_poly"),
    },
    "roots": {"SturmChain": ("variations", "count")},
    "permutations": {"StatDistribution": ("total", "as_poly")},
}


def _s_n_leaves(n, *args, **kwargs) -> int:
    return math.factorial(n)


def _signed_leaves(n, *args, **kwargs) -> int:
    return 2**n * math.factorial(n)


# Enumeration leaves, computed from the arguments of each enumeration call.
LEAVES = {
    "permutations.distribution": _s_n_leaves,
    "permutations.count_alternating": _s_n_leaves,
    "permutations.signed_distribution": _signed_leaves,
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self._depth: list[int] = []
        self.leaves = 0
        self.worker_starts = 0
        self.request_id = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._layers: list[str] = []  # layer of every active wrapped call
        self._open: list[int] = []  # indices of the active recorded spans

    def wrap(self, name: str, fn, leaves=None):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.inclusive.append(0.0)
        self._depth.append(0)
        layer = layer_of(name)
        layers, opened, depth, calls, inclusive = self._layers, self._open, self._depth, self.calls, self.inclusive

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            crossing = not layers or layers[-1] != layer
            if crossing:
                idx = len(self.span_start)
                self.span_name.append(nid)
                self.span_parent.append(opened[-1] if opened else -1)
                self.span_request.append(self.request_id)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                opened.append(idx)
            layers.append(layer)
            depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                layers.pop()
                depth[nid] -= 1
                if not depth[nid]:
                    inclusive[nid] += t1 - t0
                if crossing:
                    opened.pop()
                    self.span_start[idx] = t0
                    self.span_end[idx] = t1
            if leaves is not None:
                self.leaves += leaves(*args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions in every peakpoly namespace."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"peakpoly.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = (obj, self.wrap(name, obj, LEAVES.get(name)))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                by_function = {}
                for method in methods:
                    fn = cls.__dict__[method]
                    if fn.__name__ not in by_function:  # __rmul__ is __mul__: one name, one count
                        by_function[fn.__name__] = self.wrap(f"{layer}.{cls_name}.{fn.__name__}", fn)
                    setattr(cls, method, by_function[fn.__name__])
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "peakpoly" and not mod_name.startswith("peakpoly."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

        start = multiprocessing.process.BaseProcess.start

        def counting_start(process):
            self.worker_starts += 1
            return start(process)

        multiprocessing.process.BaseProcess.start = counting_start

    def dump(self, prefix: str, *, top_s: float) -> None:
        """Write the spans to PREFIX.spans and the counts to PREFIX.json.

        `top_s` is the time inside `cli.main`."""
        with open(prefix + ".spans", "wb") as f:
            for arr in (self.span_name, self.span_parent, self.span_request, self.span_start, self.span_end):
                arr.tofile(f)
        meta = {
            "names": self.names,
            "calls": self.calls,
            "inclusive_s": self.inclusive,
            "leaves": self.leaves,
            "worker_starts": self.worker_starts,
            "spans": len(self.span_start),
            "top_s": top_s,
        }
        with open(prefix + ".json", "w") as f:
            json.dump(meta, f)


def load(prefix: str) -> dict:
    """Read back what `dump` wrote; the span arrays land under "span_*"."""
    with open(prefix + ".json") as f:
        meta = json.load(f)
    n = meta["spans"]
    with open(prefix + ".spans", "rb") as f:
        for key, code in (("name", "i"), ("parent", "i"), ("request", "i"), ("start", "d"), ("end", "d")):
            arr = array(code)
            arr.fromfile(f, n)
            meta["span_" + key] = arr
    return meta


def self_times(names, span_name, span_start, span_end, span_parent) -> dict[str, float]:
    """Self time per layer: each span's duration minus the time its child
    spans cover (children never overlap within one process)."""
    child = [0.0] * len(span_start)
    for i, parent in enumerate(span_parent):
        if parent >= 0:
            child[parent] += span_end[i] - span_start[i]
    out = dict.fromkeys(LAYERS, 0.0)
    for i, nid in enumerate(span_name):
        out[layer_of(names[nid])] += span_end[i] - span_start[i] - child[i]
    return out


def root_time(span_start, span_end, span_parent) -> float:
    """Time covered by any span: the summed duration of the root spans."""
    return sum(span_end[i] - span_start[i] for i, p in enumerate(span_parent) if p < 0)
