"""Span tracer that measures wgkit layer by layer from outside the program.

Tracing rebinds module attributes: every public function defined in a layer
module is replaced by a wrapper that records a span (name, start, end,
parent), and so is every other module attribute bound to the same function,
such as ``singular.densities_float_all``.  Calls made inside a module through
its globals therefore show up as well.  ``numpy.fft`` transforms and the
sort/search kernels of the hash joins are counted and charged to the
innermost open wgkit span.  Nothing in ``src/`` is edited; ``uninstall``
restores every binding.

Spans are kept in memory.  A layer's self time is the sum over its spans of
the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "arith",
    "expsums",
    "localdensity",
    "singular",
    "buchstab",
    "sieveconsts",
    "dioph",
    "singint",
    "cli",
)

# lru caches whose hit ratio is reported, as (module, attribute) pairs
CACHES = (
    ("localdensity", "local_densities_all"),
    ("singular", "_omega_p"),
    ("expsums", "unit_sums_all"),
    ("expsums", "complete_sums_all"),
    ("expsums", "_power_residues"),
)

# private functions that other layers call directly, traced like public ones
PRIVATE_ENTRY_POINTS = {("singular", "_omega_p")}

_FFT_NAMES = ("fft", "ifft", "rfft", "irfft")
# the sort/search kernels behind dioph's hash joins; their input sizes are
# the join's entries
_JOIN_NAMES = ("unique", "argsort", "searchsorted")


def _is_layer_function(module, obj) -> bool:
    if inspect.isclass(obj) or not callable(obj):
        return False
    return getattr(obj, "__module__", None) == module.__name__


class Tracer:
    """Installs span wrappers on the wgkit layers and aggregates the spans."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)  # time inside the layer
        self.counts: dict[str, float] = defaultdict(float)
        self.table_args: set = set()
        self._stack: list[list] = []  # [span index, layer, start, child time]
        self._restore: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._modules = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self._modules = {name: importlib.import_module(f"wgkit.{name}") for name in LAYERS}
        observers = self._observers()
        wrappers = {}  # id of the original function -> its wrapper
        for layer, module in self._modules.items():
            for attr, obj in list(vars(module).items()):
                public = not attr.startswith("_") or (layer, attr) in PRIVATE_ENTRY_POINTS
                if public and _is_layer_function(module, obj):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, layer, obj, observers.get(name))
        wgkit_modules = [m for n, m in list(sys.modules.items()) if n.startswith("wgkit")]
        for module in wgkit_modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._rebind(module, attr, wrappers[id(obj)])
        for attr in _FFT_NAMES:
            self._rebind(np.fft, attr, self._counter(getattr(np.fft, attr), "fft", 0))
        for attr in _JOIN_NAMES:
            # searchsorted(a, v) does work per needle v; the others per element of a
            arg = 1 if attr == "searchsorted" else 0
            self._rebind(np, attr, self._counter(getattr(np, attr), "entries", arg))
        for key, fn in self._cache_functions().items():
            info = fn.cache_info()
            self._cache_start[key] = (info.hits, info.misses)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _rebind(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _cache_functions(self) -> dict:
        out = {}
        for layer, attr in CACHES:
            fn = getattr(self._modules[layer], attr, None)
            fn = getattr(fn, "__wrapped_original__", fn)
            if fn is not None and hasattr(fn, "cache_info"):
                out[f"{layer}.{attr}"] = fn
        return out

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, observe):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), layer, 0.0, 0.0]
            spans.append((name, 0.0, 0.0, parent))
            stack.append(frame)
            frame[2] = start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                spans[frame[0]] = (name, start, end, parent)
                self.self_time[layer] += duration - frame[3]
                self.calls[layer] += 1
                if stack:
                    stack[-1][3] += duration
                if not stack or stack[-1][1] != layer:
                    self.inclusive[layer] += duration
            if observe is not None:
                observe(args, kwargs, result, duration)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    def _counter(self, fn, what: str, arg: int):
        """Wrap ``fn`` to add the size of its positional argument ``arg`` to
        ``<layer>.<what>`` of the innermost open span."""
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and len(args) > arg:
                layer = stack[-1][1]
                counts[f"{layer}.{what}"] += np.size(args[arg])
                counts[f"{layer}.{what}_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observers(self) -> dict:
        counts = self.counts
        table_signature = inspect.signature(self._modules["buchstab"].constants_table)

        def singular_series(args, kwargs, result, duration):
            counts["singular.factors"] += len(result.factors)
            counts["singular.series_s"] += duration

        def sieve_product(args, kwargs, result, duration):
            z = kwargs.get("z", args[2] if len(args) > 2 else None)
            counts["sieveconsts.primes"] += _odd_primes_below(z)

        def constants_table(args, kwargs, result, duration):
            counts["buchstab.constants_table.calls"] += 1
            bound = table_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.table_args.add(tuple(bound.arguments.items()))

        def singular_integral(args, kwargs, result, duration):
            # the Monte Carlo fields may give way to a deterministic rule
            counts["singint.points"] += getattr(result, "samples", 0)
            if result.value:
                rel = getattr(result, "est_abs_error", 0.0) / abs(result.value)
                counts["singint.rel_err"] = max(counts["singint.rel_err"], rel)

        return {
            "singular.singular_series": singular_series,
            "sieveconsts.sieve_product": sieve_product,
            "buchstab.constants_table": constants_table,
            "singint.singular_integral": singular_integral,
        }

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, dict]:
        """Per-layer metrics of everything traced since ``install``, as
        ``{name: {"value": ..., "unit": ...}}``; unit ``count`` marks the
        metrics that must repeat exactly for the same inputs."""
        out: dict[str, tuple] = {}
        for layer in LAYERS:
            out[f"{layer}.self_share"] = (100.0 * self.self_time[layer] / wall_s, "%")
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        c = self.counts
        for layer in ("localdensity", "expsums"):
            out[f"{layer}.fft_calls"] = (c[f"{layer}.fft_calls"], "count")
            out[f"{layer}.fft_points"] = (c[f"{layer}.fft"], "count")
        caches = self._cache_functions()
        for layer, attr in CACHES:
            key = f"{layer}.{attr}"
            ratio = 0.0
            if key in caches:
                info = caches[key].cache_info()
                h0, m0 = self._cache_start[key]
                hits, misses = info.hits - h0, info.misses - m0
                ratio = hits / (hits + misses) if hits + misses else 0.0
            out[f"{key}.hit_ratio"] = (ratio, "ratio")
        series_s, dioph_s = c["singular.series_s"], self.inclusive["dioph"]
        calls = c["buchstab.constants_table.calls"]
        out.update({
            "singular.factors": (c["singular.factors"], "count"),
            "singular.factors_per_s": (c["singular.factors"] / series_s if series_s else 0.0, "1/s"),
            "sieveconsts.primes": (c["sieveconsts.primes"], "count"),
            "buchstab.constants_table.calls": (calls, "count"),
            # calls whose arguments an earlier call already had
            "buchstab.constants_table.repeats": (calls - len(self.table_args), "count"),
            "singint.points": (c["singint.points"], "count"),
            "singint.rel_err": (c["singint.rel_err"], "ratio"),
            "dioph.entries": (c["dioph.entries"], "count"),
            "dioph.entries_per_s": (c["dioph.entries"] / dioph_s if dioph_s else 0.0, "1/s"),
            "trace.spans": (len(self.spans), "count"),
        })
        return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


def _odd_primes_below(z) -> int:
    """Number of odd primes p < z (the factors of one sieve product)."""
    limit = int(np.ceil(z)) - 1
    if limit < 3:
        return 0
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return int(sieve[3:].sum())
