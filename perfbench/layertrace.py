"""Outside-in per-layer trace of the hurwitz package.

Nothing in the program is instrumented.  `install()` replaces named
functions and methods of the `hurwitz.*` modules with wrappers defined
here, and rebinds every module attribute that referred to the original,
so `from .tau import hurwitz_any` in another module is traced as well.

A wrapper has one of three modes:

* ``time``   counts calls and measures self time: the call's duration
  minus the time spent in timed calls nested inside it.
* ``cached`` is ``time`` for an ``lru_cache`` function, except that a call
  with arguments already seen is counted as a hit and not timed.  Hit
  ratios are read from the cache's own ``cache_info()``.
* ``count``  counts calls and nothing else.  It is used for the hottest
  calls, where timing would distort the run: time spent in them is
  charged to the nearest timed caller.

A target the program no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("cli", "tables", "weights", "qrational", "tau", "correlator",
          "series", "algebra", "partitions", "oracle")

# (group, layer module, attribute path, mode).  A group sums its members.
# Untraced helpers run inside their caller's span: connected_len1..3 count
# toward correlator.closed_form, Murnaghan-Nakayama toward its caller.
TARGETS = (
    ("cli.main", "cli", "main", "time"),
    ("tables.compare_tables", "tables", "compare_tables", "time"),
    ("weights.parse_model", "weights", "parse_model", "time"),
    ("weights.specialize", "weights", "specialize", "time"),
    ("weights.taylor_coeffs", "weights", "taylor_coeffs", "time"),
    ("weights.qrat_pretty", "weights", "qrat_pretty", "time"),
    ("qrational.divmod", "qrational", "QPoly.divmod", "time"),
    ("qrational.gcd", "qrational", "qpoly_gcd", "time"),
    ("qrational.qrat_ops", "qrational", "QRat.__add__", "time"),
    ("qrational.qrat_ops", "qrational", "QRat.__sub__", "time"),
    ("qrational.qrat_ops", "qrational", "QRat.__neg__", "time"),
    ("qrational.qrat_ops", "qrational", "QRat.__mul__", "time"),
    ("qrational.qrat_ops", "qrational", "QRat.__rmul__", "time"),
    ("qrational.qrat_ops", "qrational", "QRat.__truediv__", "time"),
    ("qrational.qrat_ops", "qrational", "QRat.inverse", "time"),
    ("tau.hurwitz_any", "tau", "hurwitz_any", "cached"),
    ("tau.connected_any", "tau", "connected_any", "cached"),
    ("tau.content_product", "tau", "content_product", "cached"),
    ("correlator.closed_form", "correlator", "connected_closed_form", "time"),
    ("correlator.assemble", "correlator", "nonconnected_assemble", "time"),
    ("correlator.rho_series", "correlator", "rho_series", "cached"),
    ("series.series_mul", "series", "series_mul", "time"),
    ("series.g_product", "series", "g_product", "cached"),
    ("series.g_series", "series", "g_series", "cached"),
    ("algebra.gpoly_mul", "algebra", "GPoly.__mul__", "count"),
    ("algebra.gpoly_add", "algebra", "GPoly.__add__", "count"),
    ("algebra.gpoly_add", "algebra", "GPoly.__radd__", "count"),
    ("algebra.eval_gpoly", "algebra", "eval_gpoly", "time"),
    ("partitions.character", "partitions", "character", "count"),
    ("partitions.partitions_of", "partitions", "partitions_of", "time"),
    ("oracle.definition", "oracle", "weighted_from_definition", "time"),
    ("oracle.char_sums", "oracle", "pure_hurwitz_char", "count"),
    ("oracle.enumeration", "oracle", "pure_hurwitz_enum", "time"),
)


class Tracer:
    """Counters and self times, filled in by the installed wrappers."""

    def __init__(self):
        self.stack = [0.0]          # child time of each open timed call
        self.groups: dict[str, list] = {}   # group -> [calls, self_s, extra]
        self.caches: dict[str, list] = {}   # group -> lru_cache objects
        self.absent: list[str] = []

    def _record(self, group: str) -> list:
        return self.groups.setdefault(group, [0, 0.0, 0])

    def _timed(self, fn, rec):
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[1] += dt - stack.pop()
                rec[0] += 1
                stack[-1] += dt
        return timed

    def _cached(self, fn, rec):
        timed = self._timed(fn, rec)
        seen = set()

        @functools.wraps(fn)
        def cached(*args, **kwargs):
            key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
            if key in seen:
                rec[0] += 1
                return fn(*args, **kwargs)
            out = timed(*args, **kwargs)
            seen.add(key)
            return out
        return cached

    def _counted(self, fn, rec, group):
        if group == "algebra.gpoly_mul":
            @functools.wraps(fn)
            def counted(a, b):
                rec[0] += 1
                terms = getattr(b, "_terms", None)
                if terms is not None:
                    rec[2] += len(a._terms) * len(terms)
                return fn(a, b)
            return counted

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            rec[0] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"hurwitz.{layer}")
            except ImportError:
                pass
        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "hurwitz" or name.startswith("hurwitz."))]
        for group, layer, path, mode in TARGETS:
            owner = modules.get(layer)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.absent.append(f"{layer}.{path}")
                continue
            rec = self._record(group)
            if mode == "cached" and hasattr(orig, "cache_info"):
                self.caches.setdefault(group, []).append(orig)
                wrapper = self._cached(orig, rec)
            elif mode == "count":
                wrapper = self._counted(orig, rec, group)
            else:
                wrapper = self._timed(orig, rec)
            if outer:        # a method: patch the class that defines it
                setattr(owner, attr, wrapper)
            else:            # a function: rebind it wherever it was imported
                for mod in package:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapper)

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for group, rec in self.groups.items():
            out[group.split(".", 1)[0]] += rec[1]
        return out

    def snapshot(self) -> dict:
        """Counters, self times and cache statistics as plain data."""
        groups = {g: {"calls": r[0], "self_s": r[1], "extra": r[2]}
                  for g, r in self.groups.items()}
        for group, caches in self.caches.items():
            hits = sum(c.cache_info().hits for c in caches)
            misses = sum(c.cache_info().misses for c in caches)
            groups[group]["lookups"] = hits + misses
            groups[group]["hits"] = hits
        return {"groups": groups, "layers": self.layer_self_s(), "absent": self.absent}


def cache_entries() -> int:
    """Sum of every lru_cache currsize in the package, plus the character table."""
    seen: set[int] = set()
    total = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "hurwitz" or name.startswith("hurwitz.")):
            continue
        for value in vars(mod).values():
            # an installed wrapper hides the lru_cache one __wrapped__ down
            while value is not None and not hasattr(value, "cache_info"):
                value = getattr(value, "__wrapped__", None)
            if value is not None and id(value) not in seen:
                seen.add(id(value))
                total += value.cache_info().currsize
    partitions = sys.modules.get("hurwitz.partitions")
    size = getattr(partitions, "character_cache_size", None)
    return total + (size() if size else 0)
