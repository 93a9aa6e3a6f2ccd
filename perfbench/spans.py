"""In-memory span recorder, self time and percentile helpers.

A span is one timed call at a layer boundary: name, start, end, the span
that was open when it started (its parent) and free-form attributes.
Spans stay in a list until the benchmark writes them out at exit. Only
the main thread opens spans; the pipeline's driver code is single-threaded.
"""
from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from functools import wraps

__all__ = ["Tracer", "self_times", "percentile", "percentile_supported",
           "tail_percentile", "patch_everywhere"]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        """Record one span. A call nested directly inside a span of the
        same name (``toPandas`` calling ``collect``) folds into it."""
        if self._stack and self._stack[-1]["name"] == name:
            yield self._stack[-1]["attrs"]
            return
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None,
               "root": parent["root"] if parent else name,
               "start": self.clock(), "end": None, "attrs": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = self.clock()
            self._stack.pop()

    def wrap(self, fn, name: str, attrs_fn=None):
        """``fn`` timed as span ``name``; ``attrs_fn(args, kwargs, result)``
        may return attributes to attach once the call returns."""
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                if attrs_fn is not None:
                    attrs.update(attrs_fn(args, kwargs, out))
                return out
        return traced


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in (0, 100]) of a non-empty sample."""
    v = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(v)))
    return v[rank - 1]


def percentile_supported(n: int, p: float) -> bool:
    """True when at least ten of ``n`` samples lie beyond the ``p``-th."""
    return n - max(1, math.ceil(p / 100.0 * n)) >= 10


def tail_percentile(n: int, choices=(99.9, 99.0, 90.0, 50.0)) -> float | None:
    """Highest percentile of ``choices`` that ``n`` samples support."""
    for p in choices:
        if percentile_supported(n, p):
            return p
    return None


def patch_everywhere(original, replacement, prefix: str = "repro") -> int:
    """Point every reference to ``original`` held by a loaded ``prefix``
    module at ``replacement``: module globals (``from x import f``) and
    function defaults (``rank_fn=ensemble_scores``). Returns the count."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                n += 1
                continue
            fn = val
            while callable(fn):  # defaults live on the innermost function
                defaults = getattr(fn, "__defaults__", None) or ()
                if any(d is original for d in defaults):
                    fn.__defaults__ = tuple(replacement if d is original else d
                                            for d in defaults)
                    n += 1
                fn = getattr(fn, "__wrapped__", None)
    return n
