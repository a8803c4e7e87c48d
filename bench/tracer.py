"""Stdlib-only span tracer that wraps callables from outside the program.

A wrapper replaces a module attribute (or a dict entry) with a function that
records a span -- name, start, end, parent span -- around the original call,
so the program itself is unchanged.  Spans stay in memory; ``aggregate``
folds them into per-name totals, with each span's self time being its
duration minus the part of it that its child spans cover.  For callables
that carry ``cache_info()`` (``functools.lru_cache``) a span is marked as a
miss when the cache's miss count rose during the call.
"""

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    miss: bool = False
    units: int = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self):
        self.spans[self._stack.pop()].end = self.clock()

    def wrapped(self, fn, name, units=None):
        """``fn`` wrapped so that every call records a span called ``name``.

        ``units(*args, **kwargs)`` optionally counts the work units of a call
        (for example evaluation points).
        """
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            misses = cache_info().misses if cache_info else 0
            try:
                return fn(*args, **kwargs)
            finally:
                if cache_info:
                    span.miss = cache_info().misses > misses
                if units:
                    span.units = units(*args, **kwargs)
                self.close()

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, target, key, name, units=None):
        """Replace ``target.key`` (or ``target[key]`` for a dict) by a traced
        wrapper.  A target that does not exist is skipped, so its span name
        simply records no calls; returns whether a wrapper was installed."""
        is_dict = isinstance(target, dict)
        fn = target.get(key) if is_dict else getattr(target, key, None)
        if fn is None:
            return False
        wrapper = self.wrapped(fn, name, units)
        if is_dict:
            target[key] = wrapper
        else:
            setattr(target, key, wrapper)
        self._patches.append((target, key, fn, is_dict))
        return True

    def restore(self):
        """Put every wrapped callable back, newest first."""
        for target, key, fn, is_dict in reversed(self._patches):
            if is_dict:
                target[key] = fn
            else:
                setattr(target, key, fn)
        self._patches.clear()

    def self_times(self):
        """Self time of every span, in span order."""
        children = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                children[s.parent].append(i)
        out = []
        for s, kids in zip(self.spans, children):
            covered, reach = 0.0, s.start
            for lo, hi in sorted((self.spans[k].start, self.spans[k].end) for k in kids):
                lo, hi = max(lo, reach), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.end - s.start - covered)
        return out

    def aggregate(self):
        """Per-name totals: calls, ms, self_ms, misses, miss_ms, units."""
        agg = {}
        for s, self_s in zip(self.spans, self.self_times()):
            a = agg.setdefault(s.name, empty_totals())
            dur = s.end - s.start
            a["calls"] += 1
            a["ms"] += 1e3 * dur
            a["self_ms"] += 1e3 * self_s
            a["misses"] += int(s.miss)
            a["miss_ms"] += 1e3 * dur if s.miss else 0.0
            a["units"] += s.units
        return agg


def empty_totals():
    return {"calls": 0, "ms": 0.0, "self_ms": 0.0, "misses": 0,
            "miss_ms": 0.0, "units": 0}


def merge(into, agg):
    """Add the per-name totals ``agg`` into ``into`` (both from aggregate)."""
    for name, totals in agg.items():
        acc = into.setdefault(name, empty_totals())
        for key, value in totals.items():
            acc[key] += value
    return into
