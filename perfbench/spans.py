"""Span recording for traced runs, and the arithmetic over recorded spans.

A span is a list ``[name, start, end, parent]``: the wrapped function's
layer name, perf_counter readings at entry and exit, and the index of the
enclosing span (-1 for none).  Spans stay in memory while the command runs
and are written out once it ends.
"""

from __future__ import annotations

import functools
import math
import time

# Nearest-rank percentile levels a tail is chosen from, in per mille so
# that ranks are exact integer arithmetic.
TAIL_LEVELS_PERMILLE = (500, 750, 900, 950, 990, 999)
# Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


class Recorder:
    """Collects spans and counters from wrapped functions of one process."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._open = [-1]

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, before=None, after=None):
        """fn wrapped in a span called name.

        before(recorder, args) runs ahead of the call and
        after(recorder, args, result) once it returned; both are for
        counters, and after is skipped when fn raises.
        """
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            index = len(spans)
            span = [name, clock(), None, open_spans[-1]]
            spans.append(span)
            open_spans.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_spans.pop()
                span[2] = clock()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper


def covered(intervals, lo=-math.inf, hi=math.inf):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part its direct children cover."""
    children = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - covered(children.get(i, ()), start, end)
            for i, (_name, start, end, _parent) in enumerate(spans)]


def summarize(spans):
    """Per layer name: calls, s (union of its spans) and self_s."""
    own = self_times(spans)
    out = {}
    for (name, start, end, _parent), self_s in zip(spans, own):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                    "intervals": []})
        row["calls"] += 1
        row["self_s"] += self_s
        row["intervals"].append((start, end))
    for row in out.values():
        row["s"] = covered(row.pop("intervals"))
    return out


def tail_percentile(samples):
    """(percentile, value) of the highest level in TAIL_LEVELS_PERMILLE
    with at least TAIL_BEYOND samples beyond its nearest-rank value, or
    None when there are too few samples for any level."""
    xs = sorted(samples)
    n = len(xs)
    best = None
    for permille in TAIL_LEVELS_PERMILLE:
        rank = max(1, -(-permille * n // 1000))
        if n - rank >= TAIL_BEYOND:
            best = (permille / 10, xs[rank - 1])
    return best
