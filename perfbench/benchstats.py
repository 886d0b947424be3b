"""Order statistics and span arithmetic behind the benchmark's metrics.

Pure functions of plain numbers, so they are tested without the library.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# a tail percentile is reported only when this many samples lie beyond it
MIN_BEYOND = 10


def tail(samples):
    """Highest percentile with at least MIN_BEYOND samples beyond it.

    Returns ``(value, percentile, n)``.  The value is an order statistic of
    the sorted samples, so a percentile of 100 * k / (n - 1) is the k-th
    smallest sample.  Below 2 * MIN_BEYOND + 1 samples no order statistic
    above the median has MIN_BEYOND samples beyond it; the median is then
    returned with percentile 50, so the tail never reads below the median.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    k = n - 1 - MIN_BEYOND
    if k <= (n - 1) / 2:
        return statistics.median(xs), 50.0, n
    return xs[k], 100.0 * k / (n - 1), n


def union_length(intervals) -> float:
    """Total length covered by a set of closed intervals ``(start, end)``."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of each span.

    ``spans`` is a sequence of ``(start, end, parent, leaf_s)``: ``parent`` is
    the index of the enclosing span or None, and ``leaf_s`` is time spent in
    uninstrumented leaf calls made directly from the span (field
    evaluations).  A span's self time is its duration minus the part of its
    interval that its direct children cover, minus ``leaf_s``.
    """
    children = defaultdict(list)
    for s, e, parent, _ in spans:
        if parent is not None:
            children[parent].append((s, e))
    out = []
    for i, (s, e, _, leaf) in enumerate(spans):
        clipped = [(max(cs, s), min(ce, e)) for cs, ce in children.get(i, ())
                   if ce > s and cs < e]
        out.append(max(0.0, (e - s) - union_length(clipped) - leaf))
    return out
