"""Arithmetic of the benchmark: percentiles, means and span self time.

Kept free of I/O so that test_stats.py can pin every function on hand-made
inputs; run.py refuses to report a number if those self-tests fail.
"""

import math
import statistics

# A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10


class Refused(ValueError):
    """A statistic the samples cannot support."""


def median(values):
    if not values:
        raise Refused("median of no samples")
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1): the smallest sample with at least
    a share q of the samples at or below it. Refused unless MIN_BEYOND samples
    rank above it, so p95 needs at least 200 samples."""
    if not 0.0 < q < 1.0:
        raise Refused(f"quantile {q} outside (0, 1)")
    n = len(values)
    rank = math.ceil(q * n - 1e-9)
    if rank < 1 or n - rank < MIN_BEYOND:
        raise Refused(
            f"p{q * 100:g} of {n} samples leaves {n - max(rank, 0)} beyond it, "
            f"fewer than {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def geomean(values):
    if not values:
        raise Refused("geometric mean of no samples")
    if any(v <= 0 for v in values):
        raise Refused("geometric mean needs positive samples")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def mean(values):
    if not values:
        raise Refused("mean of no samples")
    return math.fsum(values) / len(values)


def ratio(numerator, denominator):
    if denominator <= 0:
        raise Refused(f"ratio with denominator {denominator}")
    return numerator / denominator


def union_length(intervals):
    """Total length covered by (start, end) intervals; overlaps count once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(parent, children):
    """A span's duration minus the part of its interval its children cover.

    `parent` and each child are (start, duration); children are clipped to
    the parent's interval and overlapping children are counted once."""
    start, dur = parent
    end = start + dur
    clipped = []
    for c_start, c_dur in children:
        lo, hi = max(start, c_start), min(end, c_start + c_dur)
        if hi > lo:
            clipped.append((lo, hi))
    return dur - union_length(clipped)


def within(parent, spans):
    """Spans of `spans` on the parent's thread whose start lies inside it.

    Spans are (kind, tid, start, duration, ...) lists as the runner exports."""
    _, tid, start, dur = parent[:4]
    return [s for s in spans if s[1] == tid and start <= s[2] < start + dur and s is not parent]
