"""Pure helpers the benchmark reports with: quantiles and the sample rule,
self time of a span, and classification of readings at the sink.

Nothing here imports the code under test, so the helpers can be unit
tested on their own (see ``bench/tests``).
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # a percentile is supported when this many samples lie beyond it


def quantile(values, q: float) -> float:
    """The q-quantile with linear interpolation between closest ranks.

    This is the "linear" rule of most statistics packages: position
    q * (n - 1) in the sorted sample. An empty sample gives NaN.
    """
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-quantile's position."""
    if n <= 0:
        return 0
    return n - 1 - math.floor(q * (n - 1))


def supported(n: int, q: float) -> bool:
    """Whether n samples support the q-quantile: at least MIN_BEYOND beyond it."""
    return samples_beyond(n, q) >= MIN_BEYOND


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it that its children cover.

    Children may overlap each other and may reach outside the parent;
    only the union of their intervals clipped to [start, end] counts.
    """
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)
    )
    covered = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return (end - start) - covered


TIMED = "timed"
SUPERSEDED = "superseded"
FAILED = "failed"


def classify(sent, seen) -> list[str]:
    """Outcome of each value sent to one sensor, in sending order.

    A value the sink observed is timed. A value it never observed is
    superseded when a later value of the same sensor was observed (the
    broker or the agent coalesced it away), and failed otherwise: the
    sensor never reached that value or any newer one.
    """
    outcomes = [FAILED] * len(sent)
    later_seen = False
    for index in range(len(sent) - 1, -1, -1):
        if sent[index] in seen:
            outcomes[index] = TIMED
            later_seen = True
        elif later_seen:
            outcomes[index] = SUPERSEDED
    return outcomes
