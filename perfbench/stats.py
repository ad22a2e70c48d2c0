"""The benchmark's arithmetic: percentiles, self time and failure ratios.

Kept free of fedseg and numpy so that it can be tested on its own.
"""

import math
import statistics


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it. No interpolation, so the result is always one of
    the measured values."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values):
    """Median of the samples, or 0.0 when there are none (a layer that the
    workload never enters has no busy time)."""
    return statistics.median(values) if values else 0.0


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if e > start and s < end)
    total, reach = 0.0, start
    for s, e in clipped:
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def self_time(start, end, child_intervals):
    """A span's duration minus the part of it that its child spans cover.

    Children that run in parallel on other threads overlap each other; the
    union is subtracted once, so self time never goes below zero.
    """
    return (end - start) - covered(start, end, child_intervals)


def fail_ratio(failed, attempted):
    """Operations that raised or failed a check, over operations attempted."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


class Tally:
    """Counts operations and the ones that failed.

    check(facts, reference) returns a list of problems; the reference is the
    facts of the run's first operation that produced any, so that every
    later operation must repeat it.
    """

    def __init__(self, check):
        self.check = check
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, facts=None, error=None):
        """One operation: its facts, or the error that stopped it."""
        self.attempted += 1
        if error is not None:
            problems = [error]
        else:
            if self.reference is None:
                self.reference = facts
            problems = self.check(facts, self.reference)
        if problems:
            self.failed += 1
            self.problems.extend(f"op {self.attempted}: {p}" for p in problems)

    @property
    def fail_ratio(self):
        return fail_ratio(self.failed, self.attempted)
