"""Order statistics and failure counting shared by every workload.

A tail percentile is reported only when at least ten samples lie beyond it,
so a p90 needs 100 samples and a p99 needs 1000.  Percentiles use the
nearest-rank definition; the median is the usual interpolated one.
"""

import math
import statistics

MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank q-quantile (0 < q < 1) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def beyond(count, q):
    """How many of ``count`` samples rank above the nearest-rank q-quantile."""
    return count - max(1, math.ceil(q * count))


def min_samples(q):
    """Smallest sample count whose q-quantile has MIN_BEYOND samples beyond it."""
    count = 1
    while beyond(count, q) < MIN_BEYOND:
        count += 1
    return count


def tail_percentile(samples, q):
    """The q-quantile, or None when fewer than MIN_BEYOND samples lie beyond it."""
    if beyond(len(samples), q) < MIN_BEYOND:
        return None
    return percentile(samples, q)


def median(samples):
    return statistics.median(samples)


class Tally:
    """Operations attempted and failed; a failure keeps a one-line reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)
        return ok

    @property
    def error_rate(self):
        """Failed over attempted; 0.0 before anything was attempted."""
        return self.failed / self.attempted if self.attempted else 0.0
