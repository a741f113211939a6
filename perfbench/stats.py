"""Arithmetic the benchmark reports with: percentiles, rates, spreads.

Pure Python, no numpy, so the tests of this file run without the
package under test.
"""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, the value is set by a handful of outliers.
TAIL_BEYOND = 10


def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must lie in (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(p * len(ordered) / 100)
    return ordered[rank - 1]


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - math.ceil(p * n / 100)


def tail_percentile(samples, p):
    """The p-th percentile, or None when fewer than TAIL_BEYOND samples
    lie beyond it."""
    if beyond(len(samples), p) < TAIL_BEYOND:
        return None
    return percentile(samples, p)


def failed_ratio(failed, attempted):
    """Failures over attempts; every attempt counts, failed or not."""
    if attempted < 1:
        raise ValueError("failed_ratio needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def rate(count, seconds):
    if seconds <= 0:
        raise ValueError("rate over a non-positive duration")
    return count / seconds


def overhead_pct(untraced_rate, traced_rate):
    """How much slower the traced units ran, as % of the untraced rate."""
    return 100.0 * (untraced_rate - traced_rate) / untraced_rate


def quartile_spread(values):
    """(median, (Q3 - Q1) / median) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2
