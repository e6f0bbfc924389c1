"""Summary statistics shared by every workload of the benchmark.

Timings are reported as a median plus a *tail*: the highest percentile
of a fixed ladder that still has at least :data:`TAIL_MIN_BEYOND`
samples beyond it, so a tail is never read off a handful of samples.
"""

from __future__ import annotations

import math
import statistics
import time

#: Percentile ladder a tail is chosen from, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 50.0)

#: Samples that must lie beyond a percentile before it may be the tail.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(round(p * len(sorted_values) / 100.0, 9)))
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


def beyond(count: int, p: float) -> int:
    """Samples ranked after the nearest-rank ``p`` percentile."""
    return count - max(1, math.ceil(round(p * count / 100.0, 9)))


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond
    it among ``count`` samples (``None`` when even the median lacks them)."""
    for p in TAIL_LADDER:
        if beyond(count, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def tail(values, p: float | None = None) -> tuple[float, float]:
    """``(percentile, value)`` of the tail of ``values``.

    ``p`` fixes the percentile (so runs with slightly different sample
    counts report the same one); it is lowered along the ladder when
    this run has too few samples beyond it.  With too few samples for
    any ladder percentile the maximum is returned under percentile 100,
    so the caller can see it is not a real tail.
    """
    ordered = sorted(values)
    best = tail_percentile(len(ordered))
    if best is None:
        return 100.0, float(ordered[-1])
    if p is not None and beyond(len(ordered), p) >= TAIL_MIN_BEYOND:
        best = p
    return best, percentile(ordered, best)



#: :func:`reference_seconds` on the calibration box (2-core VM,
#: Python 3.11) in its usual state.  Timings are reported at this speed.
REFERENCE_NOMINAL_S = 0.0020

_REFERENCE_TEXT = "<li class='item'><b>Acme Widgets</b> 12 Main St, Springfield</li>" * 40


def _reference_work() -> dict:
    counts: dict = {}
    for _ in range(60):
        for piece in _REFERENCE_TEXT.split("<"):
            tag = piece.split(">", 1)[0]
            counts[tag] = counts.get(tag, 0) + len(piece)
    return counts


def reference_seconds(rounds: int = 3) -> float:
    """Best of ``rounds`` timings of a fixed string-and-dict workload that
    calls none of the program: how fast this interpreter runs right now.

    The virtual machines this benchmark runs on change speed by half or
    more over minutes, for every process alike.  Scaling each timing by
    ``REFERENCE_NOMINAL_S / reference_seconds()`` measured just before it
    cancels that drift, while any change in the program's own cost shows
    in full.
    """
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best


def speed_scale() -> float:
    """Factor that turns a duration measured now into one at nominal
    speed (multiply durations by it, divide rates)."""
    return REFERENCE_NOMINAL_S / reference_seconds()
