"""Summary statistics used by the benchmark report."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
TAIL_WINDOW = 100  # samples per window of a windowed tail


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float  # share of samples at or below ``value``, in percent
    samples: int


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> Tail:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    With too few samples for that, the maximum is reported at percentile 100.
    """
    n = len(values)
    if n == 0:
        return Tail(0.0, 100.0, 0)
    ordered = sorted(values)
    if n <= TAIL_BEYOND:
        return Tail(ordered[-1], 100.0, n)
    index = n - TAIL_BEYOND - 1
    return Tail(ordered[index], 100.0 * (index + 1) / n, n)


def windowed_tail(values: list[float], window: int = TAIL_WINDOW) -> Tail:
    """Median over consecutive windows of ``window`` samples of each window's tail.

    A run shorter than two windows is one window, so its tail is ``tail(values)``.
    Over all samples of a long run the tail would sit at a percentile so high
    that a handful of host scheduling stalls decide it, and it moved by half
    between runs of the same code on a 2-vCPU VM; per-window tails (p90) stay
    about as steady as the median.
    """
    count = len(values) // window
    if count < 2:
        return tail(values)
    tails = [tail(values[i * window:(i + 1) * window]) for i in range(count)]
    return Tail(median([t.value for t in tails]), tails[0].percentile, len(values))
