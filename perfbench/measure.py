"""The benchmark's arithmetic: percentiles, span self time, open-loop
latency and operation counting.

Everything here is pure and deterministic so ``perfbench/tests`` can pin
it on synthetic inputs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# -- percentiles ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it (``q`` in ``(0, 100]``)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100]: {q!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``q`` percentile (ties aside): the support of a tail percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


@dataclass(frozen=True)
class Distribution:
    """Median and p95 of a sample, with the sample count they rest on.

    Built from groups of samples (repeats, or windows of one run), each
    percentile is the median over the groups of that group's percentile:
    a burst of host contention that spoils one group moves it little.
    """

    p50: float
    p95: float
    count: int
    groups: int
    p95_supported: bool

    @classmethod
    def of(cls, groups: Sequence[Sequence[float]]) -> "Distribution":
        groups = [group for group in groups if group]
        if not groups:
            raise ValueError("distribution of no samples")
        return cls(
            p50=median([percentile(group, 50) for group in groups]),
            p95=median([percentile(group, 95) for group in groups]),
            count=sum(len(group) for group in groups),
            groups=len(groups),
            # At least ten samples lie beyond every group's p95.
            p95_supported=all(samples_beyond(len(group), 95) >= 10 for group in groups),
        )


def median(values: Sequence[float]) -> float:
    """Plain median (mean of the middle pair for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


# -- spans ---------------------------------------------------------------------


@dataclass
class SpanTotals:
    """Aggregate of every span sharing one name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def self_times(
    names: Sequence[int],
    parents: Sequence[int],
    starts: Sequence[int],
    ends: Sequence[int],
) -> Tuple[Dict[int, SpanTotals], int]:
    """Per-name call count, total and self time of a span forest.

    Span ``i`` has name id ``names[i]``, runs from ``starts[i]`` to
    ``ends[i]`` and is a child of span ``parents[i]`` (``-1`` for a root).
    A span's self time is its duration minus the durations of its direct
    children: children of one span never overlap on a single thread, so
    their sum is the part of the interval they cover.

    Returns the per-name totals and the summed duration of root spans
    (the time covered by any named span at all).
    """
    count = len(names)
    child_ns = [0] * count
    root_ns = 0
    for index in range(count):
        duration = ends[index] - starts[index]
        parent = parents[index]
        if parent < 0:
            root_ns += duration
        else:
            child_ns[parent] += duration
    totals: Dict[int, SpanTotals] = defaultdict(SpanTotals)
    for index in range(count):
        duration = ends[index] - starts[index]
        entry = totals[names[index]]
        entry.calls += 1
        entry.total_ns += duration
        entry.self_ns += duration - child_ns[index]
    return dict(totals), root_ns


# -- open-loop schedule ------------------------------------------------------------


def conditioned_schedule(times: Sequence[float], window: float) -> List[float]:
    """Rescale arrival times so the last lands exactly at ``window``.

    ``times`` are the first K arrivals of a Poisson stream; given that a
    Poisson process has K arrivals in ``[0, window]``, their positions are
    distributed exactly like ``times`` scaled by ``window / times[-1]``.
    Fixing K keeps the offered work equal across seeds while keeping the
    bursty arrival pattern.
    """
    if not times:
        return []
    if window <= 0 or times[-1] <= 0:
        raise ValueError("window and arrival times must be positive")
    scale = window / times[-1]
    return [when * scale for when in times]


def lateness(due: Sequence[float], actual: Sequence[float]) -> List[float]:
    """How late the generator issued each request (never negative)."""
    if len(due) != len(actual):
        raise ValueError("due and actual schedules differ in length")
    return [max(0.0, sent - when) for when, sent in zip(due, actual)]


def due_latencies(
    due: Dict[str, float], deliveries: Iterable[Tuple[str, float]]
) -> List[float]:
    """Latency of each ``(request id, delivery time)`` from the request's
    *due* time, so a stalled generator's queueing is counted; deliveries
    of requests not in ``due`` are ignored."""
    latencies = []
    for request_id, delivered_at in deliveries:
        when = due.get(request_id)
        if when is not None:
            latencies.append(delivered_at - when)
    return latencies


# -- operations --------------------------------------------------------------------


class OperationLedger:
    """Counts operations -- (rumor, intended receiver) pairs -- and failures.

    A pair fails when it was never delivered or, with ``limit`` set, was
    delivered later than ``limit``; a publish that raised fails every pair
    it intended.
    """

    def __init__(self, limit: Optional[float] = None) -> None:
        self.limit = limit
        self.attempted = 0
        self.failed = 0

    def record(self, receivers: int, latencies: Sequence[float]) -> None:
        """One publish intended for ``receivers`` pairs, delivered with
        ``latencies`` (one per delivered pair)."""
        if len(latencies) > receivers:
            raise ValueError(
                f"{len(latencies)} deliveries for {receivers} intended receivers"
            )
        on_time = (
            len(latencies)
            if self.limit is None
            else sum(1 for latency in latencies if latency <= self.limit)
        )
        self.attempted += receivers
        self.failed += receivers - on_time

    def record_raised(self, receivers: int) -> None:
        """A publish that raised: every intended pair fails."""
        self.attempted += receivers
        self.failed += receivers

    @property
    def delivered_fraction(self) -> float:
        if not self.attempted:
            raise ValueError("no operations attempted")
        return (self.attempted - self.failed) / self.attempted
