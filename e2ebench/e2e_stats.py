"""Pure helpers of the end-to-end benchmark: order statistics, step
splitting, span coverage and run-to-run spread.

Nothing here imports the program under test, so the self-tests in
``test_e2e_stats.py`` run without it.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple


def median(values: Iterable[float]) -> float:
    """Median of ``values``; NaN for an empty sample."""
    data = list(values)
    return float(statistics.median(data)) if data else float("nan")


def _rank(pct: float, count: int) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def percentile(values: Iterable[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the sample at or below it."""
    data = sorted(values)
    if not data:
        return float("nan")
    return float(data[_rank(pct, len(data)) - 1])


def tail_percentile(count: int, candidates: Sequence[float] = (99.9, 99.0, 90.0)) -> Optional[float]:
    """The highest candidate percentile that leaves at least ten samples
    above it in a sample of ``count`` values, or ``None`` when none does."""
    for pct in candidates:
        if count - _rank(pct, count) >= 10:
            return pct
    return None


def split_steps(times: Sequence[float], resolved: Sequence[bool]) -> Tuple[List[float], List[float]]:
    """Split per-step times by the replay record's ``resolved`` flag.

    Returns ``(step_times, resolve_times)``.  The two sequences come from
    one replay (the ``on_step`` hook and the result's records), so a
    length mismatch means the hook missed a step and is an error.
    """
    if len(times) != len(resolved):
        raise ValueError(f"{len(times)} step times for {len(resolved)} step records")
    steps = [t for t, flag in zip(times, resolved) if not flag]
    resolves = [t for t, flag in zip(times, resolved) if flag]
    return steps, resolves


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def unattributed_frac(spans: Sequence[dict], root: int) -> float:
    """Share of span ``root``'s wall time not covered by its direct children.

    ``spans`` holds records with ``id``, ``parent``, ``start`` and
    ``end``; children are clipped to the root's interval.
    """
    by_id = {span["id"]: span for span in spans}
    top = by_id[root]
    wall = top["end"] - top["start"]
    if wall <= 0:
        return 0.0
    children = [
        (max(span["start"], top["start"]), min(span["end"], top["end"]))
        for span in spans
        if span["parent"] == root
    ]
    covered = covered_length((start, end) for start, end in children if end > start)
    return max(0.0, 1.0 - covered / wall)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median, the steadiness
    criterion of ``BENCHMARK.json`` bounds."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
