"""Streaming reductions: rolling-window congestion statistics.

Batch metrics (:mod:`repro.te.metrics`) reduce a complete edge-load
array; a stream produces one utilization array per timestep and must
aggregate *as it goes*.  :class:`RollingStreamStats` is that streaming
reduction: it consumes one per-step observation at a time, keeps a
bounded window of recent congestion values, and maintains O(1) running
aggregates — no per-step history is retained unless the caller keeps
the returned records.

Per step it reports max utilization (the congestion), p95/p99 edge
utilization, the windowed maximum congestion, and whether the step
exceeded the utilization threshold; the final :meth:`summary` adds the
cumulative/mean/peak congestion and the fraction of time spent above
the threshold.

The percentiles are numpy's default ``linear`` method (Hyndman–Fan
type 7), bit-identical to ``np.percentile(u, PERCENTILES)`` without its
per-call overhead.  For ``n`` values and ``q = level / 100`` the
virtual index is ``(n - 1) * q``.  Below the top it interpolates
between ``a`` and ``b``, the order statistics at ``floor(virtual)`` and
``floor(virtual) + 1``, with weight ``t = virtual - floor(virtual)``.
At the top (``virtual >= n - 1``) numpy marks both indices ``-1``, so
``a = b`` is the maximum and ``t = virtual + 1``.  With
``diff = b - a`` the value is ``b - diff * (1 - t)`` when ``t >= 0.5``
and ``a + diff * t`` otherwise: ``[inf]`` gives NaN, ``[-0.0]`` gives
``-0.0``, and a NaN anywhere gives NaN.  The order statistics come from
one ``np.partition`` at numpy's own partition points, not a full sort,
so tied zeros of opposite sign land where numpy puts them (that decides
the sign of a zero percentile).
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import StreamError

#: Edge-utilization percentiles reported per step.
PERCENTILES = (95.0, 99.0)


@lru_cache(maxsize=32)
def _percentile_plan(n: int) -> Tuple[np.ndarray, Tuple[Tuple[int, int, float], ...]]:
    """numpy's partition points and ``(low, high, weight)`` per level for ``n`` values."""
    top = n - 1
    kth = [0, -1]
    steps = []
    for level in PERCENTILES:
        virtual = top * (level / 100)
        if virtual >= top:
            low = high = -1  # numpy's marker for the clamped index
        else:
            low = math.floor(virtual)
            high = low + 1
        kth += [low, high]
        steps.append((low, high, virtual - low))
    kth = np.unique(kth)
    kth.setflags(write=False)  # cached and shared by every caller
    return kth, tuple(steps)


def _linear_percentiles(values: np.ndarray) -> List[float]:
    """``np.percentile(values, PERCENTILES)`` bit for bit (see module doc)."""
    values = values.ravel()
    kth, steps = _percentile_plan(len(values))
    ordered = np.partition(values, kth)
    if math.isnan(ordered[-1]):
        return [math.nan for _ in PERCENTILES]
    result = []
    for low, high, weight in steps:
        a, b = float(ordered[low]), float(ordered[high])
        diff = b - a
        result.append(b - diff * (1 - weight) if weight >= 0.5 else a + diff * weight)
    return result


class RollingStreamStats:
    """Rolling-window congestion statistics over a metric stream.

    Parameters
    ----------
    window:
        Number of recent steps the windowed maximum covers.
    threshold:
        Utilization level defining "overloaded": steps whose congestion
        strictly exceeds it count toward ``time_above_threshold``.
    track_loads:
        Keep the raw per-edge load vector of the last ``window`` steps
        (O(window · m) state instead of O(window)).  Enables
        :meth:`windowed_mean_loads`, the input to windowed demand
        estimation (:mod:`repro.telemetry.windowed`).
    """

    def __init__(
        self, window: int = 16, threshold: float = 1.0, track_loads: bool = False
    ) -> None:
        if window < 1:
            raise StreamError(f"rolling window must cover at least one step, got {window}")
        if threshold <= 0:
            raise StreamError(f"utilization threshold must be positive, got {threshold}")
        self.window = int(window)
        self.threshold = float(threshold)
        self.track_loads = bool(track_loads)
        self._recent: Deque[float] = deque(maxlen=self.window)
        self._recent_loads: Deque[np.ndarray] = deque(maxlen=self.window)
        self._steps = 0
        self._above = 0
        self._cumulative = 0.0
        self._peak = 0.0

    @property
    def num_steps(self) -> int:
        return self._steps

    def observe(
        self,
        congestion: float,
        utilizations: Optional[np.ndarray] = None,
        loads: Optional[np.ndarray] = None,
    ) -> Dict[str, Any]:
        """Absorb one step; returns the step's metric record.

        ``congestion`` is the step's max utilization (may be ``inf``
        when coverage was lost); ``utilizations`` is the per-edge
        utilization array used for the percentile figures (omitted →
        percentiles are reported as the congestion itself, the only
        consistent degenerate value).  ``loads`` is the raw per-edge
        load vector, retained in the window only when the stats were
        built with ``track_loads=True``.
        """
        congestion = float(congestion)
        self._recent.append(congestion)
        if self.track_loads and loads is not None:
            self._recent_loads.append(np.array(loads, dtype=float, copy=True))
        self._steps += 1
        self._cumulative += congestion
        self._peak = max(self._peak, congestion)
        above = congestion > self.threshold
        if above:
            self._above += 1
        if utilizations is not None and np.size(utilizations):
            percentiles = _linear_percentiles(np.asarray(utilizations, dtype=float))
        else:
            percentiles = [congestion for _ in PERCENTILES]
        record: Dict[str, Any] = {
            "step": self._steps - 1,
            "congestion": congestion,
            "windowed_max_congestion": max(self._recent),
            "above_threshold": bool(above),
        }
        for level, value in zip(PERCENTILES, percentiles):
            record[f"p{level:g}_utilization"] = float(value)
        return record

    def windowed_mean_loads(self) -> Optional[np.ndarray]:
        """Mean per-edge load over the tracked window.

        ``None`` when load tracking is off or nothing was observed yet —
        callers needing estimation input should treat that as "run the
        stream with ``track_loads=True``".
        """
        if not self.track_loads or not self._recent_loads:
            return None
        return np.mean(np.stack(tuple(self._recent_loads)), axis=0)

    def summary(self) -> Dict[str, Any]:
        """Aggregates over every observed step (streaming; O(1) state)."""
        steps = self._steps
        return {
            "num_steps": steps,
            "window": self.window,
            "threshold": self.threshold,
            "cumulative_congestion": self._cumulative,
            "mean_congestion": self._cumulative / steps if steps else 0.0,
            "peak_congestion": self._peak,
            "time_above_threshold": self._above / steps if steps else 0.0,
            "windowed_max_congestion": max(self._recent) if self._recent else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"RollingStreamStats(window={self.window}, threshold={self.threshold}, "
            f"steps={self._steps})"
        )


__all__ = ["RollingStreamStats", "PERCENTILES"]
