"""The ``repro bench`` harness: one owner for the ``repro-bench/v1`` payload.

Each bench target measures one subsystem: compiled evaluation, rebase,
stream deltas, catalog ingestion, demand estimation, sweep executors,
tracing, ECMP realization, and the scale frontier.  A target is a plain
``bench_<name>(scale, seed)`` function in its own layer's ``bench``
module.  It runs its workload and returns the payload *body*: the
``network`` and ``workload`` blocks, a ``backends`` mapping of legs
ordered reference-first (each leg a :func:`~repro.utils.timing.timing_entry`
record plus its ``backend`` label), and its own gate fields.

This module sits above every layer and adds what all targets share::

    {
      "schema": "repro-bench/v1",
      "name": "linalg",                  # bench target
      "scale": "smoke",                  # smoke | small | full
      "seed": 0,
      "network": {...},                  # the body, in the target's key order
      "workload": {...},
      "backends": {"dict": {...}, "sparse": {...}},
      "speedup_sparse_over_dict": ...,   # speedup targets only
      "max_abs_difference": ...,
      "environment": {"python": ..., "numpy": ..., "scipy": "1.x" | false}
    }

For a speedup target the harness derives ``speedup_<fast>_over_<reference>``
from the first two legs and places it right after ``backends``.  The
other targets report their own figure instead.  :func:`headline` renders
that figure for the CLI summary line and the README table alike.

Keys are only ever added, never renamed, so downstream tooling (the
README performance table, ``tools/check_bench.py``) can rely on them.
"""

from __future__ import annotations

import importlib
import os
import platform
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro.exceptions import LinalgError
from repro.linalg._matrix import HAVE_SCIPY
from repro.utils.serialization import dumps as json_dumps

SCHEMA = "repro-bench/v1"

SCALES = ("smoke", "small", "full")


def _overhead(payload: Dict[str, Any]) -> str:
    return f"{payload['overhead_enabled_pct']:+.1f}% overhead"


def _gap(payload: Dict[str, Any]) -> str:
    return f"{payload['max_gap']:.3f}x max gap"


def _peak(payload: Dict[str, Any]) -> str:
    peak = max(
        point["mem_peak_mb"] for points in payload["curves"].values() for point in points
    )
    return f"{peak:.1f} / {payload['memory_budget_mb']:.0f} MB peak"


class _Target(NamedTuple):
    module: str
    description: str
    #: Renders the headline figure; ``None`` means the target's figure
    #: is the speedup the harness derives from its first two legs.
    figure: Optional[Callable[[Dict[str, Any]], str]] = None


#: name -> where ``bench_<name>`` lives, its ``bench list`` line, and its
#: headline figure.  Modules are imported only when a target runs.
TARGETS: Dict[str, _Target] = {
    "ecmp": _Target(
        "repro.forwarding.bench",
        "fractional-vs-ECMP-realized congestion gaps on the real-topology catalog",
        _gap,
    ),
    "linalg": _Target(
        "repro.linalg.bench", "batched demand evaluation: dict loops vs sparse matmul"
    ),
    "net": _Target(
        "repro.net.bench",
        "real-topology catalog: parse + compile + batch evaluation per entry",
    ),
    "obs": _Target(
        "repro.obs.bench",
        "tracing overhead: untraced vs no-op spans vs a recording tracer",
        _overhead,
    ),
    "odme": _Target(
        "repro.telemetry.bench",
        "demand estimation: NNLS vs entropy-IPF over the real-topology catalog",
    ),
    "rebase": _Target(
        "repro.linalg.bench",
        "post-failure evaluation: renormalize loops vs compiled rebase",
    ),
    "scale": _Target(
        "repro.synth.bench",
        "scale frontier: nodes-vs-seconds/peak-MB curves, tiled vs untiled",
        _peak,
    ),
    "stream": _Target(
        "repro.stream.bench",
        "streaming replay: incremental deltas vs per-step batch recompute",
    ),
    "sweep": _Target(
        "repro.scenarios.bench",
        "sweep executors: shared-memory operators vs rebuild-per-worker engines",
    ),
}


def available() -> List[str]:
    return sorted(TARGETS)


def environment_info() -> Dict[str, Any]:
    """The ``environment`` block closing every payload."""
    scipy_version: Any = False
    if HAVE_SCIPY:
        import scipy

        scipy_version = scipy.__version__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
    }


def run(name: str, scale: str = "small", seed: int = 0) -> Dict[str, Any]:
    """Run one bench target and return its full payload."""
    if name not in TARGETS:
        raise LinalgError(f"unknown bench target {name!r}; available: {available()}")
    if scale not in SCALES:
        raise LinalgError(f"unknown bench scale {scale!r}; available: {list(SCALES)}")
    target = TARGETS[name]
    body = getattr(importlib.import_module(target.module), f"bench_{name}")(scale, seed)
    payload: Dict[str, Any] = {"schema": SCHEMA, "name": name, "scale": scale, "seed": seed}
    for key, value in body.items():
        payload[key] = value
        if key == "backends" and target.figure is None:
            reference, fast = list(value)[:2]
            reference_seconds = value[reference]["seconds"]
            fast_seconds = value[fast]["seconds"]
            payload[f"speedup_{fast}_over_{reference}"] = (
                reference_seconds / fast_seconds if fast_seconds > 0 else None
            )
    payload["environment"] = environment_info()
    return payload


def headline(payload: Dict[str, Any]) -> str:
    """The one-figure summary of a payload: its speedup, or its own figure."""
    figure = TARGETS[payload["name"]].figure
    if figure is not None:
        return figure(payload)
    speedup = next(value for key, value in payload.items() if key.startswith("speedup_"))
    return "n/a speedup" if speedup is None else f"{speedup:.1f}x speedup"


def write(payload: Dict[str, Any], output_dir: str = ".") -> str:
    """Write the payload under ``output_dir``; returns the path.

    Full-scale runs write the canonical ``BENCH_<name>.json`` (the
    committed baselines); other scales write
    ``BENCH_<name>_<scale>.json``, so a casual ``repro bench`` from the
    repository root can never clobber a committed full-scale baseline
    with smaller numbers.
    """
    os.makedirs(output_dir, exist_ok=True)
    scale = payload.get("scale", "full")
    suffix = "" if scale == "full" else f"_{scale}"
    path = os.path.join(output_dir, f"BENCH_{payload['name']}{suffix}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json_dumps(payload) + "\n")
    return path


__all__ = [
    "SCALES",
    "SCHEMA",
    "TARGETS",
    "available",
    "environment_info",
    "headline",
    "run",
    "write",
]
