"""The ``linalg`` and ``rebase`` bench targets (run through :mod:`repro.bench`).

Each target compares the ``dict`` reference evaluator against the
compiled ``sparse`` backend on a reproducible workload: a shortest-path
routing on a 2-D torus and a batch of random permutation demands.  The
payload records wall time, topology size, achieved demands/sec per
backend, and the measured numerical agreement (``max_abs_difference``).
The harness adds the envelope and the ``speedup_sparse_over_dict`` key.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.demands.generators import random_permutation_demand
from repro.graphs.topologies import torus_2d
from repro.linalg.evaluator import DictEvaluator, build_evaluator
from repro.oblivious.shortest_path import shortest_path_routing
from repro.te.failures import KEdgeFailureProcess
from repro.utils.rng import ensure_rng
from repro.utils.timing import Stopwatch, timing_entry

#: Per-scale (torus side, batch size).  ``full`` is the committed
#: baseline: a 15x15 torus has 225 vertices (>= 200) and the batch holds
#: 1000 demand matrices (>= 1000), matching the acceptance criteria.
_LINALG_SCALES: Dict[str, Tuple[int, int]] = {
    "smoke": (6, 50),
    "small": (10, 200),
    "full": (15, 1000),
}


def _workload(scale: str, seed: int):
    side, num_demands = _LINALG_SCALES[scale]
    network = torus_2d(side)
    routing = shortest_path_routing(network)
    rng = ensure_rng(seed)
    demands = [random_permutation_demand(network, rng=rng) for _ in range(num_demands)]
    return network, routing, demands


def bench_linalg(scale: str = "small", seed: int = 0) -> Dict[str, Any]:
    """Batched demand evaluation: dict loops vs one sparse matmul.

    Routes a batch of random permutation demands through a shortest-path
    routing on a 2-D torus and measures end-to-end congestion evaluation
    per backend (the sparse figure includes demand vectorization but not
    the one-time compile, reported separately as ``compile_seconds``).
    """
    network, routing, demands = _workload(scale, seed)

    dict_evaluator = DictEvaluator(routing, cache_size=1)
    with Stopwatch() as dict_watch:
        dict_congestions = dict_evaluator.congestions(demands)
    dict_seconds = dict_watch.elapsed

    with Stopwatch() as compile_watch:
        sparse_evaluator = build_evaluator(routing, backend="sparse")
    compile_seconds = compile_watch.elapsed
    with Stopwatch() as sparse_watch:
        sparse_congestions = sparse_evaluator.congestions(demands)
    sparse_seconds = sparse_watch.elapsed

    max_diff = float(np.max(np.abs(dict_congestions - sparse_congestions), initial=0.0))
    return {
        "network": {"name": network.name, "n": network.num_vertices, "m": network.num_edges},
        "workload": {
            "num_demands": len(demands),
            "num_pairs": sparse_evaluator.compiled.num_pairs,
            "num_paths": sparse_evaluator.compiled.num_paths,
        },
        "backends": {
            "dict": {
                "backend": "dict",
                **timing_entry(dict_seconds, count=len(demands), rate_key="demands_per_sec"),
            },
            "sparse": {
                "backend": sparse_evaluator.backend,
                **timing_entry(
                    sparse_seconds,
                    count=len(demands),
                    rate_key="demands_per_sec",
                    compile_seconds=compile_seconds,
                ),
            },
        },
        "max_abs_difference": max_diff,
    }


def bench_rebase(scale: str = "small", seed: int = 0) -> Dict[str, Any]:
    """Incremental failure rebase: renormalize loops vs compiled masking.

    Samples k-edge failure events and, per event, re-evaluates the whole
    demand batch on the degraded routing.  The dict side renormalizes
    each pair's surviving distribution per demand (the scenario runner's
    fixed-ratio loop); the sparse side masks failed-edge columns and
    rescales once, then evaluates the batch with one matmul.
    """
    # The dict reference IS the scenario runner's fixed-ratio loop —
    # imported (lazily: scenarios sits above linalg in the layer map),
    # not copied, so the committed speedup always measures the code the
    # sweeps actually run.
    from repro.scenarios.runner import _route_fixed_ratio_degraded
    from repro.te.failures import apply_failure

    network, routing, demands = _workload(scale, seed)
    num_events = {"smoke": 2, "small": 4, "full": 8}[scale]
    process = KEdgeFailureProcess(k=2)
    rng = ensure_rng(seed + 1)
    events = [
        event
        for event in (process.sample(network, rng) for _ in range(num_events * 2))
        if apply_failure(network, event) is not None
    ][:num_events]

    class _FixedRatioStandIn:
        """Duck-typed FixedRatioRouter: the runner loop only reads .routing."""

        def __init__(self, fixed_routing):
            self.routing = fixed_routing

    stand_in = _FixedRatioStandIn(routing)
    dict_results: List[float] = []
    with Stopwatch() as dict_watch:
        for event in events:
            degraded = apply_failure(network, event)
            for demand in demands:
                congestion, _coverage = _route_fixed_ratio_degraded(stand_in, demand, degraded)
                dict_results.append(float("inf") if congestion is None else congestion)
    dict_seconds = dict_watch.elapsed

    sparse_evaluator = build_evaluator(routing, backend="sparse")
    sparse_results: List[float] = []
    with Stopwatch() as sparse_watch:
        # The pair index is shared across rebases: vectorize the batch once.
        batch = sparse_evaluator.demand_matrix(demands)
        for event in events:
            rebased = sparse_evaluator.rebased(event)
            sparse_results.extend(rebased.congestions_from_matrix(batch).tolist())
    sparse_seconds = sparse_watch.elapsed

    finite = [
        abs(a - b)
        for a, b in zip(dict_results, sparse_results)
        if np.isfinite(a) and np.isfinite(b)
    ]
    max_diff = float(max(finite, default=0.0))
    # A backend disagreeing on *coverage* (inf vs finite) would be
    # invisible in the finite-only diff; count those mismatches so the
    # artifact cannot claim agreement while masking a real divergence.
    finiteness_mismatches = sum(
        1
        for a, b in zip(dict_results, sparse_results)
        if np.isfinite(a) != np.isfinite(b)
    )
    evaluations = len(events) * len(demands)
    return {
        "network": {"name": network.name, "n": network.num_vertices, "m": network.num_edges},
        "workload": {
            "num_demands": len(demands),
            "num_events": len(events),
            "num_evaluations": evaluations,
            "num_pairs": sparse_evaluator.compiled.num_pairs,
            "num_paths": sparse_evaluator.compiled.num_paths,
        },
        "backends": {
            "dict": {
                "backend": "dict",
                **timing_entry(dict_seconds, count=evaluations, rate_key="demands_per_sec"),
            },
            "sparse": {
                "backend": sparse_evaluator.backend,
                **timing_entry(sparse_seconds, count=evaluations, rate_key="demands_per_sec"),
            },
        },
        "max_abs_difference": max_diff,
        "finiteness_mismatches": finiteness_mismatches,
    }


__all__ = ["bench_linalg", "bench_rebase"]
