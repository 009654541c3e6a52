"""Min-congestion routing restricted to a candidate path system.

This is the Stage-4 computation of the paper: once the demand is
revealed, the semi-oblivious router optimizes the split of each pair's
demand over its pre-installed candidate paths so as to minimize the
maximum edge congestion.  Formally it computes

.. math::

    cong_R(P, d) = \\min_{R \\text{ a routing on } P} cong(R, d)

(Definition 5.1) via the path-based LP with one variable per (pair,
candidate path) plus the congestion variable ``z``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

try:
    from scipy import sparse
except ImportError:  # pragma: no cover - scipy ships via the [lp] extra
    sparse = None

from repro.core.path_system import PathSystem
from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import InfeasibleError
from repro.graphs.network import Path, Vertex, path_edges
from repro.mcf.lp import solve_min_congestion


@dataclass
class PathLPResult:
    """Result of the path-restricted min-congestion LP.

    Attributes
    ----------
    congestion:
        ``cong_R(P, d)`` — the best congestion achievable on the system.
    routing:
        The optimal routing on the path system (``None`` for empty demands).
    edge_congestions:
        Per-edge congestion under the optimal rates.
    """

    congestion: float
    routing: Optional[Routing]
    edge_congestions: Dict[Tuple[Vertex, Vertex], float]


def min_congestion_on_paths(
    system: PathSystem,
    demand: Demand,
    return_routing: bool = True,
) -> PathLPResult:
    """Optimally split ``demand`` over the candidate paths of ``system``.

    One column per (pair, candidate path) in demand and system order, one
    equality row per pair (its path weights sum to its demand) and one
    load row per edge, solved by the shared kernel
    :func:`~repro.mcf.lp.solve_min_congestion` under an ``mcf.path_lp``
    span.

    Raises
    ------
    InfeasibleError
        When some demanded pair has no candidate path in the system.
    """
    network = system.network
    commodities: List[Tuple[Tuple[Vertex, Vertex], float, List[Path]]] = []
    for pair, amount in demand.items():
        if amount <= 0:
            continue
        paths = system.paths(*pair)
        if not paths:
            raise InfeasibleError(f"path system has no candidate path for pair {pair!r}")
        commodities.append((pair, amount, paths))
    if not commodities:
        return PathLPResult(congestion=0.0, routing=None, edge_congestions={})

    edges = network.edges
    capacities = np.array([network.capacity_of(edge) for edge in edges])
    counts = np.array([len(paths) for _, _, paths in commodities])
    num_paths = int(counts.sum())

    def assemble():
        a_eq = sparse.csr_matrix(
            (np.ones(num_paths), (np.repeat(np.arange(len(commodities)), counts), np.arange(num_paths))),
            shape=(len(commodities), num_paths),
        )
        edge_ids = list(
            chain.from_iterable(system.path_edge_indices(*pair) for pair, _, _ in commodities)
        )
        hops = np.array([len(ids) for ids in edge_ids])
        rows = np.fromiter(chain.from_iterable(edge_ids), dtype=np.int64, count=int(hops.sum()))
        loads = sparse.csr_matrix(
            (np.ones(len(rows)), (rows, np.repeat(np.arange(num_paths), hops))),
            shape=(len(edges), num_paths),
        )
        amounts = np.array([amount for _, amount, _ in commodities])
        return a_eq, amounts, loads, capacities

    weights, congestion, loads = solve_min_congestion(
        "mcf.path_lp", assemble, commodities=len(commodities), paths=num_paths
    )
    kept = np.where(weights > 1e-12, weights, 0.0)
    values = kept.tolist()
    distributions = {}
    start = 0
    for pair, amount, paths in commodities:
        stop = start + len(paths)
        block = values[start:stop]
        if not any(block):
            # Degenerate LP output; route everything on the first path
            # (``kept`` too, so the edge loads below agree).
            block[0] = kept[start] = amount
        shares = {path: weight for path, weight in zip(paths, block) if weight > 0}
        total = sum(shares.values())
        distributions[pair] = {path: weight / total for path, weight in shares.items()}
        start = stop
    edge_loads = loads @ kept
    edge_congestions = {
        edges[index]: float(edge_loads[index] / capacities[index])
        for index in np.flatnonzero(edge_loads > 0)
    }
    routing = Routing(network, distributions) if return_routing else None

    return PathLPResult(
        congestion=congestion,
        routing=routing,
        edge_congestions=edge_congestions,
    )


def greedy_rates(system: PathSystem, demand: Demand, iterations: int = 200) -> PathLPResult:
    """An LP-free approximate rate adaptation (iterative load balancing).

    Starts from an even split per pair, then repeatedly moves a small
    fraction of every pair's traffic from its currently most congested
    candidate path to its least congested one.  Used as a cross-check and
    as a fast fallback for very large instances.
    """
    network = system.network
    commodities = []
    for pair, amount in demand.items():
        if amount <= 0:
            continue
        paths = system.paths(*pair)
        if not paths:
            raise InfeasibleError(f"path system has no candidate path for pair {pair!r}")
        commodities.append((pair, amount, paths))
    if not commodities:
        return PathLPResult(congestion=0.0, routing=None, edge_congestions={})

    weights: Dict[Tuple[Tuple[Vertex, Vertex], Path], float] = {}
    for pair, amount, paths in commodities:
        for path in paths:
            weights[(pair, path)] = amount / len(paths)

    edge_capacity = {edge: network.capacity_of(edge) for edge in network.edges}

    def edge_loads() -> Dict[Tuple[Vertex, Vertex], float]:
        loads: Dict[Tuple[Vertex, Vertex], float] = {}
        for (pair, path), weight in weights.items():
            if weight <= 0:
                continue
            for edge in path_edges(path):
                loads[edge] = loads.get(edge, 0.0) + weight
        return loads

    step = 0.25
    for _ in range(iterations):
        loads = edge_loads()
        improved = False
        for pair, amount, paths in commodities:
            if len(paths) < 2:
                continue

            def path_cost(path: Path) -> float:
                return max(
                    (loads.get(edge, 0.0) / edge_capacity[edge] for edge in path_edges(path)),
                    default=0.0,
                )

            worst = max(paths, key=path_cost)
            best = min(paths, key=path_cost)
            if path_cost(worst) <= path_cost(best) + 1e-12 or worst == best:
                continue
            move = step * weights[(pair, worst)]
            if move <= 1e-15:
                continue
            weights[(pair, worst)] -= move
            weights[(pair, best)] += move
            for edge in path_edges(worst):
                loads[edge] = loads.get(edge, 0.0) - move
            for edge in path_edges(best):
                loads[edge] = loads.get(edge, 0.0) + move
            improved = True
        if not improved:
            break
        step = max(step * 0.97, 0.02)

    loads = edge_loads()
    edge_congestions = {edge: load / edge_capacity[edge] for edge, load in loads.items()}
    congestion = max(edge_congestions.values(), default=0.0)
    distributions = {}
    for pair, amount, paths in commodities:
        pair_weights = {path: weights[(pair, path)] for path in paths if weights[(pair, path)] > 1e-15}
        total = sum(pair_weights.values())
        if total <= 0:
            pair_weights = {paths[0]: 1.0}
            total = 1.0
        distributions[pair] = {path: weight / total for path, weight in pair_weights.items()}
    routing = Routing(network, distributions)
    return PathLPResult(congestion=congestion, routing=routing, edge_congestions=edge_congestions)


__all__ = ["min_congestion_on_paths", "greedy_rates", "PathLPResult"]
