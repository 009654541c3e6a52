"""Exact min-congestion multicommodity flow via linear programming.

The offline optimum ``opt_{G,R}(d)`` (Section 4) is the value of the LP

.. math::

    \\min z \\quad \\text{s.t.} \\quad
    \\sum_k (f_k(u,v) + f_k(v,u)) \\le z \\cdot c(u,v) \\;\\forall \\{u,v\\},
    \\qquad f_k \\text{ routes } d_k \\text{ units from } s_k \\text{ to } t_k.

**Source aggregation.**  Commodities that share a source ``s`` are merged
into one arc flow ``f_s`` that leaves ``s`` with ``sum_t d(s, t)`` units
and is absorbed with ``d(s, t)`` units at every destination ``t``.  This
is exact for fractional min-congestion: summing the per-pair flows of one
source gives a feasible ``f_s`` with the same edge loads, and conversely
every ``f_s`` decomposes (flow decomposition) into per-destination path
flows whose edge loads are at most those of ``f_s``.  Both LPs therefore
have the same optimum, and the aggregated one has ``S * 2m + 1`` columns
(``S`` demanded sources, ``m`` edges) instead of ``k * 2m + 1`` for ``k``
pairs.  With the node-arc incidence ``B`` (``n x 2m``) and the map ``E``
from arcs to undirected edges (``m x 2m``) the model is
``A_eq = kron(I_S, B)`` and ``L = kron(1_S^T, E)``, assembled with
:mod:`scipy.sparse` and numpy only.

That model and the Stage-4 path LP (:mod:`repro.mcf.path_lp`) are both
instances of ``min z s.t. A_eq x = b, L x <= z c, x >= 0``, solved by the
one kernel :func:`solve_min_congestion` (HiGHS).  With
``return_routing=True`` each source's optimal flow is split back into
per-destination path distributions (:func:`_decompose_by_source`), so the
optimum can be *used*, not just reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

try:
    from scipy import sparse
    from scipy.optimize import linprog
except ImportError:  # pragma: no cover - scipy ships via the [lp] extra
    sparse = None
    linprog = None

from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import InfeasibleError, SolverError
from repro.graphs.network import Network, Vertex
from repro.obs import trace_span

#: Relative tolerance on the demand each pair receives from the flow
#: decomposition; a larger gap is a solver or decomposition failure.
DECOMPOSITION_TOLERANCE = 1e-9


@dataclass
class MinCongestionResult:
    """Result of the min-congestion LP.

    Attributes
    ----------
    congestion:
        The optimal maximum edge congestion ``opt_{G,R}(d)``.
    routing:
        An optimal fractional routing (``None`` unless requested).
    edge_congestions:
        Per-edge congestion of the optimal flow.
    """

    congestion: float
    routing: Optional[Routing]
    edge_congestions: Dict[Tuple[Vertex, Vertex], float]


def solve_min_congestion(
    name: str,
    assemble: Callable[[], Tuple[object, np.ndarray, object, np.ndarray]],
    **attrs,
) -> Tuple[np.ndarray, float, object]:
    """Solve ``min z s.t. A_eq x = b, L x <= z c, x >= 0`` with HiGHS.

    ``assemble()`` returns ``(A_eq, b, L, c)`` as sparse matrices and
    vectors over the flow columns ``x``; the kernel appends the ``z``
    column.  Everything runs under a ``name`` span whose ``name_setup``
    child times the assembly and ``name_solve`` child the solve; the span
    records the model size (rows, columns, nnz), HiGHS' iteration count
    and status, and the caller's ``attrs``.  Returns ``(x, z, L)``.

    Raises
    ------
    InfeasibleError
        When the equality system has no non-negative solution.
    SolverError
        When scipy is missing or HiGHS fails for any other reason.
    """
    if linprog is None:
        raise SolverError(
            "scipy is required for LP solving; install the 'lp' extra "
            "(pip install repro-semi-oblivious-routing[lp])"
        )
    with trace_span(name, **attrs) as span:
        with trace_span(name + "_setup"):
            a_eq, b_eq, loads, capacities = assemble()
            num_rows, num_columns = loads.shape
            z_column = sparse.csr_matrix(-capacities[:, None])
            a_ub = sparse.hstack([loads, z_column], format="csr")
            a_eq = sparse.hstack([a_eq, sparse.csr_matrix((a_eq.shape[0], 1))], format="csr")
            cost = np.zeros(num_columns + 1)
            cost[-1] = 1.0
        span.set("rows", a_eq.shape[0] + num_rows)
        span.set("columns", num_columns + 1)
        span.set("nnz", int(a_eq.nnz + a_ub.nnz))
        with trace_span(name + "_solve"):
            result = linprog(
                cost,
                A_ub=a_ub,
                b_ub=np.zeros(num_rows),
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=(0, None),
                method="highs",
            )
        span.set("nit", int(result.nit))
        span.set("status", int(result.status))
    if result.status == 2:
        raise InfeasibleError(f"{name} is infeasible (disconnected demand?)")
    if not result.success:
        raise SolverError(f"{name} failed: {result.message}")
    return result.x[:-1], float(result.x[-1]), loads


def min_congestion_lp(
    network: Network,
    demand: Demand,
    return_routing: bool = False,
) -> MinCongestionResult:
    """Solve the exact fractional min-congestion MCF for ``demand``.

    Parameters
    ----------
    network:
        The network (capacities taken from edge attributes).
    demand:
        The demand matrix; an empty demand yields congestion 0.
    return_routing:
        When True, decompose the optimal flow into per-commodity path
        distributions and return them as a :class:`Routing`.

    Raises
    ------
    InfeasibleError
        When some demanded pair is disconnected.
    SolverError
        When the solve fails, or the decomposition of the optimal flow
        misses some pair's demand by more than
        :data:`DECOMPOSITION_TOLERANCE` (relative).
    """
    commodities = [(pair, amount) for pair, amount in demand.items() if amount > 0]
    if not commodities:
        return MinCongestionResult(congestion=0.0, routing=None, edge_congestions={})

    n = network.num_vertices
    edges = network.edges
    m = len(edges)
    vertex_index = network.vertex_index
    source_of = np.array([vertex_index(s) for (s, _), _ in commodities])
    target_of = np.array([vertex_index(t) for (_, t), _ in commodities])
    amounts = np.array([amount for _, amount in commodities])
    sources, block_of = np.unique(source_of, return_inverse=True)
    num_sources = len(sources)
    capacities = np.array([network.capacity_of(edge) for edge in edges])
    # Arc 2e runs edges[e] forward, arc 2e + 1 backward.
    tails = np.array([vertex_index(u) for u, _ in edges], dtype=np.int64)
    heads = np.array([vertex_index(v) for _, v in edges], dtype=np.int64)
    arc_tail = np.empty(2 * m, dtype=np.int64)
    arc_tail[0::2], arc_tail[1::2] = tails, heads
    arc_head = np.empty(2 * m, dtype=np.int64)
    arc_head[0::2], arc_head[1::2] = heads, tails

    def assemble():
        arcs = np.arange(2 * m)
        incidence = sparse.csr_matrix(
            (
                np.concatenate([np.ones(2 * m), -np.ones(2 * m)]),
                (np.concatenate([arc_tail, arc_head]), np.concatenate([arcs, arcs])),
            ),
            shape=(n, 2 * m),
        )
        arc_edge = sparse.csr_matrix((np.ones(2 * m), (arcs // 2, arcs)), shape=(m, 2 * m))
        a_eq = sparse.kron(sparse.identity(num_sources, format="csr"), incidence, format="csr")
        loads = sparse.kron(np.ones((1, num_sources)), arc_edge, format="csr")
        b_eq = np.zeros(num_sources * n)
        np.add.at(b_eq, block_of * n + source_of, amounts)
        np.add.at(b_eq, block_of * n + target_of, -amounts)
        return a_eq, b_eq, loads, capacities

    flows, congestion, loads = solve_min_congestion(
        "mcf.lp", assemble, sources=num_sources, commodities=len(commodities)
    )
    edge_congestions = dict(zip(edges, (loads @ flows / capacities).tolist()))

    routing = None
    if return_routing:
        routing = _decompose_by_source(
            network, commodities, block_of, source_of, target_of,
            flows.reshape(num_sources, 2 * m), arc_tail, arc_head,
        )

    return MinCongestionResult(
        congestion=congestion,
        routing=routing,
        edge_congestions=edge_congestions,
    )


def _decompose_by_source(
    network, commodities, block_of, source_of, target_of, flows, arc_tail, arc_head
) -> Routing:
    """Split every source's optimal flow into per-destination path distributions.

    Opposite arcs are cancelled first.  A walk from the source then
    follows the widest remaining arc: reaching a destination that still
    needs flow peels the walked path off (bottleneck capped by that need),
    revisiting a vertex cancels the cycle just closed, and a dead end
    (solver residue) drops its last arc.  Every step zeroes an arc or a
    need, so the loop ends; no path carries more than the flow did, so
    edge loads never exceed the optimum.  A pair whose peeled paths carry
    other than its demand (beyond :data:`DECOMPOSITION_TOLERANCE`,
    relative) raises :class:`SolverError` instead of being renormalised.
    """
    vertices = network.vertices
    peeled: Dict[int, Dict[Tuple[int, ...], float]] = {}
    for block, flow in enumerate(flows):
        members = np.flatnonzero(block_of == block)
        source = int(source_of[members[0]])
        need = {int(target_of[i]): commodities[i][1] for i in members}
        settled = {target: 1e-12 * amount for target, amount in need.items()}
        # Arcs at the solver's noise floor carry no flow worth a path.
        floor = 1e-14 * sum(need.values())
        net = flow[0::2] - flow[1::2]
        outgoing: Dict[int, Dict[int, float]] = {}
        for edge in np.flatnonzero(np.abs(net) > floor):
            arc = 2 * edge if net[edge] > 0 else 2 * edge + 1
            outgoing.setdefault(int(arc_tail[arc]), {})[int(arc_head[arc])] = abs(float(net[edge]))
        paths: Dict[int, Dict[Tuple[int, ...], float]] = {target: {} for target in need}

        def subtract(walk: List[int], amount: float) -> None:
            for u, v in zip(walk, walk[1:]):
                left = outgoing[u][v] - amount
                if left > floor:
                    outgoing[u][v] = left
                else:
                    del outgoing[u][v]

        while outgoing.get(source) and any(need[t] > settled[t] for t in need):
            walk = [source]
            position = {source: 0}
            while True:
                here = walk[-1]
                if here in need and need[here] > settled[here]:
                    amount = min(need[here], min(outgoing[u][v] for u, v in zip(walk, walk[1:])))
                    subtract(walk, amount)
                    need[here] -= amount
                    path = tuple(walk)
                    paths[here][path] = paths[here].get(path, 0.0) + amount
                    break
                arcs = outgoing.get(here)
                if not arcs:
                    del outgoing[walk[-2]][here]  # dead end: solver residue
                    break
                step = max(arcs, key=arcs.get)
                if step in position:
                    cycle = walk[position[step]:] + [step]
                    subtract(cycle, min(outgoing[u][v] for u, v in zip(cycle, cycle[1:])))
                    break
                position[step] = len(walk)
                walk.append(step)
        for i in members:
            peeled[int(i)] = paths[int(target_of[i])]

    distributions = {}
    for i, ((s, t), amount) in enumerate(commodities):
        total = sum(peeled[i].values())
        if not abs(total - amount) <= DECOMPOSITION_TOLERANCE * amount:
            raise SolverError(
                f"flow decomposition for pair {(s, t)!r} left {amount - total:.3g} "
                f"of {amount:.6g} undecomposed"
            )
        distributions[(s, t)] = {
            tuple(vertices[v] for v in path): weight / total for path, weight in peeled[i].items()
        }
    return Routing(network, distributions)


def optimal_congestion(network: Network, demand: Demand) -> float:
    """Shortcut returning only ``opt_{G,R}(d)``."""
    return min_congestion_lp(network, demand, return_routing=False).congestion


__all__ = [
    "DECOMPOSITION_TOLERANCE",
    "min_congestion_lp",
    "MinCongestionResult",
    "optimal_congestion",
    "solve_min_congestion",
]
