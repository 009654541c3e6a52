"""Per-pair min-congestion LP: the test oracle for the source-aggregated kernel.

One commodity per demanded (s, t) pair, ``k * 2m + 1`` columns, assembled
pair by pair exactly as the library did before it aggregated commodities
by source.  Too slow for production use; kept only to check
:func:`repro.mcf.lp.min_congestion_lp` against an independent model.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


def per_pair_optimum(network, demand) -> float:
    """``opt_{G,R}(demand)`` from the per-pair arc-flow LP."""
    commodities = [(pair, amount) for pair, amount in demand.items() if amount > 0]
    if not commodities:
        return 0.0
    n, edges = network.num_vertices, network.edges
    arcs = [arc for u, v in edges for arc in ((u, v), (v, u))]
    k, num_arcs = len(commodities), len(arcs)
    num_vars = k * num_arcs + 1
    index = network.vertex_index

    eq_rows, eq_cols, eq_vals = [], [], []
    eq_rhs = np.zeros(k * n)
    for c, ((source, target), amount) in enumerate(commodities):
        eq_rhs[c * n + index(source)] = amount
        eq_rhs[c * n + index(target)] = -amount
        for a, (u, v) in enumerate(arcs):
            eq_rows += [c * n + index(u), c * n + index(v)]
            eq_cols += [c * num_arcs + a] * 2
            eq_vals += [1.0, -1.0]
    a_eq = sparse.coo_matrix((eq_vals, (eq_rows, eq_cols)), shape=(k * n, num_vars)).tocsr()

    ub_rows, ub_cols, ub_vals = [], [], []
    for e, edge in enumerate(edges):
        for c in range(k):
            ub_rows += [e, e]
            ub_cols += [c * num_arcs + 2 * e, c * num_arcs + 2 * e + 1]
            ub_vals += [1.0, 1.0]
        ub_rows.append(e)
        ub_cols.append(num_vars - 1)
        ub_vals.append(-network.capacity_of(edge))
    a_ub = sparse.coo_matrix((ub_vals, (ub_rows, ub_cols)), shape=(len(edges), num_vars)).tocsr()

    cost = np.zeros(num_vars)
    cost[-1] = 1.0
    result = linprog(
        cost, A_ub=a_ub, b_ub=np.zeros(len(edges)), A_eq=a_eq, b_eq=eq_rhs,
        bounds=(0, None), method="highs",
    )
    assert result.success, result.message
    return float(result.x[-1])
