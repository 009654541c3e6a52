"""Multicommodity-flow solvers.

The paper compares semi-oblivious routings against the offline optimum
``opt_{G,R}(d)``: the minimum achievable maximum edge congestion over all
fractional routings of the demand.  This package provides:

* :func:`~repro.mcf.lp.min_congestion_lp` — the exact arc-flow LP,
  returning both the optimum value and an optimal routing (via flow
  decomposition).  Commodities are aggregated by source: one flow per
  demanded source ``s`` leaves ``s`` with ``sum_t d(s, t)`` and is
  absorbed with ``d(s, t)`` at each ``t``.  This is exact for fractional
  min-congestion (summing a source's per-pair flows is feasible for the
  aggregated LP, and every aggregated flow decomposes into per-pair paths
  with no more load), and it has ``S * 2m + 1`` columns instead of
  ``k * 2m + 1``,
* :func:`~repro.mcf.path_lp.min_congestion_on_paths` — the path-based LP
  restricted to a candidate path system (this computes ``cong_R(P, d)``,
  the Stage-4 adaptive rate optimization),
* :func:`~repro.mcf.lp.solve_min_congestion` — the one kernel both LPs
  call: ``min z s.t. A_eq x = b, L x <= z c, x >= 0`` on scipy.sparse
  matrices, solved by HiGHS,
* :func:`~repro.mcf.mwu.approximate_min_congestion` — a Garg–Könemann /
  Fleischer multiplicative-weights approximation, used for large
  instances and as an LP-free cross-check,
* :func:`~repro.mcf.integral.exact_integral_optimum` — brute-force
  integral optimum for tiny instances (used by lower-bound tests).
"""

from repro.mcf.lp import min_congestion_lp, MinCongestionResult, solve_min_congestion
from repro.mcf.path_lp import min_congestion_on_paths, PathLPResult
from repro.mcf.mwu import approximate_min_congestion
from repro.mcf.integral import exact_integral_optimum

__all__ = [
    "min_congestion_lp",
    "MinCongestionResult",
    "solve_min_congestion",
    "min_congestion_on_paths",
    "PathLPResult",
    "approximate_min_congestion",
    "exact_integral_optimum",
]
