"""repro.linalg — compiled sparse linear-algebra evaluation backend.

Turns a :class:`~repro.core.routing.Routing` into immutable index arrays
plus a CSR path × edge incidence matrix and a pair × path distribution
matrix, so that edge loads for a whole demand matrix become one sparse
matmul and congestion / dilation / utilization metrics become vectorized
reductions.  Exposed to the rest of the package as pluggable evaluator
backends (``dict`` reference loops vs compiled ``sparse``/``dense``)::

    from repro.linalg import build_evaluator

    evaluator = build_evaluator(routing, backend="sparse")
    evaluator.congestion(demand)          # one demand
    evaluator.congestions(demands)        # whole batch, one matmul
    evaluator.rebased(event)              # post-failure, no recompile

Selected throughout the stack via ``RoutingEngine(backend=...)``,
``te/metrics`` keyword arguments, ``run_suite(..., backend=...)`` and
the ``--backend`` CLI flags.  ``repro bench`` (the :mod:`repro.bench`
harness) emits the ``BENCH_*.json`` performance baselines; the
``linalg`` and ``rebase`` targets comparing the backends live in
:mod:`repro.linalg.bench`, imported on demand (the rebase target pulls
in the ``te``/``scenarios`` layers above this package, so it is not
loaded here).
"""

from repro.linalg._matrix import HAVE_SCIPY
from repro.linalg.compiled import CompiledRouting
from repro.linalg.evaluator import (
    BACKENDS,
    BACKEND_CHOICES,
    DictEvaluator,
    Evaluator,
    SparseEvaluator,
    available_backends,
    build_evaluator,
)

__all__ = [
    "HAVE_SCIPY",
    "BACKENDS",
    "BACKEND_CHOICES",
    "CompiledRouting",
    "Evaluator",
    "DictEvaluator",
    "SparseEvaluator",
    "available_backends",
    "build_evaluator",
]
