"""Workload side of the end-to-end benchmark; runs in a child of ``run.py``.

Usage (``run.py`` starts it with the program's ``src`` on ``PYTHONPATH``)::

    python3 e2ebench/e2e_workloads.py <workload> <seed> <seconds> <trace>

It writes one JSON object per line to standard output: an ``env`` record,
a ``tick`` after every operation of a long job (so the parent can bound
each operation), and one ``job`` record per job.  A *job* is one complete
user-level run on one seed-derived input: set up (build the topology,
generate the demands, build and install the engine), then do the online
work.  Every time here is measured from outside, around calls into the
program's public API; ``Spans`` records those calls when tracing is on.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

import numpy as np

from e2e_stats import split_steps

#: The CLI's default SMORE line-up (``repro te``), semi-oblivious first.
TE_SCHEMES = [
    "semi-oblivious(racke, alpha=4)",
    "oblivious(racke)",
    "ksp(k=4)",
    "spf",
    "optimal",
]
SO_SCHEME = TE_SCHEMES[0]
#: The engine labels a scheme by its router name.
SO_LABEL = "semi-oblivious"
STREAM_POLICIES = ("static", "semi-oblivious(every=64)")
RESOLVE_EVERY = 64
#: Streamed steps whose incremental congestion is re-checked against a
#: fresh compile (step % CHECK_EVERY == CHECK_OFFSET).
CHECK_EVERY, CHECK_OFFSET = 101, 37
RATIO_FLOOR = 1.0 - 1e-7

#: ``kind`` picks the job function; ``inputs`` is how many distinct
#: seed-derived inputs one run cycles through (the first cycle always
#: completes and gives the deterministic figures); ``ops`` is the number
#: of operations one job attempts.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "te-hypercube4": {"kind": "te", "topology": "hypercube", "size": 4,
                      "snapshots": 2, "inputs": 48, "ops": 2},
    "te-torus6": {"kind": "te", "topology": "torus_2d", "size": 6,
                  "snapshots": 2, "inputs": 1, "ops": 2},
    "stream-so": {"kind": "stream", "size": 6, "steps": 1024, "inputs": 12, "ops": 2048},
    "sweep-smoke": {"kind": "sweep", "suite": "smoke", "inputs": 6, "ops": 12},
    "sweep-failures": {"kind": "sweep", "suite": "failures", "inputs": 1, "ops": 30},
}


def emit(record: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def job_seed(seed: int, index: int) -> int:
    """Seed of input ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Spans:
    """Benchmark-side spans around calls into the program.

    Disabled, ``span`` only yields; enabled, it records ``id``, ``name``,
    ``parent``, ``start`` and ``end`` in memory for the parent process.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


class TimedRouter:
    """Router proxy for ``run_stream``: spans each ``route`` call and keeps
    every routing it returned (the routings the replay compiled)."""

    def __init__(self, router, spans: Spans) -> None:
        self._router = router
        self._spans = spans
        self._layer = "route." + router.name
        self.name = router.name
        self.routings: list = []

    def install(self, pairs=None) -> None:
        self._router.install(pairs)

    def route(self, demand):
        with self._spans.span(self._layer):
            result = self._router.route(demand)
        self.routings.append(result.routing)
        return result


def build_engine(network, schemes, seed: int, spans: Spans):
    """Engine construction, source prewarm and install, each spanned."""
    from repro.engine import RoutingEngine

    with spans.span("engine.build"):
        engine = RoutingEngine(network, schemes, rng=seed, backend="sparse")
    pairs = list(network.vertex_pairs(ordered=True))
    with spans.span("oblivious.prewarm"):
        for builder in engine.context.sources.values():
            if not hasattr(builder, "sample_path"):  # samplers have no cache
                builder.prewarm(pairs)
    with spans.span("engine.install"):
        engine.install(pairs)
    return engine, pairs


def paths_installed(engine) -> int:
    return sum(router.system.num_paths() for router in engine.routers.values()
               if hasattr(router, "system"))


# --------------------------------------------------------------------- #
# te: install once, then every snapshot through the line-up and the optimum
# --------------------------------------------------------------------- #
def te_job(cfg, seed: int, spans: Spans, probe: bool) -> Dict[str, Any]:
    from repro.demands.traffic_matrix import diurnal_gravity_series
    from repro.graphs import topologies

    start = time.perf_counter()
    with spans.span("job"):
        with spans.span("graphs.build"):
            network = getattr(topologies, cfg["topology"])(cfg["size"])
        with spans.span("demands.generate"):
            series = diurnal_gravity_series(network, num_snapshots=cfg["snapshots"], rng=seed + 1)
        engine, pairs = build_engine(network, TE_SCHEMES, seed, spans)
        setup = time.perf_counter() - start
        op_times: List[float] = []
        ratios: List[float] = []
        violations: List[str] = []
        failed = 0
        for index, snapshot in enumerate(series):
            if snapshot.is_empty():
                continue
            begin = time.perf_counter()
            with spans.span("mcf.optimum"):
                optimum = engine.optimal_congestion(snapshot)
            results = {}
            for label in engine.labels():
                with spans.span("route." + label):
                    results[label] = engine[label].route(snapshot)
            op_times.append(time.perf_counter() - begin)
            bad = []
            for label, result in results.items():
                if result.optimal_congestion is None:
                    result.optimal_congestion = optimum
                if not result.ratio >= RATIO_FLOOR:
                    bad.append(f"snapshot {index}: {label} ratio {result.ratio!r} < 1 - 1e-7")
            if not abs(results["optimal"].ratio - 1.0) <= 1e-6:
                bad.append(f"snapshot {index}: optimal ratio {results['optimal'].ratio!r} != 1")
            ratios.append(results[SO_LABEL].ratio)
            failed += bool(bad)
            violations += bad
            emit({"type": "tick"})
    if engine.num_optimal_solves != len(op_times):
        violations.append(f"{engine.num_optimal_solves} optimum solves for "
                          f"{len(op_times)} non-empty snapshots")
        failed += 1
    return {
        "wall_s": time.perf_counter() - start,
        "setup_s": setup,
        "ops": len(op_times),
        "online_s": sum(op_times),
        "op_s": op_times,
        "quality": ratios,
        "attempted": len(op_times),
        "failed": min(failed, len(op_times)),
        "violations": violations,
        "counters": {
            "pairs": len(pairs),
            "paths_installed": paths_installed(engine),
            "mcf.optimum_calls": engine.num_optimal_solves,
        },
    }


# --------------------------------------------------------------------- #
# stream: one random-walk stream replayed under two rerouting policies
# --------------------------------------------------------------------- #
class StepClock:
    """``on_step`` hook: the time since the previous step ended, with a
    sampled check of the incremental congestion kept out of the timing."""

    def __init__(self, router: TimedRouter, violations: List[str]) -> None:
        self._router = router
        self._violations = violations
        self.times: List[float] = []
        self._last = time.perf_counter()

    def __call__(self, step, evaluator, stats) -> None:
        now = time.perf_counter()
        self.times.append(now - self._last)
        if step % CHECK_EVERY == CHECK_OFFSET:
            from repro.linalg import CompiledRouting

            fresh = CompiledRouting.from_routing(
                self._router.routings[-1], representation="sparse"
            ).congestion(evaluator.demand)
            incremental = evaluator.congestion()
            if not abs(incremental - fresh) <= 1e-9 * max(1.0, abs(fresh)):
                self._violations.append(
                    f"step {step}: incremental congestion {incremental!r} != fresh {fresh!r}"
                )
        self._last = time.perf_counter()


def stream_job(cfg, seed: int, spans: Spans, probe: bool) -> Dict[str, Any]:
    from repro.graphs import topologies
    from repro.linalg import CompiledRouting
    from repro.stream import IncrementalStreamEvaluator, RandomWalkStream, run_stream

    start = time.perf_counter()
    with spans.span("job"):
        with spans.span("graphs.build"):
            network = topologies.torus_2d(cfg["size"])
        with spans.span("demands.generate"):
            updates = list(RandomWalkStream(network, num_steps=cfg["steps"], seed=seed).updates())
        engine, pairs = build_engine(network, [SO_SCHEME], seed, spans)
        setup = time.perf_counter() - start
        router = TimedRouter(engine[SO_LABEL], spans)
        violations: List[str] = []
        results = {}
        clocks = {}
        replay_s = 0.0
        for policy in STREAM_POLICIES:
            clock = StepClock(router, violations)
            begin = time.perf_counter()
            with spans.span("stream.replay"):
                results[policy] = run_stream(
                    network, updates, router, policy=policy, backend="sparse", on_step=clock
                )
            replay_s += time.perf_counter() - begin
            clocks[policy] = clock
    wall = time.perf_counter() - start

    step_s: List[float] = []
    resolve_s: List[float] = []
    resolves = 0
    failed = len(violations)
    for policy, result in results.items():
        steps, resolved = split_steps(
            clocks[policy].times, [record["resolved"] for record in result.records]
        )
        step_s += steps
        resolve_s += resolved
        expected = 1 if policy == "static" else math.ceil(len(updates) / RESOLVE_EVERY)
        summary = result.summary
        resolves += summary["num_resolves"]
        if summary["forced_resolves"] != 0 or summary["num_resolves"] != expected:
            violations.append(f"{policy}: {summary['num_resolves']} resolves "
                              f"({summary['forced_resolves']} forced), expected {expected}")
            failed += 1
    static, so = (results[policy].summary["cumulative_congestion"] for policy in STREAM_POLICIES)
    record = {
        "wall_s": wall,
        "setup_s": setup,
        "ops": 2 * len(updates),
        "online_s": replay_s,
        "op_s": step_s,
        "resolve_s": resolve_s,
        "quality": [so / static],
        "so_cum_congestion": so,
        "attempted": 2 * len(updates),
        "failed": failed,
        "violations": violations,
        "counters": {
            "pairs": len(pairs),
            "paths_installed": paths_installed(engine),
            "stream.resolves": resolves,
        },
    }
    if probe:
        # Layer probes outside the job's wall time: compile each routing
        # the replay installed, and replay the updates through one
        # incremental evaluator.
        compile_s = []
        for routing in router.routings:
            begin = time.perf_counter()
            compiled = CompiledRouting.from_routing(routing, representation="sparse")
            compile_s.append(time.perf_counter() - begin)
        evaluator = IncrementalStreamEvaluator(compiled)
        evaluator.set_demand(updates[0].demand, delta=None)
        incremental_s = []
        for update in updates[1:]:
            begin = time.perf_counter()
            evaluator.set_demand(update.demand, delta=update.delta)
            evaluator.congestion()
            incremental_s.append(time.perf_counter() - begin)
        record["probe"] = {"linalg.compile_s": compile_s, "linalg.incremental_s": incremental_s}
    return record


# --------------------------------------------------------------------- #
# sweep: a built-in scenario suite on the shared-memory executor
# --------------------------------------------------------------------- #
def sweep_job(cfg, seed: int, spans: Spans, probe: bool) -> Dict[str, Any]:
    from repro.engine import RoutingEngine
    from repro.scenarios import get_suite
    from repro.scenarios.shm import live_segments

    workers = min(2, os.cpu_count() or 1)
    start = time.perf_counter()
    with spans.span("job"):
        suite = get_suite(cfg["suite"]).with_overrides(seed=seed)
        # Set-up: the topologies, demand series and installed engines of
        # the grid, built once outside the sweep -- the same work the
        # shared executor does in its parent before it starts workers.
        pairs = paths = 0
        for topology in suite.topologies:
            with spans.span("graphs.build"):
                network = topology.build(seed)
            with spans.span("demands.generate"):
                for demand in suite.demands:
                    demand.series(network, suite.num_snapshots, seed)
            engine, installed = build_engine(network, list(suite.schemes), seed, spans)
            pairs += len(installed)
            paths += paths_installed(engine)
        setup = time.perf_counter() - start
        before = set(live_segments())
        begin = time.perf_counter()
        with spans.span("scenarios.shared"):
            shared = RoutingEngine.run_suite(
                suite, workers=workers, backend="sparse", executor="shared"
            )
        shared_s = time.perf_counter() - begin
    wall = time.perf_counter() - start

    violations: List[str] = []
    failed_cells = set()
    ratios: List[float] = []
    uncovered = 0
    for cell in shared.cells:
        finite = True
        for row in cell["rows"]:
            ratio = row.get("ratio")
            if ratio is None or not math.isfinite(ratio):
                finite = False
                continue
            if ratio < RATIO_FLOOR:
                violations.append(f"cell {cell['cell']}: {row['scheme']} ratio {ratio!r} < 1 - 1e-7")
                failed_cells.add(cell["cell"])
            if row["scheme"] == SO_LABEL:
                ratios.append(ratio)
        uncovered += not finite
    leaked = sorted(set(live_segments()) - before)
    if leaked:
        violations.append(f"shared-memory segments left behind: {leaked}")
    record = {
        "wall_s": wall,
        "setup_s": setup,
        "ops": len(shared.cells),
        "online_s": shared_s,
        "op_s": [],
        "quality": ratios,
        "attempted": len(shared.cells),
        "failed": min(len(failed_cells) + bool(leaked), len(shared.cells)),
        "violations": violations,
        "counters": {"pairs": pairs, "paths_installed": paths, "sweep.cells": len(shared.cells),
                     "sweep.uncovered_cells": uncovered},
    }
    if probe:
        begin = time.perf_counter()
        inline = RoutingEngine.run_suite(suite, workers=1, backend="sparse", executor="inline")
        record["probe"] = {"scenarios.inline_s": [time.perf_counter() - begin]}
        if inline.to_json() != shared.to_json():
            record["violations"].append("shared-executor artifact differs from the inline one")
            record["failed"] = record["attempted"]
    return record


JOBS = {"te": te_job, "stream": stream_job, "sweep": sweep_job}


def environment() -> Dict[str, Any]:
    import networkx
    import platform

    from repro.linalg._matrix import HAVE_SCIPY

    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "networkx": networkx.__version__,
        "have_scipy": bool(HAVE_SCIPY),
        "nproc": os.cpu_count(),
    }


def run_job(cfg, index: int, seed: int, traced: bool, probe: bool) -> None:
    spans = Spans(traced)
    try:
        record = JOBS[cfg["kind"]](cfg, seed, spans, probe)
    except Exception:  # the run goes on; the job's operations count as failed
        record = {"attempted": cfg["ops"], "failed": cfg["ops"],
                  "violations": [traceback.format_exc()], "error": True}
    record.update(type="job", input=index, traced=traced)
    if traced:
        record["spans"] = spans.records
    emit(record)


def main(argv: List[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    cfg = WORKLOADS[workload]
    emit({"type": "env", **environment()})
    start = time.perf_counter()
    done = 0
    # The first cycle over the inputs always completes; after it, jobs
    # continue (cycling over the same inputs) until the time is up.
    while done < cfg["inputs"] or time.perf_counter() - start < seconds:
        index = done % cfg["inputs"]
        seed_i = job_seed(seed, index)
        if trace:
            # An untraced twin of every traced job gives the tracing
            # overhead; layer probes run only after the traced job.
            run_job(cfg, index, seed_i, traced=False, probe=False)
            run_job(cfg, index, seed_i, traced=True, probe=True)
        else:
            run_job(cfg, index, seed_i, traced=False, probe=done == 0)
        done += 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
