"""End-to-end benchmark of the semi-oblivious routing pipeline.

Run one workload (see ``README.md`` in this directory)::

    python3 e2ebench/run.py --workload stream-so --seed 0 --seconds 30 --trace 0

The workload runs in a child process (``e2e_workloads.py``) started in
its own process group, so a run that overstays its limit, or one of its
operations that hangs, is killed with all its sweep workers and counted
as failed instead of hanging the benchmark.  The parent prints a report
with the workload-specific metric names, sample counts and the dependency versions,
then, as the last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.

``--out FILE`` appends the result, with its environment, to a JSON-lines
file; ``--compare BASE NEW`` compares two such files workload by
workload and refuses when their dependency versions differ.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from e2e_stats import median, percentile, tail_percentile, unattributed_frac  # noqa: E402
from e2e_workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
#: A run is killed when no job or operation has finished for this long...
IDLE_LIMIT_S = 60.0
#: ... or when it has run this long past ``--seconds``; never past RUN_CAP_S.
GRACE_S = 90.0
RUN_CAP_S = 170.0
#: Dependency versions that must match before two result files compare.
LEG_KEYS = ("python", "numpy", "scipy", "networkx", "have_scipy")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "so_quality": "ratio",
}
#: Per-layer sums of the benchmark's spans, per job (median over jobs).
LAYER_SPANS = (
    "graphs.build", "demands.generate", "engine.build", "oblivious.prewarm",
    "engine.install", "mcf.optimum", "route.semi-oblivious", "route.ksp",
    "route.oblivious", "route.spf", "stream.replay", "scenarios.shared",
)
COUNTERS = ("pairs", "paths_installed", "mcf.optimum_calls", "stream.resolves",
            "sweep.cells", "sweep.uncovered_cells")
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    "mcf.optimum_s_p50": "s",
    "core.rate_adapt_ms_p50": "ms",
    "linalg.compile_ms_p50": "ms",
    "linalg.incremental_us_p50": "us",
    "stream.step_us_p50": "us",
    "stream.step_us_p99": "us",
    "stream.resolve_ms_p50": "ms",
    "stream.so_cum_congestion": "util",
    "scenarios.inline_s": "s",
    "scenarios.speedup": "ratio",
    **{name: "count" for name in COUNTERS},
    "trace_overhead_frac": "fraction",
    "unattributed_frac": "fraction",
}


# --------------------------------------------------------------------- #
# The child process
# --------------------------------------------------------------------- #
def _pump(stream, lines: "queue.Queue[Optional[str]]") -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def _stop(proc: subprocess.Popen, kill: bool) -> None:
    """Stop the child's process group and wait until every member is gone."""
    if kill:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    os.killpg(proc.pid, signal.SIGKILL)


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[List[dict], Optional[str]]:
    """Run the workload; returns its records and why it was cut, if it was."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "e2e_workloads.py"), workload, str(seed),
         repr(float(seconds)), "1" if trace else "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    lines: "queue.Queue[Optional[str]]" = queue.Queue()
    reader = threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True)
    reader.start()
    deadline = time.monotonic() + min(seconds + GRACE_S, RUN_CAP_S)
    records: List[dict] = []
    cut = None
    try:
        while True:
            timeout = min(IDLE_LIMIT_S, deadline - time.monotonic())
            try:
                line = lines.get(timeout=max(timeout, 0.0))
            except queue.Empty:
                cut = "operation limit" if timeout >= IDLE_LIMIT_S else "run limit"
                break
            if line is None:
                break
            try:
                records.append(json.loads(line))
            except ValueError:  # stray output of the program under test
                sys.stderr.write(line)
    finally:
        # Also reached on SIGTERM/SIGINT, so the child never outlives us.
        _stop(proc, kill=cut is not None or proc.poll() is None)
    reader.join(timeout=5)
    if cut is not None:
        # A killed sweep leaves its shared-memory segments behind.
        sys.path.insert(0, str(SRC))
        from repro.scenarios.shm import cleanup_stale_segments

        cleanup_stale_segments()
    elif proc.returncode != 0:
        cut = f"exit code {proc.returncode}"
    return records, cut


# --------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------- #
def first_cycle(jobs: List[dict]) -> List[dict]:
    """The first job of every input: the run's deterministic part."""
    seen = {}
    for job in jobs:
        seen.setdefault(job["input"], job)
    return list(seen.values())


def span_totals(job: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in job["spans"] if s["name"] == name)


def span_durations(jobs: List[dict], *names: str) -> List[float]:
    return [s["end"] - s["start"] for job in jobs for s in job["spans"] if s["name"] in names]


def end_to_end(jobs: List[dict]) -> Dict[str, float]:
    quality = [q for job in first_cycle(jobs) for q in job["quality"]]
    return {
        "wall_s": median(job["wall_s"] for job in jobs),
        "setup_s": median(job["setup_s"] for job in jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ops_per_s": median(job["ops"] / job["online_s"] for job in jobs),
        "so_quality": sum(quality) / len(quality) if quality else float("nan"),
    }


def per_layer(kind: str, traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    def probe(name: str) -> List[float]:
        return [t for job in traced for t in job.get("probe", {}).get(name, [])]

    metrics: Dict[str, float] = {
        f"{name}_s": median(span_totals(job, name) for job in traced) for name in LAYER_SPANS
    }
    steps = [t for job in traced for t in job["op_s"]] if kind == "stream" else []
    resolves = [t for job in traced for t in job.get("resolve_s", [])]
    optimum = span_durations(traced, "mcf.optimum")
    adapt = span_durations(traced, "route.semi-oblivious", "route.ksp")
    compile_s, incremental_s = probe("linalg.compile_s"), probe("linalg.incremental_s")
    inline_s = median(probe("scenarios.inline_s")) if probe("scenarios.inline_s") else 0.0
    cycle = first_cycle(traced)
    metrics.update({
        "mcf.optimum_s_p50": median(optimum) if optimum else 0.0,
        "core.rate_adapt_ms_p50": 1e3 * median(adapt) if adapt else 0.0,
        "linalg.compile_ms_p50": 1e3 * median(compile_s) if compile_s else 0.0,
        "linalg.incremental_us_p50": 1e6 * median(incremental_s) if incremental_s else 0.0,
        "stream.step_us_p50": 1e6 * median(steps) if steps else 0.0,
        "stream.step_us_p99": 1e6 * percentile(steps, 99) if steps else 0.0,
        "stream.resolve_ms_p50": 1e3 * median(resolves) if resolves else 0.0,
        "stream.so_cum_congestion": sum(job.get("so_cum_congestion", 0.0) for job in cycle),
        "scenarios.inline_s": inline_s,
        "scenarios.speedup": inline_s / metrics["scenarios.shared_s"] if inline_s else 0.0,
        "trace_overhead_frac": median(job["wall_s"] for job in traced)
        / median(job["wall_s"] for job in untraced) - 1.0,
        "unattributed_frac": median(unattributed_frac(job["spans"], 0) for job in traced),
    })
    for name in COUNTERS:
        metrics[name] = sum(job["counters"].get(name, 0) for job in cycle)
    return metrics


def report_lines(kind: str, jobs: List[dict], metrics: Dict[str, float]) -> List[str]:
    """The workload-specific metric names, with sample counts."""
    ops = [t for job in jobs for t in job["op_s"]]
    lines = []
    if kind == "te":
        tail = tail_percentile(len(ops))
        lines.append(f"snapshots_per_s = {metrics['ops_per_s']:.4g} 1/s")
        lines.append(f"snapshot_s_p50 = {median(ops):.4g} s (n={len(ops)})"
                     + (f", p{tail:g} = {percentile(ops, tail):.4g} s" if tail else
                        f", max = {max(ops):.4g} s (too few samples for a tail percentile)"))
        lines.append(f"so_ratio_mean = {metrics['so_quality']:.6g} (vs the per-snapshot optimum)")
    elif kind == "stream":
        resolves = [t for job in jobs for t in job["resolve_s"]]
        cum = [job["so_cum_congestion"] for job in first_cycle(jobs)]
        lines.append(f"steps_per_s = {metrics['ops_per_s']:.4g} 1/s")
        lines.append(f"step_us_p50 = {1e6 * median(ops):.4g} us, "
                     f"step_us_p99 = {1e6 * percentile(ops, 99):.4g} us (n={len(ops)})")
        lines.append(f"resolve_ms_p50 = {1e3 * median(resolves):.4g} ms (n={len(resolves)})")
        lines.append(f"so_cum_congestion = {sum(cum):.6g} over {len(cum)} streams; "
                     f"so_quality = semi-oblivious / static cumulative congestion")
    else:
        lines.append(f"cells_per_s = {metrics['ops_per_s']:.4g} 1/s")
        lines.append(f"so_ratio_mean = {metrics['so_quality']:.6g} (finite ratios vs the optimum)")
    return lines


def run(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    cfg = WORKLOADS[args.workload]
    records, cut = run_child(args.workload, args.seed, args.seconds, bool(args.trace))
    envs = [r for r in records if r["type"] == "env"]
    jobs = [r for r in records if r["type"] == "job"]
    if not envs:
        print(f"e2ebench: the workload did not start ({cut})", file=sys.stderr)
        return 1
    env = {k: v for k, v in envs[0].items() if k != "type"}
    attempted = sum(job["attempted"] for job in jobs) + (cut is not None)
    failed = sum(job["failed"] for job in jobs) + (cut is not None)
    violations = [v for job in jobs for v in job["violations"]]
    done = [job for job in jobs if not job.get("error")]
    untraced = [job for job in done if not job["traced"]]
    traced = [job for job in done if job["traced"]]
    measured = traced if args.trace else untraced
    complete = len(first_cycle(measured)) == cfg["inputs"]
    if not measured or (args.trace and not untraced):
        print(f"e2ebench: no job finished ({cut}); first violations: {violations[:2]}",
              file=sys.stderr)
        return 1

    e2e = end_to_end(untraced)
    metrics = per_layer(cfg["kind"], traced, untraced) if args.trace else e2e
    units = PER_LAYER_UNITS if args.trace else END_TO_END
    seed_note = " (default)" if args.seed == DEFAULT_SEED else ""
    print(f"e2ebench workload={args.workload} seed={args.seed}{seed_note} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"jobs={len(measured)} inputs={cfg['inputs']} first_cycle_complete={complete} "
          f"attempted={attempted} failed={failed} failed_frac={failed / max(attempted, 1):.4g}"
          + (f" cut={cut}" if cut else ""))
    for violation in violations:
        print(f"violation: {violation.strip()}")
    for line in report_lines(cfg["kind"], untraced, e2e):
        print(line)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not violations and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                     "trace": args.trace, "env": env, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def compare(base_path: str, new_path: str) -> int:
    """Median of every metric per workload in two result files."""
    sides = []
    for path in (base_path, new_path):
        with open(path, encoding="utf-8") as handle:
            sides.append([json.loads(line) for line in handle if line.strip()])
    legs = {json.dumps({k: row["env"].get(k) for k in LEG_KEYS}) for side in sides for row in side}
    if len(legs) != 1:
        print("e2ebench: refusing to compare runs from different dependency legs:\n  "
              + "\n  ".join(sorted(legs)), file=sys.stderr)
        return 2
    keys = sorted({(row["workload"], row["trace"]) for side in sides for row in side})
    for workload, trace in keys:
        rows = [[r for r in side if (r["workload"], r["trace"]) == (workload, trace)] for side in sides]
        if not all(rows):
            print(f"{workload} trace={trace}: missing on one side")
            continue
        print(f"{workload} trace={trace} (runs: {len(rows[0])} vs {len(rows[1])})")
        for name, entry in rows[0][0]["result"]["metrics"].items():
            base, new = (median(r["result"]["metrics"][name]["value"] for r in side) for side in rows)
            change = f"{100.0 * (new - base) / base:+.1f}%" if base else "n/a"
            print(f"  {name:28s} {base:12.6g} {new:12.6g} {change:>8s} {entry['unit']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
