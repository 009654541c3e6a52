#!/usr/bin/env python
"""Gate the bench artifacts: the committed baselines and a fresh smoke run.

Usage::

    python tools/check_bench.py                    # committed BENCH_*.json only
    python tools/check_bench.py bench-artifacts    # also the smoke run written there

The committed full-scale baselines at the repository root must hold
their contracts: tracing stays cheap (``BENCH_obs.json``), ECMP
quantization never beats the fractional routing (``BENCH_ecmp.json``),
and a >= 1k-node network evaluates tiled, under budget and within 1e-9
of untiled (``BENCH_scale.json``).  Given the directory of a
``python -m repro bench --scale smoke`` run, the script also checks
that all nine smoke artifacts exist, gates them, and compares the fresh
ECMP gaps against the committed ones.

Exit status 0 when every gate holds; 1 with the failed gate otherwise.
No third-party dependencies.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every ``repro bench`` target; a smoke run must write all of them.
TARGETS = ("ecmp", "linalg", "net", "obs", "odme", "rebase", "scale", "stream", "sweep")


class GateError(Exception):
    """A bench artifact broke one of its gates."""


def _require(condition: bool, *context: Any) -> None:
    if not condition:
        raise GateError(" ".join(str(item) for item in context))


def _load(path: Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_scale_curves(scale: Dict[str, Any]) -> None:
    """Tiled evaluation agrees with untiled and stays under its budget."""
    _require(scale["max_abs_difference"] <= 1e-9, "scale max_abs_difference",
             scale["max_abs_difference"])
    _require(scale["within_budget"] is True, "scale within_budget", scale["within_budget"])
    for backend, points in scale["curves"].items():
        _require(bool(points), "scale curve is empty:", backend)
        _require(all(p["within_budget"] for p in points), "scale over budget:", backend)


def check_smoke(directory: Path) -> Dict[str, Dict[str, Any]]:
    """Gate the ``BENCH_<name>_smoke.json`` artifacts under ``directory``."""
    smoke = {}
    for name in TARGETS:
        path = directory / f"BENCH_{name}_smoke.json"
        _require(path.is_file() and path.stat().st_size > 0, "missing smoke artifact", path)
        smoke[name] = _load(path)

    sweep = smoke["sweep"]
    _require(sweep["artifacts_identical"] is True, "sweep artifacts_identical",
             sweep["artifacts_identical"])
    _require(sweep["leaked_segments"] == 0, "sweep leaked_segments", sweep["leaked_segments"])

    ecmp = smoke["ecmp"]
    _require(ecmp["workload"]["buckets"] == [2, 4, 8, 16], "ecmp buckets",
             ecmp["workload"]["buckets"])
    _require(ecmp["max_gap"] >= 1.0 - 1e-9, "ecmp max_gap", ecmp["max_gap"])

    # Loose sanity bound on the fresh smoke run (shared runners are
    # noisy); the committed full-scale artifact carries the real gate.
    obs = smoke["obs"]
    _require(abs(obs["overhead_disabled_pct"]) < 25.0, "obs overhead_disabled_pct",
             obs["overhead_disabled_pct"])
    _require(abs(obs["overhead_enabled_pct"]) < 25.0, "obs overhead_enabled_pct",
             obs["overhead_enabled_pct"])
    _require(obs["sweep"]["num_spans"] > 0, "obs sweep num_spans", obs["sweep"]["num_spans"])

    check_scale_curves(smoke["scale"])
    return smoke


def check_ecmp_fresh(fresh: Dict[str, Any], committed: Dict[str, Any]) -> None:
    """A fresh run reproduces the committed per-topology gap curves.

    Gaps are seeded and scale-invariant (same demand derivation at every
    scale), so any drift on a shared topology is a quantizer or
    realization regression.
    """
    committed_gaps = {topology["name"]: topology["gaps"] for topology in committed["topologies"]}
    for topology in fresh["topologies"]:
        baseline = committed_gaps[topology["name"]]
        for buckets, gap in topology["gaps"].items():
            _require(abs(gap - baseline[buckets]) <= 1e-6, "ecmp gap drift:",
                     topology["name"], buckets, gap, baseline[buckets])


def check_committed(root: Path = REPO_ROOT) -> None:
    """Gate the committed full-scale baselines under ``root``."""
    # Tracing disabled is free; full recording stays under 5% on the
    # batched-evaluation hot path.
    obs = _load(root / "BENCH_obs.json")
    _require(obs["scale"] == "full", "BENCH_obs.json scale", obs["scale"])
    _require(abs(obs["overhead_disabled_pct"]) < 5.0, "obs overhead_disabled_pct",
             obs["overhead_disabled_pct"])
    _require(obs["overhead_enabled_pct"] < 5.0, "obs overhead_enabled_pct",
             obs["overhead_enabled_pct"])
    _require(abs(obs["sweep"]["overhead_pct"]) < 10.0, "obs sweep overhead_pct",
             obs["sweep"]["overhead_pct"])

    ecmp = _load(root / "BENCH_ecmp.json")
    _require(ecmp["scale"] == "full", "BENCH_ecmp.json scale", ecmp["scale"])
    _require(ecmp["max_gap"] >= 1.0 - 1e-9, "ecmp max_gap", ecmp["max_gap"])

    # A >= 1k-node network evaluated end-to-end under the memory budget,
    # tiled within 1e-9 of untiled wherever both ran.
    scale = _load(root / "BENCH_scale.json")
    _require(scale["scale"] == "full", "BENCH_scale.json scale", scale["scale"])
    check_scale_curves(scale)
    for backend, points in scale["curves"].items():
        _require(any(p["nodes"] >= 1000 for p in points), "no >= 1000-node point:", backend)
        _require(
            all(p["max_abs_difference"] <= 1e-9 for p in points if "max_abs_difference" in p),
            "scale tiled/untiled disagreement:", backend,
        )


def main(argv) -> int:
    try:
        check_committed()
        if argv:
            smoke = check_smoke(Path(argv[0]))
            check_ecmp_fresh(smoke["ecmp"], _load(REPO_ROOT / "BENCH_ecmp.json"))
    except GateError as error:
        print(f"bench gate failed: {error}", file=sys.stderr)
        return 1
    checked = "committed baselines" + (f" and {len(TARGETS)} smoke artifacts" if argv else "")
    print(f"bench gates hold: {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
