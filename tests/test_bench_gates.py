"""Tests for ``tools/check_bench.py``, the bench artifact gates.

The committed full-scale baselines must pass the same gates the CI
bench job applies, and a fresh ECMP smoke run must reproduce their
per-topology gap curves, so the gates run with the tier-1 suite too.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from repro import bench

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_bench():
    spec = importlib.util.spec_from_file_location(
        "check_bench", REPO_ROOT / "tools" / "check_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_bench = _load_check_bench()


def _rewrite(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_gate_targets_match_the_harness():
    assert list(check_bench.TARGETS) == bench.available()


def test_committed_baselines_hold_their_gates():
    check_bench.check_committed(REPO_ROOT)


def test_fresh_ecmp_smoke_matches_committed_gaps():
    fresh = bench.run("ecmp", scale="smoke", seed=0)
    committed = json.loads((REPO_ROOT / "BENCH_ecmp.json").read_text(encoding="utf-8"))
    assert fresh["topologies"]
    check_bench.check_ecmp_fresh(fresh, committed)
    drifted = json.loads(json.dumps(fresh))
    drifted["topologies"][0]["gaps"]["8"] += 1e-5
    with pytest.raises(check_bench.GateError, match="ecmp gap drift"):
        check_bench.check_ecmp_fresh(drifted, committed)


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("obs", lambda p: p.update(overhead_enabled_pct=5.0), "overhead_enabled_pct"),
        ("obs", lambda p: p["sweep"].update(overhead_pct=-10.0), "sweep overhead_pct"),
        ("ecmp", lambda p: p.update(max_gap=0.99), "max_gap"),
        ("scale", lambda p: p.update(max_abs_difference=2e-9), "max_abs_difference"),
        (
            "scale",
            lambda p: [point.update(nodes=999) for pts in p["curves"].values() for point in pts],
            "1000-node",
        ),
    ],
)
def test_committed_gates_reject_a_broken_baseline(tmp_path, name, edit, message):
    for target in ("obs", "ecmp", "scale"):
        shutil.copy(REPO_ROOT / f"BENCH_{target}.json", tmp_path)
    check_bench.check_committed(tmp_path)
    _rewrite(tmp_path / f"BENCH_{name}.json", edit)
    with pytest.raises(check_bench.GateError, match=message):
        check_bench.check_committed(tmp_path)


def test_smoke_gate_needs_every_artifact(tmp_path):
    with pytest.raises(check_bench.GateError, match="missing smoke artifact"):
        check_bench.check_smoke(tmp_path)
