#!/usr/bin/env python
"""Render the README performance table from BENCH_*.json artifacts.

Usage::

    python tools/render_bench_table.py [BENCH_linalg.json BENCH_rebase.json ...]

With no arguments, reads every ``BENCH_*.json`` at the repository root.
Prints a GitHub-flavored markdown table; paste the output into the
"Evaluation backends" section of README.md after regenerating baselines
with ``python -m repro bench --scale full``.  The last column is
:func:`repro.bench.headline`, the figure ``repro bench`` prints too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import SCHEMA, headline


def render(paths) -> str:
    """One row per artifact: its first two legs (reference-first) and its headline."""
    lines = [
        "| bench | topology | baseline | fast | headline |",
        "|---|---|---|---|---|",
    ]
    for path in paths:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("schema") != SCHEMA:
            raise SystemExit(f"{path}: unknown bench schema {payload.get('schema')!r}")
        network = payload["network"]
        (baseline_name, baseline), (fast_name, fast) = list(payload["backends"].items())[:2]
        lines.append(
            f"| `{payload['name']}` "
            f"| {network['name']} (n={network['n']}, m={network['m']}) "
            f"| {baseline['seconds']:.2f} s ({baseline_name}) "
            f"| {fast['seconds']:.2f} s ({fast_name}) "
            f"| {headline(payload)} |"
        )
    return "\n".join(lines)


def main(argv) -> int:
    paths = argv or sorted(str(path) for path in REPO_ROOT.glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json artifacts found; run: python -m repro bench --scale full",
              file=sys.stderr)
        return 1
    print(render(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
