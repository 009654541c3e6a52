"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.experiments import REGISTRY


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in REGISTRY:
        assert name in out


def test_experiments_smoke_run(capsys):
    assert main(["experiments", "--scale", "smoke", "E6_rounding"]) == 0
    out = capsys.readouterr().out
    assert "E6_rounding" in out
    assert "completed in" in out


def test_experiments_unknown_id(capsys):
    assert main(["experiments", "not-an-experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_quickstart(capsys):
    assert main(["quickstart", "--dimension", "3", "--alpha", "2"]) == 0
    out = capsys.readouterr().out
    assert "ratio=" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_experiments_json(capsys):
    assert main(["experiments", "--scale", "smoke", "--json", "E6_rounding"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["experiment_id"] == "E6_rounding"
    assert "tables" in payload[0]


def test_schemes_lists_registry(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    for name in ("semi-oblivious", "ksp", "spf", "optimal", "racke"):
        assert name in out


def test_te_default_schemes(capsys):
    assert main(["te", "--topology", "hypercube:3", "--snapshots", "2"]) == 0
    out = capsys.readouterr().out
    for label in ("semi-oblivious", "oblivious", "ksp", "spf", "optimal"):
        assert label in out
    assert "optimal MCF solve" in out


def test_te_explicit_schemes_json(capsys):
    assert main([
        "te", "--topology", "hypercube:3", "--snapshots", "2", "--json",
        "--scheme", "semi-oblivious(racke, alpha=2)", "--scheme", "spf",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["schemes"]) == {"semi-oblivious", "spf"}
    assert payload["optimal_mcf_solves"] == 2
    ratios = payload["schemes"]["semi-oblivious"]["utilization_ratios"]
    assert len(ratios) == 2 and all(r >= 1.0 - 1e-9 for r in ratios)


def test_te_bad_scheme_spec(capsys):
    assert main(["te", "--topology", "hypercube:3", "--scheme", "nonsense"]) == 2
    assert "bad scheme spec" in capsys.readouterr().err


def test_te_unknown_topology():
    with pytest.raises(SystemExit):
        main(["te", "--topology", "moebius:3"])


def test_te_non_integer_topology_size():
    with pytest.raises(SystemExit):
        main(["te", "--topology", "hypercube:abc"])


@pytest.mark.parametrize(
    "cli, registry",
    [
        ("hypercube:4", "hypercube(4)"),
        ("torus:8", "torus(8)"),
        ("expander:12", "expander(12)"),
        ("waxman:14", "waxman(14)"),
        ("zoo:abilene", "zoo(abilene)"),
        ("backbone:200", "backbone(200)"),
    ],
)
def test_te_topology_spelling_matches_registry(cli, registry):
    # name:arg on the CLI builds exactly the network name(arg) builds in a suite.
    from repro.__main__ import _build_te_network
    from repro.scenarios import TopologySpec

    built = _build_te_network(cli, 0)
    expected = TopologySpec.from_string(registry).build(rng=0)
    assert built.name == expected.name
    assert [(u, v, built.capacity(u, v)) for u, v in built.edges] == [
        (u, v, expected.capacity(u, v)) for u, v in expected.edges
    ]


def test_te_bad_scheme_param(capsys):
    assert main(["te", "--topology", "hypercube:3", "--scheme", "ksp(k=0)"]) == 2
    assert "bad scheme spec" in capsys.readouterr().err


def test_te_zero_snapshots(capsys):
    assert main(["te", "--topology", "hypercube:3", "--snapshots", "0"]) == 2
    assert "bad traffic series" in capsys.readouterr().err


def test_stream_list(capsys):
    assert main(["stream", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("random-walk", "flash-crowd", "adversarial-shift", "diurnal",
                 "static", "periodic", "threshold", "semi-oblivious"):
        assert name in out


def test_stream_describe(capsys):
    assert main(["stream", "describe", "random-walk"]) == 0
    assert "random-walk" in capsys.readouterr().out
    assert main(["stream", "describe", "periodic"]) == 0
    assert "MCF" in capsys.readouterr().out
    assert main(["stream", "describe", "nope"]) == 2
    assert "unknown stream or policy" in capsys.readouterr().err


def test_stream_run_table(capsys):
    assert main([
        "stream", "run", "--topology", "torus:3", "--stream", "random-walk",
        "--steps", "8", "--policy", "static", "--seed", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "static" in out and "cum.cong" in out


def test_stream_run_json_is_bit_identical(capsys):
    args = ["stream", "run", "--topology", "torus:3", "--stream", "flash-crowd",
            "--steps", "10", "--policy", "static", "--policy", "semi-oblivious(every=4)",
            "--seed", "3", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["num_steps"] == 10
    assert set(payload["policies"]) == {"static", "semi-oblivious(every=4)"}


def test_stream_run_bad_policy(capsys):
    assert main([
        "stream", "run", "--topology", "torus:3", "--steps", "4",
        "--policy", "warp-speed",
    ]) == 2
    assert "stream run failed" in capsys.readouterr().err


def test_stream_run_writes_output(tmp_path, capsys):
    target = tmp_path / "stream.json"
    assert main([
        "stream", "run", "--topology", "torus:3", "--steps", "4",
        "--policy", "static", "--no-steps", "--output", str(target),
    ]) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert "steps" not in payload["policies"]["static"]


def test_bench_list_includes_stream(capsys):
    assert main(["bench", "list"]) == 0
    assert "stream" in capsys.readouterr().out


def test_bench_list_includes_obs(capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    assert "obs" in out and "tracing overhead" in out


def test_scenarios_run_unknown_suite_exits_2(capsys):
    assert main(["scenarios", "run", "--suite", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown suite" in err
    assert len(err.strip().splitlines()) == 1


def test_stream_run_unknown_stream_exits_2(capsys):
    assert main([
        "stream", "run", "--topology", "torus:3", "--stream", "nope", "--steps", "4",
    ]) == 2
    err = capsys.readouterr().err
    assert "stream run failed" in err and "unknown stream" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("executor", ["warp", "shard"])
def test_scenarios_run_unknown_executor_exits_2(capsys, executor):
    # The runner validates the executor (no argparse choices=), so
    # unknown names (including the removed "shard") exit 2 with the
    # registered list on one stderr line.
    assert main(["scenarios", "run", "--suite", "smoke", "--executor", executor]) == 2
    err = capsys.readouterr().err
    assert "unknown executor" in err
    assert "['auto', 'inline', 'shared', 'rebuild']" in err
    assert len(err.strip().splitlines()) == 1


def test_forwarding_quantize_table(capsys):
    assert main([
        "forwarding", "quantize", "--topology", "hypercube:3", "--buckets", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "quantized" in out and "next-hop rules" in out


def test_forwarding_gap_json_is_bit_identical(capsys):
    args = ["forwarding", "gap", "--topology", "zoo(abilene)", "--buckets", "8",
            "--flows", "32", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == "repro-forwarding/v1"
    [row] = payload["rows"]
    assert row["buckets"] == 8
    assert row["gap"] == pytest.approx(
        row["quantized_congestion"] / row["fractional_congestion"]
    )
    assert row["analytic"]["bins"] == 8


def test_forwarding_realize_rejects_bucketless_scheme(capsys):
    assert main([
        "forwarding", "realize", "--topology", "hypercube:3",
        "--scheme", "optimal",
    ]) == 2
    assert "does not materialize a routing" in capsys.readouterr().err


def test_stream_run_churn_buckets_summary(capsys):
    assert main([
        "stream", "run", "--topology", "torus:3", "--steps", "6",
        "--policy", "static", "--churn-buckets", "4", "--json", "--no-steps",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    summary = payload["policies"]["static"]["summary"]
    assert summary["churn_buckets"] == 4
    assert summary["forwarding_churn"] >= summary["forwarding_rules"] > 0


def test_bench_list_includes_ecmp(capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    assert "ecmp" in out and "fractional-vs-ECMP" in out


def test_te_trace_writes_parseable_file(tmp_path, capsys):
    from repro.obs import load_trace, span_records, tracing_enabled

    trace_path = tmp_path / "te.jsonl"
    assert main([
        "te", "--topology", "hypercube:3", "--snapshots", "2",
        "--scheme", "spf", "--trace", str(trace_path),
    ]) == 0
    captured = capsys.readouterr()
    assert f"wrote trace to {trace_path}" in captured.err
    assert not tracing_enabled()  # CLI uninstalls its tracer on the way out
    records = load_trace(str(trace_path))
    names = {record["name"] for record in span_records(records)}
    assert "cli.te" in names
    assert any(name.startswith("mcf.") for name in names)


def test_trace_summarize_and_export_cli(tmp_path, capsys):
    trace_path = tmp_path / "te.jsonl"
    assert main([
        "te", "--topology", "hypercube:3", "--snapshots", "1",
        "--scheme", "spf", "--trace", str(trace_path),
    ]) == 0
    capsys.readouterr()

    assert main(["trace", "summarize", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "span" in out and "self_s" in out and "cli.te" in out

    chrome_path = tmp_path / "te.chrome.json"
    assert main([
        "trace", "export", str(trace_path), "--chrome", "--output", str(chrome_path),
    ]) == 0
    capsys.readouterr()
    document = json.loads(chrome_path.read_text())
    assert document["traceEvents"]
    phases = {event["ph"] for event in document["traceEvents"]}
    assert phases == {"M", "X"}

    # default output path derives from the trace path
    assert main(["trace", "export", str(trace_path), "--chrome"]) == 0
    capsys.readouterr()
    assert (tmp_path / "te.chrome.json").exists()


def test_trace_summarize_missing_file_exits_2(tmp_path, capsys):
    assert main(["trace", "summarize", str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot read trace file" in capsys.readouterr().err
