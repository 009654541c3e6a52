"""Tests for the experiment harness, smoke runs, and small-scale headline shapes."""

import math

import pytest

from repro.experiments import REGISTRY
from repro.experiments.harness import ExperimentConfig, ExperimentResult, run_experiment


def test_config_param_lookup():
    config = ExperimentConfig(scale="small", overrides={"x": 10})
    defaults = {"small": {"x": 1, "y": 2}, "paper": {"x": 5, "y": 6}}
    assert config.param("x", defaults) == 10  # override wins
    assert config.param("y", defaults) == 2
    with pytest.raises(KeyError):
        config.param("z", defaults)


def test_result_rendering_and_columns():
    result = ExperimentResult(experiment_id="demo")
    result.add_row("table1", a=1, b="x")
    result.add_row("table1", a=2, c=3.5)
    result.add_note("a note")
    assert result.table_columns("table1") == ["a", "b", "c"]
    text = result.render()
    assert "demo" in text and "table1" in text and "a note" in text
    assert str(result) == text


def test_run_experiment_wrapper(capsys):
    def runner(config):
        result = ExperimentResult(experiment_id="wrapped")
        result.add_row("t", value=config.seed)
        return result

    result = run_experiment(runner, ExperimentConfig(seed=3), print_result=True)
    assert result.config.seed == 3
    assert "wrapped" in capsys.readouterr().out


def test_registry_contains_all_experiments():
    assert len(REGISTRY) == 12
    assert set(REGISTRY) == {
        "E1_sparsity_tradeoff",
        "E2_log_sparsity",
        "E3_lower_bound",
        "E4_deterministic_hypercube",
        "E5_weak_routing_process",
        "E6_rounding",
        "E7_completion_time",
        "E8_smore_te",
        "E9_arbitrary_demands",
        "E10_oblivious_baselines",
        "E11_ablation_selection",
        "E12_robustness",
    }


@pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
def test_each_experiment_runs_at_smoke_scale(experiment_id):
    runner = REGISTRY[experiment_id]
    result = runner(ExperimentConfig(seed=1, scale="smoke"))
    assert result.experiment_id == experiment_id
    assert result.tables, "experiment produced no tables"
    for rows in result.tables.values():
        assert rows, "experiment produced an empty table"
    assert result.render()


def test_e3_lower_bound_exceeds_guarantee():
    result = REGISTRY["E3_lower_bound"](ExperimentConfig(seed=2, scale="smoke"))
    for row in result.tables["lower_bound"]:
        assert row["measured_congestion"] >= row["guaranteed_bound"] - 1e-6
        assert row["offline_optimum"] <= 1.0 + 1e-6


def test_e6_rounding_respects_bound():
    result = REGISTRY["E6_rounding"](ExperimentConfig(seed=2, scale="smoke"))
    for row in result.tables["rounding"]:
        assert row["integral"] <= row["bound"] + 1e-6


def test_e1_ratios_improve_with_alpha():
    result = REGISTRY["E1_sparsity_tradeoff"](ExperimentConfig(seed=3, scale="smoke"))
    rows = [row for row in result.tables["sparsity_tradeoff"] if row["graph"] == "hypercube"]
    by_alpha = {row["alpha"]: row["worst_ratio"] for row in rows}
    alphas = sorted(by_alpha)
    # The largest alpha should not be worse than the smallest one.
    assert by_alpha[alphas[-1]] <= by_alpha[alphas[0]] + 1e-6


# --------------------------------------------------------------------- #
# Headline shapes at the small scale (seed 0)
# --------------------------------------------------------------------- #
def _small(experiment_id):
    return REGISTRY[experiment_id](ExperimentConfig(seed=0, scale="small")).tables


def test_small_e1_largest_alpha_not_worse_on_every_graph():
    rows = _small("E1_sparsity_tradeoff")["sparsity_tradeoff"]
    assert rows
    for graph in {row["graph"] for row in rows}:
        graph_rows = sorted((r for r in rows if r["graph"] == graph), key=lambda r: r["alpha"])
        assert graph_rows[-1]["worst_ratio"] <= graph_rows[0]["worst_ratio"] + 1e-6


def test_small_e2_log_sparsity_ratios_bounded_by_n():
    rows = _small("E2_log_sparsity")["log_sparsity"]
    assert rows and all(row["worst_ratio"] <= row["n"] for row in rows)


def test_small_e3_lower_bound_and_figure1_structure():
    tables = _small("E3_lower_bound")
    for row in tables["lower_bound"]:
        assert row["measured_congestion"] >= row["guaranteed_bound"] - 1e-6
        assert row["offline_optimum"] <= 1.0 + 1e-6
    structure = tables["figure1_structure"][0]
    assert structure["vertices"] == structure["expected_vertices"]
    assert structure["edges"] == structure["expected_edges"]


def test_small_e4_sampled_ratio_polylogarithmic():
    rows = _small("E4_deterministic_hypercube")["deterministic_vs_sampled"]
    assert rows
    for row in rows:
        assert row["sampled_ratio"] <= 2.0 * math.log2(row["n"]) + 1e-6


def test_small_e5_generous_allowance_routes_most():
    rows = _small("E5_weak_routing_process")["weak_routing"]
    most_generous = max(rows, key=lambda row: row["gamma_over_opt"])
    assert most_generous["mean_fraction_routed"] >= 0.5
    assert most_generous["empirical_failure_rate"] <= 0.5


def test_small_e6_integral_between_fractional_and_bound():
    rows = _small("E6_rounding")["rounding"]
    assert rows
    for row in rows:
        assert row["integral"] <= row["bound"] + 1e-6
        assert row["integral"] >= row["fractional"] - 1e-6


def test_small_e7_hop_sample_completion_time_competitive():
    rows = _small("E7_completion_time")["completion_time"]
    assert rows
    for row in rows:
        assert row["hop_sample_ratio"] <= 10.0
        assert row["hop_sample_sparsity"] >= row["alpha"]


def test_small_e8_semi_oblivious_beats_oblivious_and_spf():
    by_scheme = {row["scheme"]: row for row in _small("E8_smore_te")["te_utilization_ratios"]}
    semi = by_scheme["semi-oblivious"]["mean_ratio"]
    assert semi <= by_scheme["oblivious"]["mean_ratio"] + 1e-6
    assert semi <= by_scheme["spf"]["mean_ratio"] + 1e-6


def test_small_e9_cut_sample_and_direct_rounding():
    tables = _small("E9_arbitrary_demands")
    necessity = tables["cut_sparsity_necessity"][0]
    assert necessity["cut_sample_ratio"] <= necessity["plain_sample_ratio"] + 1e-6
    assert necessity["cut_sample_ratio"] <= 4.0
    arbitrary = tables["arbitrary_integral"][0]
    assert arbitrary["direct_ratio"] <= arbitrary["bucketed_ratio"] + 1e-6


def test_small_e10_sampling_sources_reasonably_competitive():
    rows = _small("E10_oblivious_baselines")["oblivious_baselines"]
    assert rows
    for row in rows:
        if row["scheme"] in {"valiant", "raecke-trees", "electrical"}:
            assert row["worst_ratio"] <= 0.75 * row["n"]


def test_small_e11_selection_rules_sane():
    rows = _small("E11_ablation_selection")["selection_ablation"]
    assert rows
    for row in rows:
        assert row["mean_ratio"] >= 1.0 - 1e-6
        assert row["sparsity"] <= row["alpha"]


def test_small_e12_sampled_coverage_at_least_spf():
    by_scheme = {row["scheme"]: row for row in _small("E12_robustness")["failure_robustness"]}
    assert (
        by_scheme["semi-oblivious-sample"]["mean_coverage"]
        >= by_scheme["spf"]["mean_coverage"] - 1e-9
    )


def test_rebase_bench_smoke_matches_reference():
    from repro.bench import run

    payload = run("rebase", scale="smoke", seed=0)
    assert payload["schema"] == "repro-bench/v1"
    assert payload["max_abs_difference"] <= 1e-9
    assert payload["finiteness_mismatches"] == 0


def test_smoke_suite_rows_and_healthy_ratios():
    from repro.scenarios import get_suite, run_suite

    rows = run_suite(get_suite("smoke"), workers=1).summary_rows()
    assert len(rows) == 12 * 2  # 12 cells x 2 schemes
    healthy = [row for row in rows if row["failure"] == "none"]
    assert healthy and all(
        row["mean_ratio"] is not None and row["mean_ratio"] >= 1.0 - 1e-9 for row in healthy
    )
