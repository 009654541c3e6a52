"""Unit tests for traffic-engineering replay through the routing engine, and metrics."""

import pytest

from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.demands.traffic_matrix import constant_series, diurnal_gravity_series
from repro.engine import RoutingEngine, SchemeError
from repro.te.metrics import max_link_utilization, throughput_at_capacity, utilization_percentiles

#: The non-optimal schemes of the SMORE line-up, in report order.
TE_SCHEMES = ["semi-oblivious", "oblivious", "ksp", "spf"]


def _te_engine(network, alpha=2, ksp_k=4):
    return RoutingEngine(
        network,
        [f"semi-oblivious(racke, alpha={alpha})", "oblivious(racke)", f"ksp(k={ksp_k})",
         "spf", "optimal"],
        rng=0,
    )


def test_metrics_basic(cube3):
    routing = Routing.single_path(cube3, {(0, 7): (0, 1, 3, 7)})
    demand = Demand({(0, 7): 2.0})
    assert max_link_utilization(routing, demand) == pytest.approx(2.0)
    assert throughput_at_capacity(routing, demand) == pytest.approx(0.5)
    assert throughput_at_capacity(routing, Demand.empty()) == float("inf")
    percentiles = utilization_percentiles(routing, demand)
    assert percentiles[100.0] == pytest.approx(2.0)
    assert percentiles[50.0] <= percentiles[100.0]


def test_simulator_end_to_end(cube3):
    engine = _te_engine(cube3, alpha=3, ksp_k=3)
    engine.install()
    series = diurnal_gravity_series(cube3, num_snapshots=2, base_total=4.0, rng=1)
    report = engine.evaluate_matrix_series(series, labels=TE_SCHEMES)
    assert report.num_snapshots == 2
    for scheme in TE_SCHEMES:
        result = report.results[scheme]
        assert len(result.utilization_ratios) == 2
        assert result.worst_ratio() >= 1.0 - 1e-6
        assert result.mean_ratio() >= 1.0 - 1e-6
    # Adaptive schemes should not lose to the non-adaptive single shortest path.
    assert report.results["semi-oblivious"].mean_ratio() <= report.results["spf"].mean_ratio() + 1e-6
    assert set(report.ranking()) == set(TE_SCHEMES)


def test_simulator_unknown_scheme(cube3):
    engine = _te_engine(cube3)
    engine.install(pairs=[(0, 1), (1, 2)])
    series = constant_series(Demand({(0, 1): 1.0}), 1)
    with pytest.raises(SchemeError):
        engine.evaluate_matrix_series(series, labels=["nonsense"])


def test_simulator_optimal_scheme_has_ratio_one(cube3):
    engine = _te_engine(cube3)
    engine.install(pairs=[(0, 7), (7, 0)])
    series = constant_series(Demand({(0, 7): 1.0}), 1)
    report = engine.evaluate_matrix_series(series, labels=["optimal", "semi-oblivious"])
    assert report.results["optimal"].mean_ratio() == pytest.approx(1.0)
    assert report.results["semi-oblivious"].mean_ratio() >= 1.0 - 1e-9


def test_empty_snapshots_are_skipped(cube3):
    engine = _te_engine(cube3)
    engine.install(pairs=[(0, 1)])
    series = constant_series(Demand.empty(), 3)
    report = engine.evaluate_matrix_series(series, labels=TE_SCHEMES)
    assert all(len(result.utilization_ratios) == 0 for result in report.results.values())
