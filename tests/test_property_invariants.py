"""Cross-module property-based tests on the library's core invariants.

These hypothesis tests tie several modules together:

* sampled path systems always contain valid simple paths with the right
  endpoints and respect the sparsity budget,
* optimal rate adaptation never exceeds the congestion of any fixed split
  and never beats the unrestricted LP optimum,
* congestion is linear under demand scaling for fixed routings,
* the weak-routing process output always satisfies the Lemma 5.10
  invariants regardless of gamma,
* randomized rounding always returns integral weights on the support.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.path_system import PathSystem
from repro.core.rate_adaptation import optimal_rates
from repro.core.sampling import alpha_sample
from repro.core.weak_routing import WeakRoutingProcess
from repro.demands.demand import Demand
from repro.graphs import topologies
from repro.graphs.network import path_edges
from repro.mcf.lp import min_congestion_lp
from repro.oblivious.valiant import ValiantHypercubeRouting

_CUBE = topologies.hypercube(3)
_VALIANT = ValiantHypercubeRouting(_CUBE, 3, rng=0)
_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

pair_strategy = st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1])


@settings(**_SETTINGS)
@given(
    pairs=st.sets(pair_strategy, min_size=1, max_size=5),
    alpha=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
def test_sampled_systems_are_valid_and_sparse(pairs, alpha, seed):
    system = alpha_sample(_VALIANT, alpha, pairs=pairs, rng=seed)
    assert system.sparsity() <= alpha
    assert set(system.pairs()) == set(pairs)
    for (source, target), paths in system.items():
        for path in paths:
            assert path[0] == source and path[-1] == target
            assert len(set(path)) == len(path)
            for u, v in zip(path, path[1:]):
                assert _CUBE.has_edge(u, v)


@settings(**_SETTINGS)
@given(
    pairs=st.sets(pair_strategy, min_size=1, max_size=4),
    alpha=st.integers(2, 4),
    seed=st.integers(0, 500),
    amount=st.floats(0.5, 4.0),
)
def test_rate_adaptation_bracketed_by_even_split_and_lp(pairs, alpha, seed, amount):
    system = alpha_sample(_VALIANT, alpha, pairs=pairs, rng=seed)
    demand = Demand.from_pairs(pairs, value=amount)
    adapted = optimal_rates(system, demand)
    # Never better than the unrestricted optimum.
    optimum = min_congestion_lp(_CUBE, demand).congestion
    assert adapted.congestion >= optimum - 1e-6
    # Never worse than the fixed even split over the same candidate paths.
    even_paths = []
    for pair in pairs:
        candidate_paths = system.paths(*pair)
        for path in candidate_paths:
            even_paths.append((path, amount / len(candidate_paths)))
    assert adapted.congestion <= _CUBE.congestion(even_paths) + 1e-6


@settings(**_SETTINGS)
@given(
    pairs=st.sets(pair_strategy, min_size=1, max_size=4),
    factor=st.floats(0.1, 5.0),
)
def test_lp_optimum_scales_linearly(pairs, factor):
    demand = Demand.from_pairs(pairs, value=1.0)
    base = min_congestion_lp(_CUBE, demand).congestion
    scaled = min_congestion_lp(_CUBE, demand.scaled(factor)).congestion
    assert scaled == pytest.approx(base * factor, rel=1e-3, abs=1e-6)


@settings(**_SETTINGS)
@given(
    pairs=st.sets(pair_strategy, min_size=1, max_size=4),
    alpha=st.integers(1, 4),
    seed=st.integers(0, 500),
    gamma=st.floats(0.1, 50.0),
)
def test_weak_routing_invariants_hold_for_any_gamma(pairs, alpha, seed, gamma):
    system = alpha_sample(_VALIANT, alpha, pairs=pairs, rng=seed)
    demand = Demand.from_pairs(pairs, value=float(alpha))
    process = WeakRoutingProcess(system)
    outcome = process.run(demand, gamma=gamma)
    # Lemma 5.10: the routed sub-demand never exceeds the demand, and the
    # surviving routing respects the congestion allowance.
    for pair in outcome.routed_demand.pairs():
        assert outcome.routed_demand.value(*pair) <= demand.value(*pair) + 1e-9
    assert 0.0 <= outcome.routed_fraction <= 1.0 + 1e-9
    if outcome.routing is not None:
        assert outcome.routing.congestion(outcome.routed_demand) <= gamma + 1e-6
    # Deleted weight accounting: routed + deleted = total.
    deleted = sum(amount for _, amount in outcome.deleted_edges)
    assert outcome.routed_demand.size() + deleted == pytest.approx(demand.size(), rel=1e-6)


@settings(**_SETTINGS)
@given(
    pairs=st.sets(pair_strategy, min_size=1, max_size=3),
    units=st.integers(1, 4),
    seed=st.integers(0, 500),
)
def test_lp_routing_decomposition_routes_full_demand(pairs, units, seed):
    demand = Demand.from_pairs(pairs, value=float(units))
    result = min_congestion_lp(_CUBE, demand, return_routing=True)
    assert result.routing is not None
    # Every pair's distribution is a proper probability distribution over valid paths.
    for pair in pairs:
        distribution = result.routing.distribution(*pair)
        assert sum(distribution.values()) == pytest.approx(1.0, abs=1e-6)
        for path in distribution:
            assert path[0] == pair[0] and path[-1] == pair[1]
    # The decomposition routes every pair's full demand without adding load
    # (cancelling opposite arcs and cycles only removes it), so the realized
    # congestion is the LP optimum up to rounding.
    realized = result.routing.congestion(demand)
    assert realized <= result.congestion * (1 + 1e-9)
    _ = seed
