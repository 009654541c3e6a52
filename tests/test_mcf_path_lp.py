"""Unit tests for the path-restricted min-congestion LP and the greedy engine."""

import pytest

from repro.core.path_system import PathSystem
from repro.demands.demand import Demand
from repro.exceptions import InfeasibleError
from repro.graphs.network import Network
from repro.mcf.lp import min_congestion_lp
from repro.mcf.path_lp import greedy_rates, min_congestion_on_paths


def two_path_system(cube3):
    system = PathSystem(cube3)
    system.add_path(0, 3, (0, 1, 3))
    system.add_path(0, 3, (0, 2, 3))
    return system


def test_empty_demand(cube3):
    system = two_path_system(cube3)
    result = min_congestion_on_paths(system, Demand.empty())
    assert result.congestion == 0.0
    assert result.routing is None


def test_optimal_split_over_disjoint_paths(cube3):
    system = two_path_system(cube3)
    result = min_congestion_on_paths(system, Demand({(0, 3): 2.0}))
    # Two edge-disjoint candidate paths: split evenly, congestion 1.
    assert result.congestion == pytest.approx(1.0, abs=1e-6)
    assert result.routing is not None
    realized = result.routing.congestion(Demand({(0, 3): 2.0}))
    assert realized == pytest.approx(result.congestion, abs=1e-6)


def test_single_path_no_choice(path4):
    system = PathSystem(path4)
    system.add_path(0, 3, (0, 1, 2, 3))
    result = min_congestion_on_paths(system, Demand({(0, 3): 5.0}))
    assert result.congestion == pytest.approx(5.0)


def test_missing_pair_raises(cube3):
    system = two_path_system(cube3)
    with pytest.raises(InfeasibleError):
        min_congestion_on_paths(system, Demand({(1, 6): 1.0}))


def test_respects_capacities():
    net = Network.from_edges([(0, 1), (1, 2), (0, 2)], capacities={(0, 2): 3.0})
    system = PathSystem(net)
    system.add_path(0, 2, (0, 2))
    system.add_path(0, 2, (0, 1, 2))
    result = min_congestion_on_paths(system, Demand({(0, 2): 4.0}))
    # Split x on the fat direct edge (cap 3) and 4-x on the thin detour:
    # equalize x/3 = 4-x -> x=3, congestion 1.
    assert result.congestion == pytest.approx(1.0, abs=1e-6)


def test_path_lp_never_beats_full_lp(cube3, permutation_demand_cube3):
    # Restricting to shortest paths cannot beat the unrestricted optimum.
    system = PathSystem(cube3)
    for pair in permutation_demand_cube3.pairs():
        system.add_path(*pair, cube3.shortest_path(*pair))
    restricted = min_congestion_on_paths(system, permutation_demand_cube3)
    full = min_congestion_lp(cube3, permutation_demand_cube3)
    assert restricted.congestion >= full.congestion - 1e-6


def test_path_lp_matches_full_lp_when_support_is_rich(cube3):
    # With all shortest paths between antipodal vertices available, the path LP
    # should reach the unrestricted optimum (1/3 for a unit antipodal demand).
    import networkx as nx

    system = PathSystem(cube3)
    for nodes in nx.all_shortest_paths(cube3.graph, 0, 7):
        system.add_path(0, 7, tuple(nodes))
    demand = Demand({(0, 7): 1.0})
    restricted = min_congestion_on_paths(system, demand)
    full = min_congestion_lp(cube3, demand)
    assert restricted.congestion == pytest.approx(full.congestion, abs=1e-5)


def test_greedy_rates_close_to_lp(cube3):
    system = two_path_system(cube3)
    system.add_path(1, 6, (1, 3, 7, 6))
    system.add_path(1, 6, (1, 5, 4, 6))
    demand = Demand({(0, 3): 2.0, (1, 6): 2.0})
    lp = min_congestion_on_paths(system, demand)
    greedy = greedy_rates(system, demand, iterations=300)
    assert greedy.congestion <= lp.congestion * 1.35 + 1e-6
    assert greedy.routing is not None
    assert greedy.routing.congestion(demand) == pytest.approx(greedy.congestion, abs=1e-6)


def test_greedy_rates_empty_and_missing(cube3):
    system = two_path_system(cube3)
    assert greedy_rates(system, Demand.empty()).congestion == 0.0
    with pytest.raises(InfeasibleError):
        greedy_rates(system, Demand({(4, 5): 1.0}))


def test_degenerate_split_routes_and_loads_the_first_path(cube3):
    system = PathSystem(cube3)
    system.add_path(0, 3, (0, 1, 3))
    system.add_path(0, 3, (0, 2, 3))
    system.add_path(0, 7, (0, 1, 3, 7))
    system.add_path(0, 7, (0, 4, 6, 7))
    # The LP leaves the negligible pair's weights under its 1e-12 cut-off.
    result = min_congestion_on_paths(system, Demand({(0, 3): 1e-13, (0, 7): 1.0}))
    assert result.routing.distribution(0, 3) == {(0, 1, 3): 1.0}
    assert result.edge_congestions[(0, 1)] == result.edge_congestions[(1, 3)] == 0.5 + 1e-13
    assert (0, 2) not in result.edge_congestions and (2, 3) not in result.edge_congestions
