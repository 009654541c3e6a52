"""Unit tests for the exact min-congestion MCF LP."""

import pytest

from repro.demands.demand import Demand
from repro.demands.generators import random_permutation_demand
from repro.exceptions import InfeasibleError
from repro.graphs import topologies
from repro.graphs.network import Network
from repro.mcf.lp import min_congestion_lp, optimal_congestion


def test_empty_demand_zero_congestion(cube3):
    result = min_congestion_lp(cube3, Demand.empty())
    assert result.congestion == 0.0
    assert result.routing is None


def test_single_pair_on_path_graph(path4):
    # A single unit of demand across a path must use every edge: congestion 1.
    result = min_congestion_lp(path4, Demand({(0, 3): 1.0}))
    assert result.congestion == pytest.approx(1.0, abs=1e-6)


def test_parallel_paths_split(cycle5):
    # On a cycle, one unit between adjacent vertices can split over both arcs.
    result = min_congestion_lp(cycle5, Demand({(0, 1): 1.0}))
    assert result.congestion == pytest.approx(0.5, abs=1e-6)


def test_capacity_scaling():
    net = Network.from_edges([(0, 1), (1, 2), (0, 2)], capacities={(0, 1): 10.0, (1, 2): 10.0, (0, 2): 10.0})
    result = min_congestion_lp(net, Demand({(0, 2): 1.0}))
    # Two disjoint routes (direct with cap 10, and via 1): optimal congestion 1/15? No —
    # congestion = load/capacity; splitting x direct and 1-x via vertex 1 gives
    # max(x/10, (1-x)/10) minimized at x=1/2 -> 0.05.
    assert result.congestion == pytest.approx(0.05, abs=1e-6)


def test_optimal_congestion_on_hypercube_matches_structure(cube3):
    # Antipodal unit demand on the 3-cube: three edge-disjoint shortest paths
    # exist, so congestion 1/3 is achievable.
    value = optimal_congestion(cube3, Demand({(0, 7): 1.0}))
    assert value == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_return_routing_is_feasible_and_optimal(cube3, permutation_demand_cube3):
    result = min_congestion_lp(cube3, permutation_demand_cube3, return_routing=True)
    assert result.routing is not None
    realized = result.routing.congestion(permutation_demand_cube3)
    assert realized <= result.congestion * (1 + 1e-9)
    # Every demanded pair is covered by the routing.
    for pair in permutation_demand_cube3.pairs():
        assert result.routing.covers(*pair)


def test_edge_congestions_consistent(cube3):
    demand = Demand({(0, 7): 2.0, (1, 6): 1.0})
    result = min_congestion_lp(cube3, demand)
    assert max(result.edge_congestions.values()) == pytest.approx(result.congestion, abs=1e-5)


def test_infeasible_disconnected_demand():
    import networkx as nx

    graph = nx.Graph()
    graph.add_edge(0, 1)
    graph.add_edge(2, 3)
    net = Network(graph, require_connected=False)
    with pytest.raises(InfeasibleError):
        min_congestion_lp(net, Demand({(0, 3): 1.0}))


def test_lp_lower_bounds_any_routing(cube3, permutation_demand_cube3):
    # The LP optimum is a lower bound on the congestion of any concrete routing.
    from repro.oblivious.shortest_path import ShortestPathRouting

    spf = ShortestPathRouting(cube3).routing_for_demand(permutation_demand_cube3)
    optimum = optimal_congestion(cube3, permutation_demand_cube3)
    assert spf.congestion(permutation_demand_cube3) >= optimum - 1e-6


def test_scaling_demand_scales_optimum(cube3):
    demand = Demand({(0, 7): 1.0, (3, 4): 1.0})
    base = optimal_congestion(cube3, demand)
    doubled = optimal_congestion(cube3, demand.scaled(2.0))
    assert doubled == pytest.approx(2.0 * base, rel=1e-4)
