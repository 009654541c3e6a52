"""The source-aggregated min-congestion kernel against independent models.

* The MCF optimum matches the per-pair LP oracle (``_mcf_oracle``) within
  1e-9 relative on the catalog, hypercubes and tori, on seeded gravity and
  permutation demands, and on random small capacitated graphs.
* The optimal routing's decomposition routes every pair's full demand
  and never exceeds the optimum; a flow it cannot decompose raises.
* The path LP hands HiGHS the same CSR model as the per-path assembly,
  also after ``add_path`` and on an unpickled path system, whose derived
  edge index never reaches the pickle.
* The ``mcf.lp`` span records the model size as a deterministic counter.
"""

from __future__ import annotations

import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

import repro.mcf.lp as lp_module
from _mcf_oracle import per_pair_optimum
from repro.demands.demand import Demand
from repro.demands.generators import all_pairs_demand, gravity_demand, random_permutation_demand
from repro.engine import RoutingEngine
from repro.exceptions import SolverError
from repro.graphs import topologies
from repro.graphs.network import Network, path_edges
from repro.mcf.lp import min_congestion_lp
from repro.mcf.path_lp import min_congestion_on_paths
from repro.net import catalog_entries, load_network
from repro.obs import RecordingSink, Tracer, install_tracer, span_records, uninstall_tracer

TOLERANCE = 1e-9

NETWORKS = [f"{entry.format}({entry.name})" for entry in catalog_entries()] + [
    "hypercube:3",
    "hypercube:4",
    "torus:3",
    "torus:4",
    "torus:5",
]


def _network(spec: str) -> Network:
    family, _, size = spec.partition(":")
    if family == "hypercube":
        return topologies.hypercube(int(size))
    if family == "torus":
        return topologies.torus_2d(int(size))
    return load_network(spec)


def _assert_optimal_routing(network, demand, result):
    realized = result.routing.congestion(demand)
    assert realized <= result.congestion * (1 + TOLERANCE)
    for pair in demand.pairs():
        assert sum(result.routing.distribution(*pair).values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("spec", NETWORKS)
@pytest.mark.parametrize("kind", ["gravity", "permutation"])
def test_optimum_matches_per_pair_oracle(spec, kind):
    network = _network(spec)
    if kind == "gravity":
        demand = gravity_demand(network, total=float(network.num_vertices), rng=11)
    else:
        demand = random_permutation_demand(network, rng=11)
    result = min_congestion_lp(network, demand, return_routing=True)
    oracle = per_pair_optimum(network, demand)
    assert abs(result.congestion - oracle) <= TOLERANCE * oracle
    _assert_optimal_routing(network, demand, result)


@st.composite
def capacitated_graphs(draw):
    n = draw(st.integers(3, 7))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for v in range(1, n):  # a random spanning tree keeps the graph connected
        graph.add_edge(v, draw(st.integers(0, v - 1)))
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)):
        if u != v:
            graph.add_edge(u, v)
    for u, v in graph.edges():
        graph[u][v]["capacity"] = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5]))
    return Network(graph)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), network=capacitated_graphs())
def test_property_optimum_and_routing_on_random_graphs(data, network):
    n = network.num_vertices
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    if data.draw(st.booleans(), label="single pair"):
        pairs = [data.draw(pair)]
    else:
        # Few sources, several destinations each: the aggregated case.
        sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        pairs = [(s, t) for s in sources for t in range(n) if t != s]
    amounts = data.draw(st.lists(st.floats(0.1, 10.0), min_size=len(pairs), max_size=len(pairs)))
    demand = Demand(dict(zip(pairs, amounts)))
    result = min_congestion_lp(network, demand, return_routing=True)
    oracle = per_pair_optimum(network, demand)
    assert abs(result.congestion - oracle) <= TOLERANCE * oracle
    _assert_optimal_routing(network, demand, result)


def test_undecomposable_flow_raises_naming_the_pair(cube3, monkeypatch):
    real_linprog = lp_module.linprog

    def lossy_linprog(*args, **kwargs):
        result = real_linprog(*args, **kwargs)
        result.x[:-1] *= 0.5  # every source now delivers half its demand
        return result

    monkeypatch.setattr(lp_module, "linprog", lossy_linprog)
    with pytest.raises(SolverError, match=r"pair \(0, 7\) left 0\.5 of 1 undecomposed"):
        min_congestion_lp(cube3, Demand({(0, 7): 1.0}), return_routing=True)


def test_traced_optimum_records_source_aggregated_model_size(cube4):
    tracer = install_tracer(Tracer(sink=RecordingSink()))
    try:
        min_congestion_lp(cube4, all_pairs_demand(cube4))
    finally:
        uninstall_tracer()
    (span,) = [r for r in span_records(tracer.records) if r["name"] == "mcf.lp"]
    attrs = span["attrs"]
    # S * 2m + 1 with S = 16 sources and m = 32 edges; per pair it was 15 361.
    assert attrs["columns"] == 16 * 64 + 1 == 1025
    assert attrs["rows"] == 16 * 16 + 32
    assert attrs["nnz"] == 16 * 128 + 16 * 64 + 32
    assert attrs["sources"] == 16 and attrs["commodities"] == 240
    assert attrs["status"] == 0 and attrs["nit"] > 0
    children = {r["name"] for r in span_records(tracer.records) if r.get("parent") == span["seq"]}
    assert children == {"mcf.lp_setup", "mcf.lp_solve"}


def _per_path_model(system, demand):
    """The per-path assembly the path LP used before the shared kernel."""
    network = system.network
    commodities = [(amount, system.paths(*pair)) for pair, amount in demand.items() if amount > 0]
    num_vars = sum(len(paths) for _, paths in commodities) + 1
    edge_row = {edge: row for row, edge in enumerate(network.edges)}
    eq_rows, eq_cols, ub_rows, ub_cols, ub_vals = [], [], [], [], []
    column = 0
    for index, (_, paths) in enumerate(commodities):
        for path in paths:
            eq_rows.append(index)
            eq_cols.append(column)
            for edge in path_edges(path):
                ub_rows.append(edge_row[edge])
                ub_cols.append(column)
                ub_vals.append(1.0)
            column += 1
    for edge, row in edge_row.items():
        ub_rows.append(row)
        ub_cols.append(num_vars - 1)
        ub_vals.append(-network.capacity_of(edge))
    shape = (len(commodities), num_vars)
    a_eq = sparse.coo_matrix(([1.0] * len(eq_rows), (eq_rows, eq_cols)), shape=shape).tocsr()
    a_ub = sparse.coo_matrix((ub_vals, (ub_rows, ub_cols)), shape=(len(edge_row), num_vars)).tocsr()
    return a_eq, np.array([amount for amount, _ in commodities]), a_ub


@pytest.mark.parametrize("spec", ["semi-oblivious(racke, alpha=4)", "ksp(k=4)"])
def test_path_lp_model_is_the_per_path_model(spec, monkeypatch):
    network = topologies.torus_2d(4)
    engine = RoutingEngine(network, [spec], rng=0)
    engine.install()
    system = engine[engine.labels()[0]].system
    demand = gravity_demand(network, total=16.0, rng=3)
    seen = {}
    real_linprog = lp_module.linprog

    def capturing_linprog(cost, **kwargs):
        seen.update(kwargs)
        return real_linprog(cost, **kwargs)

    monkeypatch.setattr(lp_module, "linprog", capturing_linprog)
    min_congestion_on_paths(system, demand)
    a_eq, b_eq, a_ub = _per_path_model(system, demand)
    assert seen["A_eq"].shape == a_eq.shape and seen["A_ub"].shape == a_ub.shape
    assert (seen["A_eq"] - a_eq).nnz == 0
    assert (seen["A_ub"] - a_ub).nnz == 0
    assert np.array_equal(seen["b_eq"], b_eq)
    assert not seen["b_ub"].any()


def _captured_path_lp(system, demand, monkeypatch):
    """The keyword arguments the path LP hands ``linprog``, and its span attrs."""
    seen = {}
    real_linprog = lp_module.linprog

    def capturing_linprog(cost, **kwargs):
        seen.update(kwargs)
        return real_linprog(cost, **kwargs)

    monkeypatch.setattr(lp_module, "linprog", capturing_linprog)
    tracer = install_tracer(Tracer(sink=RecordingSink()))
    try:
        min_congestion_on_paths(system, demand)
    finally:
        uninstall_tracer()
        monkeypatch.undo()
    (span,) = [r for r in span_records(tracer.records) if r["name"] == "mcf.path_lp"]
    return seen, span["attrs"]


def _assert_per_path_model(seen, system, demand):
    a_eq, b_eq, a_ub = _per_path_model(system, demand)
    assert seen["A_eq"].shape == a_eq.shape and seen["A_ub"].shape == a_ub.shape
    assert (seen["A_eq"] - a_eq).nnz == 0
    assert (seen["A_ub"] - a_ub).nnz == 0
    assert np.array_equal(seen["b_eq"], b_eq)


def _installed_system(network):
    engine = RoutingEngine(network, ["semi-oblivious(racke, alpha=4)"], rng=0)
    engine.install()
    return engine[engine.labels()[0]].system


def test_add_path_after_a_path_lp_adds_one_column(monkeypatch):
    network = topologies.torus_2d(4)
    system = _installed_system(network)
    demand = gravity_demand(network, total=16.0, rng=3)
    _, before = _captured_path_lp(system, demand, monkeypatch)
    pair = next(pair for pair, amount in demand.items() if amount > 0)
    path = next(
        tuple(path)
        for path in nx.all_simple_paths(network.graph, *pair)
        if tuple(path) not in system.paths(*pair)
    )
    assert system.add_path(*pair, path)
    seen, after = _captured_path_lp(system, demand, monkeypatch)
    assert after["columns"] == before["columns"] + 1
    # One equality entry plus one load entry per hop of the new path.
    assert after["nnz"] == before["nnz"] + len(path)
    _assert_per_path_model(seen, system, demand)


def test_pickled_path_system_leaves_out_the_edge_index(monkeypatch):
    network = topologies.torus_2d(4)
    system = _installed_system(network)
    demand = gravity_demand(network, total=16.0, rng=3)
    never_solved = pickle.dumps(system)
    min_congestion_on_paths(system, demand)
    solved = pickle.dumps(system)
    assert len(solved) == len(never_solved) and solved == never_solved
    copy = pickle.loads(solved)
    seen, _ = _captured_path_lp(copy, demand, monkeypatch)
    _assert_per_path_model(seen, copy, demand)
