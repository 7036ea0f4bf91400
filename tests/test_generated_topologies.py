"""Properties on generated topologies.

Each example builds a connected networkx graph -- a grid, a random tree, a
star or a seeded random geometric graph -- makes every edge a link in both
directions, and routes a few flows on shortest paths to distinct
destinations. The properties:

* every field of the element table equals its brute-force recomputation
  from the triples;
* an allocation lies in [0, 1] and every node sum is at most 1;
* a schedule grants each element at most ceil(quota) slots, and the active
  elements of each slot share no node;
* both per-slot invariants hold over a short run;
* equal seeds give equal ``metrics.json`` bytes.
"""

import os
import random
import tempfile

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qwdr import QueueMatrix, collect_metrics, create_schedule, run, scenario_from_dict, solve_allocation
from qwdr.simulate import FEASIBILITY_TOL

KINDS = ("grid", "tree", "star", "geometric")


def _graph(kind: str, size: int, seed: int) -> nx.Graph:
    if kind == "grid":
        graph = nx.grid_2d_graph(2, size)
    elif kind == "tree":
        rng = random.Random(seed)
        graph = nx.Graph([(n, rng.randrange(n)) for n in range(1, size + 2)])
    elif kind == "star":
        graph = nx.star_graph(size)
    else:
        graph = nx.random_geometric_graph(size + 3, 0.6, seed=seed)
        graph = graph.subgraph(max(nx.connected_components(graph), key=len)).copy()
        if graph.number_of_nodes() < 2:  # an isolated draw: fall back to one link
            graph = nx.path_graph(2)
    return nx.convert_node_labels_to_integers(graph, first_label=1, ordering="sorted")


@st.composite
def scenarios(draw):
    """A scenario document on a generated connected graph."""
    kind = draw(st.sampled_from(KINDS))
    size = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    graph = _graph(kind, size, seed)
    rng = random.Random(seed)
    nodes = sorted(graph.nodes)
    destinations = rng.sample(nodes, draw(st.integers(1, min(4, len(nodes)))))
    flows = []
    for dest in destinations:
        source = rng.choice([n for n in nodes if n != dest])
        flow = {
            "id": dest,
            "source": source,
            "route": nx.shortest_path(graph, source, dest),
            "rate": round(rng.uniform(0.0, 1.5), 3),
        }
        if rng.random() < 0.5:
            flow["delay_target"] = rng.choice([5.0, 50.0])
        flows.append(flow)
    doc = {
        "name": kind,
        "links": [list(edge) for edge in sorted(graph.edges)],
        "bidirectional": True,
        "flows": flows,
        "run": {"seed": seed, "horizon_slots": draw(st.integers(1, 60)), "schedule_trace": True},
    }
    if kind == "geometric":
        doc["nodes"] = {str(n): list(graph.nodes[n]["pos"]) for n in nodes}
        doc["channel"] = {"gain_scale": 20.0}
    else:
        links = [link for a, b in graph.edges for link in ((a, b), (b, a))]
        doc["channel"] = {"fixed_rates": {f"{i}-{j}": rng.choice([0.5, 1.0, 2.5, 4.0]) for i, j in links}}
    return doc


@settings(max_examples=80, deadline=None)
@given(scenarios())
def test_element_table_matches_brute_force(doc):
    cfg = scenario_from_dict(doc)
    model = cfg.build_model()
    index = model.link_flow_index
    triples = index.triples
    size = len(triples)
    assert list(triples) == sorted((i, j, fl.flow_id) for fl in model.flows for i, j in fl.hops)
    assert index.size == size
    assert index.positions == {t: p for p, t in enumerate(triples)}
    nodes = sorted({n for i, j, _ in triples for n in (i, j)})
    assert index.nodes == nodes
    assert index.node_constraint == {n: c for c, n in enumerate(nodes)}
    assert index.members == [[p for p, (i, j, _) in enumerate(triples) if n in (i, j)] for n in nodes]
    assert index.sizes == [sum(n in (i, j) for i, j, _ in triples) for n in nodes]
    assert index.flow_ids == [fl.flow_id for fl in model.flows]
    routes = {fl.flow_id: fl.route for fl in model.flows}
    for p, (i, j, f) in enumerate(triples):
        assert index.elem_ca[p] == nodes.index(i)
        assert index.elem_cb[p] == nodes.index(j)
        assert index.elem_overlap[p] == sum({a, b} == {i, j} for a, b, _ in triples)
        touching_i = {q for q, (a, b, _) in enumerate(triples) if i in (a, b)}
        touching_j = {q for q, (a, b, _) in enumerate(triples) if j in (a, b)}
        assert index.elem_same[p] == (touching_i == touching_j)
        assert index.flow_ids[index.elem_flow[p]] == f
        assert index.queue[(i, f)] == p
        route = routes[f]
        hop = route.index(j)
        down = size if j == f else triples.index((j, route[hop + 1], f))
        assert index.down[p] == down
    assert len(index.queue) == size
    ledger = []
    for fl in model.flows:
        route, f = fl.route, fl.flow_id
        for n in range(len(route) - 1):
            up = size if n == 0 else triples.index((route[n - 1], route[n], f))
            ledger.append((triples.index((route[n], route[n + 1], f)), up))
    assert index.ledger == ledger
    channel = cfg.build_channel()
    assert index.link_offsets(channel.positions) == [channel.positions[(i, j)] for i, j, _ in triples]


@settings(max_examples=80, deadline=None)
@given(scenarios(), st.integers(0, 2**16), st.integers(1, 20))
def test_allocation_and_schedule_feasible(doc, seed, period):
    cfg = scenario_from_dict(doc)
    model = cfg.build_model()
    index = model.link_flow_index
    queues = QueueMatrix(model)
    rng = random.Random(seed)
    for (i, f) in index.queue:
        queues.add_arrivals(i, f, rng.choice([0, 0, 1, 7, 300]), slot=0)
    snapshot = queues.snapshot()
    state = cfg.build_channel().draw(seed)
    alloc = solve_allocation(snapshot, state, model, cfg.build_solver_config(), cfg.build_weight_config())
    assert np.all((alloc >= 0.0) & (alloc <= 1.0))
    for mlist in index.members:
        assert sum(alloc[m] for m in mlist) <= 1.0 + FEASIBILITY_TOL
    schedule = create_schedule(alloc, model, period)
    assert np.all(schedule.counts <= np.ceil(schedule.quota))
    for active in schedule.active:
        ends = [n for p in active for n in index.triples[p][:2]]
        assert len(ends) == len(set(ends))


def _run(cfg):
    return run(
        cfg.build_model(),
        cfg.build_channel(),
        cfg.build_arrivals(),
        horizon=cfg.horizon_slots,
        solver_cfg=cfg.build_solver_config(),
        weight_cfg=cfg.build_weight_config(),
        k0=cfg.k0,
        queue_sample_interval=cfg.queue_sample_interval,
        record_schedule=cfg.schedule_trace,
    )


@settings(max_examples=50, deadline=None)
@given(scenarios())
def test_short_runs_keep_invariants_and_repeat_bytes(doc):
    cfg = scenario_from_dict(doc)
    digests = []
    for _ in range(2):
        result = _run(cfg)  # step_slot checks both invariants in every slot
        result.queues.verify_balance(cfg.horizon_slots)
        busy = set()
        for slot, i, j, _ in result.schedule_trace:
            assert (slot, i) not in busy and (slot, j) not in busy
            busy.update(((slot, i), (slot, j)))
        with tempfile.TemporaryDirectory() as out:
            collect_metrics(result, cfg, out_dir=out)
            with open(os.path.join(out, "metrics.json"), "rb") as fh:
                digests.append(fh.read())
    assert digests[0] == digests[1]
