"""Benchmark workloads: seeded scenario inputs for qwdr.

Each workload sits at a different point of the discrete-review split. The
review period grows as ceil(log(1 + k0 * backlog)), so a light load reviews
almost every slot (the solver, scheduler and snapshot carry the run) while an
overload reviews rarely and the slot engine moves packets most of the time.

* ``paper15-row2``: the bundled preset, row 2 (delay-target weights on).
* ``grid-review``: 40 light flows on a 10x10 grid, K held at 280 elements.
* ``chain-overload``: a 5-node chain loaded outside its capacity region.

A spec is what a run process needs to build the scenario: either the name of
a preset plus its arguments, or a scenario document for
``qwdr.scenario_from_dict``. Generating the spec is not part of set-up time.
"""

from __future__ import annotations

import random

NAMES = ("paper15-row2", "grid-review", "chain-overload")

#: slots simulated by one ``run()`` call: a quarter to half a second on a
#: 2-core host at the seed commit, so that one 40 s benchmark run holds 40 to
#: 80 calls that all do the same work, more than ten of them above the upper
#: quartile the benchmark reports
HORIZON = {
    "paper15-row2": 2_000,
    "grid-review": 300,
    "chain-overload": 5_000,
}

#: ``run()`` calls, each on a fresh build of the same scenario, per run process
REPEAT = {
    "paper15-row2": 10,
    "grid-review": 8,
    "chain-overload": 10,
}

GRID_SIDE = 10
GRID_FLOWS = 40
GRID_RATE = 0.10
GRID_GAIN_SCALE = 46_000.0
# Route lengths of the 40 grid flows, in hops. Every seed uses the same
# multiset, so K = sum(GRID_HOPS) = 280 and the seed moves only where the
# flows run, not how much work one review is.
GRID_HOPS = (4, 5, 6, 7, 8, 9, 10, 7) * 5


def _grid_doc(seed: int) -> dict:
    import networkx as nx

    side = GRID_SIDE
    graph = nx.grid_2d_graph(side, side)

    def node_id(cell):
        return cell[0] * side + cell[1] + 1

    rng = random.Random(seed)
    cells = sorted(graph.nodes)
    destinations = rng.sample(cells, GRID_FLOWS)
    flows = []
    for dest, hops in zip(destinations, GRID_HOPS):
        at_distance = [
            c for c in cells if abs(c[0] - dest[0]) + abs(c[1] - dest[1]) == hops
        ]
        source = rng.choice(at_distance)
        route = [node_id(c) for c in nx.shortest_path(graph, source, dest)]
        flows.append(
            {"id": node_id(dest), "source": node_id(source), "route": route, "rate": GRID_RATE}
        )
    step = 1.0 / (side - 1)
    return {
        "name": "grid-review",
        "nodes": {str(node_id(c)): [c[1] * step, c[0] * step] for c in cells},
        "links": [[node_id(a), node_id(b)] for a, b in sorted(graph.edges)],
        "bidirectional": True,
        "flows": flows,
        "channel": {"gain_scale": GRID_GAIN_SCALE},
        "run": {"horizon_slots": HORIZON["grid-review"], "seed": seed},
    }


def _chain_doc(seed: int) -> dict:
    return {
        "name": "chain-overload",
        "links": [[1, 2], [2, 3], [3, 4], [4, 5]],
        "flows": [
            {"id": 5, "source": 1, "route": [1, 2, 3, 4, 5], "rate": 110.0},
            {"id": 3, "source": 1, "route": [1, 2, 3], "rate": 27.5},
        ],
        "channel": {"fixed_rates": 256},
        "run": {"horizon_slots": HORIZON["chain-overload"], "seed": seed},
    }


def make_spec(name: str, seed: int) -> dict:
    """The inputs of one run of workload ``name`` at ``seed``."""
    if name == "paper15-row2":
        return {"preset": {"seed": seed, "row": 2, "horizon": HORIZON[name]}}
    if name == "grid-review":
        return {"doc": _grid_doc(seed)}
    if name == "chain-overload":
        return {"doc": _chain_doc(seed)}
    raise ValueError(f"unknown workload {name!r}")
