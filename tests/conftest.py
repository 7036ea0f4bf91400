import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from qwdr import ChannelModel, FlowSpec, NetworkModel, QueueMatrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (section, field, rejected value) of a scenario document, where the section
# "flows[0]" is the first flow; loading must name "section.field" in its
# ConfigError
BAD_FIELDS = [
    ("solver", "alpha", 0.0),
    ("solver", "alpha", -1e-4),
    ("solver", "alpha", math.nan),
    ("solver", "cycles", 0),
    ("solver", "tolerance", -1e-9),
    ("solver", "tolerance", math.nan),
    ("solver", "n_rep", 0),
    ("weights", "a1", -0.1),
    ("weights", "a2", 0.0),
    ("weights", "a2", math.inf),
    ("channel", "sigma2", 0.0),
    ("channel", "sigma2", math.nan),
    ("channel", "truncation_factor", 0.0),
    ("channel", "truncation_factor", -1.0),
    ("channel", "gain_scale", -1.0),
    ("channel", "fixed_rates", {"1-2": -1.0}),
    ("channel", "fixed_rates", math.inf),
    ("review", "k0", -0.01),
    ("review", "k0", math.inf),
    ("run", "horizon_slots", 0),
    ("run", "seed", -1),
    ("run", "channel_seed", -1),
    ("run", "arrival_seed", -1),
    ("run", "solver_trace", True),  # false is its only value
    ("flows[0]", "rate", math.nan),
    ("flows[0]", "rate", 2**70),  # above numpy's Poisson limit
    ("flows[0]", "delay_target", math.nan),
]


def set_field(doc, section, key, value):
    """Set ``section.key`` of a scenario document, keeping the section's other keys."""
    target = doc["flows"][0] if section == "flows[0]" else doc.setdefault(section, {})
    target[key] = value


def tandem_model(rate=1.5, target=None):
    """1 -> 2 -> 3, one flow to node 3."""
    flows = [FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=rate, delay_target=target)]
    return NetworkModel(nodes=[1, 2, 3], links=[(1, 2), (2, 3)], flows=flows)


def fork_model():
    """Two single-hop flows out of node 1: elements share node 1's constraint."""
    flows = [
        FlowSpec(flow_id=2, source=1, route=(1, 2), arrival_rate=1.0),
        FlowSpec(flow_id=3, source=1, route=(1, 3), arrival_rate=1.0),
    ]
    return NetworkModel(nodes=[1, 2, 3], links=[(1, 2), (1, 3)], flows=flows)


def fixed_channel(model, rate):
    """Degenerate channel with the same rate on every link."""
    return ChannelModel(
        links=model.links,
        mean_gain={},
        fixed_rates={l: float(rate) for l in model.links},
    )


def queues_with(model, lengths, slot=0):
    """QueueMatrix preloaded with given {(node, flow): count} backlogs."""
    queues = QueueMatrix(model)
    for source, count in lengths.items():
        queues.add_arrivals(model.link_flow_index.queue[source], count, slot)
    return queues


def load_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
