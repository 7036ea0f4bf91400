import numpy as np
import pytest

from qwdr import ChannelModel, FlowSpec, NetworkModel, QueueMatrix

# (section, field, rejected value) of a scenario document; loading must name
# "section.field" in its ConfigError
BAD_SOLVER_AND_WEIGHT_FIELDS = [
    ("solver", "alpha", 0.0),
    ("solver", "alpha", -1e-4),
    ("solver", "cycles", 0),
    ("solver", "tolerance", -1e-9),
    ("solver", "n_rep", 0),
    ("weights", "a1", -0.1),
    ("weights", "a2", 0.0),
]


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
    for (node, flow), count in lengths.items():
        queues.add_arrivals(node, flow, count, slot)
    return queues


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
