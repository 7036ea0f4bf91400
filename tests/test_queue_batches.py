"""The batched queues against a per-packet reference, and their invariants.

``QueueMatrix`` stores each FIFO as ``[arrival_slot, count]`` batches. The
reference below keeps one deque entry per packet, as a plain reading of the
model does. Random sequences of ``add_arrivals`` and ``transfer`` must leave
both with the same packets in the same order, the same ledgers and the same
delay records, after every operation.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwdr import FlowSpec, NetworkModel, QueueMatrix, SimulationInvariantError, step_slot
from conftest import queues_with, tandem_model


def two_flow_chain():
    """1 -> 2 -> 3 -> 4, one flow to node 4 and one to node 3 sharing two links."""
    flows = [
        FlowSpec(flow_id=4, source=1, route=(1, 2, 3, 4), arrival_rate=1.0),
        FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=1.0),
    ]
    return NetworkModel(nodes=[1, 2, 3, 4], links=[(1, 2), (2, 3), (3, 4)], flows=flows)


MODELS = {"tandem": tandem_model, "two-flow chain": two_flow_chain}


class PacketQueues:
    """Reference: one deque entry (the source arrival slot) per packet."""

    def __init__(self, model):
        self.queues = {
            (node, fl.flow_id): deque() for fl in model.flows for node in fl.route[:-1]
        }
        self.arrived = dict.fromkeys(self.queues, 0)
        self.served = dict.fromkeys(model.link_flow_index.triples, 0)
        self.delivered = {fl.flow_id: 0 for fl in model.flows}
        self.delay_sum = {fl.flow_id: 0 for fl in model.flows}
        self.delay_hist = {fl.flow_id: {} for fl in model.flows}

    def add_arrivals(self, i, f, count, slot):
        self.queues[(i, f)].extend([slot] * count)
        self.arrived[(i, f)] += count

    def transfer(self, i, j, f, max_packets, slot):
        src = self.queues[(i, f)]
        n = min(len(src), max_packets)
        for _ in range(n):
            arrival = src.popleft()
            if j == f:
                d = slot - arrival
                self.delay_sum[f] += d
                self.delay_hist[f][d] = self.delay_hist[f].get(d, 0) + 1
            else:
                self.queues[(j, f)].append(arrival)
        if j == f:
            self.delivered[f] += n
        self.served[(i, j, f)] += n
        return n


def batches(queues, i, f):
    return list(queues._fifo[queues.index.queue[(i, f)]])


def assert_same_state(queues, ref):
    for (i, f), packets in ref.queues.items():
        held = batches(queues, i, f)
        expanded = [slot for slot, count in held for _ in range(count)]
        assert expanded == list(packets)  # same packets, same order: head of line included
        assert sum(count for _, count in held) == queues._len[queues.index.queue[(i, f)]]
        assert all(count > 0 for _, count in held)
        slots = [slot for slot, _ in held]
        assert slots == sorted(set(slots))  # at most one batch per arrival slot
        assert queues.length(i, f) == len(packets)
        assert queues.arrived(i, f) == ref.arrived[(i, f)]
    for triple, count in ref.served.items():
        assert queues.served(*triple) == count
    assert queues.delivered == ref.delivered
    assert queues.delay_sum == ref.delay_sum
    assert queues.delay_hist == ref.delay_hist
    for f in ref.delivered:
        backlog = sum(len(p) for (_, g), p in ref.queues.items() if g == f)
        assert queues.flow_backlog[f] == backlog
    assert queues.total == sum(len(p) for p in ref.queues.values())


# one operation: (slot advance, arrival or transfer, which source queue or element, count or budget)
OPERATION = st.tuples(
    st.integers(0, 2), st.booleans(), st.integers(0, 100), st.integers(0, 6)
)


@pytest.mark.parametrize("model_name", sorted(MODELS))
@settings(max_examples=150, deadline=None)
@given(ops=st.lists(OPERATION, max_size=60))
def test_batched_queues_match_packet_reference(model_name, ops):
    model = MODELS[model_name]()
    queues = QueueMatrix(model)
    ref = PacketQueues(model)
    index = model.link_flow_index
    sources = [index.queue[(fl.source, fl.flow_id)] for fl in model.flows]
    triples = index.triples
    slot = 0
    for advance, is_arrival, which, amount in ops:
        slot += advance
        if is_arrival:
            q = sources[which % len(sources)]
            i, _, f = triples[q]
            queues.add_arrivals(q, amount, slot)
            ref.add_arrivals(i, f, amount, slot)
        else:
            p = which % len(triples)
            assert queues.transfer(p, amount, slot) == ref.transfer(*triples[p], amount, slot)
        assert_same_state(queues, ref)
        queues.verify_balance(slot)


class TestInvariantsFire:
    def test_corrupted_length_counter(self):
        queues = queues_with(tandem_model(), {(1, 3): 4})
        queues.verify_balance(0)
        queues._len[queues.index.queue[(1, 3)]] += 1
        with pytest.raises(SimulationInvariantError, match="node 1 flow 3"):
            queues.verify_balance(0)

    def test_corrupted_downstream_length_counter(self):
        queues = queues_with(tandem_model(), {(1, 3): 4})
        queues.transfer(0, 2, slot=1)  # element (1, 2, 3)
        queues._len[queues.index.queue[(2, 3)]] -= 1
        with pytest.raises(SimulationInvariantError, match="node 2 flow 3"):
            queues.verify_balance(1)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_corrupted_batch_count(self, delta):
        # batches and length counter disagree; the slot that serves the
        # corrupted batch leaves a counter with no batches, or batches with
        # a zero counter, and that slot's check raises
        queues = queues_with(tandem_model(), {(1, 3): 3})
        batches(queues, 1, 3)[0][1] += delta
        with pytest.raises(SimulationInvariantError, match="node 1 flow 3"):
            step_slot(queues, [0], [5, 5], [], slot=1)

    def test_shared_node_in_one_slot(self):
        model = two_flow_chain()
        queues = queues_with(model, {(1, 3): 2, (1, 4): 2})
        index = model.link_flow_index
        same_link = [index.positions[(1, 2, 3)], index.positions[(1, 2, 4)]]
        with pytest.raises(SimulationInvariantError, match="interference"):
            step_slot(queues, same_link, [1] * len(index), [], slot=0)
