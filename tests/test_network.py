import math

import pytest

from qwdr import (
    FlowSpec,
    LinkFlowIndex,
    NetworkModel,
    QueueMatrix,
)


def three_node_model():
    flows = [FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=1.0)]
    return NetworkModel(nodes=[1, 2, 3], links=[(1, 2), (2, 3)], flows=flows)


class TestLinkFlowIndex:
    def test_two_hop_route_enumeration(self):
        flows = [FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=0.5)]
        index = LinkFlowIndex(flows)
        assert len(index) == 2
        assert index.positions[(1, 2, 3)] == 0
        assert index.positions[(2, 3, 3)] == 1
        assert index.triples[0] == (1, 2, 3)
        assert index.triples[1] == (2, 3, 3)

    def test_empty_flow_list(self):
        assert len(LinkFlowIndex([])) == 0

    def test_lexicographic_ordering_across_flows(self):
        flows = [
            FlowSpec(flow_id=4, source=2, route=(2, 3, 4), arrival_rate=0.1),
            FlowSpec(flow_id=5, source=1, route=(1, 3, 5), arrival_rate=0.1),
        ]
        index = LinkFlowIndex(flows)
        assert index.triples == ((1, 3, 5), (2, 3, 4), (3, 4, 4), (3, 5, 5))

    def test_unknown_triple_raises(self):
        index = LinkFlowIndex([FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=0.5)])
        assert (3, 1, 3) not in index.positions
        with pytest.raises(KeyError):
            index.positions[(3, 1, 3)]

    def test_duplicate_element_rejected(self):
        # two flows under one id sharing a hop; NetworkModel refuses the ids first
        flows = [
            FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=0.5),
            FlowSpec(flow_id=3, source=4, route=(4, 2, 3), arrival_rate=0.5),
        ]
        with pytest.raises(ValueError, match=r"duplicate link-flow element \(2, 3, 3\)"):
            LinkFlowIndex(flows)

    def test_two_next_hops_of_one_flow_rejected(self):
        # one flow id leaving node 1 by two hops would give four elements
        # but three queues; NetworkModel refuses the ids first
        flows = [
            FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=1.0),
            FlowSpec(flow_id=3, source=1, route=(1, 4, 3), arrival_rate=1.0),
        ]
        with pytest.raises(ValueError, match=r"flow 3: node 1 forwards to both 2 and 4"):
            LinkFlowIndex(flows)

    def test_queue_wiring_of_a_tandem(self):
        index = LinkFlowIndex([FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=0.5)])
        assert index.queue == {(1, 3): 0, (2, 3): 1}
        assert index.down == [1, 2]  # 2 = size stands for the destination
        assert index.ledger == [(0, 2), (1, 0)]  # 2 = size stands for the source
        assert index.members == [[0], [0, 1], [1]]
        assert index.elem_overlap == [1, 1]
        assert index.elem_same == [False, False]


class TestFlowSpec:
    def test_route_must_be_simple_path(self):
        with pytest.raises(ValueError):
            FlowSpec(flow_id=1, source=1, route=(1, 2, 1), arrival_rate=0.5)

    def test_route_endpoints_validated(self):
        with pytest.raises(ValueError):
            FlowSpec(flow_id=3, source=2, route=(1, 2, 3), arrival_rate=0.5)
        with pytest.raises(ValueError):
            FlowSpec(flow_id=9, source=1, route=(1, 2, 3), arrival_rate=0.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=-1.0)

    def test_rate_beyond_poisson_sampler_rejected(self):
        for rate in (math.nan, 2.0**70):
            with pytest.raises(ValueError, match="arrival rate"):
                FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=rate)
        with pytest.raises(ValueError, match="delay target"):
            FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=1.0, delay_target=math.nan)

    def test_queue_threshold_is_rate_times_target(self):
        flow = FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=2.5, delay_target=40.0)
        assert flow.queue_threshold == 100.0
        plain = FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=2.5)
        assert plain.queue_threshold is None


class TestNetworkModel:
    def test_route_through_missing_link_rejected(self):
        flows = [FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=1.0)]
        with pytest.raises(ValueError, match=r"^flows\[0\]\.route: hop \(2, 3\) of flow 3 is not a link$"):
            NetworkModel(nodes=[1, 2, 3], links=[(1, 2)], flows=flows)

    @pytest.mark.parametrize(
        "nodes, links, flow_ids, message",
        [
            ([1, 2], [(1, 2), (2, 3)], [2], r"^link \(2,3\) references an unknown node$"),
            ([1, 2], [(1, 2)], [2, 2], r"^duplicate flow ids$"),
        ],
        ids=["unknown-node", "duplicate-ids"],
    )
    def test_bad_input_rejected(self, nodes, links, flow_ids, message):
        flows = [FlowSpec(flow_id=f, source=1, route=(1, 2), arrival_rate=1.0) for f in flow_ids]
        with pytest.raises(ValueError, match=message):
            NetworkModel(nodes=nodes, links=links, flows=flows)


class TestQueueMatrix:
    def test_differential_backlog_examples(self):
        model = three_node_model()
        queues = QueueMatrix(model)
        # positions: 0 is (1, 2, 3) serving queue (1, 3), 1 is (2, 3, 3) serving queue (2, 3)
        queues.add_arrivals(0, 5, slot=0)
        queues.add_arrivals(1, 2, slot=0)
        assert queues.snapshot().differentials[0] == 3
        # clamp at zero when downstream is longer
        queues.add_arrivals(1, 6, slot=1)
        assert queues.snapshot().differentials[0] == 0
        # destination queue counts as empty
        assert queues.snapshot().differentials[1] == 8

    def test_fifo_order_and_delay_recording(self):
        model = three_node_model()
        queues = QueueMatrix(model)
        for slot in (0, 1, 2):
            queues.add_arrivals(0, 1, slot=slot)  # queue (1, 3)
        queues.transfer(0, 2, slot=5)   # (1, 2, 3): heads move first
        assert queues.length(1, 3) == 1
        assert queues.length(2, 3) == 2
        queues.transfer(1, 5, slot=7)   # (2, 3, 3): delivery records delays 7-0, 7-1
        assert queues.delivered[3] == 2
        assert queues.delay_sum[3] == 7 + 6
        assert queues.delay_hist[3] == {7: 1, 6: 1}

    def test_conservation_and_balance(self):
        model = three_node_model()
        queues = QueueMatrix(model)
        queues.add_arrivals(0, 4, slot=0)  # queue (1, 3)
        queues.transfer(0, 3, slot=1)  # (1, 2, 3)
        queues.transfer(1, 2, slot=2)  # (2, 3, 3)
        queues.verify_balance(slot=2)
        assert queues.injected == 4
        assert queues.total == 2
        assert queues.delivered_total == 2

    def test_snapshot_matches_lengths(self):
        model = three_node_model()
        queues = QueueMatrix(model)
        queues.add_arrivals(0, 5, slot=0)  # queue (1, 3)
        queues.add_arrivals(1, 1, slot=0)  # queue (2, 3)
        snap = queues.snapshot()
        assert snap.flow_backlogs == {3: 6}
        assert snap.differentials == [4, 1]
        assert all(type(d) is int for d in snap.differentials)  # Python ints, no int64 bound
