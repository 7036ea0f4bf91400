"""Static network description and dynamic per-flow queue state.

A network is a directed graph with a fixed route per flow. Interference is
node-exclusive: any two links that touch a common node may never be active in
the same slot. Every (link, flow) pair that can ever carry traffic -- i.e.
every consecutive hop of every route -- is a *link-flow element*, and the
set of all elements is indexed by its positions 0..K-1, the one index the
solver, scheduler and slot engine share. That element table is static: it
holds each element's link and keeps no channel state.

Queue state is kept in packet batches: each (node, flow) FIFO holds
``[arrival_slot, count]`` entries, one per source arrival slot still
present, so the cost of moving packets grows with batches, not packets.
Queues, lengths and the arrival/service ledger are flat lists indexed by
element position, and the slot engine moves and enqueues packets by
position: ``transfer(p, ...)`` and ``add_arrivals(q, ...)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

Link = tuple[int, int]
Triple = tuple[int, int, int]  # (i, j, f): link (i, j) carrying flow f

#: largest mean numpy's Poisson sampler accepts (its ``POISSON_LAM_MAX``)
POISSON_LAM_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


@dataclass(frozen=True)
class FlowSpec:
    """A flow: all traffic bound for one destination, on a fixed route.

    The flow id doubles as the destination node id. ``delay_target`` is an
    end-to-end mean delay requirement in slots; flows without one are never
    weighted. ``queue_threshold`` converts the target into a backlog
    threshold (rate x target) for the weighting function.
    """

    flow_id: int
    source: int
    route: tuple[int, ...]
    arrival_rate: float
    delay_target: Optional[float] = None
    weight_enabled: bool = True

    def __post_init__(self):
        object.__setattr__(self, "route", tuple(self.route))
        if len(self.route) < 2:
            raise ValueError(f"flow {self.flow_id}: route needs at least one hop")
        if self.route[0] != self.source:
            raise ValueError(f"flow {self.flow_id}: route must start at source {self.source}")
        if self.route[-1] != self.flow_id:
            raise ValueError(f"flow {self.flow_id}: route must end at the destination node")
        if len(set(self.route)) != len(self.route):
            raise ValueError(f"flow {self.flow_id}: route must be a simple path")
        if not 0 <= self.arrival_rate <= POISSON_LAM_MAX:
            raise ValueError(
                f"flow {self.flow_id}: arrival rate must be >= 0 and <= {POISSON_LAM_MAX:.6g}"
            )
        if self.delay_target is not None and not self.delay_target > 0:
            raise ValueError(f"flow {self.flow_id}: delay target must be > 0")

    @property
    def hops(self) -> list[Link]:
        return [(self.route[n], self.route[n + 1]) for n in range(len(self.route) - 1)]

    @property
    def queue_threshold(self) -> Optional[float]:
        if self.delay_target is None or not self.weight_enabled:
            return None
        return self.arrival_rate * self.delay_target


class LinkFlowIndex:
    """The element table: every link-flow element at its position 0..K-1.

    Elements are the consecutive route hops of every flow, ordered
    lexicographically by (i, j, f): ``triples[p]`` is the element at
    position p and ``positions`` maps each triple back to p. Built once from
    the flows, the table also holds what solver, scheduler, slot engine and
    oracle read by position:

    * one interference constraint per node with an incident element, in node
      order: ``nodes[c]``, ``node_constraint[node]``, ``members[c]`` (its
      elements) and ``sizes[c]``;
    * per element: the constraints of its two endpoints (``elem_ca``,
      ``elem_cb``), the size of their supports' intersection
      (``elem_overlap``), whether the supports coincide (``elem_same``), and
      its flow id (``elem_flow``), the one key of a flow everywhere, and its
      link (``elem_link``);
    * the queues: queue (i, f) sits at the position ``queue[(i, f)]`` of the
      element that serves it; ``down[p]`` is the queue element p feeds
      (``size`` at the destination), and ``ledger`` pairs each queue with its
      upstream element (``size`` at the source), in flow and route order.
    """

    def __init__(self, flows: Iterable[FlowSpec]):
        flows = tuple(flows)
        triples = sorted((i, j, flow.flow_id) for flow in flows for i, j in flow.hops)
        for t, u in zip(triples, triples[1:]):
            if t == u:
                raise ValueError(f"duplicate link-flow element {t}")
        self.triples: tuple[Triple, ...] = tuple(triples)
        self.size = size = len(triples)
        self.positions: dict[Triple, int] = {t: p for p, t in enumerate(triples)}
        self.queue: dict[tuple[int, int], int] = {(i, f): p for p, (i, j, f) in enumerate(triples)}
        if len(self.queue) != size:  # one queue per element: each node has one next hop per flow
            hops: dict[tuple[int, int], int] = {}
            for i, j, f in triples:
                if hops.setdefault((i, f), j) != j:
                    raise ValueError(
                        f"flow {f}: node {i} forwards to both {hops[(i, f)]} and {j}; "
                        "a flow has one next hop per node"
                    )
        members: dict[int, list[int]] = {}
        for p, (i, j, f) in enumerate(triples):
            members.setdefault(i, []).append(p)
            members.setdefault(j, []).append(p)
        self.nodes = sorted(members)
        self.node_constraint = {n: c for c, n in enumerate(self.nodes)}
        self.members: list[list[int]] = [members[n] for n in self.nodes]
        self.sizes = [len(m) for m in self.members]
        self.elem_ca = [self.node_constraint[i] for i, j, f in triples]
        self.elem_cb = [self.node_constraint[j] for i, j, f in triples]
        self.elem_overlap = [len(set(members[i]) & set(members[j])) for i, j, f in triples]
        self.elem_same = [members[i] == members[j] for i, j, f in triples]
        self.elem_flow = [f for i, j, f in triples]
        self.elem_link: list[Link] = [(i, j) for i, j, f in triples]
        self.down = [size if j == f else self.queue[(j, f)] for i, j, f in triples]
        self.ledger: list[tuple[int, int]] = []
        for flow in flows:
            up = size
            for node in flow.route[:-1]:
                q = self.queue[(node, flow.flow_id)]
                self.ledger.append((q, up))
                up = q

    def __len__(self) -> int:
        return self.size


class NetworkModel:
    """Validated static description: graph, flows and element table."""

    def __init__(self, nodes: Iterable[int], links: Iterable[Link], flows: Iterable[FlowSpec]):
        self.nodes: tuple[int, ...] = tuple(sorted(set(nodes)))
        self.links: tuple[Link, ...] = tuple(sorted(set((int(i), int(j)) for i, j in links)))
        self.flows: tuple[FlowSpec, ...] = tuple(flows)
        node_set = set(self.nodes)
        link_set = set(self.links)
        for (i, j) in self.links:
            if i == j:
                raise ValueError(f"self-loop link ({i},{i}) is not allowed")
            if i not in node_set or j not in node_set:
                raise ValueError(f"link ({i},{j}) references an unknown node")
        ids = [fl.flow_id for fl in self.flows]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate flow ids")
        for n, flow in enumerate(self.flows):
            for hop in flow.hops:
                if hop not in link_set:
                    raise ValueError(f"flows[{n}].route: hop {hop} of flow {flow.flow_id} is not a link")
        self.link_flow_index = LinkFlowIndex(self.flows)

    def solver_workspace(self) -> LinkFlowIndex:
        """The element table, ``link_flow_index``: ``perfbench/one_run.py`` is its
        last caller, until ROADMAP item 1 moves that script to ``ScenarioConfig.run``."""
        return self.link_flow_index


@dataclass
class QueueSnapshot:
    """Queue state frozen at a review instant.

    ``differentials[p]`` is max(Q_i - Q_j, 0), a Python int, for the element
    at position p (index order); ``flow_backlogs[f]`` is flow f's backlog.
    """

    differentials: list[int]
    flow_backlogs: dict[int, int]


class SimulationInvariantError(AssertionError):
    """A hard runtime invariant (interference or queue balance) was violated."""


class QueueMatrix:
    """Per (node, flow) FIFO queues of packet batches.

    A batch ``[arrival_slot, count]`` stands for ``count`` packets that
    entered the network at the flow source in ``arrival_slot``. Every packet
    of one Poisson draw shares its slot, so a queue holds at most one batch
    per arrival slot, oldest first: ``transfer`` moves whole batches and
    splits at most the head one. Destination queues do not exist -- a packet
    reaching its destination departs immediately and its end-to-end delay is
    recorded.

    Queues take their positions and wiring from the model's element table
    (``LinkFlowIndex``, kept as ``index``): queue (i, f) sits at the position
    ``index.queue[(i, f)]`` of the one element that serves it, (i, next hop,
    f). ``transfer`` and ``add_arrivals`` take these positions and read the
    flow id from the table's ``elem_flow``; ``length``, ``arrived`` and
    ``served`` read the ledger by node and flow ids. Each queue keeps its length
    in a counter that the batch operations update by the packets they move;
    cumulative arrival (per queue) and service (per element) counters back
    the exact queue-balance check. Each flow's backlog (``flow_backlog``) and
    the total (``total``) are kept too, each with its peak (``flow_peak``,
    ``total_peak``): the largest value an arrival left it at.
    """

    def __init__(self, model: NetworkModel):
        self.index = index = model.link_flow_index
        size = index.size
        self._size = size
        self._flow = index.elem_flow
        self._down = index.down
        self._fifo: list[deque] = [deque() for _ in range(size)]
        # the spare last entry is the destination's length and the served
        # count of the missing upstream element at a flow source: both stay 0
        self._len = [0] * (size + 1)
        self._served = [0] * (size + 1)
        self._arrived = [0] * size
        self.flow_backlog: dict[int, int] = {fl.flow_id: 0 for fl in model.flows}
        # in a run the arrivals are the last thing that happens in a slot, and
        # only they raise a backlog, so the peaks are over end-of-slot backlogs
        self.flow_peak: dict[int, int] = {fl.flow_id: 0 for fl in model.flows}
        self.total = 0
        self.total_peak = 0
        self.injected = 0
        self.delivered: dict[int, int] = {fl.flow_id: 0 for fl in model.flows}
        self.delivered_total = 0
        self.delay_sum: dict[int, int] = {fl.flow_id: 0 for fl in model.flows}
        self.delay_hist: dict[int, dict[int, int]] = {fl.flow_id: {} for fl in model.flows}

    def length(self, i: int, f: int) -> int:
        if i == f:
            return 0  # destination queue is always empty
        p = self.index.queue.get((i, f))
        if p is None:
            raise KeyError(f"no queue for node {i}, flow {f}")
        return self._len[p]

    def flow_backlog_slot_sums(self, end: int) -> dict[int, int]:
        """Each flow's backlog summed over the ends of slots 0 .. end - 1.

        A packet that arrives in slot a is queued at the ends of slots
        a .. d - 1 if it is delivered in slot d, as many as its delay, and at
        the ends of slots a .. end - 1 if it is still queued. So the sum is
        the flow's delay sum plus end - a per queued packet, read from the
        batches. Valid for a run from slot 0 whose last slot is end - 1.
        """
        sums = dict(self.delay_sum)
        for f, fifo in zip(self._flow, self._fifo):
            for arrival, count in fifo:
                sums[f] += count * (end - arrival)
        return sums

    def arrived(self, i: int, f: int) -> int:
        return self._arrived[self.index.queue[(i, f)]]

    def served(self, i: int, j: int, f: int) -> int:
        return self._served[self.index.positions[(i, j, f)]]

    def add_arrivals(self, q: int, count: int, slot: int) -> None:
        """Enqueue count packets that entered in slot at the queue at position q."""
        if count <= 0:
            return
        f = self._flow[q]
        fifo = self._fifo[q]
        if fifo and fifo[-1][0] == slot:
            fifo[-1][1] += count
        else:
            fifo.append([slot, count])
        self._len[q] += count
        self._arrived[q] += count
        backlog = self.flow_backlog[f] + count
        self.flow_backlog[f] = backlog
        if backlog > self.flow_peak[f]:
            self.flow_peak[f] = backlog
        total = self.total + count
        self.total = total
        if total > self.total_peak:
            self.total_peak = total
        self.injected += count

    def transfer(self, p: int, max_packets: int, slot: int) -> int:
        """Move up to max_packets head-of-line packets across element p.

        Packets reaching the destination are recorded as delivered with delay
        = slot - source arrival slot. Returns the number moved.
        """
        length = self._len
        left = length[p]
        if max_packets < left:
            left = max_packets
        if left <= 0:
            return 0
        want = left
        src = self._fifo[p]
        q = self._down[p]
        deliver = q == self._size
        dst = None if deliver else self._fifo[q]
        f = self._flow[p]
        hist = self.delay_hist[f]
        dsum = 0
        # the loop also stops when the batches run out before the counter
        # does: the counter then keeps what was not moved and the balance
        # check reports the queue instead of an IndexError here
        while left and src:
            head = src[0]
            arrival, count = head
            if count <= left:
                src.popleft()
                take = count
            else:
                head[1] = count - left
                take = left
            if deliver:
                d = slot - arrival
                hist[d] = hist.get(d, 0) + take
                dsum += d * take
            elif dst and dst[-1][0] == arrival:
                dst[-1][1] += take
            elif take == count:
                dst.append(head)
            else:
                dst.append([arrival, take])
            left -= take
        n = want - left
        if deliver:
            self.delivered[f] += n
            self.delay_sum[f] += dsum
            self.flow_backlog[f] -= n
            self.total -= n
            self.delivered_total += n
        else:
            length[q] += n
        length[p] -= n
        self._served[p] += n
        return n

    def snapshot(self) -> QueueSnapshot:
        length = self._len
        dif = [d if (d := length[p] - length[q]) > 0 else 0 for p, q in enumerate(self._down)]
        return QueueSnapshot(dif, dict(self.flow_backlog))

    def verify_balance(self, slot: int) -> None:
        """Exact queue-balance identity, plus global packet conservation.

        Every queue's length counter must equal its arrivals plus what its
        upstream element served minus what its own element served, and be
        zero exactly when its FIFO holds no batch.
        """
        length, arrived, served, fifos = self._len, self._arrived, self._served, self._fifo
        for q, up in self.index.ledger:
            fifo = fifos[q]
            have = length[q]
            expect = arrived[q] + served[up] - served[q]
            if have != expect or (have == 0) != (not fifo):
                i, _, f = self.index.triples[q]
                raise SimulationInvariantError(
                    f"slot {slot}: queue balance broken at node {i} flow {f}: "
                    f"have {have} ({sum(c for _, c in fifo)} in batches), ledger says {expect}"
                )
        if self.injected != self.total + self.delivered_total:
            raise SimulationInvariantError(
                f"slot {slot}: packet conservation broken: injected {self.injected}, "
                f"queued {self.total} + delivered {self.delivered_total}"
            )
