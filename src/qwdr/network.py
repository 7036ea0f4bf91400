"""Static network description and dynamic per-flow queue state.

A network is a directed graph with a fixed route per flow. Interference is
node-exclusive: any two links that touch a common node may never be active in
the same slot. Every (link, flow) pair that can ever carry traffic -- i.e.
every consecutive hop of every route -- is a *link-flow element*, and the
set of all elements is indexed by its positions 0..K-1, the one index the
solver, scheduler and slot engine share.

Queue state is kept in packet batches: each (node, flow) FIFO holds
``[arrival_slot, count]`` entries, one per source arrival slot still
present, so the cost of moving packets grows with batches, not packets.
Queues, lengths and the arrival/service ledger are flat lists indexed by
element position.
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


def build_interference_sets(links: Iterable[Link]) -> dict[int, frozenset[Link]]:
    """Group links into per-node interference sets.

    Node-exclusive model: the set of node ``n`` holds every link incident on
    ``n`` (either direction). Nodes without links are omitted.
    """
    sets: dict[int, set[Link]] = {}
    for link in links:
        i, j = link
        sets.setdefault(i, set()).add(link)
        sets.setdefault(j, set()).add(link)
    return {n: frozenset(s) for n, s in sorted(sets.items())}


class LinkFlowIndex:
    """Bijection between admissible (i, j, f) triples and positions 0..K-1.

    Triples are the consecutive route hops of every flow, ordered
    lexicographically by (i, j, f): ``triples[p]`` is the element at
    position p and ``positions`` maps each triple back to its position.
    """

    def __init__(self, flows: Iterable[FlowSpec]):
        triples: list[Triple] = []
        seen: set[Triple] = set()
        for flow in flows:
            for (i, j) in flow.hops:
                t = (i, j, flow.flow_id)
                if t in seen:
                    raise ValueError(f"duplicate link-flow element {t}")
                seen.add(t)
                triples.append(t)
        triples.sort()
        self.triples: tuple[Triple, ...] = tuple(triples)
        self.positions: dict[Triple, int] = {t: p for p, t in enumerate(triples)}

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.positions


class _SolverWorkspace:
    """Per-model precomputation shared by the solver and the scheduler.

    One sum-constraint per node over all incident link-flow elements; each
    element belongs to exactly the two constraints of its endpoint nodes.
    """

    def __init__(self, model: "NetworkModel"):
        index = model.link_flow_index
        self.size = len(index)
        members: dict[int, list[int]] = {}
        for pos, (i, j, f) in enumerate(index.triples):
            members.setdefault(i, []).append(pos)
            members.setdefault(j, []).append(pos)
        self.nodes = sorted(members)  # nodes with at least one incident element
        self.node_constraint = {n: cid for cid, n in enumerate(self.nodes)}
        self.members: list[list[int]] = [members[n] for n in self.nodes]
        self.sizes = [len(m) for m in self.members]
        # element -> its two endpoint constraints, their support overlap, and
        # whether the two supports coincide (degenerate pair)
        self.elem_ca: list[int] = []
        self.elem_cb: list[int] = []
        self.elem_overlap: list[int] = []
        self.elem_same: list[bool] = []
        for (i, j, f) in index.triples:
            ca = self.node_constraint[i]
            cb = self.node_constraint[j]
            sa, sb = set(self.members[ca]), set(self.members[cb])
            self.elem_ca.append(ca)
            self.elem_cb.append(cb)
            self.elem_overlap.append(len(sa & sb))
            self.elem_same.append(sa == sb)
        # element -> offset of its flow in ``flow_ids`` (the model's flow order)
        self.flow_ids = [fl.flow_id for fl in model.flows]
        flow_offset = {f: n for n, f in enumerate(self.flow_ids)}
        self.elem_flow = [flow_offset[f] for (i, j, f) in index.triples]
        self._triples = index.triples
        self._link_map: Optional[dict] = None
        self._elem_link: list[int] = []

    def link_offsets(self, positions: dict) -> list[int]:
        """Each element's link offset under a channel's ``positions`` map.

        Every state drawn from one ``ChannelModel`` shares its map, so the
        list is built once per channel and kept while the same map comes in.
        """
        if positions is not self._link_map:
            self._elem_link = [positions[(i, j)] for (i, j, f) in self._triples]
            self._link_map = positions
        return self._elem_link


class NetworkModel:
    """Validated static description: graph, flows and element index."""

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
        for flow in self.flows:
            for hop in flow.hops:
                if hop not in link_set:
                    raise ValueError(f"flow {flow.flow_id}: route hop {hop} is not a link")
        self.link_flow_index = LinkFlowIndex(self.flows)
        self._workspace: Optional[_SolverWorkspace] = None

    def solver_workspace(self) -> _SolverWorkspace:
        if self._workspace is None:
            self._workspace = _SolverWorkspace(self)
        return self._workspace


@dataclass
class QueueSnapshot:
    """Queue state frozen at a review instant.

    ``differentials[p]`` is max(Q_i - Q_j, 0) for the element at position p
    (index order); ``flow_backlogs[f]`` is the network-wide backlog of flow f.
    """

    differentials: np.ndarray
    flow_backlogs: dict[int, int]
    total: int


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

    Queues share the element index: queue (i, f) sits at the position of the
    one element that serves it, (i, next hop, f). Each queue keeps its length
    in a counter that the batch operations update by the packets they move;
    cumulative arrival (per queue) and service (per element) counters back
    the exact queue-balance check.
    """

    def __init__(self, model: NetworkModel):
        index = model.link_flow_index
        self.triples = index.triples
        size = len(self.triples)
        self._size = size
        self._pos = index.positions
        self._queue: dict[tuple[int, int], int] = {
            (i, f): p for p, (i, j, f) in enumerate(self.triples)
        }
        # downstream queue of each element; ``size`` stands for the destination
        self._down = [size if j == f else self._queue[(j, f)] for (i, j, f) in self.triples]
        self._fifo: list[deque] = [deque() for _ in range(size)]
        # the spare last entry is the destination's length and the served
        # count of the missing upstream element at a flow source: both stay 0
        self._len = [0] * (size + 1)
        self._served = [0] * (size + 1)
        self._arrived = [0] * size
        # ledger wiring: each queue with its upstream element on the fixed
        # route (``size`` at the source) and its FIFO, in flow and route order
        self._balance: list[tuple[int, int, deque]] = []
        for flow in model.flows:
            up = size
            for node in flow.route[:-1]:
                q = self._queue[(node, flow.flow_id)]
                self._balance.append((q, up, self._fifo[q]))
                up = q
        self._flow_total: dict[int, int] = {fl.flow_id: 0 for fl in model.flows}
        self.delivered: dict[int, int] = {fl.flow_id: 0 for fl in model.flows}
        self.delay_sum: dict[int, int] = {fl.flow_id: 0 for fl in model.flows}
        self.delay_hist: dict[int, dict[int, int]] = {fl.flow_id: {} for fl in model.flows}
        self._total = 0
        self._injected = 0
        self._delivered_total = 0

    def length(self, i: int, f: int) -> int:
        if i == f:
            return 0  # destination queue is always empty
        p = self._queue.get((i, f))
        if p is None:
            raise KeyError(f"no queue for node {i}, flow {f}")
        return self._len[p]

    def flow_backlog(self, f: int) -> int:
        return self._flow_total[f]

    def total(self) -> int:
        return self._total

    @property
    def injected(self) -> int:
        return self._injected

    @property
    def delivered_total(self) -> int:
        return self._delivered_total

    def arrived(self, i: int, f: int) -> int:
        return self._arrived[self._queue[(i, f)]]

    def served(self, i: int, j: int, f: int) -> int:
        return self._served[self._pos[(i, j, f)]]

    def add_arrivals(self, i: int, f: int, count: int, slot: int) -> None:
        if count <= 0:
            return
        p = self._queue[(i, f)]
        fifo = self._fifo[p]
        if fifo and fifo[-1][0] == slot:
            fifo[-1][1] += count
        else:
            fifo.append([slot, count])
        self._len[p] += count
        self._arrived[p] += count
        self._flow_total[f] += count
        self._total += count
        self._injected += count

    def transfer(self, i: int, j: int, f: int, max_packets: int, slot: int) -> int:
        """Move up to max_packets head-of-line packets across element (i,j,f).

        Packets reaching the destination are recorded as delivered with delay
        = slot - source arrival slot. Returns the number moved.
        """
        try:
            p = self._pos[(i, j, f)]
        except KeyError:
            raise KeyError(f"unknown link-flow element {(i, j, f)}") from None
        length = self._len
        left = length[p]
        if max_packets < left:
            left = max_packets
        if left <= 0:
            return 0
        want = left
        # the loops also stop when the batches run out before the counter
        # does: the counter then keeps what was not moved and the balance
        # check reports the queue instead of an IndexError here
        src = self._fifo[p]
        q = self._down[p]
        if q == self._size:
            hist = self.delay_hist[f]
            dsum = 0
            while left and src:
                head = src[0]
                arrival, count = head
                if count <= left:
                    src.popleft()
                    take = count
                else:
                    head[1] = count - left
                    take = left
                d = slot - arrival
                hist[d] = hist.get(d, 0) + take
                dsum += d * take
                left -= take
            n = want - left
            self.delivered[f] += n
            self.delay_sum[f] += dsum
            self._flow_total[f] -= n
            self._total -= n
            self._delivered_total += n
        else:
            dst = self._fifo[q]
            while left and src:
                head = src[0]
                arrival, count = head
                if count <= left:
                    src.popleft()
                    take = count
                else:
                    head[1] = count - left
                    take = left
                if dst and dst[-1][0] == arrival:
                    dst[-1][1] += take
                elif take == count:
                    dst.append(head)
                else:
                    dst.append([arrival, take])
                left -= take
            n = want - left
            length[q] += n
        length[p] -= n
        self._served[p] += n
        return n

    def snapshot(self) -> QueueSnapshot:
        length = self._len
        dif = np.array([length[p] - length[q] for p, q in enumerate(self._down)], dtype=np.int64)
        np.maximum(dif, 0, out=dif)
        return QueueSnapshot(dif, dict(self._flow_total), self._total)

    def verify_balance(self, slot: int) -> None:
        """Exact queue-balance identity, plus global packet conservation.

        Every queue's length counter must equal its arrivals plus what its
        upstream element served minus what its own element served, and be
        zero exactly when its FIFO holds no batch.
        """
        length, arrived, served = self._len, self._arrived, self._served
        for q, up, fifo in self._balance:
            have = length[q]
            expect = arrived[q] + served[up] - served[q]
            if have != expect or (have == 0) != (not fifo):
                i, _, f = self.triples[q]
                raise SimulationInvariantError(
                    f"slot {slot}: queue balance broken at node {i} flow {f}: "
                    f"have {have} ({sum(c for _, c in fifo)} in batches), ledger says {expect}"
                )
        if self._injected != self._total + self._delivered_total:
            raise SimulationInvariantError(
                f"slot {slot}: packet conservation broken: injected {self._injected}, "
                f"queued {self._total} + delivered {self._delivered_total}"
            )
