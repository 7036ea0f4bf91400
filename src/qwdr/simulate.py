"""Discrete-review outer loop and slot-by-slot queue dynamics.

The controller observes the network at review instants only. The gap to the
next review grows logarithmically with the total backlog, the allocation
solved at the review is frozen into a binary, interference-free slot
schedule for the whole period, and the slot engine then moves integer
packets: each active element serves min(queue, floor(rate)) head-of-line
packets per slot, after which that slot's exogenous arrivals are enqueued.
A packet therefore spends at least one slot per hop, and the cumulative
arrival/service ledger reproduces every queue length exactly.

The engine works in element positions: the schedule's active positions and
a per-position service budget go straight to ``step_slot``, and the queues
move packets in arrival-slot batches (see ``QueueMatrix``). Batching changes
the cost, not the semantics: head-of-line order, at least one slot per hop
and the exact ledger are as they would be with one entry per packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .network import NetworkModel, QueueMatrix, SimulationInvariantError
from .solver import SolverConfig, WeightConfig, solve_allocation
from .stochastic import ArrivalProcess, ChannelModel

#: rounding slack a schedule allows an allocation's entries and node sums
FEASIBILITY_TOL = 1e-9


def next_review_period(total_queue: float, k0: float) -> int:
    """Slots until the next review: ceil(max(1, log(1 + k0 * backlog))).

    A product too large for a float takes its logarithm as a sum, so any
    finite k0 and backlog give a finite period.
    """
    if not 0 <= total_queue < math.inf:
        raise ValueError("total queue must be finite and >= 0")
    if not 0 <= k0 < math.inf:
        raise ValueError("k0 must be finite and >= 0")
    x = k0 * total_queue
    growth = math.log1p(x) if x < math.inf else math.log(k0) + math.log(total_queue)
    return int(math.ceil(max(1.0, growth)))


@dataclass
class SlotSchedule:
    """Binary activation plan for one review period.

    ``active[t]`` lists the element positions transmitting in slot offset t;
    no two of them ever share a node. ``counts[p]`` is the number of slots
    granted to element p, which chases the quota allocation * period.
    """

    active: list[list[int]]
    counts: np.ndarray
    quota: np.ndarray


def create_schedule(
    allocation: np.ndarray,
    model: NetworkModel,
    period: int,
) -> SlotSchedule:
    """Greedy slot assignment honoring interference and per-element quotas.

    Elements are visited in index order (transmitter node, then link, then
    flow). A candidate gets slot t iff nothing already assigned occupies
    either of its endpoint nodes in t and its accumulated slot count is still
    below allocation * period. Infeasible allocations are rejected up front.
    """
    ws = model.solver_workspace()
    alloc = np.asarray(allocation, dtype=float)
    if alloc.shape != (ws.size,):
        raise ValueError(f"allocation must have {ws.size} entries")
    avals = alloc.tolist()
    for v in avals:
        if not v >= -FEASIBILITY_TOL:  # written so that NaN fails
            raise ValueError("allocation has negative or NaN entries")
    for cid, mlist in enumerate(ws.members):
        total = 0.0
        for m in mlist:
            total += avals[m]
        if not total <= 1.0 + FEASIBILITY_TOL:
            raise ValueError(
                f"allocation infeasible: node {ws.nodes[cid]} incident sum {total:.12f} > 1"
            )
    if period < 1:
        raise ValueError("period must be >= 1")
    # one busy mask per node with elements, indexed like its constraint
    busy = [bytearray(period) for _ in ws.nodes]
    eca, ecb = ws.elem_ca, ws.elem_cb
    active: list[list[int]] = [[] for _ in range(period)]
    counts = [0] * ws.size
    quota = alloc * period
    for p, q in enumerate(quota.tolist()):
        if q <= 0.0:
            continue
        busy_i = busy[eca[p]]
        busy_j = busy[ecb[p]]
        got = 0
        for t in range(period):
            if got >= q:
                break
            if busy_i[t] or busy_j[t]:
                continue
            busy_i[t] = 1
            busy_j[t] = 1
            active[t].append(p)
            got += 1
        counts[p] = got
    counts = np.array(counts, dtype=np.int64)
    return SlotSchedule(active, counts, quota)


def step_slot(
    queues: QueueMatrix,
    active: list[int],
    service: list[int],
    arrivals: list[tuple[tuple[int, int], int]],
    slot: int,
) -> dict[int, int]:
    """Advance one slot: serve the scheduled elements, then enqueue arrivals.

    ``active`` lists element positions; ``service[p]`` is element p's
    per-slot packet budget (floor of the link rate); ``arrivals`` pairs
    (source node, flow) with an int packet count. Active elements are
    verified node-disjoint, so transfers read consistent start-of-slot
    queues in any order, and the exact queue ledger is checked after the
    arrivals. Returns packets moved per active position.
    """
    triples = queues.triples
    seen: set[int] = set()
    moved: dict[int, int] = {}
    for p in active:
        i, j, f = triples[p]
        if i in seen or j in seen:
            raise SimulationInvariantError(
                f"slot {slot}: interference violation at element {(i, j, f)}"
            )
        seen.add(i)
        seen.add(j)
        moved[p] = queues.transfer(i, j, f, service[p], slot)
    for (node, flow), count in arrivals:
        queues.add_arrivals(node, flow, count, slot)
    queues.verify_balance(slot)
    return moved


@dataclass
class ReviewRecord:
    index: int
    start: int
    end: int
    total_queue: int


@dataclass
class RunResult:
    """Everything a run produces, ready for metric extraction."""

    model: NetworkModel
    horizon: int
    queues: QueueMatrix
    reviews: list[ReviewRecord]
    queue_samples: list[tuple]  # (slot, total, per-flow backlogs in flow order)
    max_total_queue: int
    total_queue_slot_sum: int
    flow_max_backlog: dict[int, int]
    flow_backlog_slot_sum: dict[int, int]
    zero_backlog_scheduled: int
    schedule_trace: Optional[list[tuple[int, int, int, int]]] = None

    @property
    def mean_review_period(self) -> float:
        if not self.reviews:
            return 0.0
        return float(np.mean([r.end - r.start for r in self.reviews]))


def run(
    model: NetworkModel,
    channel: ChannelModel,
    arrivals: ArrivalProcess,
    horizon: int,
    solver_cfg: Optional[SolverConfig] = None,
    weight_cfg: Optional[WeightConfig] = None,
    k0: float = 0.01,
    queue_sample_interval: int = 100,
    record_schedule: bool = False,
) -> RunResult:
    """Execute the full review/slot loop for ``horizon`` slots.

    Deterministic given the model, seeds, and configuration. Interference
    and queue-balance invariants are enforced every slot; a violation raises
    rather than corrupting statistics.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if queue_sample_interval < 0:
        raise ValueError("queue_sample_interval must be >= 0")
    solver_cfg = solver_cfg or SolverConfig()
    weight_cfg = weight_cfg or WeightConfig()
    queues = QueueMatrix(model)
    triples = queues.triples
    flow_ids = [fl.flow_id for fl in model.flows]
    link_pos = model.solver_workspace().link_offsets(channel.positions)
    source_list = list(arrivals.sources)
    flow_backlog = queues.flow_backlog

    reviews: list[ReviewRecord] = []
    samples: list[tuple] = []
    sched_trace: Optional[list] = [] if record_schedule else None
    zero_scheduled = 0
    max_total = 0
    total_sum = 0
    flow_max = {f: 0 for f in flow_ids}
    flow_sum = {f: 0 for f in flow_ids}

    t = 0
    review_index = 0
    while t < horizon:
        total = queues.total()
        period = next_review_period(total, k0)
        state = channel.draw(review_index)
        snap = queues.snapshot()
        alloc = solve_allocation(snap, state, model, solver_cfg, weight_cfg)
        schedule = create_schedule(alloc, model, period)
        zero_scheduled += int(schedule.counts[snap.differentials == 0].sum())
        reviews.append(ReviewRecord(review_index, t, t + period, total))
        rates = state.rates.tolist()
        service = [int(rates[link]) for link in link_pos]
        start = t
        stop = min(t + period, horizon)
        for t in range(start, stop):
            counts = arrivals.draw(t).tolist()
            arr = [(source_list[s], c) for s, c in enumerate(counts) if c]
            active = schedule.active[t - start]
            step_slot(queues, active, service, arr, t)
            if record_schedule:
                sched_trace.extend((t, *triples[p]) for p in active)
            total_now = queues.total()
            total_sum += total_now
            if total_now > max_total:
                max_total = total_now
            for f in flow_ids:
                b = flow_backlog(f)
                flow_sum[f] += b
                if b > flow_max[f]:
                    flow_max[f] = b
            if queue_sample_interval and t % queue_sample_interval == 0:
                samples.append((t, total_now, tuple(flow_backlog(f) for f in flow_ids)))
        t = stop
        review_index += 1

    return RunResult(
        model=model,
        horizon=horizon,
        queues=queues,
        reviews=reviews,
        queue_samples=samples,
        max_total_queue=max_total,
        total_queue_slot_sum=total_sum,
        flow_max_backlog=flow_max,
        flow_backlog_slot_sum=flow_sum,
        zero_backlog_scheduled=zero_scheduled,
        schedule_trace=sched_trace,
    )
