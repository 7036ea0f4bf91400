"""Discrete-review outer loop and slot-by-slot queue dynamics.

The controller observes the network at review instants only. The gap to the
next review grows logarithmically with the total backlog, the allocation
solved at the review is frozen into a binary, interference-free slot
schedule for the whole period, and the slot engine then moves integer
packets: each active element serves min(queue, floor(rate)) head-of-line
packets per slot, after which that slot's exogenous arrivals are enqueued.
A packet therefore spends at least one slot per hop, and the cumulative
arrival/service ledger reproduces every queue length exactly.

The engine works in element positions from end to end: the schedule's
active positions, their service budgets and the arrivals at each source's
queue position go straight to ``step_slot``, and the queues move packets in
arrival-slot batches (see ``QueueMatrix``). Batching changes the cost, not
the semantics: head-of-line order, at least one slot per hop and the exact
ledger are as they would be with one entry per packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Optional, Sequence, Union

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
    Only the non-zero entries are read: a zero entry adds nothing to a node
    sum and gets no slot.
    """
    index = model.link_flow_index
    alloc = np.asarray(allocation, dtype=float)
    K = index.size
    if alloc.shape != (K,):
        raise ValueError(f"allocation must have {K} entries")
    avals = alloc.tolist()
    # NaN is non-zero, so the check below still sees it
    nonzero = list(compress(range(K), avals))
    eca, ecb = index.elem_ca, index.elem_cb
    load = [0.0] * len(index.nodes)  # incident sums, added in member order
    for p in nonzero:
        v = avals[p]
        if not v >= -FEASIBILITY_TOL:  # written so that NaN fails
            raise ValueError("allocation has negative or NaN entries")
        load[eca[p]] += v
        load[ecb[p]] += v
    if load and not max(load) <= 1.0 + FEASIBILITY_TOL:
        c = next(c for c, total in enumerate(load) if not total <= 1.0 + FEASIBILITY_TOL)
        raise ValueError(
            f"allocation infeasible: node {index.nodes[c]} incident sum {load[c]:.12f} > 1"
        )
    if period < 1:
        raise ValueError("period must be >= 1")
    # busy[c * period + t]: node c transmits or receives in slot offset t
    busy = bytearray(len(load) * period)
    active: list[list[int]] = [[] for _ in range(period)]
    counts = np.zeros(K, dtype=np.int64)
    for p in nonzero:
        q = avals[p] * period
        if q <= 0.0:
            continue
        bi = eca[p] * period
        bj = ecb[p] * period
        got = 0
        for t in range(period):
            if got >= q:
                break
            if busy[bi + t] or busy[bj + t]:
                continue
            busy[bi + t] = 1
            busy[bj + t] = 1
            active[t].append(p)
            got += 1
        counts[p] = got
    quota = alloc * period
    return SlotSchedule(active, counts, quota)


def step_slot(
    queues: QueueMatrix,
    active: list[int],
    service: Union[Sequence[int], Mapping[int, int]],
    arrivals: list[tuple[int, int]],
    slot: int,
) -> None:
    """Advance one slot: serve the scheduled elements, then enqueue arrivals.

    ``active`` lists element positions; ``service[p]`` (a list or a dict
    over the scheduled positions) is element p's per-slot packet budget
    (floor of the link rate); ``arrivals`` pairs a source's queue position
    ``index.queue[(node, flow)]`` with an int packet count. Active elements
    are verified node-disjoint, so transfers read consistent start-of-slot
    queues in any order, and the exact queue ledger is checked after the
    arrivals. The slot's effects are read from ``queues`` alone.
    """
    index = queues.index
    eca, ecb = index.elem_ca, index.elem_cb
    seen: set[int] = set()  # node constraints, one per node
    for p in active:
        a, b = eca[p], ecb[p]
        if a in seen or b in seen:
            raise SimulationInvariantError(
                f"slot {slot}: interference violation at element {index.triples[p]}"
            )
        seen.add(a)
        seen.add(b)
        queues.transfer(p, service[p], slot)
    for q, count in arrivals:
        queues.add_arrivals(q, count, slot)
    queues.verify_balance(slot)


@dataclass
class ReviewRecord:
    index: int
    start: int
    end: int
    total_queue: int


@dataclass
class RunResult:
    """What the loop records; every backlog statistic is read from ``queues``."""

    model: NetworkModel
    horizon: int
    queues: QueueMatrix
    reviews: list[ReviewRecord]
    queue_samples: list[tuple]  # (slot, total, per-flow backlogs in flow order)
    zero_backlog_scheduled: int
    schedule_trace: Optional[list[tuple[int, int, int, int]]] = None


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
    index = model.link_flow_index
    triples = index.triples
    flow_ids = [fl.flow_id for fl in model.flows]
    link_pos = [channel.positions[link] for link in index.elem_link]
    source_queue = [index.queue[source] for source in arrivals.sources]
    source_range = range(len(source_queue))
    flow_backlog = queues.flow_backlog

    reviews: list[ReviewRecord] = []
    samples: list[tuple] = []
    sched_trace: Optional[list] = [] if record_schedule else None
    zero_scheduled = 0

    t = 0
    review_index = 0
    while t < horizon:
        total = queues.total
        period = next_review_period(total, k0)
        state = channel.draw(review_index)
        snap = queues.snapshot()
        alloc = solve_allocation(snap, state, model, solver_cfg, weight_cfg)
        schedule = create_schedule(alloc, model, period)
        zero_scheduled += sum(not snap.differentials[p] for active in schedule.active for p in active)
        reviews.append(ReviewRecord(review_index, t, t + period, total))
        # packets per slot of each scheduled element: the floor of its link rate
        service = {p: int(state.rates[link_pos[p]]) for p in set().union(*schedule.active)}
        start = t
        stop = min(t + period, horizon)
        for t in range(start, stop):
            counts = arrivals.draw(t)
            arr = [(source_queue[s], counts[s]) for s in compress(source_range, counts)]
            active = schedule.active[t - start]
            step_slot(queues, active, service, arr, t)
            if record_schedule:
                sched_trace.extend((t, *triples[p]) for p in active)
            if queue_sample_interval and t % queue_sample_interval == 0:
                samples.append((t, queues.total, tuple(flow_backlog[f] for f in flow_ids)))
        t = stop
        review_index += 1

    return RunResult(
        model=model,
        horizon=horizon,
        queues=queues,
        reviews=reviews,
        queue_samples=samples,
        zero_backlog_scheduled=zero_scheduled,
        schedule_trace=sched_trace,
    )
