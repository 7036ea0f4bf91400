"""Per-review allocation: cyclic incremental gradient ascent with projection.

At a review instant the controller maximizes

    sum over elements k=(i,j,f) of  w(Qf, Qbar_f) * Qij_f * zeta_k * mu_ij

over time fractions zeta in [0,1]^K subject to one interference constraint
per node: the fractions of all elements incident on a node sum to at most 1.
The objective is linear. The controller runs a fixed number of cycles of
incremental gradient steps, each followed by a projection; for a constant
step the limit of that iteration over [0,1]^K intersected with the node
constraints stays within a quantified gap of the optimum
(``suboptimality_bound``, after Nedic & Bertsekas 2001). A few cycles from
zero do not reach that limit: each cycle moves element k by at most
alpha * g_k. An update of one element can violate only the two constraints
of its endpoint nodes; the projection step therefore only ever touches that
pair.

Known fault: the per-step projection enforces only those two node
halfspaces, not s >= 0 (nor s <= 1, which the node constraints imply once
s >= 0 holds). Over that sign-relaxed set the linear objective is
unbounded: elements with small gradients are pushed below zero without
limit to make room for the others, and the final clamp then returns an
allocation short of the optimum wherever three or more elements share a
node. Acceptance criterion 1 checks the gap bound at the limit and fails on
this.

Geometry note: a node constraint is a halfspace whose normal is the 0/1
indicator of its member elements. Projecting onto its boundary subtracts the
same amount, excess / support size, from every member. For a violated *pair*
the exact Euclidean projection onto the intersection has a closed form (a
2x2 KKT system over the two indicators). One private kernel,
``_pair_multipliers``, holds that case analysis: it turns the two excesses
into the amounts to subtract from each constraint's members. The solver's
step and the reference ``oracle.project_pair`` both call it. The iterative
scheme it is the limit of, Boyle-Dykstra corrected alternation, is kept as a
test reference in ``oracle.alternating_projection_pair``.

Only the steps that can change the iterate are taken; the result is
bit-identical to taking all cycles * K of them. The stepwise reference
``oracle.stepwise_allocation`` runs the same projecting loop,
``_project_cycles``, so it checks the shortcuts below, which lie around that
loop; ``TestSolverStepIsProjectPair`` checks the loop against ``project_pair``:

* A step whose element has g <= 0 changes nothing, so each cycle visits only
  the elements with g > 0, in position order. The arithmetic is the same
  sequence of float operations. Only the elements with a non-zero
  differential (the live ones) can have g > 0, so the gradient, the steps
  and the finalization read those alone.
* Fast path: let S_c be the sum of alpha * g_k over the positive members of
  node c. If cycles * S_c < 1 - 1e-6 for every node, no projection can
  fire. Without projections the node sums only grow, and after the last
  step they equal cycles * S_c up to rounding: the step loop's sum and the
  precheck's each round at most cycles * K additions, so each is within a
  relative cycles * K * 2^-53 of the exact value, below 1.2e-7 for up to
  1e9 steps (``CALM_MAX_STEPS``) and far inside the 1e-6 margin. So every
  excess stays negative, below any tolerance >= 0. Each s_k then only
  receives its own bump d = alpha * g_k once a cycle; adding the vector of
  bumps to a zero vector ``cycles`` times makes, element by element, the
  sequence of additions the step loop makes, so s_k has the same bits. The
  node sums themselves are not kept. Finalization would change nothing:
  every s_k is positive, and a node's sum of its s_k, rounded once more over
  at most K additions, is still below 1, so no node is rescaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Optional

import numpy as np

from .network import LinkFlowIndex, NetworkModel, QueueSnapshot
from .stochastic import ChannelState

#: excess below which a node constraint counts as satisfied
TOLERANCE = 1e-9

#: a node whose positive bumps sum, over all cycles, below this bound can
#: never reach its constraint, whatever the rounding of the step sums
CALM_BOUND = 1.0 - 1e-6
#: steps per solve up to which that rounding margin is proven (see the
#: module docstring)
CALM_MAX_STEPS = 10**9


class ConfigError(ValueError):
    """Scenario rejected; the message names the offending field."""


@dataclass(frozen=True)
class WeightConfig:
    """Logistic queue weighting: w(x, xbar) = 1 + a1 / (1 + exp(-a2 (x - xbar))).

    ``thresholds`` maps flow id -> backlog threshold (rate x delay target);
    flows absent from the map get w = 1 exactly.
    """

    a1: float = 0.2
    a2: float = 2.0
    thresholds: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.a1 >= 0:  # written so that NaN fails, as below
            raise ValueError("a1 must be >= 0")
        if not self.a2 > 0:
            raise ValueError("a2 must be > 0")
        for f, q in self.thresholds.items():
            if q is not None and not q >= 0:  # written so that NaN fails
                raise ValueError(f"flow {f}: queue threshold must be >= 0")

    @classmethod
    def from_flows(cls, flows, a1: float = 0.2, a2: float = 2.0) -> "WeightConfig":
        thresholds = {}
        for flow in flows:
            q = flow.queue_threshold
            if q is not None:
                thresholds[flow.flow_id] = q
        return cls(a1=a1, a2=a2, thresholds=thresholds)


def weight(x: float, xbar: Optional[float], cfg: WeightConfig) -> float:
    """Flow weight in [1, 1 + a1]; exactly 1 when there is no threshold."""
    if xbar is None or cfg.a1 == 0.0:
        return 1.0
    z = cfg.a2 * (x - xbar)
    if z >= 0:
        sig = 1.0 / (1.0 + math.exp(-z))
    else:  # avoid overflow of exp(-z) for very negative z
        e = math.exp(z)
        sig = e / (1.0 + e)
    return 1.0 + cfg.a1 * sig


def _pair_multipliers(
    ea: float, eb: float, na: int, nb: int, overlap: int, same_support: bool, tol: float
) -> tuple[float, float]:
    """Amounts (la, lb) to subtract from the members of constraints a and b.

    The exact Euclidean projection onto the intersection of two halfspaces
    whose excesses over their bounds are ``ea`` and ``eb`` (at least one of
    them above ``tol``). ``na`` and ``nb`` are the support sizes and
    ``overlap`` is the size of their intersection. Case analysis on the
    active set; a 2x2 KKT solve when both constraints bind.
    """
    if same_support:
        # identical supports: only the tighter constraint, the one with the
        # larger excess, can bind
        return (ea / na, 0.0) if ea >= eb else (0.0, eb / nb)
    if eb <= tol:
        return ea / na, 0.0
    if ea <= tol:
        return 0.0, eb / nb
    det = na * nb - overlap * overlap
    la = (ea * nb - eb * overlap) / det
    lb = (eb * na - ea * overlap) / det
    if la >= 0.0 and lb >= 0.0:
        return la, lb
    if la < 0.0:
        return 0.0, eb / nb
    return ea / na, 0.0


@dataclass(frozen=True)
class SolverConfig:
    alpha: float = 1e-4
    cycles: int = 15
    tolerance: float = TOLERANCE

    def __post_init__(self):
        if not self.alpha > 0:  # written so that NaN fails
            raise ValueError("alpha must be > 0")
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be >= 0")


def gradient_vector(
    snapshot: QueueSnapshot,
    channel: ChannelState,
    model: NetworkModel,
    weight_cfg: WeightConfig,
) -> np.ndarray:
    """Element gradients w(Qf) * Qij_f * mu_ij, in position order."""
    out = np.zeros(model.link_flow_index.size)
    live, g = _live_gradients(snapshot, channel, model, weight_cfg)
    out[live] = g
    return out


def _live_gradients(snapshot, channel, model, weight_cfg) -> tuple[list[int], list[float]]:
    """The positions with a non-zero differential, ascending, and their gradients.

    The differentials are the snapshot's Python ints and the rates the
    draw's Python floats, read through the channel's link map. Every other
    element's gradient is w * 0 * mu = 0; a flow's weight, keyed by its flow
    id, is computed only when one of its elements is live.
    """
    index = model.link_flow_index
    dl = snapshot.differentials
    live = list(compress(range(index.size), dl))
    if not live:
        return live, []
    backlogs = snapshot.flow_backlogs
    thresholds = weight_cfg.thresholds
    elem_flow = index.elem_flow
    w = {f: weight(backlogs.get(f, 0), thresholds.get(f), weight_cfg) for f in {elem_flow[k] for k in live}}
    rates, link_pos, elem_link = channel.rates, channel.positions, index.elem_link
    return live, [w[elem_flow[k]] * dl[k] * rates[link_pos[elem_link[k]]] for k in live]


def solve_allocation(
    snapshot: QueueSnapshot,
    channel: ChannelState,
    model: NetworkModel,
    solver_cfg: Optional[SolverConfig] = None,
    weight_cfg: Optional[WeightConfig] = None,
) -> np.ndarray:
    """Time fractions per element for one review period.

    The result of cycles * K incremental gradient steps: bump one element,
    then project onto the (at most two) violated endpoint-node constraints,
    with the kernel ``oracle.project_pair`` uses. The step does not enforce
    s >= 0 (see the module docstring), so the raw iterate can go negative.
    Finalization clamps negatives and rescales any node whose incident sum
    exceeds 1; every element whose differential backlog was zero at the
    review instant gets 0. All-zero backlog short-circuits to the zero
    vector. Only the steps that can change the iterate are taken, and a calm
    instance skips the projecting loop ``_project_cycles`` (see the module
    docstring); ``oracle.stepwise_allocation`` runs the same loop from every
    element's gradient, with no fast path, and returns the same bits.
    """
    cfg = solver_cfg or SolverConfig()
    wcfg = weight_cfg or WeightConfig()
    index = model.link_flow_index
    K = index.size
    live, glist = _live_gradients(snapshot, channel, model, wcfg)
    alpha = cfg.alpha
    cycles = cfg.cycles
    eca, ecb = index.elem_ca, index.elem_cb
    # the steps that move the iterate, in step order: element, its two
    # constraints and its bump
    steps = [(k, eca[k], ecb[k], alpha * gk) for k, gk in zip(live, glist) if gk > 0.0]
    if not steps:
        return np.zeros(K)
    stepped = [k for k, a, b, d in steps]

    per_cycle = [0.0] * len(index.members)  # what one cycle adds to each node's sum
    for k, a, b, d in steps:
        per_cycle[a] += d
        per_cycle[b] += d
    if max(per_cycle) * cycles < CALM_BOUND and cycles * K <= CALM_MAX_STEPS:
        # no projection can fire: each element only adds its bump once a
        # cycle, and adding the bump vector elementwise makes the same
        # float additions. Finalization has nothing to do either: every
        # entry is positive, and every node sum stays below 1 by the margin
        # that keeps the projections off (see the module docstring).
        bumps = np.array([d for k, a, b, d in steps])
        x = np.zeros(len(steps))
        for _ in range(cycles):
            x += bumps
        out = np.zeros(K)
        out[stepped] = x
        return out
    return _finalize(stepped, _project_cycles(steps, cycles, index, cfg.tolerance), index)


def _project_cycles(
    steps: list[tuple[int, int, int, float]], cycles: int, index: LinkFlowIndex, tol: float
) -> list[float]:
    """The raw iterate after ``cycles`` passes over ``steps``, from zero.

    Each step ``(k, a, b, d)`` bumps element k by d, then projects onto its
    endpoint constraints a and b when either one is violated by more than
    ``tol``, with the kernel ``oracle.project_pair`` uses. A bump or node sum
    beyond the float range leaves an entry at inf or NaN, and such an entry
    stays so; one test of the iterate's sum then raises ``ConfigError``.
    """
    # flat state with incrementally maintained constraint sums; every element
    # belongs to exactly two constraints, so one coordinate change updates two
    members = index.members
    s = [0.0] * index.size
    consum = [0.0] * len(members)
    sizes = index.sizes
    eca, ecb = index.elem_ca, index.elem_cb
    eover, esame = index.elem_overlap, index.elem_same
    pair = _pair_multipliers

    def sub(mlist, lam):
        for m in mlist:
            s[m] -= lam
            consum[eca[m]] -= lam
            consum[ecb[m]] -= lam

    for _ in range(cycles):
        for k, a, b, d in steps:
            s[k] += d
            consum[a] += d
            consum[b] += d
            ea = consum[a] - 1.0
            eb = consum[b] - 1.0
            if ea > tol or eb > tol:
                la, lb = pair(ea, eb, sizes[a], sizes[b], eover[k], esame[k], tol)
                if la:
                    sub(members[a], la)
                if lb:
                    sub(members[b], lb)
    if not math.isfinite(sum(s)):
        raise ConfigError("solver.alpha: alpha x gradient overflowed the float range in a solver step")
    return s


def _finalize(stepped: list[int], s: list[float], index: LinkFlowIndex) -> np.ndarray:
    """The allocation from the iterate ``s`` whose stepped elements are ``stepped``.

    Clamps negatives, then rescales each overfull node in ascending node
    order, one after the other. An element that was never stepped ends at 0:
    a projection can only push it down, and the clamp lifts it back to 0. So
    only the stepped elements are read, and only their nodes can be
    overfull; their sums still run over all members, in member order, and a
    zero term changes no sum.
    """
    out = [0.0] * index.size
    for k in stepped:
        x = s[k]
        out[k] = 0.0 if x < 0.0 else x
    members = index.members
    nodes = set(map(index.elem_ca.__getitem__, stepped))
    nodes.update(map(index.elem_cb.__getitem__, stepped))
    for c in sorted(nodes):  # sequential per-node rescale; shrinking only
        mlist = members[c]
        total = 0.0
        for m in mlist:
            total += out[m]
        if total > 1.0:
            for m in mlist:
                out[m] /= total
    return np.array(out)


def suboptimality_bound(alpha: float, n_elements: int, grad_max: float) -> float:
    """Gap bound for the cyclic scheme: alpha (4 + 1/K) K^2 c1^2 / 2.

    The limiting objective of the iteration over [0,1]^K intersected with
    the node constraints stays within this bound of the optimum; c1 is the
    largest element gradient of the instance. It says nothing about an
    early iterate, such as the 15 cycles from zero of one review.
    """
    if alpha <= 0 or n_elements <= 0:
        raise ValueError("alpha and element count must be positive")
    if grad_max < 0:
        raise ValueError("grad_max must be >= 0")
    k = float(n_elements)
    return alpha * (4.0 + 1.0 / k) * k * k * grad_max * grad_max / 2.0
