"""Exact desk-scale references used to validate the solver and stability runs.

Nothing here runs inside ``run()``: the tests, the demos and ``qwdr
capacity`` call it. Everything here trades scalability for certainty: the
LP reference enumerates basic solutions, the projection reference
enumerates active sets, and the capacity check enumerates interference-free
activation sets. All three raise ``SizeError`` beyond their stated
enumeration scale instead of silently approximating. The corrected
alternating scheme for a pair of halfspaces is the iterative reference of
the solver's closed-form pair projection, and the stepwise allocation takes
every step that ``solve_allocation`` skips. The constraint type, the single
and pair projections and the objective serve these references and the
tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .network import NetworkModel, QueueSnapshot
from .solver import TOLERANCE, SolverConfig, WeightConfig, _finalize, _pair_multipliers, weight
from .stochastic import ChannelState


#: |optimal slack| below which a capacity check reports the boundary band
CAPACITY_TOLERANCE = 1e-7


class SizeError(ValueError):
    """Instance exceeds the enumeration scale these references are built for."""


@dataclass(frozen=True)
class HalfspaceConstraint:
    """sum of s over ``members`` <= ``bound``; the normal is the 0/1 indicator."""

    members: tuple[int, ...]
    bound: float = 1.0

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("constraint needs a non-empty support")
        if len(set(self.members)) != len(self.members):
            raise ValueError("constraint support has repeated members")

    @property
    def size(self) -> int:
        return len(self.members)

    def value(self, s: np.ndarray) -> float:
        return float(np.sum(s[list(self.members)]))


def node_constraints(model: NetworkModel) -> dict[int, HalfspaceConstraint]:
    """One interference constraint per node over its incident elements."""
    index = model.link_flow_index
    return {node: HalfspaceConstraint(tuple(m)) for node, m in zip(index.nodes, index.members)}


def project_onto_halfspace(s: np.ndarray, constraint: HalfspaceConstraint) -> np.ndarray:
    """Euclidean projection of s onto the halfspace; identity when feasible.

    The excess is spread evenly over the support (excess / support size),
    landing exactly on the boundary hyperplane.
    """
    s = np.asarray(s, dtype=float)
    excess = constraint.value(s) - constraint.bound
    if excess <= 0:
        return s.copy()
    out = s.copy()
    out[list(constraint.members)] -= excess / constraint.size
    return out


def project_pair(
    s: np.ndarray,
    constraint_a: HalfspaceConstraint,
    constraint_b: HalfspaceConstraint,
) -> np.ndarray:
    """Euclidean projection of s onto the intersection of two halfspaces.

    The closed-form limit of the corrected alternating projection scheme
    (``alternating_projection_pair``), computed by the kernel of the
    solver's step (``solver._pair_multipliers``).
    """
    s = np.asarray(s, dtype=float)
    ea = constraint_a.value(s) - constraint_a.bound
    eb = constraint_b.value(s) - constraint_b.bound
    out = s.copy()
    if ea > TOLERANCE or eb > TOLERANCE:
        ma, mb = set(constraint_a.members), set(constraint_b.members)
        la, lb = _pair_multipliers(
            ea, eb, constraint_a.size, constraint_b.size, len(ma & mb), ma == mb, TOLERANCE
        )
        out[list(constraint_a.members)] -= la
        out[list(constraint_b.members)] -= lb
    return out


def allocation_objective(allocation: np.ndarray, g: np.ndarray) -> float:
    """The allocation problem's objective g . s."""
    return float(np.dot(np.asarray(allocation, dtype=float), np.asarray(g, dtype=float)))


@dataclass(frozen=True)
class LinearProgramInstance:
    """maximize c . x subject to x in [0,1]^n and the given sum constraints."""

    c: tuple[float, ...]
    constraints: tuple[HalfspaceConstraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        for con in self.constraints:
            if max(con.members) >= len(self.c):
                raise ValueError("constraint references a variable outside the instance")


def lp_solve_exact(instance: LinearProgramInstance, max_vars: int = 8):
    """Exact optimum by enumerating all basic solutions.

    Tries every subset of n active constraints (box faces and constraint
    boundaries), solves the square system, keeps feasible points, and returns
    (optimal value, optimizer). Exact up to machine arithmetic; refuses
    instances with more than ``max_vars`` variables.
    """
    n = len(instance.c)
    if n == 0:
        return 0.0, np.zeros(0)
    if n > max_vars:
        raise SizeError(f"lp_solve_exact handles at most {max_vars} variables, got {n}")
    c = np.asarray(instance.c)
    rows = []
    bounds = []
    for v in range(n):
        low = np.zeros(n)
        low[v] = -1.0  # -x_v <= 0
        rows.append(low)
        bounds.append(0.0)
        high = np.zeros(n)
        high[v] = 1.0  # x_v <= 1
        rows.append(high)
        bounds.append(1.0)
    for con in instance.constraints:
        row = np.zeros(n)
        row[list(con.members)] = 1.0
        rows.append(row)
        bounds.append(con.bound)
    A = np.vstack(rows)
    b = np.asarray(bounds)
    best_val = None
    best_x = None
    for combo in itertools.combinations(range(len(rows)), n):
        sub = A[list(combo)]
        try:
            x = np.linalg.solve(sub, b[list(combo)])
        except np.linalg.LinAlgError:
            continue
        if np.max(A @ x - b) > 1e-9:
            continue
        val = float(c @ x)
        if best_val is None or val > best_val:
            best_val = val
            best_x = x
    if best_val is None:  # unreachable for this geometry: x = 0 is always a vertex
        raise RuntimeError("no feasible basic solution found")
    return best_val, best_x


def qp_project_exact(
    point: np.ndarray,
    constraints: Iterable[HalfspaceConstraint],
    max_vars: int = 6,
) -> np.ndarray:
    """Exact Euclidean projection onto an intersection of halfspaces.

    Brute-force active-set search: for every subset of constraints, project
    onto their boundary hyperplanes jointly, keep candidates feasible for all
    constraints, and return the closest. The true projection always appears
    under its own active set.
    """
    p = np.asarray(point, dtype=float)
    cons = list(constraints)
    n = p.shape[0]
    if n > max_vars:
        raise SizeError(f"qp_project_exact handles at most {max_vars} variables, got {n}")
    if len(cons) > 8:
        raise SizeError("qp_project_exact handles at most 8 constraints")
    normals = np.zeros((len(cons), n))
    offsets = np.zeros(len(cons))
    for row, con in enumerate(cons):
        normals[row, list(con.members)] = 1.0
        offsets[row] = con.bound
    best = None
    best_dist = None
    for r in range(len(cons) + 1):
        for active in itertools.combinations(range(len(cons)), r):
            if r == 0:
                cand = p.copy()
            else:
                nmat = normals[list(active)]
                gram = nmat @ nmat.T
                rhs = nmat @ p - offsets[list(active)]
                try:
                    lam = np.linalg.solve(gram, rhs)
                except np.linalg.LinAlgError:
                    continue
                cand = p - nmat.T @ lam
                if np.max(np.abs(nmat @ cand - offsets[list(active)])) > 1e-8:
                    continue
            if np.max(normals @ cand - offsets, initial=-np.inf) > 1e-9:
                continue
            dist = float(np.linalg.norm(cand - p))
            if best_dist is None or dist < best_dist - 1e-15:
                best = cand
                best_dist = dist
    if best is None:
        raise RuntimeError("no feasible candidate found; constraints may be inconsistent")
    return best


def alternating_projection_pair(
    s: np.ndarray,
    constraint_a: HalfspaceConstraint,
    constraint_b: HalfspaceConstraint,
    n_rep: int = 10,
    tol: float = 1e-9,
) -> np.ndarray:
    """Iterative reference for ``project_pair``: corrected alternating rounds.

    Each round projects onto constraint a then b, carrying the standard
    correction vectors (Boyle-Dykstra, 1986) so the iteration converges to
    the projection onto the intersection rather than merely a feasible
    point. Stops after ``n_rep`` rounds or when a round no longer moves the
    point.
    """
    x = np.asarray(s, dtype=float).copy()
    corrections = [np.zeros_like(x), np.zeros_like(x)]
    constraints = (constraint_a, constraint_b)
    for _ in range(max(1, n_rep)):
        moved = 0.0
        for idx, con in enumerate(constraints):
            y = x + corrections[idx]
            z = project_onto_halfspace(y, con)
            corrections[idx] = y - z
            moved = max(moved, float(np.max(np.abs(z - x))) if z.shape else 0.0)
            x = z
        if moved <= tol:
            break
    return x


def stepwise_allocation(
    snapshot: QueueSnapshot,
    channel: ChannelState,
    model: NetworkModel,
    solver_cfg: Optional[SolverConfig] = None,
    weight_cfg: Optional[WeightConfig] = None,
) -> np.ndarray:
    """Stepwise reference of ``solve_allocation``: all cycles * K steps in turn.

    Reads each gradient through the link map and the numpy differentials, then
    visits every element in every cycle, g <= 0 ones included, and projects
    after each bump whenever an endpoint constraint is violated. It returns
    the bits ``solve_allocation`` returns.
    """
    cfg = solver_cfg or SolverConfig()
    wcfg = weight_cfg or WeightConfig()
    index = model.link_flow_index
    K = index.size
    if K == 0:
        return np.zeros(0)
    w = {
        fl.flow_id: weight(snapshot.flow_backlogs.get(fl.flow_id, 0), wcfg.thresholds.get(fl.flow_id), wcfg)
        for fl in model.flows
    }
    link_pos = channel.positions
    rates = channel.rates.tolist()
    glist = [
        w[f] * float(snapshot.differentials[pos]) * rates[link_pos[(i, j)]]
        for pos, (i, j, f) in enumerate(index.triples)
    ]
    if not any(gk > 0 for gk in glist):
        return np.zeros(K)

    s = [0.0] * K
    consum = [0.0] * len(index.members)
    members = index.members
    sizes = index.sizes
    eca, ecb = index.elem_ca, index.elem_cb
    eover, esame = index.elem_overlap, index.elem_same
    alpha = cfg.alpha
    tol = cfg.tolerance
    pair = _pair_multipliers

    def sub(mlist, lam):
        for m in mlist:
            s[m] -= lam
            consum[eca[m]] -= lam
            consum[ecb[m]] -= lam

    total_steps = cfg.cycles * K
    for step in range(total_steps):
        k = step % K
        gk = glist[k]
        if gk > 0.0:
            a = eca[k]
            b = ecb[k]
            d = alpha * gk
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
    candidates = [k for k in range(K) if glist[k] > 0.0]
    return _finalize(candidates, s, index)


def enumerate_activation_sets(model: NetworkModel, max_sets: int = 200_000):
    """All interference-free sets of link-flow elements (including empty).

    Two elements conflict when their links share a node; a schedule may
    activate at most one flow per link, which the node rule already implies.
    """
    index = model.link_flow_index
    K = index.size
    # an element conflicts with every member of its two endpoint constraints
    node_mask = [sum(1 << m for m in mlist) for mlist in index.members]
    conflict = [node_mask[a] | node_mask[b] for a, b in zip(index.elem_ca, index.elem_cb)]
    sets: list[tuple[int, ...]] = []

    def extend(prefix: list[int], start: int, blocked: int):
        sets.append(tuple(prefix))
        if len(sets) > max_sets:
            raise SizeError(f"more than {max_sets} activation sets; network too large")
        for nxt in range(start, K):
            if blocked >> nxt & 1:
                continue
            prefix.append(nxt)
            extend(prefix, nxt + 1, blocked | conflict[nxt])
            prefix.pop()

    extend([], 0, 0)
    return sets


@dataclass
class CapacityQuery:
    """Inputs of the capacity-membership check.

    ``mean_rates`` holds the channel-averaged rate per link (the stationary
    channel distribution enters only through these averages). ``arrivals``
    maps (source node, flow) -> packets/slot.
    """

    model: NetworkModel
    arrivals: dict[tuple[int, int], float]
    mean_rates: dict[tuple[int, int], float]
    max_sets: int = 200_000


@dataclass
class CapacityResult:
    epsilon: float
    label: str  # "inside" | "outside" | "boundary-band"
    node_flow_slack: dict[tuple[int, int], float]
    n_activation_sets: int
    allocation: dict[tuple[int, int, int], float] = field(default_factory=dict)


def mean_rates_from_channel(channel, n_samples: int = 200) -> dict:
    """Channel-averaged rate per link, by Monte-Carlo over review draws.

    A degenerate (fixed) channel takes one draw, which is exact: averaging
    copies of a float can change its last bits.
    """
    if channel.gain_model == "fixed":
        n_samples = 1
    if n_samples < 1:
        raise ValueError("need at least one channel sample")
    acc = np.zeros(len(channel.links))
    for m in range(n_samples):
        acc += channel.draw(m).rates
    acc /= n_samples
    return {link: float(acc[p]) for p, link in enumerate(channel.links)}


def capacity_membership(query: CapacityQuery) -> CapacityResult:
    """Largest uniform slack with which the arrival matrix fits the capacity region.

    Solves the feasibility LP: does a convex combination of activation sets
    exist whose per-(node, flow) service margin (outgoing minus incoming
    channel-averaged rate) exceeds the arrival rate by eps everywhere?
    Positive optimal eps means inside, negative outside, and |eps| below
    ``CAPACITY_TOLERANCE`` is reported as the boundary band.
    """
    model = query.model
    index = model.link_flow_index
    sets = enumerate_activation_sets(model, query.max_sets)
    n_sets = len(sets)
    # rows: one per queue (node, flow), in ledger order; its own element's
    # service helps it and its upstream element's service loads it
    rows: list[tuple[int, int]] = []
    elem_coeff = np.zeros((len(index.ledger), index.size))
    for r, (q, up) in enumerate(index.ledger):
        i, j, f = index.triples[q]
        rows.append((i, f))
        elem_coeff[r, q] -= query.mean_rates[(i, j)]
        if up != index.size:
            elem_coeff[r, up] += query.mean_rates[index.triples[up][:2]]
    A_ub = np.zeros((len(rows), n_sets + 1))
    for col, act in enumerate(sets):
        if act:
            A_ub[:, col] = elem_coeff[:, list(act)].sum(axis=1)
    A_ub[:, -1] = 1.0  # + eps
    b_ub = np.array([-query.arrivals.get(rf, 0.0) for rf in rows])
    A_eq = np.zeros((1, n_sets + 1))
    A_eq[0, :n_sets] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0.0, 1.0)] * n_sets + [(None, None)]
    cost = np.zeros(n_sets + 1)
    cost[-1] = -1.0  # maximize eps
    from scipy.optimize import linprog  # only this LP needs scipy; the run path never loads it

    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"capacity LP failed: {res.message}")
    eps = float(-res.fun)
    x = res.x[:n_sets]
    schedule = np.zeros(index.size)
    for col, act in enumerate(sets):
        for pos in act:
            schedule[pos] += x[col]
    slack = {}
    for r, rf in enumerate(rows):
        service_margin = float(elem_coeff[r] @ schedule)
        slack[rf] = -service_margin - query.arrivals.get(rf, 0.0)
    if eps > CAPACITY_TOLERANCE:
        label = "inside"
    elif eps < -CAPACITY_TOLERANCE:
        label = "outside"
    else:
        label = "boundary-band"
    allocation = {t: float(schedule[pos]) for pos, t in enumerate(index.triples)}
    return CapacityResult(eps, label, slack, n_sets, allocation)
