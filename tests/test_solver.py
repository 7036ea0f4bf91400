import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwdr import (
    ChannelModel,
    FlowSpec,
    NetworkModel,
    QueueSnapshot,
    SolverConfig,
    WeightConfig,
    gradient_vector,
    solve_allocation,
    suboptimality_bound,
    weight,
)
from qwdr.oracle import (
    HalfspaceConstraint,
    LinearProgramInstance,
    allocation_objective,
    alternating_projection_pair,
    lp_solve_exact,
    node_constraints,
    project_onto_halfspace,
    project_pair,
    qp_project_exact,
    stepwise_allocation,
)
from qwdr.solver import TOLERANCE
from conftest import fixed_channel, fork_model, queues_with, tandem_model


class TestConfigs:
    # the NaN cases fail every ordered comparison, so a check written as
    # "x <= 0 is bad" would let them through
    @pytest.mark.parametrize(
        "config, name, value",
        [
            (SolverConfig, "alpha", 0.0),
            (SolverConfig, "alpha", math.nan),
            (SolverConfig, "cycles", 0),
            (SolverConfig, "tolerance", -1e-9),
            (SolverConfig, "tolerance", math.nan),
            (WeightConfig, "a1", -0.1),
            (WeightConfig, "a1", math.nan),
            (WeightConfig, "a2", 0.0),
            (WeightConfig, "a2", math.nan),
        ],
    )
    def test_out_of_range_or_nan_rejected(self, config, name, value):
        with pytest.raises(ValueError, match=f"{name} must be"):
            config(**{name: value})


class TestWeight:
    def test_midpoint_value(self):
        cfg = WeightConfig(a1=0.2, a2=2.0)
        assert weight(100.0, 100.0, cfg) == pytest.approx(1.1, abs=1e-12)

    def test_disabled_when_a1_zero(self):
        cfg = WeightConfig(a1=0.0, a2=2.0)
        for x in (0.0, 50.0, 1e6):
            assert weight(x, 10.0, cfg) == 1.0

    def test_above_threshold_evaluation(self):
        cfg = WeightConfig(a1=0.2, a2=2.0)
        expected = 1.0 + 0.2 / (1.0 + math.exp(-20.0))
        assert weight(110.0, 100.0, cfg) == pytest.approx(expected, abs=1e-12)

    def test_no_threshold_means_unit_weight(self):
        cfg = WeightConfig(a1=0.2, a2=2.0)
        assert weight(1e9, None, cfg) == 1.0

    def test_bounds_and_extremes(self):
        cfg = WeightConfig(a1=0.2, a2=2.0)
        assert weight(-1e9, 0.0, cfg) == pytest.approx(1.0, abs=1e-12)
        assert weight(1e9, 0.0, cfg) == pytest.approx(1.2, abs=1e-12)
        for x in np.linspace(-30, 30, 61):
            assert 1.0 <= weight(x, 0.0, cfg) <= 1.2


class TestGradient:
    def test_zero_differential_zero_gradient(self):
        model = tandem_model()
        queues = queues_with(model, {(2, 3): 5})  # upstream empty
        snap = queues.snapshot()
        channel = fixed_channel(model, 2.0).draw(0)
        assert gradient_vector(snap, channel, model, WeightConfig())[0] == 0.0

    def test_product_form(self):
        # w = 1.1 at the threshold midpoint, Qij = 10, mu = 2 -> 22
        model = tandem_model(rate=1.0, target=10.0)  # threshold = 10 packets
        queues = queues_with(model, {(1, 3): 10})
        snap = queues.snapshot()
        channel = fixed_channel(model, 2.0).draw(0)
        cfg = WeightConfig(a1=0.2, a2=2.0, thresholds={3: 10.0})
        assert gradient_vector(snap, channel, model, cfg)[0] == pytest.approx(22.0, abs=1e-9)

    def test_dead_channel(self):
        model = tandem_model()
        queues = queues_with(model, {(1, 3): 10})
        snap = queues.snapshot()
        channel = fixed_channel(model, 0.0).draw(0)
        assert gradient_vector(snap, channel, model, WeightConfig())[0] == 0.0


class TestProjectOntoHalfspace:
    def test_symmetric_two_variable(self):
        con = HalfspaceConstraint(members=(0, 1))
        out = project_onto_halfspace(np.array([1.0, 1.0]), con)
        assert out == pytest.approx([0.5, 0.5])

    def test_feasible_identity(self):
        con = HalfspaceConstraint(members=(0, 1))
        s = np.array([0.2, 0.3])
        assert project_onto_halfspace(s, con) == pytest.approx(s)

    def test_spread_excess_evenly(self):
        con = HalfspaceConstraint(members=(0, 1, 2))
        out = project_onto_halfspace(np.array([0.9, 0.3, 0.4]), con)
        assert out == pytest.approx([0.7, 0.1, 0.2], abs=1e-12)

    def test_projection_exactness_property(self, rng):
        # displacement is parallel to the indicator normal and lands on the plane
        for _ in range(200):
            n = rng.integers(2, 6)
            members = tuple(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
            s = rng.uniform(-1, 2, size=n)
            con = HalfspaceConstraint(members=members)
            out = project_onto_halfspace(s, con)
            if con.value(s) <= 1.0:
                assert out == pytest.approx(s)
                continue
            assert con.value(out) == pytest.approx(1.0, abs=1e-9)
            diff = s - out
            on = np.zeros(n, dtype=bool)
            on[list(members)] = True
            assert np.all(diff[~on] == 0.0)
            assert np.ptp(diff[on]) == pytest.approx(0.0, abs=1e-12)

    def test_projection_safety_property(self, rng):
        # projecting one constraint never breaks another satisfied one of the
        # same non-negative-indicator family
        for _ in range(200):
            n = int(rng.integers(2, 6))
            a = tuple(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
            b = tuple(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
            ca, cb = HalfspaceConstraint(members=a), HalfspaceConstraint(members=b)
            s = rng.uniform(0, 1.5, size=n)
            if cb.value(s) > 1.0:
                continue
            out = project_onto_halfspace(s, ca)
            assert cb.value(out) <= 1.0 + 1e-12


class TestProjectPair:
    def test_single_violation_equals_single_projection(self):
        a = HalfspaceConstraint(members=(0, 1))
        b = HalfspaceConstraint(members=(1, 2))
        s = np.array([0.8, 0.5, 0.1])  # only a violated
        assert project_pair(s, a, b) == pytest.approx(project_onto_halfspace(s, a))

    def test_neither_violated_identity(self):
        a = HalfspaceConstraint(members=(0, 1))
        b = HalfspaceConstraint(members=(1, 2))
        s = np.array([0.3, 0.3, 0.3])
        assert project_pair(s, a, b) == pytest.approx(s)

    def test_both_violated_matches_qp_oracle(self):
        a = HalfspaceConstraint(members=(0, 1))
        b = HalfspaceConstraint(members=(1, 2))
        s = np.array([0.9, 0.8, 0.9])
        out = project_pair(s, a, b)
        exact = qp_project_exact(s, [a, b])
        assert np.linalg.norm(out - exact) < 1e-6

    def test_random_cases_match_qp_oracle(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 4))
            a = tuple(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
            b = tuple(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
            if set(a) == set(b):
                continue
            ca, cb = HalfspaceConstraint(members=a), HalfspaceConstraint(members=b)
            s = rng.uniform(-0.5, 1.5, size=n)
            out = project_pair(s, ca, cb)
            exact = qp_project_exact(s, [ca, cb])
            assert np.linalg.norm(out - exact) < 1e-6

    def test_agrees_with_iterative_alternation(self, rng):
        # the closed form is the limit of the corrected alternating scheme
        for _ in range(200):
            n = int(rng.integers(2, 4))
            a = tuple(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
            b = tuple(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
            if set(a) == set(b):
                continue
            ca, cb = HalfspaceConstraint(members=a), HalfspaceConstraint(members=b)
            s = rng.uniform(-0.5, 1.5, size=n)
            closed = project_pair(s, ca, cb)
            iterated = alternating_projection_pair(s, ca, cb, n_rep=400, tol=0.0)
            assert np.linalg.norm(closed - iterated) < 1e-5

    @pytest.mark.parametrize("tighter_first", [True, False])
    def test_identical_supports_different_bounds(self, tighter_first):
        # only the tighter of two constraints over the same elements can bind
        loose = HalfspaceConstraint(members=(0, 1), bound=1.0)
        tight = HalfspaceConstraint(members=(1, 0), bound=0.6)
        pair = (tight, loose) if tighter_first else (loose, tight)
        for s, expected in (
            ([0.5, 0.4], [0.35, 0.25]),  # only the tight one violated
            ([0.9, 0.7], [0.4, 0.2]),  # both violated
            ([0.3, 0.2], [0.3, 0.2]),  # neither
        ):
            s = np.array(s)
            out = project_pair(s, *pair)
            assert out == pytest.approx(expected, abs=1e-12)
            assert np.linalg.norm(out - qp_project_exact(s, list(pair))) < 1e-9


def solve_fork(q2, q3, mu=1.0, cycles=15, alpha=1e-4):
    """Fork instance with gradient coefficients (q2 * mu, q3 * mu)."""
    model = fork_model()
    queues = queues_with(model, {(1, 2): q2, (1, 3): q3})
    snap = queues.snapshot()
    channel = fixed_channel(model, mu).draw(0)
    cfg = SolverConfig(alpha=alpha, cycles=cycles)
    alloc = solve_allocation(snap, channel, model, cfg, WeightConfig(a1=0.0))
    g = gradient_vector(snap, channel, model, WeightConfig(a1=0.0))
    return model, alloc, g


class TestSolveAllocation:
    def test_zero_backlog_zero_allocation(self):
        model = tandem_model()
        queues = queues_with(model, {})
        snap = queues.snapshot()
        channel = fixed_channel(model, 3.0).draw(0)
        alloc = solve_allocation(snap, channel, model)
        assert np.all(alloc == 0.0)

    def test_single_element_reaches_boundary(self):
        # one element, large enough steps: allocation converges to 1
        flows = [FlowSpec(flow_id=2, source=1, route=(1, 2), arrival_rate=1.0)]
        model = NetworkModel(nodes=[1, 2], links=[(1, 2)], flows=flows)
        queues = queues_with(model, {(1, 2): 10})
        snap = queues.snapshot()
        channel = fixed_channel(model, 1.0).draw(0)
        alloc = solve_allocation(snap, channel, model, SolverConfig(alpha=0.01, cycles=15))
        assert alloc[0] == pytest.approx(1.0, abs=1e-9)

    def test_two_element_instance_tracks_lp_optimum(self):
        # coefficients (10, 4) sharing node 1: optimum 10 at (1, 0); the
        # limiting objective stays within the quantified gap of it
        model, alloc, g = solve_fork(10, 4, cycles=4000)
        val, _ = lp_solve_exact(
            LinearProgramInstance(c=tuple(g), constraints=tuple(node_constraints(model).values()))
        )
        assert val == pytest.approx(10.0, abs=1e-9)
        bound = suboptimality_bound(1e-4, 2, float(g.max()))
        assert allocation_objective(alloc, g) >= val - bound

    def test_objective_improves_with_cycles(self):
        values = []
        for cycles in (15, 60, 250, 1000, 4000):
            _, alloc, g = solve_fork(10, 4, cycles=cycles)
            values.append(allocation_objective(alloc, g))
        best = -1.0
        for v in values:
            assert v >= best - 1e-9
            best = max(best, v)

    def test_zero_backlog_elements_get_nothing(self):
        model = tandem_model()
        queues = queues_with(model, {(2, 3): 7})  # only second hop backlogged
        snap = queues.snapshot()
        channel = fixed_channel(model, 2.0).draw(0)
        alloc = solve_allocation(snap, channel, model, SolverConfig(alpha=0.01, cycles=50))
        assert alloc[0] == 0.0  # (1,2,3) has zero differential
        assert alloc[1] > 0.0

    def test_feasibility_on_random_states(self, rng):
        from qwdr import make_paper15_scenario

        cfg = make_paper15_scenario(seed=3)
        model = cfg.build_model()
        channel = cfg.build_channel()
        wcfg = WeightConfig.from_flows(cfg.flows)
        cons = node_constraints(model)
        for trial in range(30):
            queues = queues_with(
                model,
                {
                    (node, fl.flow_id): int(rng.integers(0, 400))
                    for fl in model.flows
                    for node in fl.route[:-1]
                },
            )
            snap = queues.snapshot()
            alloc = solve_allocation(snap, channel.draw(trial), model, SolverConfig(), wcfg)
            assert np.all(alloc >= 0.0)
            for con in cons.values():
                assert con.value(alloc) <= 1.0 + 1e-9
            assert np.all(alloc[snap.differentials == 0] == 0.0)


def _small_topology(kind, size):
    """A star, vee or chain with ``size`` spokes, arms or hops."""
    if kind == "star":
        # single-hop flows out of hub 0: every element shares the hub
        links = [(0, n) for n in range(1, size + 1)]
        flows = [FlowSpec(flow_id=n, source=0, route=(0, n), arrival_rate=1.0) for n in range(1, size + 1)]
    elif kind == "vee":
        # two-hop flows crossing at node 0: every element touches node 0
        flows = [
            FlowSpec(flow_id=2 * m + 2, source=2 * m + 1, route=(2 * m + 1, 0, 2 * m + 2), arrival_rate=1.0)
            for m in range(size)
        ]
        links = [hop for fl in flows for hop in fl.hops]
    else:
        # a long flow over the chain 0..size and a short one to its middle
        flows = [FlowSpec(flow_id=size, source=0, route=tuple(range(size + 1)), arrival_rate=1.0)]
        if size >= 2:
            mid = (size + 1) // 2
            flows.append(FlowSpec(flow_id=mid, source=0, route=tuple(range(mid + 1)), arrival_rate=1.0))
        links = [(n, n + 1) for n in range(size)]
    nodes = {n for link in links for n in link}
    return NetworkModel(nodes=nodes, links=links, flows=flows)


@st.composite
def solver_instances(draw):
    kind = draw(st.sampled_from(["star", "vee", "chain"]))
    model = _small_topology(kind, draw(st.integers(1, 4)))
    rates = {link: draw(st.floats(0.0, 4.0)) for link in model.links}
    queues = queues_with(
        model,
        {(node, fl.flow_id): draw(st.integers(0, 20)) for fl in model.flows for node in fl.route[:-1]},
    )
    thresholds = {fl.flow_id: draw(st.floats(1.0, 40.0)) for fl in model.flows if draw(st.booleans())}
    wcfg = WeightConfig(a1=draw(st.sampled_from([0.0, 0.2])), a2=2.0, thresholds=thresholds)
    cfg = SolverConfig(alpha=draw(st.floats(1e-3, 0.05)), cycles=draw(st.integers(1, 25)))
    channel = ChannelModel(links=model.links, mean_gain={}, fixed_rates=rates).draw(0)
    return model, queues.snapshot(), channel, cfg, wcfg


class TestSolverStepIsProjectPair:
    """``solve_allocation``'s step is a gradient bump followed by ``project_pair``."""

    @staticmethod
    def reference(model, snap, channel, cfg, wcfg):
        g = gradient_vector(snap, channel, model, wcfg)
        K = len(g)
        if not np.any(g > 0):
            return np.zeros(K)
        cons = node_constraints(model)
        s = np.zeros(K)
        for step in range(cfg.cycles * K):
            k = step % K
            if g[k] > 0:
                i, j, _ = model.link_flow_index.triples[k]
                s[k] += cfg.alpha * g[k]
                s = project_pair(s, cons[i], cons[j])
        s[s < 0] = 0.0
        for node in sorted(cons):  # the solver's sequential per-node rescale
            members = list(cons[node].members)
            total = cons[node].value(s)
            if total > 1.0:
                s[members] /= total
        s[snap.differentials == 0] = 0.0
        return s

    @settings(max_examples=200, deadline=None)
    @given(instance=solver_instances())
    def test_matches_project_pair_loop(self, instance):
        model, snap, channel, cfg, wcfg = instance
        alloc = solve_allocation(snap, channel, model, cfg, wcfg)
        expected = self.reference(model, snap, channel, cfg, wcfg)
        assert np.max(np.abs(alloc - expected), initial=0.0) <= 1e-9


def _small_grid(rows, cols, pairs):
    """A rows x cols grid with one flow per (source, destination) cell pair.

    Each route goes along the source row, then down the destination column;
    flows are keyed by destination, so repeated destinations are dropped.
    """

    def node(r, c):
        return r * cols + c

    flows = {}
    for (sr, sc), (dr, dc) in pairs:
        if (sr, sc) == (dr, dc) or node(dr, dc) in flows:
            continue
        step_c = 1 if dc >= sc else -1
        step_r = 1 if dr >= sr else -1
        cells = [(sr, c) for c in range(sc, dc + step_c, step_c)]
        cells += [(r, dc) for r in range(sr + step_r, dr + step_r, step_r)]
        route = tuple(node(r, c) for r, c in cells)
        flows[route[-1]] = FlowSpec(flow_id=route[-1], source=route[0], route=route, arrival_rate=1.0)
    links = {hop for fl in flows.values() for hop in fl.hops}
    return NetworkModel(nodes=range(rows * cols), links=links, flows=flows.values())


#: alpha as a multiple of the calm limit 1 / (cycles * max node sum of g+):
#: well inside, at and around the fast path's 1 - 1e-6 threshold, and beyond
CALM_FRACTIONS = [0.25, 0.999_998, 0.999_998_9, 0.999_999, 0.999_999_1, 1.0, 1.2, 3.0, 40.0]


@st.composite
def stepwise_instances(draw):
    kind = draw(st.sampled_from(["star", "vee", "chain", "grid"]))
    if kind == "grid":
        rows, cols = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        pairs = draw(st.lists(st.tuples(cell, cell), min_size=1, max_size=5))
        model = _small_grid(rows, cols, pairs)
        if len(model.flows) == 0:
            model = _small_grid(rows, cols, [((0, 0), (rows - 1, cols - 1))])
    else:
        model = _small_topology(kind, draw(st.integers(1, 5)))
    K = len(model.link_flow_index)
    rates = {link: draw(st.sampled_from([0.0, 0.7, 1.9, 3.3])) for link in model.links}
    channel = ChannelModel(links=model.links, mean_gain={}, fixed_rates=rates).draw(0)
    # negative and zero differentials give g <= 0 elements
    dif = np.array(draw(st.lists(st.integers(-3, 30), min_size=K, max_size=K)), dtype=np.int64)
    backlogs = {fl.flow_id: draw(st.integers(0, 60)) for fl in model.flows}
    snap = QueueSnapshot(dif, backlogs)
    thresholds = {fl.flow_id: draw(st.floats(1.0, 40.0)) for fl in model.flows if draw(st.booleans())}
    wcfg = WeightConfig(a1=draw(st.sampled_from([0.0, 0.2])), a2=2.0, thresholds=thresholds)
    cycles = draw(st.integers(1, 40))
    g = gradient_vector(snap, channel, model, wcfg)
    node_sums = [sum(g[m] for m in con.members if g[m] > 0) for con in node_constraints(model).values()]
    worst = max(node_sums, default=0.0)
    if worst > 0 and draw(st.booleans()):
        alpha = draw(st.sampled_from(CALM_FRACTIONS)) / (cycles * worst)
    else:
        alpha = draw(st.floats(1e-4, 0.5))
    tolerance = draw(st.sampled_from([0.0, TOLERANCE]))
    return model, snap, channel, SolverConfig(alpha=alpha, cycles=cycles, tolerance=tolerance), wcfg


class TestSolveMatchesStepwise:
    """``solve_allocation`` skips steps yet returns the stepwise reference's bits."""

    @settings(max_examples=400, deadline=None)
    @given(instance=stepwise_instances())
    def test_bitwise_equal(self, instance):
        model, snap, channel, cfg, wcfg = instance
        fast = solve_allocation(snap, channel, model, cfg, wcfg)
        slow = stepwise_allocation(snap, channel, model, cfg, wcfg)
        assert fast.tobytes() == slow.tobytes()

    @pytest.mark.parametrize("fraction", CALM_FRACTIONS)
    def test_bitwise_equal_around_threshold(self, fraction):
        # a star puts every element on the hub: the hub's sum sets the limit
        model = _small_topology("star", 4)
        channel = fixed_channel(model, 1.9).draw(0)
        snap = QueueSnapshot(np.array([7, 0, 3, 12]), {1: 7, 2: 0, 3: 3, 4: 12})
        g = gradient_vector(snap, channel, model, WeightConfig())
        for cycles in (1, 15, 40):
            cfg = SolverConfig(alpha=fraction / (cycles * g.sum()), cycles=cycles, tolerance=0.0)
            fast = solve_allocation(snap, channel, model, cfg)
            slow = stepwise_allocation(snap, channel, model, cfg)
            assert fast.tobytes() == slow.tobytes()


class TestSuboptimalityBound:
    def test_reference_evaluation(self):
        # alpha (4 + 1/K) K^2 c1^2 / 2 = 1e-4 * 4.5 * 4 * 100 / 2
        assert suboptimality_bound(1e-4, 2, 10.0) == pytest.approx(0.09, abs=1e-12)

    def test_zero_gradient_zero_bound(self):
        assert suboptimality_bound(1e-4, 4, 0.0) == 0.0

    def test_linear_in_alpha(self):
        b1 = suboptimality_bound(1e-4, 3, 5.0)
        b2 = suboptimality_bound(5e-5, 3, 5.0)
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)
