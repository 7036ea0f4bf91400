import numpy as np
import pytest

from qwdr import (
    CapacityQuery,
    FlowSpec,
    NetworkModel,
    SizeError,
    capacity_membership,
    enumerate_activation_sets,
    make_paper15_scenario,
    mean_rates_from_channel,
)
from qwdr.oracle import (
    HalfspaceConstraint,
    LinearProgramInstance,
    lp_solve_exact,
    qp_project_exact,
)
from conftest import fixed_channel, tandem_model


class TestLpSolveExact:
    def test_single_variable_boundary(self):
        val, x = lp_solve_exact(LinearProgramInstance(c=(5.0,)))
        assert val == pytest.approx(5.0)
        assert x == pytest.approx([1.0])

    def test_two_variables_one_constraint(self):
        inst = LinearProgramInstance(
            c=(10.0, 4.0), constraints=(HalfspaceConstraint(members=(0, 1)),)
        )
        val, x = lp_solve_exact(inst)
        assert val == pytest.approx(10.0)
        assert x == pytest.approx([1.0, 0.0])

    def test_three_variables_two_constraints(self):
        inst = LinearProgramInstance(
            c=(3.0, 4.0, 3.0),
            constraints=(
                HalfspaceConstraint(members=(0, 1)),
                HalfspaceConstraint(members=(1, 2)),
            ),
        )
        val, x = lp_solve_exact(inst)
        assert val == pytest.approx(6.0)
        assert x == pytest.approx([1.0, 0.0, 1.0])

    def test_size_limit(self):
        with pytest.raises(SizeError):
            lp_solve_exact(LinearProgramInstance(c=tuple(range(9))))

    def test_dominates_random_feasible_points(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            cons = []
            for _k in range(int(rng.integers(0, 3))):
                members = tuple(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
                cons.append(HalfspaceConstraint(members=members))
            c = tuple(rng.uniform(0, 20, size=n))
            val, x = lp_solve_exact(LinearProgramInstance(c=c, constraints=tuple(cons)))
            # optimizer itself is feasible
            assert np.all(x >= -1e-9) and np.all(x <= 1 + 1e-9)
            for con in cons:
                assert con.value(x) <= 1 + 1e-9
            # no sampled feasible point beats it
            for _ in range(1000):
                pt = rng.uniform(0, 1, size=n)
                for con in cons:
                    v = con.value(pt)
                    if v > 1.0:
                        pt = pt.copy()
                        pt[list(con.members)] /= v
                ok = all(con.value(pt) <= 1 + 1e-9 for con in cons)
                if ok:
                    assert float(np.dot(c, pt)) <= val + 1e-9


class TestQpProjectExact:
    def test_feasible_point_unchanged(self):
        cons = [HalfspaceConstraint(members=(0, 1))]
        p = np.array([0.2, 0.3])
        assert qp_project_exact(p, cons) == pytest.approx(p)

    def test_symmetric_projection(self):
        cons = [HalfspaceConstraint(members=(0, 1))]
        out = qp_project_exact(np.array([1.0, 1.0]), cons)
        assert out == pytest.approx([0.5, 0.5])

    def test_three_variable_two_constraint_instance(self):
        cons = [HalfspaceConstraint(members=(0, 1)), HalfspaceConstraint(members=(1, 2))]
        p = np.array([1.2, 0.9, 0.8])
        out = qp_project_exact(p, cons)
        # projection is feasible and closer than any alternative candidate
        for con in cons:
            assert con.value(out) <= 1 + 1e-9
        # brute-force grid check of optimality
        best = None
        for a in np.linspace(-0.5, 1.5, 41):
            for b in np.linspace(-0.5, 1.5, 41):
                for c in np.linspace(-0.5, 1.5, 41):
                    cand = np.array([a, b, c])
                    if all(con.value(cand) <= 1 + 1e-12 for con in cons):
                        d = np.linalg.norm(cand - p)
                        best = d if best is None else min(best, d)
        assert np.linalg.norm(out - p) <= best + 1e-6

    def test_size_limit(self):
        with pytest.raises(SizeError):
            qp_project_exact(np.zeros(7), [HalfspaceConstraint(members=(0,))])


class TestActivationSets:
    def test_tandem_sets(self):
        model = tandem_model()
        sets = enumerate_activation_sets(model)
        # elements (1,2,3) and (2,3,3) share node 2: never together
        assert sorted(sets) == [(), (0,), (1,)]

    def test_paper15_enumeration_is_bounded(self):
        model = make_paper15_scenario().build_model()
        sets = enumerate_activation_sets(model)
        assert len(sets) > 100
        index = model.link_flow_index
        for act in sets:
            nodes = []
            for pos in act:
                i, j, _ = index.triples[pos]
                nodes.extend((i, j))
            assert len(nodes) == len(set(nodes))

    def test_size_error(self):
        model = make_paper15_scenario().build_model()
        with pytest.raises(SizeError):
            enumerate_activation_sets(model, max_sets=10)


def tandem_query(lam, mu=4.0):
    model = tandem_model(rate=lam)
    channel = fixed_channel(model, mu)
    rates = mean_rates_from_channel(channel)
    return CapacityQuery(
        model=model,
        arrivals={(1, 3): lam},
        mean_rates=rates,
    )


class TestCapacityMembership:
    def test_zero_arrivals_inside_with_service_slack(self):
        flows = [FlowSpec(flow_id=2, source=1, route=(1, 2), arrival_rate=0.0)]
        model = NetworkModel(nodes=[1, 2], links=[(1, 2)], flows=flows)
        channel = fixed_channel(model, 3.0)
        query = CapacityQuery(
            model=model, arrivals={(1, 2): 0.0}, mean_rates=mean_rates_from_channel(channel)
        )
        res = capacity_membership(query)
        assert res.label == "inside"
        # slack equals the full link capacity
        assert res.epsilon == pytest.approx(3.0, abs=1e-6)

    def test_tandem_time_sharing_boundary(self):
        # links share node 2: inside iff lam < mu / 2; uniform slack
        # optimum is (mu - 2 lam) / 3 by splitting x_A, x_B, idle
        res = capacity_membership(tandem_query(1.5))
        assert res.label == "inside"
        assert res.epsilon == pytest.approx(1.0 / 3.0, abs=1e-6)
        res = capacity_membership(tandem_query(2.5))
        assert res.label == "outside"
        assert res.epsilon == pytest.approx(-1.0 / 3.0, abs=1e-6)

    def test_overloaded_flow_outside(self):
        res = capacity_membership(tandem_query(40.0))
        assert res.label == "outside"
        assert res.epsilon < -30

    def test_monotone_in_arrival_scaling(self, rng):
        model = tandem_model(rate=1.0)
        channel = fixed_channel(model, 5.3)
        rates = mean_rates_from_channel(channel)
        # exact: one draw of a fixed channel, where the mean of 200 copies of
        # 5.3 would read 5.29999999999998
        assert rates == {link: 5.3 for link in model.links}
        with pytest.raises(ValueError, match="at least one channel sample"):
            mean_rates_from_channel(channel, n_samples=0)  # as a fading channel does
        last_eps = None
        for lam in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            res = capacity_membership(
                CapacityQuery(model=model, arrivals={(1, 3): lam}, mean_rates=rates)
            )
            if last_eps is not None:
                assert res.epsilon <= last_eps + 1e-9
            last_eps = res.epsilon

    def test_paper15_membership_runs(self):
        cfg = make_paper15_scenario(seed=1)
        model = cfg.build_model()
        rates = mean_rates_from_channel(cfg.build_channel(), n_samples=50)
        arrivals = {(fl.source, fl.flow_id): fl.arrival_rate for fl in cfg.flows}
        res = capacity_membership(
            CapacityQuery(model=model, arrivals=arrivals, mean_rates=rates)
        )
        assert res.label in ("inside", "outside", "boundary-band")
        assert len(res.node_flow_slack) == 17  # one row per on-route non-dest (node, flow)
