import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from qwdr import (
    ArrivalProcess,
    FlowSpec,
    NetworkModel,
    QueueMatrix,
    SimulationInvariantError,
    SolverConfig,
    WeightConfig,
    create_schedule,
    make_paper15_scenario,
    next_review_period,
    run,
    scenario_from_dict,
    step_slot,
)
from conftest import fixed_channel, queues_with, tandem_model


class TestNextReviewPeriod:
    def test_empty_network_one_slot(self):
        assert next_review_period(0, 0.01) == 1

    def test_log_below_one_clamps(self):
        # k0 = 0.01, ||Q|| = 171: log(1 + 1.71) = 0.9969 -> period 1
        assert next_review_period(171, 0.01) == 1

    def test_ceiling_applied(self):
        # k0 = 0.01, ||Q|| = 10000: log(101) = 4.615 -> period 5
        assert next_review_period(10_000, 0.01) == 5

    def test_always_at_least_one(self):
        for q in (0, 1, 10, 10**9):
            assert next_review_period(q, 0.01) >= 1

    def test_overflowing_product_gives_finite_period(self):
        # k0 * backlog overflows a float; the log is taken as a sum instead:
        # log(1e308) + log(2) = 709.89 -> period 710
        assert next_review_period(2, 1e308) == 710
        assert next_review_period(10**300, 1e308) == math.ceil(math.log(1e308) + math.log(10**300))

    @pytest.mark.parametrize("k0", [math.inf, math.nan, -1.0])
    def test_bad_k0_rejected(self, k0):
        with pytest.raises(ValueError, match="k0"):
            next_review_period(5, k0)


def single_link_model(rate=1.0):
    flows = [FlowSpec(flow_id=2, source=1, route=(1, 2), arrival_rate=rate)]
    return NetworkModel(nodes=[1, 2], links=[(1, 2)], flows=flows)


class TestCreateSchedule:
    def test_single_link_half_allocation(self):
        model = single_link_model()
        sched = create_schedule(np.array([0.5]), model, period=10)
        assert sched.counts[0] == 5
        assert sum(len(slot) for slot in sched.active) == 5

    def test_zero_allocation_never_scheduled(self):
        model = single_link_model()
        sched = create_schedule(np.array([0.0]), model, period=10)
        assert sched.counts[0] == 0

    def test_two_links_sharing_node_disjoint_slots(self):
        model = tandem_model()
        sched = create_schedule(np.array([0.5, 0.5]), model, period=10)
        assert list(sched.counts) == [5, 5]
        for slot in sched.active:
            assert len(slot) <= 1  # elements share node 2: never together

    def test_quota_bounds(self, rng):
        model = tandem_model()
        for _ in range(100):
            alloc = rng.uniform(0, 0.5, size=2)
            period = int(rng.integers(1, 12))
            sched = create_schedule(alloc, model, period)
            for p in range(2):
                quota = alloc[p] * period
                assert sched.counts[p] <= math.ceil(quota)

    def test_single_element_quota_exact_when_unblocked(self, rng):
        model = single_link_model()
        for _ in range(100):
            alloc = float(rng.uniform(0, 1))
            period = int(rng.integers(1, 20))
            sched = create_schedule(np.array([alloc]), model, period)
            quota = alloc * period
            if quota > 0:
                expected = math.ceil(quota) if quota != int(quota) else int(quota)
                assert sched.counts[0] == min(expected, period) or sched.counts[0] == expected
            else:
                assert sched.counts[0] == 0

    def test_infeasible_allocation_rejected(self):
        model = tandem_model()
        with pytest.raises(ValueError, match="infeasible"):
            create_schedule(np.array([0.8, 0.7]), model, period=5)
        with pytest.raises(ValueError, match="negative"):
            create_schedule(np.array([-0.2, 0.1]), model, period=5)

    def test_non_finite_allocation_rejected(self):
        # a NaN quota never reaches its count, so it would be scheduled in every slot
        model = tandem_model()
        with pytest.raises(ValueError, match="NaN"):
            create_schedule(np.array([math.nan, 0.1]), model, period=5)
        with pytest.raises(ValueError, match="infeasible"):
            create_schedule(np.array([math.inf, 0.0]), model, period=5)


class TestStepSlot:
    def test_serve_then_arrivals(self):
        model = single_link_model()
        queues = queues_with(model, {(1, 2): 3})
        step_slot(
            queues,
            active=[0],
            service=[4],
            arrivals=[((1, 2), 2)],
            slot=0,
        )
        # serve the start-of-slot queue, then enqueue
        assert queues.delivered[2] == 3
        assert queues.length(1, 2) == 2

    def test_no_active_elements_queues_grow(self):
        model = single_link_model()
        queues = queues_with(model, {})
        step_slot(queues, active=[], service=[0], arrivals=[((1, 2), 5)], slot=0)
        assert queues.length(1, 2) == 5

    def test_relay_chain_two_slots(self):
        # chain 1 -> 2 -> 3, Q1 = 5, links alternate, floor(mu) = 2
        model = tandem_model()
        queues = queues_with(model, {(1, 3): 5})
        service = [2, 2]
        step_slot(queues, [0], service, [], slot=0)
        assert queues.length(2, 3) == 2
        step_slot(queues, [1], service, [], slot=1)
        assert queues.length(2, 3) == 0
        assert queues.delivered[3] == 2
        assert queues.injected == queues.total() + queues.delivered_total

    def test_interference_violation_detected(self):
        model = tandem_model()
        queues = queues_with(model, {(1, 3): 5, (2, 3): 5})
        with pytest.raises(SimulationInvariantError, match="interference"):
            step_slot(
                queues,
                active=[0, 1],  # (1, 2, 3) and (2, 3, 3) share node 2
                service=[1, 1],
                arrivals=[],
                slot=0,
            )


def run_single_link(rate, mu, horizon, seed=11, k0=0.01):
    model = single_link_model(rate)
    channel = fixed_channel(model, mu)
    arrivals = ArrivalProcess([(1, 2)], [rate], seed=seed)
    return run(model, channel, arrivals, horizon=horizon, k0=k0)


class TestRun:
    def test_zero_arrivals_stay_empty(self):
        res = run_single_link(0.0, 3.0, horizon=500)
        assert res.queues.total() == 0
        assert res.queues.injected == 0
        assert all(rec.end - rec.start == 1 for rec in res.reviews)

    def test_determinism_same_seeds(self):
        a = run_single_link(1.0, 2.3, horizon=2000, seed=5)
        b = run_single_link(1.0, 2.3, horizon=2000, seed=5)
        assert a.queues.delivered == b.queues.delivered
        assert a.queues.delay_sum == b.queues.delay_sum
        assert a.max_total_queue == b.max_total_queue
        assert [r.total_queue for r in a.reviews] == [r.total_queue for r in b.reviews]

    def test_single_link_mean_delay_matches_chain_oracle(self):
        # Abundant service: every review sees the queue, the period stays 1,
        # and the backlog follows Q' = max(Q - 2, 0) + Poisson(1). A packet
        # landing at position p departs ceil(p / 2) slots later. The expected
        # delay is computed exactly from the stationary distribution.
        mu, lam, cap = 2.2, 1.0, 2
        n_states = 80
        n_arr = 35
        pois = np.array([math.exp(-lam) * lam**k / math.factorial(k) for k in range(n_arr)])
        P = np.zeros((n_states, n_states))
        for q in range(n_states):
            base = max(q - cap, 0)
            for k in range(n_arr):
                P[q, min(base + k, n_states - 1)] += pois[k]
        evals, evecs = np.linalg.eig(P.T)
        station = np.real(evecs[:, np.argmax(np.real(evals))])
        station = np.abs(station) / np.abs(station).sum()
        num = 0.0
        den = 0.0
        for q in range(n_states):
            base = max(q - cap, 0)
            for k in range(1, n_arr):
                for j in range(1, k + 1):
                    num += station[q] * pois[k] * math.ceil((base + j) / cap)
            den += station[q] * lam
        oracle_delay = num / den

        res = run_single_link(lam, mu, horizon=100_000)
        sim_delay = res.queues.delay_sum[2] / res.queues.delivered[2]
        assert sim_delay == pytest.approx(oracle_delay, rel=0.03)
        assert oracle_delay == pytest.approx(1.0, rel=0.5)  # roughly one slot

    def test_throughput_approaches_rate_in_stable_run(self):
        res = run_single_link(1.0, 2.2, horizon=40_000)
        second_half = res.queues.delivered_total - res.queues.injected + res.queues.total()
        # delivered / slot over the whole run within 2% of the arrival rate
        assert res.queues.delivered_total / res.horizon == pytest.approx(1.0, rel=0.02)

    def test_negative_queue_sample_interval_rejected(self):
        model = single_link_model(1.0)
        channel = fixed_channel(model, 2.2)
        arrivals = ArrivalProcess([(1, 2)], [1.0], seed=2)
        with pytest.raises(ValueError, match="queue_sample_interval"):
            run(model, channel, arrivals, horizon=50, queue_sample_interval=-7)

    def test_review_log_consistent(self):
        res = run_single_link(1.0, 2.2, horizon=3000)
        for a, b in zip(res.reviews, res.reviews[1:]):
            assert b.start == a.end
            assert a.end - a.start >= 1

    def test_tandem_run_with_solver_defaults(self):
        model = tandem_model(rate=1.5)
        channel = fixed_channel(model, 4.0)
        arrivals = ArrivalProcess([(1, 3)], [1.5], seed=3)
        res = run(model, channel, arrivals, horizon=20_000)
        assert res.zero_backlog_scheduled == 0
        assert res.queues.delivered_total / res.horizon == pytest.approx(1.5, rel=0.05)
        assert res.max_total_queue < 200

    def test_schedule_trace_recorded(self):
        model = single_link_model(1.0)
        channel = fixed_channel(model, 2.2)
        arrivals = ArrivalProcess([(1, 2)], [1.0], seed=2)
        res = run(model, channel, arrivals, horizon=200, record_schedule=True)
        assert res.schedule_trace
        assert all(len(row) == 4 for row in res.schedule_trace)


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_flow_statistics_match_samples(result):
    """Per-flow and total peaks and backlog-slot sums equal the per-slot samples' max and sum."""
    flow_ids = result.model.link_flow_index.flow_ids
    assert [slot for slot, _, _ in result.queue_samples] == list(range(result.horizon))
    totals = [total for _, total, _ in result.queue_samples]
    assert result.max_total_queue == max(totals)
    assert result.total_queue_slot_sum == sum(totals)
    for n, f in enumerate(flow_ids):
        series = [backlogs[n] for _, _, backlogs in result.queue_samples]
        assert result.flow_backlog_slot_sum[f] == sum(series), f
        assert result.flow_max_backlog[f] == max(series), f
    assert list(result.flow_backlog_slot_sum) == list(result.flow_max_backlog) == flow_ids


class TestFlowStatistics:
    """Per-flow and total peaks and backlog-slot sums against every slot's sample."""

    @pytest.mark.parametrize("name, horizon", [("paper15-row2", 600), ("grid-review", 120), ("chain-overload", 600)])
    def test_benchmark_workloads(self, name, horizon):
        workloads = _load_workloads()
        spec = workloads.make_spec(name, 3)
        if "preset" in spec:
            cfg = make_paper15_scenario(**{**spec["preset"], "horizon": horizon})
        else:
            spec["doc"]["run"]["horizon_slots"] = horizon
            cfg = scenario_from_dict(spec["doc"])
        result = run(
            cfg.build_model(),
            cfg.build_channel(),
            cfg.build_arrivals(),
            horizon=cfg.horizon_slots,
            solver_cfg=cfg.build_solver_config(),
            weight_cfg=cfg.build_weight_config(),
            k0=cfg.k0,
            queue_sample_interval=1,
        )
        assert result.horizon == horizon
        assert result.queues.delivered_total > 0 and result.queues.total() > 0
        assert_flow_statistics_match_samples(result)

    def test_idle_and_empty_runs(self):
        # a flow that never receives a packet, and a network with no element
        model = NetworkModel(
            nodes=[1, 2, 3],
            links=[(1, 2), (2, 3)],
            flows=[
                FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=2.0),
                FlowSpec(flow_id=2, source=1, route=(1, 2), arrival_rate=0.0),
            ],
        )
        arrivals = ArrivalProcess([(1, 3), (1, 2)], [2.0, 0.0], seed=4)
        result = run(model, fixed_channel(model, 1.5), arrivals, horizon=300, queue_sample_interval=1)
        assert result.flow_max_backlog[2] == result.flow_backlog_slot_sum[2] == 0
        assert_flow_statistics_match_samples(result)
        empty = NetworkModel(nodes=[1], links=[], flows=[])
        result = run(empty, fixed_channel(empty, 1.0), ArrivalProcess([], []), horizon=5, queue_sample_interval=1)
        assert result.flow_max_backlog == result.flow_backlog_slot_sum == {}
        assert result.zero_backlog_scheduled == 0
        assert_flow_statistics_match_samples(result)
