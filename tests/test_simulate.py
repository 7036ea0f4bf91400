import dataclasses
import math

import numpy as np
import pytest

from qwdr import (
    ArrivalProcess,
    ChannelModel,
    FlowSpec,
    NetworkModel,
    QueueMatrix,
    QueueSnapshot,
    SimulationInvariantError,
    SolverConfig,
    WeightConfig,
    collect_metrics,
    create_schedule,
    gradient_vector,
    make_paper15_scenario,
    next_review_period,
    run,
    scenario_from_dict,
    solve_allocation,
    step_slot,
)
from qwdr.oracle import stepwise_allocation
from conftest import fixed_channel, load_workloads, queues_with, tandem_model


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
            arrivals=[(0, 2)],  # queue (1, 2)
            slot=0,
        )
        # serve the start-of-slot queue, then enqueue
        assert queues.delivered[2] == 3
        assert queues.length(1, 2) == 2

    def test_no_active_elements_queues_grow(self):
        model = single_link_model()
        queues = queues_with(model, {})
        step_slot(queues, active=[], service=[0], arrivals=[(0, 5)], slot=0)
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
        assert queues.injected == queues.total + queues.delivered_total

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
        assert res.queues.total == 0
        assert res.queues.injected == 0
        assert all(rec.end - rec.start == 1 for rec in res.reviews)

    def test_determinism_same_seeds(self):
        a = run_single_link(1.0, 2.3, horizon=2000, seed=5)
        b = run_single_link(1.0, 2.3, horizon=2000, seed=5)
        assert a.queues.delivered == b.queues.delivered
        assert a.queues.delay_sum == b.queues.delay_sum
        assert a.queues.total_peak == b.queues.total_peak
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
        assert res.queues.total_peak < 200

    def test_zero_backlog_audit_counts_granted_slots(self, monkeypatch):
        # flow 4 has no arrivals, so its element's differential is 0 at every
        # review; the allocation still gives it half of every period, and the
        # busy element its share only while it has a differential backlog
        flows = [
            FlowSpec(flow_id=2, source=1, route=(1, 2), arrival_rate=1.0),
            FlowSpec(flow_id=4, source=3, route=(3, 4), arrival_rate=0.0),
        ]
        model = NetworkModel(nodes=[1, 2, 3, 4], links=[(1, 2), (3, 4)], flows=flows)
        positions = model.link_flow_index.positions
        busy, idle = positions[(1, 2, 2)], positions[(3, 4, 4)]

        def allocate(snapshot, *args):
            alloc = np.zeros(2)
            alloc[idle] = 0.5
            if snapshot.differentials[busy] > 0:
                alloc[busy] = 1.0
            return alloc

        monkeypatch.setattr("qwdr.simulate.solve_allocation", allocate)
        arrivals = ArrivalProcess([(1, 2), (3, 4)], [1.0, 0.0], seed=2)
        res = run(model, fixed_channel(model, 2.2), arrivals, horizon=3000, k0=1.0, record_schedule=True)
        # the links share no node: the idle element gets ceil(0.5 x period)
        # slots of every period, the last one past the horizon included
        periods = [r.end - r.start for r in res.reviews]
        assert max(periods) > 1 and any(i == 1 for _, i, _, _ in res.schedule_trace)
        assert res.zero_backlog_scheduled == sum(math.ceil(0.5 * n) for n in periods)

    def test_queue_beyond_int64_runs_to_end(self):
        # 9e18 packets a slot is below numpy's Poisson limit; after two slots
        # the queue holds more than an int64 can
        doc = {
            "name": "int64",
            "links": [[1, 2], [2, 3]],
            "flows": [{"id": 3, "source": 1, "route": [1, 2, 3], "rate": 9e18}],
            "channel": {"fixed_rates": 4.0},
            "review": {"k0": 0},
            "run": {"horizon_slots": 10},
        }
        net = collect_metrics(scenario_from_dict(doc).run())["network"]
        assert net["in_flight"] > 2**63
        assert net["injected"] == net["delivered"] + net["in_flight"]

    def test_schedule_trace_recorded(self):
        model = single_link_model(1.0)
        channel = fixed_channel(model, 2.2)
        arrivals = ArrivalProcess([(1, 2)], [1.0], seed=2)
        res = run(model, channel, arrivals, horizon=200, record_schedule=True)
        assert res.schedule_trace
        assert all(len(row) == 4 for row in res.schedule_trace)


class TestChannelLinkOrder:
    """A channel that lists its links in another order than the model's.

    The model sorts its links, while a channel keeps the order it is given
    and a scenario file's ``links`` order when ``bidirectional`` is false.
    Every bundled and generated scenario lists its links sorted, so only a
    reversed channel shows that each element reads its rate at the
    channel's position of its link.
    """

    LINKS = [(1, 2), (2, 3), (3, 4), (4, 5)]
    RATES = {(1, 2): 1.5, (2, 3): 2.5, (3, 4): 3.5, (4, 5): 4.5}  # packets per slot 1 .. 4
    ROUTES = {5: [1, 2, 3, 4, 5], 3: [1, 2, 3]}

    @pytest.mark.parametrize("alpha", [1e-4, 0.05], ids=["calm", "projecting"])
    def test_solver_reads_each_rate_at_its_link(self, alpha):
        flows = [FlowSpec(flow_id=f, source=1, route=r, arrival_rate=1.0) for f, r in self.ROUTES.items()]
        model = NetworkModel(nodes=range(1, 6), links=self.LINKS, flows=flows)
        channel = ChannelModel(links=self.LINKS[::-1], mean_gain={}, fixed_rates=self.RATES).draw(0)
        triples = model.link_flow_index.triples
        snap = QueueSnapshot([4, 6, 3, 5, 2, 1], {3: 7, 5: 18})
        expected = [d * self.RATES[(i, j)] for d, (i, j, _) in zip(snap.differentials, triples)]
        assert gradient_vector(snap, channel, model, WeightConfig()).tolist() == expected
        cfg = SolverConfig(alpha=alpha)
        alloc = solve_allocation(snap, channel, model, cfg)
        assert alloc.tobytes() == stepwise_allocation(snap, channel, model, cfg).tobytes()

    def test_run_outputs_do_not_depend_on_link_order(self):
        outputs = []
        for links in (self.LINKS, self.LINKS[::-1]):
            doc = {
                "name": "chain",
                "links": [list(link) for link in links],
                "flows": [{"id": f, "source": 1, "route": r, "rate": 0.3} for f, r in self.ROUTES.items()],
                "channel": {"fixed_rates": {f"{i}-{j}": r for (i, j), r in self.RATES.items()}},
                "run": {"horizon_slots": 3000, "seed": 4},
            }
            cfg = scenario_from_dict(doc)
            assert cfg.build_channel().links == tuple(links)
            metrics = collect_metrics(cfg.run(), cfg)
            outputs.append({key: metrics[key] for key in ("flows", "network", "reviews")})
        assert outputs[0] == outputs[1]


def assert_flow_statistics_match_samples(result):
    """Per-flow and total peaks and backlog-slot sums equal the per-slot samples' max and sum.

    Checked twice: in the queue ledger, and in the ``collect_metrics``
    document built from it.
    """
    flow_ids = [fl.flow_id for fl in result.model.flows]
    horizon = result.horizon
    queues = result.queues
    sums = queues.flow_backlog_slot_sums(horizon)
    doc = collect_metrics(result)
    network, flows = doc["network"], doc["flows"]
    assert [slot for slot, _, _ in result.queue_samples] == list(range(horizon))
    totals = [total for _, total, _ in result.queue_samples]
    assert queues.total_peak == network["max_total_queue"] == max(totals)
    assert sum(sums.values()) == sum(totals)
    assert network["avg_total_queue"] == sum(totals) / horizon
    for n, f in enumerate(flow_ids):
        series = [backlogs[n] for _, _, backlogs in result.queue_samples]
        assert sums[f] == sum(series), f
        assert queues.flow_peak[f] == flows[str(f)]["max_backlog"] == max(series), f
        assert flows[str(f)]["avg_backlog"] == sum(series) / horizon, f
    assert list(sums) == list(queues.flow_peak) == flow_ids


class TestFlowStatistics:
    """Per-flow and total peaks and backlog-slot sums against every slot's sample."""

    @pytest.mark.parametrize("name, horizon", [("paper15-row2", 600), ("grid-review", 120), ("chain-overload", 600)])
    def test_benchmark_workloads(self, name, horizon):
        workloads = load_workloads()
        spec = workloads.make_spec(name, 3)
        if "preset" in spec:
            cfg = make_paper15_scenario(**{**spec["preset"], "horizon": horizon})
        else:
            spec["doc"]["run"]["horizon_slots"] = horizon
            cfg = scenario_from_dict(spec["doc"])
        result = dataclasses.replace(cfg, queue_sample_interval=1).run()
        assert result.horizon == horizon
        assert result.queues.delivered_total > 0 and result.queues.total > 0
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
        assert result.queues.flow_peak[2] == result.queues.flow_backlog_slot_sums(300)[2] == 0
        assert_flow_statistics_match_samples(result)
        empty = NetworkModel(nodes=[1], links=[], flows=[])
        result = run(empty, fixed_channel(empty, 1.0), ArrivalProcess([], []), horizon=5, queue_sample_interval=1)
        assert result.queues.flow_peak == result.queues.flow_backlog_slot_sums(5) == {}
        assert result.zero_backlog_scheduled == 0
        assert_flow_statistics_match_samples(result)
