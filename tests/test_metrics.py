import copy
import json

import pytest

from qwdr import (
    ArrivalProcess,
    FlowSpec,
    NetworkModel,
    collect_metrics,
    compare_runs,
    flow_metrics,
    run,
    scenario_from_dict,
)
from qwdr.metrics import round_half_away_from_zero
from conftest import fixed_channel


class TestRounding:
    def test_half_rounds_away_from_zero(self):
        assert round_half_away_from_zero(3.5) == 4
        assert round_half_away_from_zero(2.5) == 3
        assert round_half_away_from_zero(2.49) == 2
        assert round_half_away_from_zero(-2.5) == -3

    def test_integers_unchanged(self):
        for v in (0.0, 1.0, 17.0):
            assert round_half_away_from_zero(v) == int(v)


def tiny_scenario(mode="qwdr", seed=5, horizon=4000, target=None):
    flow = {"id": 2, "source": 1, "route": [1, 2], "rate": 1.0}
    if target is not None:
        flow["delay_target"] = target
    return scenario_from_dict(
        {
            "name": "tiny",
            "links": [[1, 2]],
            "flows": [flow],
            "channel": {"fixed_rates": 2.2},
            "run": {"horizon_slots": horizon, "seed": seed, "mode": mode},
        }
    )


def run_scenario(cfg):
    return run(
        model=cfg.build_model(),
        channel=cfg.build_channel(),
        arrivals=cfg.build_arrivals(),
        horizon=cfg.horizon_slots,
        solver_cfg=cfg.build_solver_config(),
        weight_cfg=cfg.build_weight_config(),
        k0=cfg.k0,
        queue_sample_interval=cfg.queue_sample_interval,
    )


class TestFlowMetrics:
    def test_single_packet_delay(self):
        flows = [FlowSpec(flow_id=2, source=1, route=(1, 2), arrival_rate=0.0)]
        model = NetworkModel(nodes=[1, 2], links=[(1, 2)], flows=flows)
        from qwdr import QueueMatrix, RunResult

        queues = QueueMatrix(model)
        queues.add_arrivals(1, 2, 1, slot=10)
        queues.transfer(1, 2, 2, 1, slot=25)
        result = RunResult(
            model=model,
            horizon=30,
            queues=queues,
            reviews=[],
            queue_samples=[],
            max_total_queue=1,
            total_queue_slot_sum=15,
            flow_max_backlog={2: 1},
            flow_backlog_slot_sum={2: 15},
            zero_backlog_scheduled=0,
        )
        metrics = flow_metrics(result)
        assert metrics[2].mean_delay == 15.0
        assert metrics[2].mean_delay_rounded == 15

    def test_zero_delivered_reports_absent(self):
        flows = [FlowSpec(flow_id=2, source=1, route=(1, 2), arrival_rate=0.0)]
        model = NetworkModel(nodes=[1, 2], links=[(1, 2)], flows=flows)
        from qwdr import QueueMatrix, RunResult

        result = RunResult(
            model=model,
            horizon=10,
            queues=QueueMatrix(model),
            reviews=[],
            queue_samples=[],
            max_total_queue=0,
            total_queue_slot_sum=0,
            flow_max_backlog={2: 0},
            flow_backlog_slot_sum={2: 0},
            zero_backlog_scheduled=0,
        )
        metrics = flow_metrics(result)
        assert metrics[2].mean_delay is None
        assert metrics[2].mean_delay_rounded is None

    def test_mean_of_two_packets_rounds_half_up(self):
        flows = [FlowSpec(flow_id=2, source=1, route=(1, 2), arrival_rate=0.0)]
        model = NetworkModel(nodes=[1, 2], links=[(1, 2)], flows=flows)
        from qwdr import QueueMatrix, RunResult

        queues = QueueMatrix(model)
        queues.add_arrivals(1, 2, 1, slot=0)
        queues.transfer(1, 2, 2, 1, slot=3)  # delay 3
        queues.add_arrivals(1, 2, 1, slot=2)
        queues.transfer(1, 2, 2, 1, slot=6)  # delay 4
        result = RunResult(
            model=model,
            horizon=10,
            queues=queues,
            reviews=[],
            queue_samples=[],
            max_total_queue=1,
            total_queue_slot_sum=7,
            flow_max_backlog={2: 1},
            flow_backlog_slot_sum={2: 7},
            zero_backlog_scheduled=0,
        )
        metrics = flow_metrics(result)
        assert metrics[2].mean_delay == pytest.approx(3.5)
        assert metrics[2].mean_delay_rounded == 4


class TestCollectMetrics:
    def test_files_written(self, tmp_path):
        cfg = tiny_scenario()
        doc = collect_metrics(run_scenario(cfg), cfg, out_dir=str(tmp_path))
        for name in ("metrics.json", "delays.csv", "queues.csv", "reviews.csv"):
            assert (tmp_path / name).exists()
        on_disk = json.loads((tmp_path / "metrics.json").read_text())
        assert on_disk["network"]["horizon_slots"] == cfg.horizon_slots
        assert on_disk["config"]["run"]["seed"] == cfg.seed
        assert doc["flows"]["2"]["delivered"] > 0

    def test_config_echo_complete(self, tmp_path):
        cfg = tiny_scenario()
        doc = collect_metrics(run_scenario(cfg), cfg, out_dir=str(tmp_path))
        echoed = doc["config"]
        for section in ("channel", "solver", "weights", "review", "run"):
            assert section in echoed
        assert echoed["channel"]["sigma2"] == 1.0
        assert echoed["review"]["k0"] == 0.01

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = tiny_scenario()
        collect_metrics(run_scenario(cfg), cfg, out_dir=str(tmp_path / "a"))
        collect_metrics(run_scenario(tiny_scenario()), tiny_scenario(), out_dir=str(tmp_path / "b"))
        assert (tmp_path / "a/metrics.json").read_bytes() == (tmp_path / "b/metrics.json").read_bytes()
        assert (tmp_path / "a/queues.csv").read_bytes() == (tmp_path / "b/queues.csv").read_bytes()


class TestCompareRuns:
    def test_identical_runs_unit_ratios(self):
        cfg = tiny_scenario()
        doc = collect_metrics(run_scenario(cfg), cfg)
        report = compare_runs(doc, copy.deepcopy(doc))
        for row in report["flows"].values():
            assert row["ratio"] == pytest.approx(1.0)

    def test_target_met_flag(self):
        cfg_u = tiny_scenario(mode="unweighted", target=200.0)
        cfg_w = tiny_scenario(mode="qwdr", target=200.0)
        base = collect_metrics(run_scenario(cfg_u), cfg_u)
        weighted = collect_metrics(run_scenario(cfg_w), cfg_w)
        report = compare_runs(base, weighted)
        row = report["flows"]["2"]
        assert row["target"] == 200.0
        assert row["met"] is True  # tiny stable link: delay far under target

    def test_scenario_mismatch_rejected(self):
        cfg_a = tiny_scenario(seed=5)
        cfg_b = tiny_scenario(seed=6)
        doc_a = collect_metrics(run_scenario(cfg_a), cfg_a)
        doc_b = collect_metrics(run_scenario(cfg_b), cfg_b)
        with pytest.raises(ValueError, match="different scenarios"):
            compare_runs(doc_a, doc_b)
