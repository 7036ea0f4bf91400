"""Per-flow metrics, file outputs, and weighted-vs-baseline comparison.

Output files are deterministic byte-for-byte for a fixed configuration and
seeds: JSON is dumped with sorted keys, CSVs in fixed column order, and no
wall-clock information is recorded.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

from .scenario import ScenarioConfig
from .simulate import RunResult


def round_half_away_from_zero(x: float) -> int:
    """Reported delays round to the nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass
class FlowMetrics:
    """Delivered-packet statistics for one flow over one run."""

    flow_id: int
    delay_target: Optional[float]
    delivered: int
    mean_delay: Optional[float]
    mean_delay_rounded: Optional[int]
    delay_histogram: dict[int, int]
    throughput: float
    max_backlog: int
    avg_backlog: float


def flow_metrics(result: RunResult) -> dict[int, FlowMetrics]:
    by_flow = {}
    horizon = result.horizon
    for flow in result.model.flows:
        f = flow.flow_id
        delivered = result.queues.delivered[f]
        if delivered > 0:
            mean = result.queues.delay_sum[f] / delivered
            rounded = round_half_away_from_zero(mean)
        else:  # no delivered packets: report the absence, never a fake zero
            mean = None
            rounded = None
        by_flow[f] = FlowMetrics(
            flow_id=f,
            delay_target=flow.delay_target,
            delivered=delivered,
            mean_delay=mean,
            mean_delay_rounded=rounded,
            delay_histogram=dict(result.queues.delay_hist[f]),
            throughput=delivered / horizon,
            max_backlog=result.flow_max_backlog[f],
            avg_backlog=result.flow_backlog_slot_sum[f] / horizon,
        )
    return by_flow


def collect_metrics(
    result: RunResult,
    scenario: Optional[ScenarioConfig] = None,
    out_dir: Optional[str] = None,
) -> dict:
    """Assemble the full metrics document; write files when ``out_dir`` given.

    Files: metrics.json (everything), delays.csv (flow, target, achieved),
    queues.csv (sampled backlog trajectories), reviews.csv, and schedule.csv
    when the run recorded its schedule.
    """
    flows = flow_metrics(result)
    doc = {
        "config": scenario.to_json_dict() if scenario is not None else None,
        # every field, by vars(): dataclasses.asdict would deep-copy each histogram entry
        "flows": {
            str(f): {**vars(m), "delay_histogram": {str(d): n for d, n in sorted(m.delay_histogram.items())}}
            for f, m in sorted(flows.items())
        },
        "network": {
            "horizon_slots": result.horizon,
            "injected": result.queues.injected,
            "delivered": result.queues.delivered_total,
            "in_flight": result.queues.total(),
            "max_total_queue": result.max_total_queue,
            "avg_total_queue": result.total_queue_slot_sum / result.horizon,
        },
        "reviews": {
            "count": len(result.reviews),
            "mean_period": result.mean_review_period,
        },
        "audit": {
            "zero_backlog_scheduled_slots": result.zero_backlog_scheduled,
        },
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(out_dir, "delays.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["flow", "target", "achieved"])
            for f, m in sorted(flows.items()):
                writer.writerow(
                    [
                        f,
                        "" if m.delay_target is None else m.delay_target,
                        "" if m.mean_delay_rounded is None else m.mean_delay_rounded,
                    ]
                )
        flow_ids = [fl.flow_id for fl in result.model.flows]
        with open(os.path.join(out_dir, "queues.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["slot", "total"] + [f"flow_{f}" for f in flow_ids])
            for slot, total, backlogs in result.queue_samples:
                writer.writerow([slot, total] + list(backlogs))
        with open(os.path.join(out_dir, "reviews.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["review_index", "start", "end", "total_queue"])
            for rec in result.reviews:
                writer.writerow([rec.index, rec.start, rec.end, rec.total_queue])
        if result.schedule_trace is not None:
            with open(os.path.join(out_dir, "schedule.csv"), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["slot", "i", "j", "flow"])
                writer.writerows(result.schedule_trace)
    return doc


def _scenario_signature(doc: dict) -> dict:
    # everything that must coincide for a fair comparison: topology, traffic,
    # channel, horizon and seeds -- but not weight settings (mode, targets)
    cfg = doc.get("config") or {}
    run_doc = dict(cfg.get("run", {}))
    run_doc.pop("mode", None)
    flows = [
        {k: fd.get(k) for k in ("id", "source", "route", "rate")}
        for fd in cfg.get("flows", [])
    ]
    return {
        "nodes": cfg.get("nodes"),
        "links": cfg.get("links"),
        "flows": flows,
        "channel": cfg.get("channel"),
        "run": run_doc,
    }


def compare_runs(baseline: dict, weighted: dict) -> dict:
    """Per-flow delay change of a weighted run against its unweighted twin.

    Both documents must come from the same scenario and seeds, differing only
    in weight settings. Flows with a delay target are additionally flagged
    as meeting or missing it.
    """
    if _scenario_signature(baseline) != _scenario_signature(weighted):
        raise ValueError("runs compare different scenarios or seeds")
    rows = {}
    reductions = []
    for key, wm in weighted["flows"].items():
        bm = baseline["flows"].get(key)
        if bm is None:
            raise ValueError(f"flow {key} missing from the baseline run")
        b_delay = bm["mean_delay"]
        w_delay = wm["mean_delay"]
        ratio = None
        if b_delay and w_delay is not None:
            ratio = w_delay / b_delay
        target = wm["delay_target"]
        met = None
        if target is not None and wm["mean_delay_rounded"] is not None:
            met = wm["mean_delay_rounded"] <= target
        rows[key] = {
            "unweighted_delay": b_delay,
            "weighted_delay": w_delay,
            "ratio": ratio,
            "target": target,
            "met": met,
        }
        if target is not None and ratio is not None:
            reductions.append(1.0 - ratio)
    return {
        "flows": rows,
        "targeted_mean_reduction": (sum(reductions) / len(reductions)) if reductions else None,
    }
