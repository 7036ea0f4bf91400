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
from typing import Optional

from .scenario import ScenarioConfig
from .simulate import RunResult


def round_half_away_from_zero(x: float) -> int:
    """Reported delays round to the nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def _write_csv(out_dir: str, name: str, header: list, rows) -> None:
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    queues = result.queues
    horizon = result.horizon
    reviews = result.reviews
    slot_sums = queues.flow_backlog_slot_sums(horizon)
    flows = {}
    for flow in sorted(result.model.flows, key=lambda fl: fl.flow_id):
        f = flow.flow_id
        delivered = queues.delivered[f]
        # no delivered packets: report the absence, never a fake zero
        mean = queues.delay_sum[f] / delivered if delivered > 0 else None
        flows[str(f)] = {
            "flow_id": f,
            "delay_target": flow.delay_target,
            "delivered": delivered,
            "mean_delay": mean,
            "mean_delay_rounded": None if mean is None else round_half_away_from_zero(mean),
            "delay_histogram": {str(d): n for d, n in sorted(queues.delay_hist[f].items())},
            "throughput": delivered / horizon,
            "max_backlog": queues.flow_peak[f],
            "avg_backlog": slot_sums[f] / horizon,
        }
    doc = {
        "config": scenario.to_json_dict() if scenario is not None else None,
        "flows": flows,
        "network": {
            "horizon_slots": horizon,
            "injected": queues.injected,
            "delivered": queues.delivered_total,
            "in_flight": queues.total,
            "max_total_queue": queues.total_peak,
            "avg_total_queue": sum(slot_sums.values()) / horizon,
        },
        "reviews": {
            "count": len(reviews),
            "mean_period": sum(r.end - r.start for r in reviews) / len(reviews) if reviews else 0.0,
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
        # csv writes None, an absent target or delay, as an empty cell
        delays = ([m["flow_id"], m["delay_target"], m["mean_delay_rounded"]] for m in flows.values())
        _write_csv(out_dir, "delays.csv", ["flow", "target", "achieved"], delays)
        header = ["slot", "total"] + [f"flow_{fl.flow_id}" for fl in result.model.flows]
        samples = ([slot, total, *backlogs] for slot, total, backlogs in result.queue_samples)
        _write_csv(out_dir, "queues.csv", header, samples)
        rows = ([rec.index, rec.start, rec.end, rec.total_queue] for rec in reviews)
        _write_csv(out_dir, "reviews.csv", ["review_index", "start", "end", "total_queue"], rows)
        if result.schedule_trace is not None:
            _write_csv(out_dir, "schedule.csv", ["slot", "i", "j", "flow"], result.schedule_trace)
    return doc


def _scenario_signature(doc: dict) -> dict:
    # the whole config echo, which must coincide for a fair comparison, less
    # the weight settings (the weights section, the mode, each flow's target
    # and weighting switch) and the free-form name and metadata
    if doc.get("config") is None:
        raise ValueError("a run collected without its scenario has no config echo to compare")
    cfg = dict(doc["config"])
    for key in ("weights", "name", "metadata"):
        cfg.pop(key, None)
    cfg["run"] = {k: v for k, v in cfg["run"].items() if k != "mode"}
    cfg["flows"] = [
        {k: v for k, v in fd.items() if k not in ("delay_target", "weight_enabled")}
        for fd in cfg["flows"]
    ]
    return cfg


def compare_runs(baseline: dict, weighted: dict) -> dict:
    """Per-flow delay change of a weighted run against its unweighted twin.

    Both documents must come from the same scenario, solver, review clock and
    seeds, differing only in weight settings, and each must carry its config
    echo (``collect_metrics`` given the scenario). Flows with a delay target
    are additionally flagged as meeting or missing it.
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
