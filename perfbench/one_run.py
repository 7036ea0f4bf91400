"""One benchmark run process of qwdr.

Usage: python3 one_run.py SPEC_JSON OUT_DIR TRACE REPEAT

Reads a workload spec (see workloads.py), then imports qwdr and, REPEAT
times over, builds the scenario, calls ``run`` and writes the output files
with ``collect_metrics``, as ``qwdr run --out`` does. Every repeat does the
same work, so the spread of their times is the host's alone. Prints one
JSON line with the set-up time (import plus the first build), the build,
run and result time of each repeat, the peak resident set, the sha256 of
each repeat's metrics.json and the packet ledger. With TRACE = 1 the calls
into each layer are timed as spans (see spans.py), the spans are saved to
OUT_DIR/spans.npz, and the line carries the per-layer figures too, summed
over the repeats, plus one timed capacity check of the paper15 instance.
Self times there exclude the wrappers' own cost, which is reported apart.
"""

from __future__ import annotations

import json
import sys
import time

spec_path, out_dir, traced, repeat = sys.argv[1], sys.argv[2], sys.argv[3] == "1", int(sys.argv[4])
with open(spec_path) as fh:
    spec = json.load(fh)

t_start = time.perf_counter()
import qwdr  # noqa: E402  (the import is part of the measured set-up)

t_import = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

recorder = None
counts = {"steps": 0, "positive_steps": 0, "fill": 0.0, "quota": 0.0, "moved": 0, "offered": 0}


def _on_solve(args, result):
    snapshot, solver_cfg = args[0], args[3]
    dif = snapshot.differentials
    positive = int((dif > 0).sum())
    if positive:  # an all-zero gradient short-circuits without steps
        counts["steps"] += solver_cfg.cycles * len(dif)
        counts["positive_steps"] += solver_cfg.cycles * positive


def _on_schedule(args, result):
    counts["fill"] += float(result.counts.sum())
    counts["quota"] += float(result.quota.sum())


def _on_transfer(args, result):
    counts["offered"] += args[4]
    counts["moved"] += result


if traced:
    from spans import Recorder, wrapper_cost  # found beside this file, the first entry of sys.path

    recorder = Recorder()
    recorder.install(
        {"solver.solve": _on_solve, "simulate.schedule": _on_schedule, "network.transfer": _on_transfer}
    )

span = recorder.span if traced else (lambda name: contextlib.nullcontext())

times = {"build_s": [], "run_s": [], "result_s": []}
digests, ledger_ok, reviews, injected = [], True, 0, 0
for _ in range(repeat):
    t_begin = time.perf_counter()
    with span("scenario.build"):
        if "preset" in spec:
            cfg = qwdr.make_paper15_scenario(**spec["preset"])
        else:
            cfg = qwdr.scenario_from_dict(spec["doc"])
        model = cfg.build_model()
        channel = cfg.build_channel()
        arrivals = cfg.build_arrivals()
        solver_cfg = cfg.build_solver_config()
        weight_cfg = cfg.build_weight_config()
        model.solver_workspace()
    t_built = time.perf_counter()

    with span("simulate.run"):
        result = qwdr.run(
            model,
            channel,
            arrivals,
            horizon=cfg.horizon_slots,
            solver_cfg=solver_cfg,
            weight_cfg=weight_cfg,
            k0=cfg.k0,
            queue_sample_interval=cfg.queue_sample_interval,
        )
    t_run = time.perf_counter()

    doc = qwdr.collect_metrics(result, cfg, out_dir=out_dir)
    t_done = time.perf_counter()

    times["build_s"].append(t_built - t_begin)
    times["run_s"].append(t_run - t_built)
    times["result_s"].append(t_done - t_begin)
    with open(os.path.join(out_dir, "metrics.json"), "rb") as fh:
        digests.append(hashlib.sha256(fh.read()).hexdigest())
    net = doc["network"]
    ledger_ok = ledger_ok and net["injected"] == net["delivered"] + net["in_flight"]
    reviews += doc["reviews"]["count"]
    injected += net["injected"]

out = {
    "digests": digests,
    "ledger_ok": ledger_ok,
    "setup_s": t_import - t_start + times["build_s"][0],
    **times,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}

if traced:
    recorder.uninstall()
    bytes_written = sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())
    recorder.save(os.path.join(out_dir, "spans.npz"))
    cost = wrapper_cost()
    layers = recorder.summary(cost)

    # the capacity oracle is outside every run; it is timed on the paper15
    # instance because larger workloads have too many activation sets to list
    p15 = qwdr.make_paper15_scenario(seed=cfg.seed, row=2)
    t0 = time.perf_counter()
    p15_model = p15.build_model()
    capacity = qwdr.capacity_membership(
        qwdr.CapacityQuery(
            model=p15_model,
            arrivals={(fl.source, fl.flow_id): fl.arrival_rate for fl in p15.flows},
            mean_rates=qwdr.mean_rates_from_channel(p15.build_channel()),
        )
    )
    oracle_s = time.perf_counter() - t0

    def self_s(name):
        return layers[name]["self_s"]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out["layers"] = {
        "solver.solve_s": self_s("solver.solve"),
        "solver.solves": layers["solver.solve"]["calls"],
        "solver.us_per_step": ratio(self_s("solver.solve"), counts["steps"], 1e6),
        "solver.positive_differential_ratio": ratio(counts["positive_steps"], counts["steps"]),
        "stochastic.channel_draw_s": self_s("stochastic.channel_draw"),
        "stochastic.channel_draws": layers["stochastic.channel_draw"]["calls"],
        "stochastic.arrival_draw_s": self_s("stochastic.arrival_draw"),
        "network.snapshot_s": self_s("network.snapshot"),
        "network.verify_balance_s": self_s("network.verify_balance"),
        "network.transfer_s": self_s("network.transfer"),
        "network.packets_moved": counts["moved"],
        "network.transfer_us_per_packet": ratio(self_s("network.transfer"), counts["moved"], 1e6),
        "network.add_arrivals_s": self_s("network.add_arrivals"),
        "network.packets_arrived": injected,
        "network.service_use_ratio": ratio(counts["moved"], counts["offered"]),
        "simulate.schedule_s": self_s("simulate.schedule"),
        "simulate.schedule_fill_ratio": ratio(counts["fill"], counts["quota"]),
        "simulate.review_clock_s": self_s("simulate.review_clock"),
        "simulate.step_slot_self_s": self_s("simulate.step_slot"),
        "simulate.run_self_s": self_s("simulate.run"),
        "simulate.reviews": reviews,
        "simulate.mean_period": doc["reviews"]["mean_period"],
        "metrics.collect_s": self_s("metrics.collect"),
        "metrics.bytes_written": bytes_written,
        "scenario.build_s": self_s("scenario.build"),
        "oracle.capacity_s": oracle_s,
        "oracle.activation_sets": capacity.n_activation_sets,
        # wrapper cost inside run(): with the self times above it sums to run()'s wall
        "trace.overhead_s": sum(
            v["overhead_s"] for k, v in layers.items() if k not in ("scenario.build", "metrics.collect")
        ),
    }

print(json.dumps(out))
