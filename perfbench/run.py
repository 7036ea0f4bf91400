"""qwdr benchmark: end-to-end and per-layer figures for named workloads.

Run from the root of a source checkout (the directory holding src/qwdr):

    python3 perfbench/run.py --workload paper15-row2 --seed 1 --seconds 40
    python3 perfbench/run.py --workload all --trace 1

A single-process, single-threaded batch benchmark. A run process (see
one_run.py) imports qwdr from src/ and then, a fixed number of times over,
builds the workload's scenario, simulates a fixed number of slots and writes
the output files. Run processes follow one another until --seconds have
passed. Every run() call does the same work, so their times differ only by
the host's speed. slots_per_s and result_s come from the upper quartile of
the call times over all processes (the time three calls in four stay
under), the first call of each process left out as warm-up; setup_s and
peak_rss_mb are medians over the processes. With --trace 1, one
untraced and one traced process run instead and the per-layer figures of
the traced one are reported. The last line of standard output is a JSON object with keys
correct, attempted, failed and metrics.

A run process fails when it raises, when injected != delivered + in_flight
in any of its outputs, or when any metrics.json digest differs from
references.json for that workload and seed (for a seed without a
reference: from the other runs of the invocation).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_RUNS = 3
RUN_TIMEOUT_S = 150

END_TO_END = (
    ("slots_per_s", "1/s"),
    ("result_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric, unit, the end-to-end metric it should move, and where
PER_LAYER = (
    ("solver.solve_s", "s", "slots_per_s", "grid-review (most), paper15-row2"),
    ("solver.solves", "count", "slots_per_s", "grid-review (most), paper15-row2"),
    ("solver.us_per_step", "us", "slots_per_s", "grid-review (most), paper15-row2"),
    ("solver.positive_differential_ratio", "ratio", "slots_per_s", "grid-review, paper15-row2"),
    ("stochastic.channel_draw_s", "s", "slots_per_s", "paper15-row2; no change on chain-overload"),
    ("stochastic.channel_draws", "count", "slots_per_s", "paper15-row2; no change on chain-overload"),
    ("stochastic.arrival_draw_s", "s", "slots_per_s", "chain-overload"),
    ("network.snapshot_s", "s", "slots_per_s", "grid-review"),
    ("network.verify_balance_s", "s", "slots_per_s", "grid-review"),
    ("network.transfer_s", "s", "slots_per_s, peak_rss_mb", "chain-overload; no change on grid-review"),
    ("network.packets_moved", "count", "slots_per_s, peak_rss_mb", "chain-overload"),
    ("network.transfer_us_per_packet", "us", "slots_per_s, peak_rss_mb", "chain-overload"),
    ("network.add_arrivals_s", "s", "slots_per_s, peak_rss_mb", "chain-overload"),
    ("network.packets_arrived", "count", "slots_per_s, peak_rss_mb", "chain-overload"),
    ("network.service_use_ratio", "ratio", "slots_per_s", "chain-overload"),
    ("simulate.schedule_s", "s", "slots_per_s", "grid-review"),
    ("simulate.schedule_fill_ratio", "ratio", "slots_per_s", "grid-review"),
    ("simulate.review_clock_s", "s", "slots_per_s", "grid-review"),
    ("simulate.step_slot_self_s", "s", "slots_per_s", "chain-overload"),
    ("simulate.run_self_s", "s", "slots_per_s", "grid-review (loop glue, wrapper cost taken out)"),
    ("simulate.reviews", "count", "slots_per_s", "grid-review"),
    ("simulate.mean_period", "slots", "slots_per_s", "grid-review"),
    ("metrics.collect_s", "s", "result_s", "all (one call per run())"),
    ("metrics.bytes_written", "bytes", "result_s", "all"),
    ("scenario.build_s", "s", "setup_s", "all"),
    ("oracle.capacity_s", "s", "none of the run metrics", "paper15 instance, in every traced run"),
    ("oracle.activation_sets", "count", "none of the run metrics", "paper15 instance (1464)"),
    ("trace.run_wall_s", "s", "none (traced run() wall: the in-run self times sum to it)", "all"),
    ("trace.overhead_ratio", "ratio", "none (traced / untraced run() wall)", "all"),
    ("trace.overhead_s", "s", "none (wrapper cost inside the traced run(), in no layer)", "all"),
)

# per-layer times spent inside run(); they sum to its wall
OUTSIDE_RUN = ("metrics.collect_s", "scenario.build_s", "oracle.capacity_s", "trace.run_wall_s")
IN_RUN = tuple(n for n, unit, _, _ in PER_LAYER if unit == "s" and n not in OUTSIDE_RUN)

USAGE_EPILOG = "per-layer metrics (--trace 1), the end-to-end metric each should move, and where:\n" + "\n".join(
    f"  {name:36s} {unit:6s} -> {moves}; {where}" for name, unit, moves, where in PER_LAYER
)


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def reference_digest(references: dict, workload: str, seed: int, horizon: int):
    entry = references.get(workload)
    if not entry or entry.get("horizon") != horizon:
        return None
    return entry["digests"].get(str(seed))


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def upper_quartile(times) -> float:
    """The time three quarters of ``times`` stay under.

    The host's slow phases all run at about the same speed, while its fast
    phases vary, so this quartile moves far less from run to run than the
    median or the fast quantiles do (see BASELINE.md).
    """
    return statistics.quantiles(times, n=4)[2]


def one_run(spec_path: str, out_dir: str, env: dict, traced: bool, repeat: int):
    """One run process writing into ``out_dir``; its report, or None when it failed."""
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join(HERE, "one_run.py"),
                spec_path,
                out_dir,
                "1" if traced else "0",
                str(repeat),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"run timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report["ledger_ok"]:
        print("packet ledger broken: injected != delivered + in_flight", file=sys.stderr)
        return None
    return report


def check_digests(reports: list, expected) -> int:
    """Failures among reports by metrics.json digests; marks each report ok or not."""
    digests = [d for r in reports for d in r["digests"]]
    if expected is None:  # no reference: the runs must agree with each other
        expected = max(set(digests), key=digests.count) if len(digests) > 1 else None
    failed = 0
    for r in reports:
        r["ok"] = expected is not None and set(r["digests"]) == {expected}
        if not r["ok"]:
            print(f"metrics.json digests {sorted(set(r['digests']))} differ from {expected}", file=sys.stderr)
            failed += 1
    return failed


def measure(workload: str, seed: int, seconds: float, traced: bool, root: str) -> dict:
    scratch = os.path.join(HERE, ".out", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        return _measure(workload, seed, seconds, traced, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(workload: str, seed: int, seconds: float, traced: bool, root: str, scratch: str) -> dict:
    began = time.perf_counter()
    spec = workloads.make_spec(workload, seed)
    horizon, repeat = workloads.HORIZON[workload], workloads.REPEAT[workload]
    spec_path = os.path.join(scratch, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = child_env(os.path.join(root, "src"))
    # compile and load once, so no measured run pays for bytecode or a cold page cache
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(root, "src", "qwdr")], env=env, check=True
    )
    subprocess.run([sys.executable, "-c", "import qwdr"], env=env, check=True)

    reports, attempted = [], 0
    if traced:
        # the traced run's files, spans.npz among them, are kept for inspection
        trace_dir = os.path.join(HERE, ".out", "trace", f"{workload}-seed{seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        for mode in (False, True):
            attempted += 1
            report = one_run(spec_path, trace_dir if mode else os.path.join(scratch, "plain"), env, mode, repeat)
            if report is not None:
                report["traced"] = mode
                reports.append(report)
    else:
        # start a process only while the longest one so far still fits in --seconds
        longest = 0.0
        while attempted < MIN_RUNS or time.perf_counter() - began + longest <= seconds:
            attempted += 1
            t0 = time.perf_counter()
            report = one_run(spec_path, os.path.join(scratch, f"run{attempted}"), env, False, repeat)
            longest = max(longest, time.perf_counter() - t0)
            if report is not None:
                reports.append(report)
                print(
                    f"run {attempted}: {horizon / upper_quartile(report['run_s'][1:]):.1f} slots/s, "
                    f"setup {report['setup_s']:.3f} s, result {upper_quartile(report['result_s'][1:]):.3f} s",
                    file=sys.stderr,
                )
    expected = reference_digest(load_references(), workload, seed, horizon)
    failed = attempted - len(reports) + check_digests(reports, expected)
    good = [r for r in reports if r["ok"]]

    metrics = {}
    if traced:
        plain = [r for r in good if not r["traced"]]
        tracing = [r for r in good if r["traced"]]
        if plain and tracing:
            layers = dict(tracing[0]["layers"])
            layers["trace.run_wall_s"] = sum(tracing[0]["run_s"])
            layers["trace.overhead_ratio"] = sum(tracing[0]["run_s"]) / sum(plain[0]["run_s"])
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    elif good:
        # the first run() of a process fills caches and finishes lazy set-up
        values = {
            "slots_per_s": horizon / upper_quartile([t for r in good for t in r["run_s"][1:]]),
            "result_s": upper_quartile([t for r in good for t in r["result_s"][1:]]),
            "setup_s": statistics.median(r["setup_s"] for r in good),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description=__doc__.split("\n\n")[0],
        epilog=USAGE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=40.0, help="measuring time per workload (run_seconds in BENCHMARK.json)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qwdr", "__init__.py")):
        print("no qwdr source at ./src/qwdr: run from the root of a qwdr checkout", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace), root)
        results[name] = res
        print(f"{name} (seed {args.seed}): {res['failed']} failed of {res['attempted']} attempted")
        wall = res["metrics"].get("trace.run_wall_s", {}).get("value")
        for metric, m in res["metrics"].items():
            share = f"{100 * m['value'] / wall:6.1f}% of run()" if wall and metric in IN_RUN else ""
            print(f"  {metric:36s} {m['value']:>14.6g} {m['unit']:6s} {share}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}:{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    if not final["metrics"]:
        print("no run succeeded; no figures to report", file=sys.stderr)
        print(json.dumps(final))
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
