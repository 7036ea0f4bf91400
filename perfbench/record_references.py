"""Record the metrics.json digests that benchmark runs are checked against.

Run from the root of a qwdr checkout whose outputs are known good:

    python3 perfbench/record_references.py --seeds 0-49

For each workload and seed this runs one run process of two runs at the
workload's horizon and stores the sha256 of its metrics.json in
perfbench/references.json. Re-record only when a change alters the outputs
on purpose, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import HERE, child_env, one_run
import workloads


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-49", help="seed list, e.g. 0-49 or 1,2,5-9")
    parser.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    args = parser.parse_args()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    path = os.path.join(HERE, "references.json")
    with open(path) as fh:
        references = json.load(fh)
    env = child_env(os.path.join(os.getcwd(), "src"))
    scratch = os.path.join(HERE, ".out", f"references-{os.getpid()}")
    try:
        for name in names:
            horizon = workloads.HORIZON[name]
            entry = references.get(name)
            if not entry or entry["horizon"] != horizon:
                entry = references[name] = {"horizon": horizon, "digests": {}}
            for seed in parse_seeds(args.seeds):
                spec_path = os.path.join(scratch, "spec.json")
                os.makedirs(scratch, exist_ok=True)
                with open(spec_path, "w") as fh:
                    json.dump(workloads.make_spec(name, seed), fh)
                # two runs in one process, as in a measured run; they must agree
                report = one_run(spec_path, os.path.join(scratch, "out"), env, False, 2)
                if report is None or len(set(report["digests"])) != 1:
                    print(f"{name} seed {seed}: run failed or its runs disagree", file=sys.stderr)
                    return 1
                entry["digests"][str(seed)] = report["digests"][0]
                print(f"{name} seed {seed}: {report['digests'][0]}")
                with open(path, "w") as fh:
                    json.dump(references, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
