"""Command line front end.

Subcommands: ``run`` (simulate a scenario), ``capacity`` (capacity-region
slack), ``validate`` (check a scenario file), ``paper15`` (emit the bundled
15-node preset). Exit codes: 0 success, 2 configuration error, 3 instance
too large for the exact references.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .metrics import collect_metrics
from .oracle import CapacityQuery, SizeError, capacity_membership, mean_rates_from_channel
from .scenario import ConfigError, load_scenario, make_paper15_scenario


def _apply_overrides(cfg, args):
    overrides = {}
    if args.slots is not None:
        overrides["horizon_slots"] = args.slots
    if args.seed is not None:
        overrides.update(seed=args.seed, channel_seed=args.seed, arrival_seed=args.seed)
    if args.mode is not None:
        overrides["mode"] = args.mode
    return dataclasses.replace(cfg, **overrides)  # checked like a loaded scenario


def _cmd_run(args) -> int:
    cfg = _apply_overrides(load_scenario(args.scenario), args)
    if args.out is not None:  # before the run, so an unusable path costs no simulation
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot write {args.out}: {exc.strerror or exc}") from exc
    result = cfg.run()
    try:
        doc = collect_metrics(result, cfg, out_dir=args.out)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {args.out}: {exc.strerror or exc}") from exc
    print(f"scenario {cfg.name}: {cfg.horizon_slots} slots, mode={cfg.mode}, seed={cfg.seed}")
    print(f"{'flow':>6} {'target':>8} {'delay':>8} {'delivered':>10} {'throughput':>11}")
    for key, m in sorted(doc["flows"].items(), key=lambda kv: int(kv[0])):
        target = "-" if m["delay_target"] is None else f"{m['delay_target']:.0f}"
        delay = "-" if m["mean_delay_rounded"] is None else str(m["mean_delay_rounded"])
        print(f"{key:>6} {target:>8} {delay:>8} {m['delivered']:>10} {m['throughput']:>11.3f}")
    net = doc["network"]
    print(
        f"total queue: max {net['max_total_queue']}, avg {net['avg_total_queue']:.1f}; "
        f"reviews: {doc['reviews']['count']} (mean period {doc['reviews']['mean_period']:.2f})"
    )
    if args.out:
        print(f"wrote metrics to {args.out}/")
    return 0


def _cmd_capacity(args) -> int:
    for flag, value in (("--samples", args.samples), ("--max-sets", args.max_sets)):
        if value < 1:
            raise ConfigError(f"{flag}: must be >= 1, got {value}")
    cfg = load_scenario(args.scenario)
    model = cfg.build_model()
    channel = cfg.build_channel()
    rates = mean_rates_from_channel(channel, n_samples=args.samples)
    arrivals = {(fl.source, fl.flow_id): fl.arrival_rate for fl in cfg.flows}
    result = capacity_membership(
        CapacityQuery(model=model, arrivals=arrivals, mean_rates=rates, max_sets=args.max_sets)
    )
    print(f"scenario {cfg.name}: {result.label} (max uniform slack {result.epsilon:.6f})")
    print(f"activation sets enumerated: {result.n_activation_sets}")
    print(f"{'node':>6} {'flow':>6} {'slack':>12}")
    for (node, flow), slack in sorted(result.node_flow_slack.items()):
        print(f"{node:>6} {flow:>6} {slack:>12.6f}")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_scenario(args.scenario)
    model = cfg.build_model()
    print(
        f"{cfg.name}: OK ({len(model.nodes)} nodes, {len(model.links)} links, "
        f"{len(model.flows)} flows, {len(model.link_flow_index)} link-flow elements)"
    )
    # a slot serves floor(rate) packets, so a routed link whose rate can
    # never reach 1 holds its slots without moving a packet
    channel = cfg.build_channel()
    top = dict(zip(channel.links, channel.link_max_rates.tolist()))
    routed: dict[tuple[int, int], list[int]] = {}
    for flow in model.flows:
        for hop in flow.hops:
            routed.setdefault(hop, []).append(flow.flow_id)
    for (i, j), flows in sorted(routed.items()):
        if top[(i, j)] < 1.0:
            label = "flow" if len(flows) == 1 else "flows"
            print(
                f"dead link ({i}, {j}): its largest rate {top[(i, j)]:.6g} is below 1, so it can "
                f"never move a packet (route of {label} {', '.join(map(str, flows))})"
            )
    return 0


def _cmd_paper15(args) -> int:
    cfg = make_paper15_scenario(seed=args.seed, row=args.row)
    text = json.dumps(cfg.to_json_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"--out: cannot write {args.out}: {exc.strerror or exc}") from exc
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwdr",
        description="Queue-weighted discrete-review network control simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--slots", type=int, default=None, help="override run.horizon_slots")
    p_run.add_argument("--seed", type=int, default=None, help="override all seeds")
    p_run.add_argument("--mode", choices=("qwdr", "unweighted"), default=None)
    p_run.add_argument("--out", default=None, help="directory for metrics files")
    p_run.set_defaults(func=_cmd_run)

    p_cap = sub.add_parser("capacity", help="capacity-region membership of a scenario")
    p_cap.add_argument("scenario")
    p_cap.add_argument("--samples", type=int, default=200, help="channel draws for mean rates")
    p_cap.add_argument("--max-sets", type=int, default=200_000)
    p_cap.set_defaults(func=_cmd_capacity)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=_cmd_validate)

    p_p15 = sub.add_parser("paper15", help="emit the bundled 15-node preset scenario")
    p_p15.add_argument("--row", type=int, default=2, help="delay-target preset row (1..5)")
    p_p15.add_argument("--seed", type=int, default=1)
    p_p15.add_argument("--out", default=None, help="write to a file instead of stdout")
    p_p15.set_defaults(func=_cmd_paper15)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SizeError as exc:
        print(f"instance too large: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
