"""Walkthrough: simulate a two-hop relay under discrete-review control.

A single flow crosses 1 -> 2 -> 3. The two links share node 2, so only one
of them can be active in any slot; the controller re-plans at review
instants whose spacing grows with the total backlog. We run the loop for a
while and look at what came out.
"""

import numpy as np

import qwdr

cfg = qwdr.scenario_from_dict(
    {
        "name": "two-hop-relay",
        "links": [[1, 2], [2, 3]],
        "flows": [{"id": 3, "source": 1, "route": [1, 2, 3], "rate": 1.5}],
        # degenerate channel: both links carry 4 packets per active slot
        "channel": {"fixed_rates": 4.0},
        "run": {"horizon_slots": 20_000, "seed": 7},
    }
)

model = cfg.build_model()
print(f"network: {len(model.nodes)} nodes, {len(model.links)} links, "
      f"{len(model.link_flow_index)} link-flow elements")
# one interference constraint per node: the (i, j, flow) elements touching it
index = model.link_flow_index
constraints = {n: [index.triples[p] for p in index.members[c]] for c, n in enumerate(index.nodes)}
print(f"node constraints: {constraints}")

result = qwdr.run(
    model=model,
    channel=cfg.build_channel(),
    arrivals=cfg.build_arrivals(),
    horizon=cfg.horizon_slots,
    solver_cfg=cfg.build_solver_config(),
    weight_cfg=cfg.build_weight_config(),
    k0=cfg.k0,
)

doc = qwdr.collect_metrics(result, cfg)
m = doc["flows"]["3"]
print(f"\ndelivered {m['delivered']} packets over {cfg.horizon_slots} slots")
print(f"throughput {m['throughput']:.3f} pkts/slot (arrival rate 1.5)")
print(f"mean end-to-end delay {m['mean_delay']:.2f} slots (reported {m['mean_delay_rounded']})")
print(f"max total backlog {doc['network']['max_total_queue']} packets")

print("\nfirst review periods (index, start, end, backlog at review):")
for rec in result.reviews[:8]:
    print(f"  {rec.index:3d}  [{rec.start:4d}, {rec.end:4d})  ||Q|| = {rec.total_queue}")

# the queue trajectory is sampled on a fixed grid; show a coarse summary
samples = np.array([total for _, total, _ in result.queue_samples])
print(f"\nbacklog trajectory: mean {samples.mean():.1f}, "
      f"p95 {np.percentile(samples, 95):.0f}, max {samples.max()}")
