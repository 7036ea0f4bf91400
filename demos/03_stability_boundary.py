"""Walkthrough: queue stability on both sides of the capacity region.

The two links of a tandem share the middle node and must time-share it.
With both link rates pinned at 4.0, the relay can forward at most 2 packets
per slot on average, so arrival rates below 2 are inside the capacity region
and rates above it are outside. The membership LP certifies the side; the
simulation shows bounded queues inside and linear growth outside.
"""

import numpy as np

from qwdr import (
    ArrivalProcess,
    CapacityQuery,
    ChannelModel,
    FlowSpec,
    NetworkModel,
    capacity_membership,
    mean_rates_from_channel,
    run,
)

HORIZON = 30_000


def tandem(lam):
    flows = [FlowSpec(flow_id=3, source=1, route=(1, 2, 3), arrival_rate=lam)]
    model = NetworkModel(nodes=[1, 2, 3], links=[(1, 2), (2, 3)], flows=flows)
    channel = ChannelModel(
        links=model.links, mean_gain={}, fixed_rates={(1, 2): 4.0, (2, 3): 4.0}
    )
    arrivals = ArrivalProcess([(1, 3)], [lam], seed=99)
    return model, channel, arrivals


print(f"{'rate':>6} {'membership':>14} {'slack':>8} {'max||Q||':>10} "
      f"{'final||Q||':>11} {'late slope':>11}")
for lam in (1.0, 1.5, 1.9, 2.1, 2.5):
    model, channel, arrivals = tandem(lam)
    cap = capacity_membership(
        CapacityQuery(
            model=model,
            arrivals={(1, 3): lam},
            mean_rates=mean_rates_from_channel(channel),
        )
    )
    result = run(model, channel, arrivals, horizon=HORIZON, queue_sample_interval=1)
    series = np.array([total for _, total, _ in result.queue_samples])
    slope = float(np.polyfit(np.arange(HORIZON // 2), series[HORIZON // 2 :], 1)[0])
    print(f"{lam:>6.1f} {cap.label:>14} {cap.epsilon:>8.3f} {result.queues.total_peak:>10} "
          f"{int(series[-1]):>11} {slope:>11.4f}")

print("\ninside the region queues stay bounded; outside they grow at roughly")
print("(arrival rate - 2) packets per slot, the relay's time-shared deficit.")
