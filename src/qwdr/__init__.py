"""Queue-weighted discrete-review control of multihop wireless networks.

The package simulates a slotted multihop network governed by a discrete
review policy: at backlog-dependent review instants a weighted allocation
problem is solved by distributed incremental gradient ascent, the resulting
time fractions are frozen into an interference-free slot schedule, and the
slot engine moves packets until the next review. Exact desk-scale references
(basic-solution LP, active-set projection, capacity membership) validate the
solver and the stability behaviour; all but the capacity check are imported
from ``qwdr.oracle``.
"""

from .network import (
    FlowSpec,
    LinkFlowIndex,
    NetworkModel,
    QueueMatrix,
    QueueSnapshot,
    SimulationInvariantError,
)
from .oracle import (
    CapacityQuery,
    SizeError,
    capacity_membership,
    enumerate_activation_sets,
    mean_rates_from_channel,
)
from .scenario import (
    ConfigError,
    ScenarioConfig,
    load_scenario,
    make_paper15_scenario,
    scenario_from_dict,
)
from .metrics import collect_metrics, compare_runs
from .simulate import RunResult, SlotSchedule, create_schedule, next_review_period, run, step_slot
from .solver import (
    SolverConfig,
    WeightConfig,
    gradient_vector,
    solve_allocation,
    suboptimality_bound,
    weight,
)
from .stochastic import ArrivalProcess, ChannelModel, achievable_rate

__version__ = "0.1.0"

__all__ = [
    "ArrivalProcess",
    "CapacityQuery",
    "ChannelModel",
    "ConfigError",
    "FlowSpec",
    "LinkFlowIndex",
    "NetworkModel",
    "QueueMatrix",
    "QueueSnapshot",
    "RunResult",
    "ScenarioConfig",
    "SimulationInvariantError",
    "SizeError",
    "SlotSchedule",
    "SolverConfig",
    "WeightConfig",
    "achievable_rate",
    "capacity_membership",
    "collect_metrics",
    "compare_runs",
    "create_schedule",
    "enumerate_activation_sets",
    "gradient_vector",
    "load_scenario",
    "make_paper15_scenario",
    "mean_rates_from_channel",
    "next_review_period",
    "run",
    "scenario_from_dict",
    "solve_allocation",
    "step_slot",
    "suboptimality_bound",
    "weight",
]
