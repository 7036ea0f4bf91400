"""Fuzz of the scenario load boundary.

Each example sets one to three paths of a valid tandem document to values
JSON can carry but a scenario cannot use: NaN, infinities, an overflowing
literal, negatives, zero, a number past numpy's Poisson limit, and values of
the wrong type. ``scenario_from_dict`` may only raise ``ConfigError``. A
document it accepts must run: a 5-slot ``run()`` at no more than 15 solver
cycles completes, keeps the packet ledger, and its metrics hold no
non-finite number.
"""

import copy
import dataclasses
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qwdr import ConfigError, collect_metrics, scenario_from_dict

BASE = {
    "name": "tandem",
    "nodes": {"1": [0.0, 0.0], "2": [0.3, 0.0], "3": [0.6, 0.0]},
    "links": [[1, 2], [2, 3]],
    "flows": [{"id": 3, "source": 1, "route": [1, 2, 3], "rate": 1.5, "delay_target": 50.0}],
    "run": {"horizon_slots": 2000, "seed": 1},
}

SETTINGS = {
    "channel": ("sigma2", "gain_model", "gain_scale", "truncation_factor"),
    "solver": ("alpha", "cycles", "n_rep", "tolerance"),
    "weights": ("a1", "a2"),
    "review": ("k0",),
    "run": (
        "horizon_slots",
        "seed",
        "channel_seed",
        "arrival_seed",
        "mode",
        "queue_sample_interval",
        "schedule_trace",
        "solver_trace",
    ),
}

PATHS = (
    [("nodes",), ("links",), ("metadata",), ("bidirectional",), ("channel", "fixed_rates")]
    + [("flows", 0, key) for key in ("id", "source", "route", "rate", "delay_target", "weight_enabled")]
    + [(section, key) for section, keys in SETTINGS.items() for key in keys]
)

# 1e400 parses as a float infinity; 10**400 is the same literal without the
# exponent, which JSON reads as an int too large for a float
POOL = [math.nan, math.inf, -math.inf, 1e400, 10**400, -1, 0, 2**70, "x", True, None, [], {}]


def mutated(mutations):
    doc = copy.deepcopy(BASE)
    for path, value in mutations:
        obj = doc
        for key in path[:-1]:
            obj = obj.setdefault(key, {}) if isinstance(key, str) else obj[key]
        obj[path[-1]] = value
    return doc


def check_load_and_run(mutations):
    try:
        cfg = scenario_from_dict(mutated(mutations))
    except ConfigError:
        return
    cfg = dataclasses.replace(cfg, horizon_slots=5, cycles=min(cfg.cycles, 15))
    doc = collect_metrics(cfg.run(), cfg)
    net = doc["network"]
    assert net["injected"] == net["delivered"] + net["in_flight"]
    json.dumps(doc, allow_nan=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from(PATHS), st.sampled_from(POOL)), min_size=1, max_size=3
    )
)
def test_only_config_errors_escape_and_accepted_documents_run(mutations):
    check_load_and_run(mutations)


def test_every_single_mutation_is_rejected_or_runs():
    # the whole single-mutation space, so no path and value pair is left to chance
    for path in PATHS:
        for value in POOL:
            check_load_and_run([(path, value)])
