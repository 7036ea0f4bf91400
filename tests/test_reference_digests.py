"""Byte identity of ``metrics.json`` against the benchmark's recorded digests.

``perfbench/references.json`` pins the sha256 of ``metrics.json`` for every
benchmark workload and seed. This test rebuilds seeds 0 and 1 of each
workload as a benchmark run process does (``perfbench/one_run.py``): the
spec from ``perfbench/workloads.make_spec``, passed through JSON, the
scenario from it, one run at the workload's horizon and ``collect_metrics``
into a directory. The run goes through ``ScenarioConfig.run``, which makes
the same ``run()`` call as the run process. Any drift in the simulator's
output then fails here, not only in the benchmark. ``perfbench/`` is only
read.
"""

import hashlib
import json

import pytest

import qwdr
from conftest import PERFBENCH, load_workloads

workloads = load_workloads()
REFERENCES = json.loads((PERFBENCH / "references.json").read_text())


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_metrics_digest_matches_reference(name, seed, tmp_path):
    reference = REFERENCES[name]
    horizon = workloads.HORIZON[name]
    assert reference["horizon"] == horizon
    spec = json.loads(json.dumps(workloads.make_spec(name, seed)))
    if "preset" in spec:
        cfg = qwdr.make_paper15_scenario(**spec["preset"])
    else:
        cfg = qwdr.scenario_from_dict(spec["doc"])
    assert cfg.horizon_slots == horizon
    qwdr.collect_metrics(cfg.run(), cfg, out_dir=str(tmp_path))
    digest = hashlib.sha256((tmp_path / "metrics.json").read_bytes()).hexdigest()
    assert digest == reference["digests"][str(seed)]
