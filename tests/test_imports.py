"""Import budget: the run path loads neither scipy nor networkx, nor the oracles.

Only the capacity LP (``capacity_membership``, ``qwdr capacity``) needs
scipy; the simulator needs numpy alone. The check runs in a fresh
interpreter, since the test process has loaded both packages already. The
exact references in ``qwdr.oracle`` serve the tests, the demos and ``qwdr
capacity``; no module that ``run`` and its outputs are built from imports it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys

import qwdr
import qwdr.cli

scenario, out = sys.argv[1], sys.argv[2]
assert qwdr.cli.main(["run", scenario, "--out", out]) == 0
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx"))
print("HEAVY", heavy)
assert not heavy, heavy
assert qwdr.cli.main(["capacity", scenario]) == 0
"""


def test_run_path_loads_no_scipy_or_networkx(tmp_path):
    scenario = tmp_path / "tandem.json"
    scenario.write_text(
        json.dumps(
            {
                "name": "tandem",
                "links": [[1, 2], [2, 3]],
                "flows": [{"id": 3, "source": 1, "route": [1, 2, 3], "rate": 1.5}],
                "channel": {"fixed_rates": 4.0},
                "run": {"horizon_slots": 2000, "seed": 1},
            }
        )
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(scenario), str(tmp_path / "out")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "HEAVY []" in proc.stdout
    assert "inside" in proc.stdout  # the capacity verdict, after scipy loaded on demand


RUN_PATH_MODULES = ("simulate", "solver", "network", "stochastic", "scenario", "metrics")


def _imported_modules(path):
    """Names of the ``qwdr`` modules a source file imports, relative or absolute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                if node.module:
                    names.add(node.module.split(".")[0])
                else:  # from . import x
                    names.update(alias.name for alias in node.names)
            elif node.level == 0 and (node.module or "").startswith("qwdr."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("qwdr."))
    return names


@pytest.mark.parametrize("module", RUN_PATH_MODULES)
def test_run_path_module_does_not_import_oracle(module):
    assert "oracle" not in _imported_modules(ROOT / "src" / "qwdr" / f"{module}.py")
