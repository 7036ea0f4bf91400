import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qwdr import ScenarioConfig
from qwdr.cli import main
from conftest import BAD_FIELDS, set_field

ROOT = Path(__file__).resolve().parent.parent


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tandem_doc(rate=1.5):
    return {
        "name": "tandem",
        "links": [[1, 2], [2, 3]],
        "flows": [{"id": 3, "source": 1, "route": [1, 2, 3], "rate": rate}],
        "channel": {"fixed_rates": 4.0},
        "run": {"horizon_slots": 2000, "seed": 1},
    }


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tandem_doc())
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "2 link-flow elements" in out
        assert "dead link" not in out

    def test_dead_links_named(self, tmp_path, capsys):
        # floor(rate) packets per slot: a routed link whose largest rate is
        # below 1 never moves one; an unrouted one is not reported
        doc = tandem_doc()
        doc["links"].append([1, 3])
        doc["flows"].append({"id": 2, "source": 1, "route": [1, 2], "rate": 0.5})
        doc["channel"]["fixed_rates"] = {"1-2": 0.9, "2-3": 1.0, "1-3": 0.1}
        assert main(["validate", write_scenario(tmp_path, doc)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "dead link" in line]
        assert lines == [
            "dead link (1, 2): its largest rate 0.9 is below 1, so it can never move a packet "
            "(route of flows 3, 2)"
        ]

    def test_dead_fading_link_named(self, tmp_path, capsys):
        # a fading link's largest rate is log1p(mean gain x truncation / sigma2)
        doc = tandem_doc()
        del doc["channel"]["fixed_rates"]
        doc["nodes"] = {"1": [0.0, 0.0], "2": [1.0, 0.0], "3": [1.0, 40.0]}
        assert main(["validate", write_scenario(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert "dead link (1, 2)" not in out
        assert "dead link (2, 3)" in out and "(route of flow 3)" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        doc = tandem_doc()
        doc["flows"][0]["rate"] = -1
        path = write_scenario(tmp_path, doc)
        assert main(["validate", path]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["validate", "/no/such/file.json"]) == 2

    def test_directory_exit_code(self, tmp_path, capsys):
        # an unreadable file takes the same OSError path; it is not tested,
        # since a process running as root can read any file
        assert main(["validate", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(tmp_path) in err
        assert "Traceback" not in err


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tandem_doc())
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        assert (out_dir / "metrics.json").exists()
        assert (out_dir / "delays.csv").exists()
        stdout = capsys.readouterr().out
        assert "flow" in stdout and "total queue" in stdout

    def test_overrides(self, tmp_path):
        path = write_scenario(tmp_path, tandem_doc())
        out_dir = tmp_path / "out"
        assert main(["run", path, "--slots", "500", "--seed", "9",
                     "--mode", "unweighted", "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert doc["network"]["horizon_slots"] == 500
        assert doc["config"]["run"]["seed"] == 9
        assert doc["config"]["run"]["mode"] == "unweighted"

    def test_out_is_a_file_exit_code(self, tmp_path, capsys, monkeypatch):
        path = write_scenario(tmp_path, tandem_doc())
        taken = tmp_path / "taken"
        taken.write_text("")

        def no_run(cfg):
            raise AssertionError("the path is checked before the simulation runs")

        monkeypatch.setattr(ScenarioConfig, "run", no_run)
        assert main(["run", path, "--slots", "50", "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert "--out: cannot write" in err and str(taken) in err
        assert "Traceback" not in err

    def test_negative_queue_sample_interval_exit_code(self, tmp_path, capsys):
        doc = tandem_doc()
        doc["run"]["queue_sample_interval"] = -7
        path = write_scenario(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "run.queue_sample_interval" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


    # a count flag below 1: run's --slots, and capacity's --samples and --max-sets
    @pytest.mark.parametrize(
        "command, flag, value, name",
        [
            pytest.param("run", "--slots", "0", "run.horizon_slots", id="0"),
            pytest.param("run", "--slots", "-3", "run.horizon_slots", id="-3"),
            pytest.param("capacity", "--samples", "0", "--samples", id="capacity-samples-0"),
            pytest.param("capacity", "--max-sets", "-1", "--max-sets", id="capacity-max-sets--1"),
        ],
    )
    def test_nonpositive_slots_exit_code(self, tmp_path, capsys, command, flag, value, name):
        path = write_scenario(tmp_path, tandem_doc())
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, path, flag, value, *extra]) == 2
        err = capsys.readouterr().err
        assert name in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_huge_k0_run_completes(self, tmp_path, capsys):
        # k0 * backlog overflows a float once two packets wait
        doc = tandem_doc()
        doc["review"] = {"k0": 1e308}
        doc["run"]["horizon_slots"] = 5000
        path = write_scenario(tmp_path, doc)
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        net = json.loads((out_dir / "metrics.json").read_text())["network"]
        assert net["horizon_slots"] == 5000
        assert net["injected"] == net["delivered"] + net["in_flight"]

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tandem_doc())
        assert main(["run", path, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "run.seed" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # alpha x gradient beyond the float range: a huge alpha on a small
    # backlog, or the default alpha on a huge rate x backlog
    @pytest.mark.parametrize(
        "alpha, rate, fixed_rate",
        [(1e307, 1.5, 4.0), (1.7e308, 1.5, 4.0), (None, 1e18, 1e300)],
        ids=["alpha-1e307", "alpha-1.7e308", "rates-1e300"],
    )
    def test_overflowing_solver_step_exit_code(self, tmp_path, capsys, alpha, rate, fixed_rate):
        doc = tandem_doc(rate)
        doc["links"].append([1, 3])
        doc["flows"].append({"id": 2, "source": 1, "route": [1, 2], "rate": rate})
        doc["channel"]["fixed_rates"] = fixed_rate
        if alpha is not None:
            doc["solver"] = {"alpha": alpha}
        assert main(["run", write_scenario(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "solver.alpha" in err and "overflowed" in err

    @pytest.mark.parametrize("section, key, value", BAD_FIELDS)
    def test_bad_solver_and_weight_fields_exit_code(self, tmp_path, capsys, section, key, value):
        doc = tandem_doc()
        set_field(doc, section, key, value)
        path = write_scenario(tmp_path, doc)
        assert main(["validate", path]) == 2
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"{section}.{key}") == 2
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestCapacity:
    def test_inside_and_outside(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tandem_doc(rate=1.5))
        assert main(["capacity", path]) == 0
        assert "inside" in capsys.readouterr().out
        path = write_scenario(tmp_path, tandem_doc(rate=2.5), name="hot.json")
        assert main(["capacity", path]) == 0
        assert "outside" in capsys.readouterr().out

    def test_size_error_exit_code(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tandem_doc())
        assert main(["capacity", path, "--max-sets", "1"]) == 3
        assert "too large" in capsys.readouterr().err

    def test_rates_beyond_the_lp_solver_exit_code(self, tmp_path, capsys):
        # the LP always has an optimum, but HiGHS refuses matrix entries of
        # 1e15 and above
        doc = tandem_doc()
        doc["channel"]["fixed_rates"] = 1e14
        assert main(["capacity", write_scenario(tmp_path, doc)]) == 0
        doc["channel"]["fixed_rates"] = 1e15
        assert main(["capacity", write_scenario(tmp_path, doc, name="fast.json")]) == 3
        err = capsys.readouterr().err
        assert "instance too large" in err and "HiGHS" in err


class TestPaper15:
    def test_emits_valid_scenario(self, tmp_path):
        out = tmp_path / "p15.json"
        assert main(["paper15", "--row", "2", "--out", str(out)]) == 0
        from qwdr import load_scenario

        cfg = load_scenario(out)
        assert len(cfg.flows) == 7
        assert cfg.metadata["row"] == 2

    def test_out_in_missing_directory_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "p15.json"
        assert main(["paper15", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--out: cannot write" in err and str(out) in err
        assert "Traceback" not in err

    def test_stdout_mode(self, capsys):
        assert main(["paper15", "--row", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run"]["mode"] == "unweighted"

    def test_bad_row(self, capsys):
        assert main(["paper15", "--row", "7"]) == 2


class TestExitPathsAsUserSeesThem:
    """``python -m qwdr.cli`` in a fresh interpreter: exit code and stderr.

    ``main()`` called in-process lets an uncaught exception propagate into
    pytest, which never prints it to the captured stderr; only a separate
    process shows what a user sees.
    """

    @staticmethod
    def cli(tmp_path, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-m", "qwdr.cli", *args],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_run_exits_0(self, tmp_path):
        proc = self.cli(tmp_path, "run", write_scenario(tmp_path, tandem_doc()), "--slots", "200")
        assert proc.returncode == 0, proc.stderr
        assert "total queue" in proc.stdout
        assert proc.stderr == ""

    @pytest.mark.parametrize(
        "rate, command, flags, code, message",
        [
            (-1, "validate", [], 2, "configuration error: flows[0]"),
            (1.5, "run", ["--slots", "0"], 2, "configuration error: run.horizon_slots"),
            (1.5, "capacity", ["--max-sets", "1"], 3, "instance too large: "),
        ],
        ids=["validate-2", "run-2", "capacity-3"],
    )
    def test_error_exit(self, tmp_path, rate, command, flags, code, message):
        proc = self.cli(tmp_path, command, write_scenario(tmp_path, tandem_doc(rate)), *flags)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(message), proc.stderr
        assert "Traceback" not in proc.stderr
