import json
import re

import pytest

from qwdr import ConfigError, ScenarioConfig, load_scenario, make_paper15_scenario, run, scenario_from_dict
from qwdr.cli import main
from conftest import BAD_FIELDS, set_field


def minimal_doc():
    return {
        "name": "mini",
        "nodes": {"1": [0.0, 0.0], "2": [0.5, 0.0]},
        "links": [[1, 2]],
        "flows": [{"id": 2, "source": 1, "route": [1, 2], "rate": 1.0}],
    }


class TestLoadScenario:
    def test_minimal_file_gets_defaults(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(minimal_doc()))
        cfg = load_scenario(path)
        assert cfg.sigma2 == 1.0
        assert cfg.k0 == 0.01
        assert cfg.alpha == 1e-4
        assert cfg.cycles == 15
        assert cfg.mode == "qwdr"
        assert cfg.channel_seed == cfg.seed
        cfg.build_channel()
        cfg.build_arrivals()

    def test_route_through_missing_link_names_the_hop(self):
        doc = minimal_doc()
        doc["flows"] = [{"id": 2, "source": 1, "route": [1, 3, 2], "rate": 1.0}]
        doc["nodes"]["3"] = [0.2, 0.2]
        doc["links"] = [[1, 2], [1, 3]]
        with pytest.raises(ConfigError, match=r"\(3, 2\)"):
            scenario_from_dict(doc)

    def test_negative_rate_rejected_with_field(self):
        doc = minimal_doc()
        doc["flows"][0]["rate"] = -2.0
        with pytest.raises(ConfigError, match="flows"):
            scenario_from_dict(doc)

    def test_negative_queue_sample_interval_rejected(self):
        doc = minimal_doc()
        doc["run"] = {"queue_sample_interval": -7}
        with pytest.raises(ConfigError, match=r"run\.queue_sample_interval"):
            scenario_from_dict(doc)
        cfg = scenario_from_dict(minimal_doc())
        with pytest.raises(ConfigError, match=r"run\.queue_sample_interval"):
            ScenarioConfig(cfg.name, cfg.coordinates, cfg.links, cfg.flows, queue_sample_interval=-1)
        doc["run"] = {"queue_sample_interval": 0}  # zero turns sampling off
        assert scenario_from_dict(doc).queue_sample_interval == 0

    @pytest.mark.parametrize("section, key, value", BAD_FIELDS)
    def test_bad_solver_and_weight_fields_rejected(self, section, key, value):
        doc = minimal_doc()
        set_field(doc, section, key, value)
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
            scenario_from_dict(doc)

    @pytest.mark.filterwarnings("error")
    def test_unbounded_channel_rates_rejected(self):
        # gain / sigma2 overflows to an infinite rate, which no slot budget can hold
        doc = minimal_doc()
        doc["channel"] = {"sigma2": 1e-320}
        with pytest.raises(ConfigError, match="sigma2"):
            scenario_from_dict(doc)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gain_cap_rejected(self):
        # mean gain x truncation factor overflows to an infinite gain cap
        doc = minimal_doc()
        doc["channel"] = {"gain_scale": 1e307}  # mean gain 4e307 at d = 0.5
        with pytest.raises(ConfigError, match="unbounded"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("mode", ["qwdr", "unweighted"])
    def test_idle_flow_with_delay_target_runs(self, mode):
        # rate 0 x delay target gives a backlog threshold of 0, which weights accept
        doc = minimal_doc()
        doc["nodes"]["3"] = [1.0, 0.0]
        doc["links"] = [[1, 2], [2, 3]]
        doc["flows"].append({"id": 3, "route": [1, 2, 3], "source": 1, "rate": 0.0, "delay_target": 50})
        doc["run"] = {"mode": mode}
        cfg = scenario_from_dict(doc)
        result = run(
            cfg.build_model(),
            cfg.build_channel(),
            cfg.build_arrivals(),
            horizon=5,
            solver_cfg=cfg.build_solver_config(),
            weight_cfg=cfg.build_weight_config(),
        )
        assert result.queues.delivered[3] == 0
        assert result.queues.injected == result.queues.delivered_total + result.queues.total()

    def test_solver_and_weight_limits_accepted(self):
        doc = minimal_doc()
        doc["solver"] = {"alpha": 1e-12, "cycles": 1, "tolerance": 0.0, "n_rep": 1}
        doc["weights"] = {"a1": 0.0, "a2": 1e-12}
        cfg = scenario_from_dict(doc)
        assert cfg.build_solver_config().cycles == 1
        assert cfg.build_weight_config().a1 == 0.0

    def test_missing_links_rejected(self):
        doc = minimal_doc()
        doc.pop("links")
        with pytest.raises(ConfigError, match="links"):
            scenario_from_dict(doc)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_scenario(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario("/nonexistent/path.json")

    def test_channel_requires_geometry_or_fixed_rates(self):
        doc = minimal_doc()
        doc.pop("nodes")
        with pytest.raises(ConfigError, match="coordinates"):
            scenario_from_dict(doc)
        doc["channel"] = {"fixed_rates": 2.0}
        cfg = scenario_from_dict(doc)
        cfg.build_channel()

    def test_fixed_rates_per_link(self):
        doc = minimal_doc()
        doc["channel"] = {"fixed_rates": {"1-2": 3.0}}
        cfg = scenario_from_dict(doc)
        state = cfg.build_channel().draw(0)
        assert state.rate((1, 2)) == 3.0

    def test_unweighted_mode_forces_unit_weights(self):
        doc = minimal_doc()
        doc["flows"][0]["delay_target"] = 50.0
        doc["run"] = {"mode": "unweighted"}
        cfg = scenario_from_dict(doc)
        assert cfg.build_weight_config().a1 == 0.0

    def test_roundtrip_through_json(self, tmp_path):
        cfg = make_paper15_scenario(seed=3, row=2)
        path = tmp_path / "p15.json"
        assert main(["paper15", "--seed", "3", "--row", "2", "--out", str(path)]) == 0
        loaded = load_scenario(path)
        assert loaded.to_json_dict() == cfg.to_json_dict()

    def test_every_setting_read_and_echoed(self):
        # 18 of the 19 settings away from their defaults, and solver_trace at
        # false, the only value it takes: a setting that the read or the echo
        # loop drops comes back as its default
        settings = {
            "channel": {"sigma2": 0.5, "gain_model": "amplitude", "gain_scale": 3.0, "truncation_factor": 4.0},
            "solver": {"alpha": 2e-4, "cycles": 7, "n_rep": 3, "tolerance": 1e-7},
            "weights": {"a1": 0.5, "a2": 3.0},
            "review": {"k0": 0.2},
            "run": {
                "horizon_slots": 1234,
                "seed": 5,
                "channel_seed": 6,
                "arrival_seed": 7,
                "mode": "unweighted",
                "queue_sample_interval": 9,
                "schedule_trace": True,
                "solver_trace": False,
            },
        }
        doc = {**minimal_doc(), **settings}
        echo = scenario_from_dict(doc).to_json_dict()
        assert echo["channel"] == {**settings["channel"], "fixed_rates": None}
        for section in ("solver", "weights", "review", "run"):
            assert echo[section] == settings[section]
        assert scenario_from_dict(echo).to_json_dict() == echo


class TestPaper15Preset:
    def test_structure(self):
        cfg = make_paper15_scenario()
        model = cfg.build_model()
        assert len(model.nodes) == 15
        assert len(model.flows) == 7
        assert len(model.link_flow_index) == 17

    def test_rates_vector(self):
        cfg = make_paper15_scenario()
        rates = sorted(fl.arrival_rate for fl in cfg.flows)
        assert rates == [2.5, 2.5, 2.5, 2.5, 2.5, 3.74, 3.8]

    def test_horizon_default(self):
        assert make_paper15_scenario().horizon_slots == 100_000

    def test_row2_thresholds(self):
        cfg = make_paper15_scenario(row=2)
        from qwdr import WeightConfig

        thresholds = WeightConfig.from_flows(cfg.flows).thresholds
        assert thresholds[10] == pytest.approx(748.0)
        assert thresholds[11] == pytest.approx(875.0)
        assert thresholds[6] == pytest.approx(266.0)

    def test_row1_is_unweighted(self):
        cfg = make_paper15_scenario(row=1)
        assert cfg.mode == "unweighted"
        assert all(fl.delay_target is None for fl in cfg.flows)

    def test_coordinates_in_unit_square_and_flagged(self):
        cfg = make_paper15_scenario()
        assert cfg.metadata["coordinates_approximate"] is True
        for x, y in cfg.coordinates.values():
            assert 0.0 <= x <= 1.0
            assert 0.0 <= y <= 1.0

    def test_invalid_row(self):
        with pytest.raises(ConfigError):
            make_paper15_scenario(row=9)

    def test_routes_use_existing_links(self):
        cfg = make_paper15_scenario()
        model = cfg.build_model()
        link_set = set(model.links)
        for fl in model.flows:
            for hop in fl.hops:
                assert hop in link_set
