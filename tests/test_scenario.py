import dataclasses
import json
import re

import pytest

from qwdr import (
    ConfigError,
    ScenarioConfig,
    collect_metrics,
    load_scenario,
    make_paper15_scenario,
    scenario_from_dict,
)
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
        doc["run"] = {"mode": mode, "horizon_slots": 5}
        result = scenario_from_dict(doc).run()
        assert result.queues.delivered[3] == 0
        assert result.queues.injected == result.queues.delivered_total + result.queues.total

    def test_solver_and_weight_limits_accepted(self):
        doc = minimal_doc()
        doc["solver"] = {"alpha": 1e-12, "cycles": 1, "tolerance": 0.0, "n_rep": 1}
        doc["weights"] = {"a1": 0.0, "a2": 1e-12}
        cfg = scenario_from_dict(doc)
        assert cfg.build_solver_config().cycles == 1
        assert cfg.build_weight_config().a1 == 0.0

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_link_listed_twice_rejected(self, bidirectional):
        # each listed link draws a fading variate, so a repeat shifts every later link's draw
        doc = minimal_doc()
        doc["nodes"]["3"] = [1.0, 0.0]
        doc["links"] = [[1, 2], [1, 2], [2, 3]]
        doc["bidirectional"] = bidirectional
        with pytest.raises(ConfigError, match=r"links\[1\]: link \[1, 2\] is already links\[0\]"):
            scenario_from_dict(doc)

    def test_duplicate_flow_id_names_the_field(self):
        doc = minimal_doc()
        doc["flows"].append({"id": 2, "source": 1, "route": [1, 2], "rate": 0.5})
        with pytest.raises(ConfigError, match=r"flows\[1\]\.id: flow id 2 is already flows\[0\]\.id"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param({"extra": 1}, r"^extra: unknown key", id="top-level"),
            pytest.param({"solver": {"alpah": 1}}, r"^solver\.alpah: unknown key", id="solver"),
            pytest.param({"channel": {"sigma": 1}}, r"^channel\.sigma: unknown key", id="channel"),
            pytest.param({"weights": {"a3": 1}}, r"^weights\.a3: unknown key", id="weights"),
            pytest.param({"review": {"k": 0.1}}, r"^review\.k: unknown key", id="review"),
            pytest.param({"run": {"slots": 10}}, r"^run\.slots: unknown key", id="run"),
            pytest.param(
                {"flows": [{"id": 2, "source": 1, "route": [1, 2], "rate": 1.0, "delay": 5}]},
                r"^flows\[0\]\.delay: unknown key",
                id="flow",
            ),
            pytest.param(
                {"nodes": {"1": [0.0, 0.0], "2": [0.5, 0.0], " 2": [0.9, 0.0]}},
                r"^nodes\. 2: node 2 is already nodes\.2$",
                id="node-twice",
            ),
            pytest.param(
                {
                    "nodes": {"1": [0.0, 0.0], "2": [0.5, 0.0], "3": [1.0, 0.0]},
                    "links": [[1, 2], [2, 3]],
                    "channel": {"fixed_rates": {"1-2": 4, "2-3": 4, " 1-2": 5}},
                },
                r"^channel\.fixed_rates\. 1-2: link \[1, 2\] already has a rate$",
                id="fixed-rate-twice",
            ),
            pytest.param(
                {"channel": {"fixed_rates": {"1-2": 4, "7-8": 4}}},
                r"^channel\.fixed_rates\.7-8: no link \[7, 8\] in links$",
                id="fixed-rate-off-link",
            ),
        ],
    )
    def test_unknown_key_or_id_given_twice_rejected(self, edit, message):
        # unchecked, a misspelt setting would run at its default, and a
        # second spelling of an id would override the first
        with pytest.raises(ConfigError, match=message):
            scenario_from_dict({**minimal_doc(), **edit})

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
        assert state.rates[state.positions[(1, 2)]] == 3.0

    def test_bad_fixed_rates_rejected_on_the_library_path(self):
        # a scenario file gets these from its own loader; a config built in
        # code gets them from the channel
        cfg = make_paper15_scenario(horizon=50)
        with pytest.raises(ConfigError, match=r"^fixed_rates: no rate for links \[\(1, 3\)"):
            dataclasses.replace(cfg, fixed_rates={(1, 2): 3.0})
        with pytest.raises(ConfigError, match=r"^fixed_rates: expected a map"):
            dataclasses.replace(cfg, fixed_rates=3.0)
        rates = {link: 3.0 for link in cfg.links}
        with pytest.raises(ConfigError, match=r"^fixed_rates: rates must be >= 0"):
            dataclasses.replace(cfg, fixed_rates={**rates, (1, 2): -1.0})
        with pytest.raises(ConfigError, match=r"^fixed_rates: .*\(99, 98\)"):
            dataclasses.replace(cfg, fixed_rates={**rates, (99, 98): 3.0})
        assert dataclasses.replace(cfg, fixed_rates=rates).build_channel().gain_model == "fixed"

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

    def test_negative_ids_in_fixed_rates_load_back(self):
        # the echo names link (-1, 2) "-1-2" and link (2, -3) "2--3": the
        # loader must read the signs instead of splitting at every "-"
        doc = {
            "links": [[-1, 2], [2, -3]],
            "flows": [{"id": -3, "source": -1, "route": [-1, 2, -3], "rate": 1.0}],
            "channel": {"fixed_rates": 2.0},
            "run": {"horizon_slots": 20},
        }
        echo = scenario_from_dict(doc).to_json_dict()
        assert echo["channel"]["fixed_rates"] == {"-1-2": 2.0, "2--3": 2.0}
        loaded = scenario_from_dict(echo)
        assert loaded.fixed_rates == {(-1, 2): 2.0, (2, -3): 2.0}
        assert loaded.to_json_dict() == echo
        assert loaded.run().queues.injected > 0


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

    def test_frozen_config_runs_alike_every_time(self):
        # 1 200 slots cross the arrivals' 512-slot block, so the second run of
        # ``cfg`` starts with the arrival and channel caches its first run left
        cfg = make_paper15_scenario(row=2, horizon=1200)
        twin = make_paper15_scenario(row=2, horizon=1200)
        first, second, fresh = (collect_metrics(c.run(), c) for c in (cfg, cfg, twin))
        assert first == second == fresh
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.horizon_slots = 600
        with pytest.raises(ConfigError, match=r"^run\.horizon_slots: "):
            dataclasses.replace(cfg, horizon_slots=0)

    def test_routes_use_existing_links(self):
        cfg = make_paper15_scenario()
        model = cfg.build_model()
        link_set = set(model.links)
        for fl in model.flows:
            for hop in fl.hops:
                assert hop in link_set
