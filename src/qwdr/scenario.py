"""Scenario configuration: JSON schema, validation, and bundled presets.

A scenario file fully determines a run: topology (node coordinates and
directed links), flows with routes and rates, channel statistics, solver and
weighting constants, the review clock, and seeds. Loading resolves every
default so the echoed configuration in the output metadata is complete.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

from .network import FlowSpec, Link, NetworkModel
from .solver import SolverConfig, WeightConfig
from .stochastic import ARRIVAL_STREAM, CHANNEL_STREAM, ArrivalProcess, ChannelModel


class ConfigError(ValueError):
    """Scenario rejected; the message names the offending field."""


_GAIN_MODELS = ("power", "amplitude", "fixed")
_MODES = ("qwdr", "unweighted")

_DEFAULTS = {
    "sigma2": 1.0,
    "gain_model": "power",
    "gain_scale": 1.0,
    "truncation_factor": 10.0,
    "alpha": 1e-4,
    "cycles": 15,
    "n_rep": 10,
    "tolerance": 1e-9,
    "a1": 0.2,
    "a2": 2.0,
    "k0": 0.01,
    "horizon_slots": 100_000,
    "seed": 1,
    "mode": "qwdr",
    "queue_sample_interval": 100,
}


@dataclass
class ScenarioConfig:
    """Fully resolved scenario; every field has a concrete value."""

    name: str
    coordinates: Optional[dict[int, tuple[float, float]]]
    links: list[Link]
    flows: list[FlowSpec]
    sigma2: float = 1.0
    gain_model: str = "power"
    gain_scale: float = 1.0
    truncation_factor: float = 10.0
    fixed_rates: Optional[dict[Link, float]] = None
    alpha: float = 1e-4
    cycles: int = 15
    n_rep: int = 10  # accepted and echoed in the output; nothing reads it
    tolerance: float = 1e-9
    a1: float = 0.2
    a2: float = 2.0
    k0: float = 0.01
    horizon_slots: int = 100_000
    seed: int = 1
    channel_seed: Optional[int] = None
    arrival_seed: Optional[int] = None
    mode: str = "qwdr"
    queue_sample_interval: int = 100
    schedule_trace: bool = False
    solver_trace: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"run.mode: expected one of {_MODES}, got {self.mode!r}")
        if self.gain_model not in _GAIN_MODELS:
            raise ConfigError(f"channel.gain_model: expected one of {_GAIN_MODELS}")
        if self.queue_sample_interval < 0:
            raise ConfigError("run.queue_sample_interval: must be >= 0 (0 turns sampling off)")
        if self.alpha <= 0:
            raise ConfigError("solver.alpha: must be > 0")
        if self.cycles < 1:
            raise ConfigError("solver.cycles: must be >= 1")
        if self.tolerance < 0:
            raise ConfigError("solver.tolerance: must be >= 0")
        if self.n_rep < 1:
            raise ConfigError("solver.n_rep: must be >= 1")
        if self.a1 < 0:
            raise ConfigError("weights.a1: must be >= 0")
        if self.a2 <= 0:
            raise ConfigError("weights.a2: must be > 0")
        if self.channel_seed is None:
            self.channel_seed = self.seed
        if self.arrival_seed is None:
            self.arrival_seed = self.seed
        self.build_model()  # surface structural errors at load time

    # -- builders -----------------------------------------------------------

    def build_model(self) -> NetworkModel:
        nodes = set()
        for (i, j) in self.links:
            nodes.add(i)
            nodes.add(j)
        if self.coordinates:
            nodes.update(self.coordinates)
        try:
            return NetworkModel(nodes, self.links, self.flows)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def link_mean_gains(self) -> dict[Link, float]:
        if self.fixed_rates is not None:
            return {l: math.expm1(r) * self.sigma2 for l, r in self.fixed_rates.items()}
        if not self.coordinates:
            raise ConfigError("channel: node coordinates required unless fixed_rates is given")
        gains = {}
        for (i, j) in self.links:
            if i not in self.coordinates or j not in self.coordinates:
                raise ConfigError(f"nodes: missing coordinates for link ({i},{j})")
            xi, yi = self.coordinates[i]
            xj, yj = self.coordinates[j]
            d2 = (xi - xj) ** 2 + (yi - yj) ** 2
            if d2 <= 0:
                raise ConfigError(f"nodes: nodes {i} and {j} share coordinates")
            gains[(i, j)] = self.gain_scale / d2
        return gains

    def build_channel(self) -> ChannelModel:
        return ChannelModel(
            links=self.links,
            mean_gain=self.link_mean_gains(),
            sigma2=self.sigma2,
            truncation_factor=self.truncation_factor,
            gain_model=self.gain_model if self.fixed_rates is None else "fixed",
            seed=self.channel_seed,
            stream=CHANNEL_STREAM,
            fixed_rates=self.fixed_rates,
        )

    def build_arrivals(self) -> ArrivalProcess:
        sources = [(fl.source, fl.flow_id) for fl in self.flows]
        rates = [fl.arrival_rate for fl in self.flows]
        return ArrivalProcess(sources, rates, seed=self.arrival_seed, stream=ARRIVAL_STREAM)

    def build_weight_config(self) -> WeightConfig:
        a1 = 0.0 if self.mode == "unweighted" else self.a1
        return WeightConfig.from_flows(self.flows, a1=a1, a2=self.a2)

    def build_solver_config(self) -> SolverConfig:
        return SolverConfig(alpha=self.alpha, cycles=self.cycles, tolerance=self.tolerance)

    # -- (de)serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        flows = []
        for fl in self.flows:
            flows.append(
                {
                    "id": fl.flow_id,
                    "source": fl.source,
                    "route": list(fl.route),
                    "rate": fl.arrival_rate,
                    "delay_target": fl.delay_target,
                    "weight_enabled": fl.weight_enabled,
                }
            )
        fixed = None
        if self.fixed_rates is not None:
            fixed = {f"{i}-{j}": r for (i, j), r in sorted(self.fixed_rates.items())}
        return {
            "name": self.name,
            "nodes": {
                str(n): list(xy) for n, xy in sorted(self.coordinates.items())
            }
            if self.coordinates
            else None,
            "links": [list(l) for l in self.links],
            "flows": flows,
            "channel": {
                "sigma2": self.sigma2,
                "gain_model": self.gain_model,
                "gain_scale": self.gain_scale,
                "truncation_factor": self.truncation_factor,
                "fixed_rates": fixed,
            },
            "solver": {
                "alpha": self.alpha,
                "cycles": self.cycles,
                "n_rep": self.n_rep,
                "tolerance": self.tolerance,
            },
            "weights": {"a1": self.a1, "a2": self.a2},
            "review": {"k0": self.k0},
            "run": {
                "horizon_slots": self.horizon_slots,
                "seed": self.seed,
                "channel_seed": self.channel_seed,
                "arrival_seed": self.arrival_seed,
                "mode": self.mode,
                "queue_sample_interval": self.queue_sample_interval,
                "schedule_trace": self.schedule_trace,
                "solver_trace": self.solver_trace,
            },
            "metadata": self.metadata,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _require(mapping, key, kind, where):
    if key not in mapping or mapping[key] is None:
        raise ConfigError(f"{where}.{key}: required field is missing")
    value = mapping[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{where}.{key}: expected {kind.__name__}")
    return value


def _optional(mapping, key, kind, default, where):
    if key not in mapping or mapping[key] is None:
        return default
    return _require(mapping, key, kind, where)


def _parse_link(obj, where) -> Link:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ConfigError(f"{where}: a link is a pair [i, j]")
    i, j = obj
    if not isinstance(i, int) or not isinstance(j, int):
        raise ConfigError(f"{where}: link endpoints must be integer node ids")
    return (i, j)


def scenario_from_dict(doc: dict, name_fallback: str = "scenario") -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("scenario: top-level document must be an object")
    name = _optional(doc, "name", str, name_fallback, "scenario")

    coordinates = None
    nodes_doc = doc.get("nodes")
    if nodes_doc is not None:
        if not isinstance(nodes_doc, dict):
            raise ConfigError("nodes: expected an object of id -> [x, y]")
        coordinates = {}
        for key, xy in nodes_doc.items():
            try:
                node = int(key)
            except (TypeError, ValueError):
                raise ConfigError(f"nodes.{key}: node ids must be integers")
            if xy is None:
                continue
            if not isinstance(xy, (list, tuple)) or len(xy) != 2:
                raise ConfigError(f"nodes.{key}: coordinates must be [x, y]")
            coordinates[node] = (float(xy[0]), float(xy[1]))
        if not coordinates:
            coordinates = None

    links_doc = doc.get("links")
    if not isinstance(links_doc, list) or not links_doc:
        raise ConfigError("links: at least one [i, j] pair is required")
    links = [_parse_link(l, f"links[{n}]") for n, l in enumerate(links_doc)]
    if doc.get("bidirectional"):
        links = sorted(set(links) | {(j, i) for (i, j) in links})

    flows_doc = doc.get("flows")
    if not isinstance(flows_doc, list) or not flows_doc:
        raise ConfigError("flows: at least one flow is required")
    flows = []
    for n, fd in enumerate(flows_doc):
        where = f"flows[{n}]"
        if not isinstance(fd, dict):
            raise ConfigError(f"{where}: expected an object")
        fid = _require(fd, "id", int, where)
        source = _require(fd, "source", int, where)
        route = fd.get("route")
        if not isinstance(route, list) or not all(isinstance(x, int) for x in route):
            raise ConfigError(f"{where}.route: expected a list of node ids")
        rate = _require(fd, "rate", float, where)
        target = _optional(fd, "delay_target", float, None, where)
        enabled = _optional(fd, "weight_enabled", bool, True, where)
        try:
            flows.append(
                FlowSpec(
                    flow_id=fid,
                    source=source,
                    route=tuple(route),
                    arrival_rate=rate,
                    delay_target=target,
                    weight_enabled=enabled,
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    chan = doc.get("channel", {}) or {}
    if not isinstance(chan, dict):
        raise ConfigError("channel: expected an object")
    fixed_rates = None
    fr = chan.get("fixed_rates")
    if fr is not None:
        fixed_rates = {}
        if isinstance(fr, (int, float)) and not isinstance(fr, bool):
            fixed_rates = {l: float(fr) for l in links}
        elif isinstance(fr, dict):
            for key, val in fr.items():
                try:
                    i, j = (int(part) for part in str(key).split("-"))
                except ValueError:
                    raise ConfigError(f'channel.fixed_rates: keys look like "i-j", got {key!r}')
                if not isinstance(val, (int, float)) or isinstance(val, bool):
                    raise ConfigError(f"channel.fixed_rates.{key}: expected a number")
                fixed_rates[(i, j)] = float(val)
            missing = [l for l in links if l not in fixed_rates]
            if missing:
                raise ConfigError(f"channel.fixed_rates: missing rates for links {missing}")
        else:
            raise ConfigError("channel.fixed_rates: expected a number or an object")

    solver = doc.get("solver", {}) or {}
    weights = doc.get("weights", {}) or {}
    review = doc.get("review", {}) or {}
    run_doc = doc.get("run", {}) or {}
    for section, obj in (("solver", solver), ("weights", weights), ("review", review), ("run", run_doc)):
        if not isinstance(obj, dict):
            raise ConfigError(f"{section}: expected an object")

    try:
        cfg = ScenarioConfig(
            name=name,
            coordinates=coordinates,
            links=links,
            flows=flows,
            sigma2=_optional(chan, "sigma2", float, _DEFAULTS["sigma2"], "channel"),
            gain_model=_optional(chan, "gain_model", str, _DEFAULTS["gain_model"], "channel"),
            gain_scale=_optional(chan, "gain_scale", float, _DEFAULTS["gain_scale"], "channel"),
            truncation_factor=_optional(
                chan, "truncation_factor", float, _DEFAULTS["truncation_factor"], "channel"
            ),
            fixed_rates=fixed_rates,
            alpha=_optional(solver, "alpha", float, _DEFAULTS["alpha"], "solver"),
            cycles=_optional(solver, "cycles", int, _DEFAULTS["cycles"], "solver"),
            n_rep=_optional(solver, "n_rep", int, _DEFAULTS["n_rep"], "solver"),
            tolerance=_optional(solver, "tolerance", float, _DEFAULTS["tolerance"], "solver"),
            a1=_optional(weights, "a1", float, _DEFAULTS["a1"], "weights"),
            a2=_optional(weights, "a2", float, _DEFAULTS["a2"], "weights"),
            k0=_optional(review, "k0", float, _DEFAULTS["k0"], "review"),
            horizon_slots=_optional(run_doc, "horizon_slots", int, _DEFAULTS["horizon_slots"], "run"),
            seed=_optional(run_doc, "seed", int, _DEFAULTS["seed"], "run"),
            channel_seed=_optional(run_doc, "channel_seed", int, None, "run"),
            arrival_seed=_optional(run_doc, "arrival_seed", int, None, "run"),
            mode=_optional(run_doc, "mode", str, _DEFAULTS["mode"], "run"),
            queue_sample_interval=_optional(
                run_doc, "queue_sample_interval", int, _DEFAULTS["queue_sample_interval"], "run"
            ),
            schedule_trace=_optional(run_doc, "schedule_trace", bool, False, "run"),
            solver_trace=_optional(run_doc, "solver_trace", bool, False, "run"),
            metadata=doc.get("metadata", {}) or {},
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.sigma2 <= 0:
        raise ConfigError("channel.sigma2: must be > 0")
    if cfg.horizon_slots < 1:
        raise ConfigError("run.horizon_slots: must be >= 1")
    if cfg.k0 < 0:
        raise ConfigError("review.k0: must be >= 0")
    return cfg


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario JSON file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file is not valid JSON: {exc}")
    name = str(path).rsplit("/", 1)[-1].removesuffix(".json")
    return scenario_from_dict(doc, name_fallback=name)


# -- bundled 15-node reference scenario --------------------------------------

# Coordinates digitized from the reference drawing and rescaled to the unit
# square (aspect preserved); approximate by construction.
_P15_RAW_COORDS = {
    1: (3.2, 3.6),
    2: (2.4, 2.0),
    3: (3.2, 2.0),
    4: (2.4, 1.2),
    5: (4.3, 1.8),
    6: (3.44, 1.0),
    7: (1.2, 3.6),
    8: (1.6, 2.8),
    9: (0.4, 2.8),
    10: (0.04, 1.4),
    11: (2.04, 0.4),
    12: (2.8, 0.6),
    13: (0.4, 0.8),
    14: (4.3, 0.8),
    15: (3.8, 0.4),
}

_P15_EDGES = [
    (1, 2), (1, 3), (1, 5), (2, 4), (2, 8), (3, 4), (3, 5), (3, 6),
    (4, 9), (4, 11), (5, 6), (5, 14), (6, 12), (7, 8), (7, 9), (9, 10),
    (10, 13), (11, 12), (11, 13), (12, 15), (14, 15),
]

# (flow id == destination, source, route, packets/slot)
_P15_FLOWS = [
    (10, 7, (7, 9, 10), 3.74),
    (4, 7, (7, 8, 2, 4), 2.5),
    (11, 1, (1, 2, 4, 11), 2.5),
    (13, 9, (9, 10, 13), 2.5),
    (12, 1, (1, 3, 6, 12), 2.5),
    (15, 5, (5, 14, 15), 2.5),
    (6, 5, (5, 3, 6), 3.8),
]

# delay-target presets per preset row; row 1 is the unweighted baseline
_P15_TARGETS = {
    1: {},
    2: {10: 200.0, 11: 350.0, 6: 70.0},
    3: {10: 150.0, 11: 300.0, 6: 60.0},
    4: {10: 150.0, 11: 150.0, 6: 45.0},
    5: {10: 200.0, 11: 130.0, 6: 50.0},
}

#: channel scale placing the preset rates near the edge of the capacity
#: region: loaded enough that delay targets bind for the bottlenecked flows,
#: with every flow still stable
_P15_GAIN_SCALE = 46_000.0


def paper15_coordinates() -> dict[int, tuple[float, float]]:
    xs = [xy[0] for xy in _P15_RAW_COORDS.values()]
    ys = [xy[1] for xy in _P15_RAW_COORDS.values()]
    x0, y0 = min(xs), min(ys)
    span = max(max(xs) - x0, max(ys) - y0)
    return {
        n: (round((x - x0) / span, 6), round((y - y0) / span, 6))
        for n, (x, y) in _P15_RAW_COORDS.items()
    }


def make_paper15_scenario(
    seed: int = 1,
    row: int = 2,
    mode: Optional[str] = None,
    gain_scale: float = _P15_GAIN_SCALE,
    horizon: int = 100_000,
) -> ScenarioConfig:
    """The bundled fifteen-node, seven-flow scenario with preset delay targets.

    ``row`` selects a delay-target preset (1 = unweighted baseline). The node
    layout is approximate (digitized from a drawing) and flagged as such in
    the metadata.
    """
    if row not in _P15_TARGETS:
        raise ConfigError(f"paper15 row must be one of {sorted(_P15_TARGETS)}")
    targets = _P15_TARGETS[row]
    links = sorted(set(_P15_EDGES) | {(j, i) for (i, j) in _P15_EDGES})
    flows = [
        FlowSpec(
            flow_id=fid,
            source=src,
            route=route,
            arrival_rate=rate,
            delay_target=targets.get(fid),
        )
        for fid, src, route, rate in _P15_FLOWS
    ]
    if mode is None:
        mode = "unweighted" if row == 1 else "qwdr"
    return ScenarioConfig(
        name=f"paper15-row{row}",
        coordinates=paper15_coordinates(),
        links=links,
        flows=flows,
        gain_scale=gain_scale,
        horizon_slots=horizon,
        seed=seed,
        mode=mode,
        metadata={
            "preset": "paper15",
            "row": row,
            "coordinates_approximate": True,
        },
    )
