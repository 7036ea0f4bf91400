"""Scenario configuration: JSON schema, validation, and bundled presets.

A scenario file fully determines a run: topology (node coordinates and
directed links), flows with routes and rates, channel statistics, solver and
weighting constants, the review clock, and seeds. Loading resolves every
default so the echoed configuration in the output metadata is complete.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields
from typing import Optional

from . import simulate
from .network import POISSON_LAM_MAX, FlowSpec, Link, NetworkModel
from .solver import ConfigError, SolverConfig, WeightConfig
from .stochastic import ArrivalProcess, ChannelModel


def _setting(default, section, low=None, strict=False, choices=None, fallback=None):
    """A scalar setting, read from and echoed to ``section`` of a scenario file.

    ``low`` is its lower bound (excluded when ``strict``); ``choices`` lists
    its allowed values; a ``None`` value takes the value of the setting
    named by ``fallback``.
    """
    meta = {"section": section, "low": low, "strict": strict, "choices": choices, "fallback": fallback}
    return field(default=default, metadata=meta)


#: annotation of a setting -> the type its value must have
_KINDS = {"float": float, "int": int, "Optional[int]": int, "str": str, "bool": bool}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario; every field has a concrete value.

    The config is frozen. Construction checks every setting against its
    declaration and builds the model, channel, arrivals, solver and weight
    configs once; ``build_*`` return those objects and ``run`` simulates with
    them. Another value makes a new, rechecked config: ``dataclasses.replace``.
    Runs share those objects, so a config runs on one thread at a time.
    """

    name: str
    coordinates: Optional[dict[int, tuple[float, float]]]
    links: list[Link]
    flows: list[FlowSpec]
    sigma2: float = _setting(1.0, "channel", 0, strict=True)
    gain_model: str = _setting("power", "channel", choices=("power", "amplitude", "fixed"))
    gain_scale: float = _setting(1.0, "channel", 0)
    truncation_factor: float = _setting(10.0, "channel", 0, strict=True)
    fixed_rates: Optional[dict[Link, float]] = None
    alpha: float = _setting(1e-4, "solver", 0, strict=True)
    cycles: int = _setting(15, "solver", 1)
    n_rep: int = _setting(10, "solver", 1)  # accepted and echoed in the output; nothing reads it
    tolerance: float = _setting(1e-9, "solver", 0)
    a1: float = _setting(0.2, "weights", 0)
    a2: float = _setting(2.0, "weights", 0, strict=True)
    k0: float = _setting(0.01, "review", 0)
    horizon_slots: int = _setting(100_000, "run", 1)
    seed: int = _setting(1, "run", 0)
    channel_seed: Optional[int] = _setting(None, "run", 0, fallback="seed")
    arrival_seed: Optional[int] = _setting(None, "run", 0, fallback="seed")
    mode: str = _setting("qwdr", "run", choices=("qwdr", "unweighted"))
    queue_sample_interval: int = _setting(100, "run", 0)  # 0 turns sampling off
    schedule_trace: bool = _setting(False, "run")
    # echoed in the output; only false is accepted, as no run records a per-step trace
    solver_trace: bool = _setting(False, "run", choices=(False,))
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in fields(self):
            meta = f.metadata
            if not meta:
                continue
            where = f"{meta['section']}.{f.name}"
            value = getattr(self, f.name)
            if value is None and meta["fallback"]:
                value = getattr(self, meta["fallback"])
            value = _check(value, _KINDS[f.type], where)
            low = meta["low"]
            if low is not None and (value <= low if meta["strict"] else value < low):
                raise ConfigError(f"{where}: must be {'>' if meta['strict'] else '>='} {low}, got {value}")
            if meta["choices"] and value not in meta["choices"]:
                raise ConfigError(f"{where}: expected one of {meta['choices']}, got {value!r}")
            object.__setattr__(self, f.name, value)
        coords = self.coordinates or {}
        nodes = {n for link in self.links for n in link} | set(coords)
        try:
            model = NetworkModel(nodes, self.links, self.flows)
            mean_gain = {}  # gain_scale / d^2 of each link whose nodes have coordinates
            for (i, j) in self.links:
                if i in coords and j in coords:
                    (xi, yi), (xj, yj) = coords[i], coords[j]
                    d2 = (xi - xj) ** 2 + (yi - yj) ** 2
                    if d2 <= 0:
                        raise ValueError(f"nodes: nodes {i} and {j} share coordinates")
                    mean_gain[(i, j)] = self.gain_scale / d2
            built = {
                "_model": model,
                "_arrivals": ArrivalProcess(
                    [(fl.source, fl.flow_id) for fl in self.flows],
                    [fl.arrival_rate for fl in self.flows],
                    seed=self.arrival_seed,
                ),
                "_solver_cfg": SolverConfig(alpha=self.alpha, cycles=self.cycles, tolerance=self.tolerance),
                "_weight_cfg": WeightConfig.from_flows(
                    self.flows, a1=0.0 if self.mode == "unweighted" else self.a1, a2=self.a2
                ),
            }
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            built["_channel"] = ChannelModel(
                links=self.links,
                mean_gain=mean_gain,
                sigma2=self.sigma2,
                truncation_factor=self.truncation_factor,
                gain_model=self.gain_model,
                seed=self.channel_seed,
                fixed_rates=self.fixed_rates,
            )
        except ValueError as exc:
            # without fixed rates, a link has no mean gain where its nodes have no coordinates
            lacking = self.fixed_rates is None and len(mean_gain) < len(model.links)
            raise ConfigError(f"nodes: {exc}" if lacking else str(exc)) from exc
        for name, obj in built.items():
            object.__setattr__(self, name, obj)

    def run(self) -> simulate.RunResult:
        """Simulate this scenario for ``horizon_slots`` slots."""
        return simulate.run(
            self._model, self._channel, self._arrivals, self.horizon_slots,
            solver_cfg=self._solver_cfg, weight_cfg=self._weight_cfg, k0=self.k0,
            queue_sample_interval=self.queue_sample_interval, record_schedule=self.schedule_trace,
        )

    # -- builders: the objects built at construction ------------------------

    def build_model(self) -> NetworkModel:
        return self._model

    def build_channel(self) -> ChannelModel:
        return self._channel

    def build_arrivals(self) -> ArrivalProcess:
        return self._arrivals

    def build_weight_config(self) -> WeightConfig:
        return self._weight_cfg

    def build_solver_config(self) -> SolverConfig:
        return self._solver_cfg

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
        doc = {
            "name": self.name,
            "nodes": {
                str(n): list(xy) for n, xy in sorted(self.coordinates.items())
            }
            if self.coordinates
            else None,
            "links": [list(l) for l in self.links],
            "flows": flows,
            "channel": {"fixed_rates": fixed},
            "metadata": self.metadata,
        }
        for f in fields(self):
            if f.metadata:
                doc.setdefault(f.metadata["section"], {})[f.name] = getattr(self, f.name)
        return doc


def _number(value, where) -> float:
    """``value`` as a finite float: NaN, +-Infinity and overflowing literals such as 1e400 fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be a finite number")
    return number


def _check(value, kind, where):
    """``value`` as a ``kind``; a float must be finite and an int is not a bool."""
    if kind is float:
        return _number(value, where)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{where}: expected {kind.__name__}")
    return value


def _require(mapping, key, kind, where):
    if key not in mapping or mapping[key] is None:
        raise ConfigError(f"{where}.{key}: required field is missing")
    return _check(mapping[key], kind, f"{where}.{key}")


def _optional(mapping, key, kind, default, where):
    if key not in mapping or mapping[key] is None:
        return default
    return _require(mapping, key, kind, where)


def _reject_unknown(obj: dict, known, prefix: str) -> None:
    for key in obj:
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown key")


def _section(doc, name) -> dict:
    obj = doc.get(name)
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: expected an object")
    return obj


def _parse_link(obj, where) -> Link:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ConfigError(f"{where}: a link is a pair [i, j]")
    i, j = obj
    if type(i) is not int or type(j) is not int:
        raise ConfigError(f"{where}: link endpoints must be integer node ids")
    if i == j:  # here, where the file's own index is known: bidirectional re-sorts the links
        raise ConfigError(f"{where}: self-loop link [{i}, {j}] is not allowed")
    return (i, j)


def _fixed_rate(value, where) -> float:
    rate = _number(value, where)
    if rate < 0:
        raise ConfigError(f"{where}: must be >= 0")
    return rate


def scenario_from_dict(doc: dict, name_fallback: str = "scenario") -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("scenario: top-level document must be an object")
    # each section's keys: its settings, as ScenarioConfig declares them
    sections: dict[str, set] = {"channel": {"fixed_rates"}}
    for f in fields(ScenarioConfig):
        if f.metadata:
            sections.setdefault(f.metadata["section"], set()).add(f.name)
    _reject_unknown(doc, {"name", "nodes", "links", "bidirectional", "flows", "metadata", *sections}, "")
    for section, keys in sections.items():
        _reject_unknown(_section(doc, section), keys, f"{section}.")
    name = _optional(doc, "name", str, name_fallback, "scenario")

    coordinates = None
    nodes_doc = doc.get("nodes")
    if nodes_doc is not None:
        if not isinstance(nodes_doc, dict):
            raise ConfigError("nodes: expected an object of id -> [x, y]")
        coordinates = {}
        given: dict[int, str] = {}
        for key, xy in nodes_doc.items():
            try:
                node = int(key)
            except (TypeError, ValueError):
                raise ConfigError(f"nodes.{key}: node ids must be integers")
            if given.setdefault(node, key) != key:
                raise ConfigError(f"nodes.{key}: node {node} is already nodes.{given[node]}")
            if xy is None:
                continue
            if not isinstance(xy, (list, tuple)) or len(xy) != 2:
                raise ConfigError(f"nodes.{key}: coordinates must be [x, y]")
            coordinates[node] = (_number(xy[0], f"nodes.{key}"), _number(xy[1], f"nodes.{key}"))
        if not coordinates:
            coordinates = None

    links_doc = doc.get("links")
    if not isinstance(links_doc, list) or not links_doc:
        raise ConfigError("links: at least one [i, j] pair is required")
    links = [_parse_link(l, f"links[{n}]") for n, l in enumerate(links_doc)]
    first: dict[Link, int] = {}
    for n, (i, j) in enumerate(links):
        if first.setdefault((i, j), n) != n:
            raise ConfigError(f"links[{n}]: link [{i}, {j}] is already links[{first[(i, j)]}]")
    if _optional(doc, "bidirectional", bool, False, "scenario"):
        links = sorted(set(links) | {(j, i) for (i, j) in links})

    flows_doc = doc.get("flows")
    if not isinstance(flows_doc, list) or not flows_doc:
        raise ConfigError("flows: at least one flow is required")
    flows = []
    flow_at: dict[int, int] = {}
    for n, fd in enumerate(flows_doc):
        where = f"flows[{n}]"
        if not isinstance(fd, dict):
            raise ConfigError(f"{where}: expected an object")
        _reject_unknown(fd, ("id", "source", "route", "rate", "delay_target", "weight_enabled"), f"{where}.")
        fid = _require(fd, "id", int, where)
        if flow_at.setdefault(fid, n) != n:
            raise ConfigError(f"{where}.id: flow id {fid} is already flows[{flow_at[fid]}].id")
        source = _require(fd, "source", int, where)
        route = fd.get("route")
        if not isinstance(route, list) or not all(type(x) is int for x in route):
            raise ConfigError(f"{where}.route: expected a list of node ids")
        rate = _require(fd, "rate", float, where)
        if rate > POISSON_LAM_MAX:
            raise ConfigError(f"{where}.rate: must be <= {POISSON_LAM_MAX:.6g}, numpy's Poisson limit")
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

    fixed_rates = None
    fr = _section(doc, "channel").get("fixed_rates")
    if isinstance(fr, dict):
        fixed_rates = {}
        link_set = set(links)
        for key, val in fr.items():
            # the "-" that ends the first id, which may carry a sign: "-1-2" is link (-1, 2)
            ids = re.fullmatch(r"(\s*-?[^-]+)-(.+)", str(key), re.DOTALL)
            try:
                i, j = (int(part) for part in (ids.groups() if ids else ()))
            except ValueError:
                raise ConfigError(f'channel.fixed_rates: keys look like "i-j", got {key!r}')
            if (i, j) not in link_set:
                raise ConfigError(f"channel.fixed_rates.{key}: no link [{i}, {j}] in links")
            if (i, j) in fixed_rates:
                raise ConfigError(f"channel.fixed_rates.{key}: link [{i}, {j}] already has a rate")
            fixed_rates[(i, j)] = _fixed_rate(val, f"channel.fixed_rates.{key}")
        missing = [l for l in links if l not in fixed_rates]
        if missing:
            raise ConfigError(f"channel.fixed_rates: missing rates for links {missing}")
    elif fr is not None:
        rate = _fixed_rate(fr, "channel.fixed_rates")
        fixed_rates = {l: rate for l in links}

    settings = {}
    for f in fields(ScenarioConfig):
        if f.metadata:
            value = _section(doc, f.metadata["section"]).get(f.name)
            if value is not None:
                settings[f.name] = value
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise ConfigError("metadata: expected an object")
    return ScenarioConfig(
        name=name,
        coordinates=coordinates,
        links=links,
        flows=flows,
        fixed_rates=fixed_rates,
        metadata=metadata or {},
        **settings,
    )


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario JSON file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}")
    except OSError as exc:  # a directory, an unreadable file, ...
        raise ConfigError(f"cannot read scenario file {path}: {exc.strerror or exc}")
    except ValueError as exc:  # also digit strings past Python's int limit
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


def make_paper15_scenario(seed: int = 1, row: int = 2, horizon: int = 100_000) -> ScenarioConfig:
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
    return ScenarioConfig(
        name=f"paper15-row{row}",
        coordinates=paper15_coordinates(),
        links=links,
        flows=flows,
        gain_scale=_P15_GAIN_SCALE,
        horizon_slots=horizon,
        seed=seed,
        mode="unweighted" if row == 1 else "qwdr",
        metadata={
            "preset": "paper15",
            "row": row,
            "coordinates_approximate": True,
        },
    )
