"""Scenario definitions: built-in topologies and a YAML file format.

A scenario either lists its clients explicitly or describes rectangular
regions from which client positions are drawn with a seeded generator.
Region draws consume the generator in a fixed order (region by region,
x before y), so two scenarios with the same regions and seed place their
clients identically even when the region weights differ.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import yaml

from .model import AccessPoint, Channel, Client, Network, ScenarioError
from .radio import RadioModel

if TYPE_CHECKING:
    from .annealing import RunResult

SCENARIO_FORMAT = "fairband-scenario/1"


@dataclass(frozen=True)
class ClientRegion:
    """count clients drawn uniformly from rect = (xmin, ymin, xmax, ymax)."""

    count: int
    rect: tuple[float, float, float, float]
    weight: float = 1.0

    def __post_init__(self):
        if self.count < 1:
            raise ScenarioError("count: must be positive")
        xmin, ymin, xmax, ymax = self.rect
        if xmax < xmin or ymax < ymin:
            raise ScenarioError(f"rect: {self.rect} is inverted")
        if self.weight <= 0:
            raise ScenarioError("weight: must be positive")


@dataclass(frozen=True)
class Scenario:
    name: str
    channels: tuple[Channel, ...]
    aps: tuple[AccessPoint, ...]
    clients: tuple[Client, ...] | None = None
    regions: tuple[ClientRegion, ...] | None = None
    seed: int | None = None
    radio_model: RadioModel = field(default_factory=RadioModel)

    def __post_init__(self):
        seed = self.seed
        if seed is not None and (
            isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0
        ):
            raise ScenarioError(f"seed: expected a non-negative integer, got {seed!r}")
        if (self.clients is None) == (self.regions is None):
            raise ScenarioError("clients: give exactly one of clients or regions")
        if self.regions is not None and self.seed is None:
            raise ScenarioError("seed: region-based scenarios need a seed")

    def materialize_clients(self) -> tuple[Client, ...]:
        if self.clients is not None:
            return self.clients
        rng = np.random.default_rng(self.seed)
        out: list[Client] = []
        k = 0
        for region in self.regions:
            xmin, ymin, xmax, ymax = region.rect
            for _ in range(region.count):
                k += 1
                x = rng.uniform(xmin, xmax)
                y = rng.uniform(ymin, ymax)
                out.append(Client(f"c{k:02d}", (x, y), region.weight))
        return tuple(out)

    def to_network(self) -> Network:
        return Network(
            list(self.channels),
            list(self.aps),
            list(self.materialize_clients()),
            radio_model=self.radio_model,
            name=self.name,
        )

    def reseeded(self, seed: int) -> "Scenario":
        """Same scenario with a different client draw (no-op when clients
        are explicit)."""
        if self.clients is not None:
            return self
        return dataclasses.replace(self, seed=seed)

    def digest(self) -> str:
        """Stable hash of the generating description."""
        blob = json.dumps(_scenario_dict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- built-in scenarios -------------------------------------------------------

_CH_2400 = Channel("ch-2400", 2400.0, 22.0)
_CH_4000 = Channel("ch-4000", 4000.0, 44.0)
_CH_16000 = Channel("ch-16000", 16000.0, 50.0)

_GRID_CHANNELS = (
    Channel("ch-524", 524.0, 12.0),
    Channel("ch-593", 593.0, 6.0),
    Channel("ch-608", 608.0, 12.0),
    Channel("ch-641", 641.0, 6.0),
    Channel("ch-659", 659.0, 6.0),
    Channel("ch-671", 671.0, 6.0),
    Channel("ch-683", 683.0, 6.0),
)


def builtin_micro() -> Scenario:
    """Two APs, three clients, two bands. Small enough to enumerate."""
    return Scenario(
        name="micro",
        channels=(_CH_2400, _CH_4000),
        aps=(AccessPoint("ap0", (0.0, 0.0)), AccessPoint("ap1", (150.0, 0.0))),
        clients=(
            Client("c01", (40.0, 0.0)),
            Client("c02", (75.0, 0.0)),
            Client("c03", (110.0, 0.0)),
        ),
    )


def builtin_line3(two_channels: bool) -> Scenario:
    """Three APs on a line with sixteen clients between them."""
    channels = (_CH_2400, _CH_16000) if two_channels else (_CH_2400,)
    clients = tuple(
        Client(f"c{i:02d}", (35.0 + 5.0 * i, 0.0)) for i in range(1, 17)
    )
    return Scenario(
        name="line3-2ch" if two_channels else "line3-1ch",
        channels=channels,
        aps=(
            AccessPoint("ap0", (0.0, 0.0)),
            AccessPoint("ap1", (75.0, 0.0)),
            AccessPoint("ap2", (150.0, 0.0)),
        ),
        clients=clients,
    )


def builtin_grid16(weighted: bool, seed: int = 0) -> Scenario:
    """Sixteen dual-radio APs on a 300 m grid, sub-GHz channel plan.

    Fifty clients in four square regions: two dense corners and two sparse
    ones. The weighted variant values the west-side regions at 1.5 and the
    east-side ones at 0.5; positions for a given seed are identical in both
    variants.
    """
    aps = tuple(
        AccessPoint(f"ap{4 * ix + iy:02d}", (300.0 * ix, 300.0 * iy), radio_count=2)
        for ix in range(4)
        for iy in range(4)
    )
    w_hi = 1.5 if weighted else 1.0
    w_lo = 0.5 if weighted else 1.0
    regions = (
        ClientRegion(16, (0.0, 0.0, 300.0, 300.0), w_hi),
        ClientRegion(16, (600.0, 600.0, 900.0, 900.0), w_lo),
        ClientRegion(9, (0.0, 600.0, 300.0, 900.0), w_hi),
        ClientRegion(9, (600.0, 0.0, 900.0, 300.0), w_lo),
    )
    return Scenario(
        name="grid16-weighted" if weighted else "grid16-unweighted",
        channels=_GRID_CHANNELS,
        aps=aps,
        regions=regions,
        seed=seed,
    )


# name -> factory of the scenario drawn from a seed (used by grid16 only)
_BUILTINS = {
    "micro": lambda seed: builtin_micro(),
    "line3-1ch": lambda seed: builtin_line3(two_channels=False),
    "line3-2ch": lambda seed: builtin_line3(two_channels=True),
    "grid16-unweighted": lambda seed: builtin_grid16(weighted=False, seed=seed),
    "grid16-weighted": lambda seed: builtin_grid16(weighted=True, seed=seed),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, seed: int | None = None) -> Scenario:
    if name not in _BUILTINS:
        raise ScenarioError(
            f"unknown scenario {name!r}; built-ins are {', '.join(BUILTIN_NAMES)}"
        )
    return _BUILTINS[name](0 if seed is None else seed)


# -- YAML files ---------------------------------------------------------------


def _require(mapping, key, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _mappings(value, field) -> list[dict]:
    """A list of mappings, each entry checked so errors name it."""
    if not isinstance(value, list):
        raise ScenarioError(f"{field}: expected a list")
    for k, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ScenarioError(f"{field}[{k}]: expected a mapping")
    return value


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError(f"{where}: must be finite")
    return x


def _point(value, where) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{where}: expected [x, y]")
    return (_number(value[0], where + "[0]"), _number(value[1], where + "[1]"))


def _at(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), with where prefixed to the field named by the
    ScenarioError it raises."""
    try:
        return make(*args, **kwargs)
    except ScenarioError as exc:
        raise ScenarioError(f"{where}.{exc}") from None


def _load_radio_model(raw) -> RadioModel:
    if raw is None:
        return RadioModel()
    if not isinstance(raw, dict):
        raise ScenarioError("radio_model: expected a mapping")
    known = {"path_loss_alpha", "base_frequency_mhz", "base_bandwidth_mhz",
             "carrier_sense_factor"}
    unknown = set(raw) - known
    if unknown:
        raise ScenarioError(f"radio_model: unknown fields {sorted(map(str, unknown))}")
    kwargs = {k: _number(v, f"radio_model.{k}") for k, v in raw.items()}
    try:
        return RadioModel(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"radio_model: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario file, raising ScenarioError with the offending field
    path on malformed input."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: expected a mapping at top level")
    fmt = raw.get("format")
    if fmt != SCENARIO_FORMAT:
        raise ScenarioError(
            f"{path}: format is {fmt!r}, this reader understands {SCENARIO_FORMAT!r}"
        )

    name = _require(raw, "name", str(path))
    if not isinstance(name, str) or not name:
        raise ScenarioError("name: expected a non-empty string")

    channels = []
    for k, ch in enumerate(_mappings(_require(raw, "channels", str(path)), "channels")):
        where = f"channels[{k}]"
        channels.append(
            _at(
                where,
                Channel,
                str(_require(ch, "id", where)),
                _number(_require(ch, "center_frequency_mhz", where),
                        where + ".center_frequency_mhz"),
                _number(_require(ch, "bandwidth_mhz", where), where + ".bandwidth_mhz"),
            )
        )

    aps = []
    for k, ap in enumerate(_mappings(_require(raw, "aps", str(path)), "aps")):
        where = f"aps[{k}]"
        radios = ap.get("radios", 1)
        if type(radios) is not int or radios < 1:  # bool is not a count
            raise ScenarioError(f"{where}.radios: expected a positive integer")
        aps.append(
            AccessPoint(
                str(_require(ap, "id", where)),
                _point(_require(ap, "position", where), where + ".position"),
                radio_count=radios,
            )
        )

    clients = None
    if "clients" in raw and raw["clients"] is not None:
        clients = []
        for k, cl in enumerate(_mappings(raw["clients"], "clients")):
            where = f"clients[{k}]"
            weight = _number(cl.get("weight", 1.0), where + ".weight")
            clients.append(
                _at(
                    where,
                    Client,
                    str(_require(cl, "id", where)),
                    _point(_require(cl, "position", where), where + ".position"),
                    weight=weight,
                )
            )
        clients = tuple(clients)

    regions = None
    if "regions" in raw and raw["regions"] is not None:
        regions = []
        for k, rg in enumerate(_mappings(raw["regions"], "regions")):
            where = f"regions[{k}]"
            count = _require(rg, "count", where)
            if type(count) is not int or count < 1:
                raise ScenarioError(f"{where}.count: expected a positive integer")
            rect = _require(rg, "rect", where)
            if not isinstance(rect, (list, tuple)) or len(rect) != 4:
                raise ScenarioError(f"{where}.rect: expected [xmin, ymin, xmax, ymax]")
            regions.append(
                _at(
                    where,
                    ClientRegion,
                    count,
                    tuple(_number(v, f"{where}.rect[{j}]") for j, v in enumerate(rect)),
                    weight=_number(rg.get("weight", 1.0), where + ".weight"),
                )
            )
        regions = tuple(regions)

    return Scenario(
        name=name,
        channels=tuple(channels),
        aps=tuple(aps),
        clients=clients,
        regions=regions,
        seed=raw.get("seed"),
        radio_model=_load_radio_model(raw.get("radio_model")),
    )


def _scenario_dict(s: Scenario) -> dict:
    out: dict = {
        "format": SCENARIO_FORMAT,
        "name": s.name,
        "channels": [
            {
                "id": c.id,
                "center_frequency_mhz": c.center_frequency_mhz,
                "bandwidth_mhz": c.bandwidth_mhz,
            }
            for c in s.channels
        ],
        "aps": [
            {"id": a.id, "position": list(a.position), "radios": a.radio_count}
            for a in s.aps
        ],
    }
    if s.clients is not None:
        out["clients"] = [
            {"id": c.id, "position": list(c.position), "weight": c.weight}
            for c in s.clients
        ]
    if s.regions is not None:
        out["regions"] = [
            {"count": r.count, "rect": list(r.rect), "weight": r.weight}
            for r in s.regions
        ]
    if s.seed is not None:
        out["seed"] = s.seed
    default_model = RadioModel()
    if s.radio_model != default_model:
        out["radio_model"] = {
            "path_loss_alpha": s.radio_model.path_loss_alpha,
            "base_frequency_mhz": s.radio_model.base_frequency_mhz,
            "base_bandwidth_mhz": s.radio_model.base_bandwidth_mhz,
            "carrier_sense_factor": s.radio_model.carrier_sense_factor,
        }
    return out


def save_scenario(path: str | Path, scenario: Scenario):
    Path(path).write_text(yaml.safe_dump(_scenario_dict(scenario), sort_keys=False))


# -- result files -------------------------------------------------------------


def _json_float(x: float):
    return None if not math.isfinite(x) else x


def result_dict(result: "RunResult") -> dict:
    """JSON-safe summary of one run. Non-finite energies become null with
    the feasible flag carrying the information instead."""
    return {
        "run_id": result.run_id,
        "policy": result.policy_kind,
        "scheme": result.scheme,
        "seed": result.seed,
        "iterations": result.iterations,
        "feasible": math.isfinite(result.final_energy),
        "final_energy": _json_float(result.final_energy),
        "final_weighted_throughput": result.final_weighted_throughput,
        "best_energy": _json_float(result.best_energy),
        "best_t": result.best_t,
        "configuration": {
            "association": dict(result.final_configuration.association),
            "channel": dict(result.final_configuration.channel),
        },
        "best_configuration": {
            "association": dict(result.best_configuration.association),
            "channel": dict(result.best_configuration.channel),
        },
        "rates_mbps": {k: _json_float(v) for k, v in result.rates.items()},
        "schedule_phi": result.schedule_phi,
        "access_p": result.access_p,
    }


def save_result(path: str | Path, result: "RunResult"):
    Path(path).write_text(json.dumps(result_dict(result), indent=2, sort_keys=True))
