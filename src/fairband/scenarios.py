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
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np
import yaml

from .checks import ScenarioError, check_integer, check_numbers, check_positive
from .model import AccessPoint, Channel, Client, Network
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
        check_integer("count", self.count, 1, ScenarioError)
        check_numbers("rect", self.rect, 4, "[xmin, ymin, xmax, ymax]")
        xmin, ymin, xmax, ymax = self.rect
        if xmax < xmin or ymax < ymin:
            raise ScenarioError(f"rect: {self.rect} is inverted")
        if not (math.isfinite(xmax - xmin) and math.isfinite(ymax - ymin)):
            raise ScenarioError(f"rect: {self.rect} must have a finite width and height")
        check_positive("weight", self.weight)


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
        if not isinstance(self.name, str) or not self.name:
            raise ScenarioError(f"name: expected a non-empty string, got {self.name!r}")
        if self.seed is not None:
            check_integer("seed", self.seed, 0, ScenarioError)
        if (self.clients is None) == (self.regions is None):
            raise ScenarioError("clients: give exactly one of clients or regions")
        if self.regions is not None and self.seed is None:
            raise ScenarioError("seed: region-based scenarios need a seed")
        for name, cls in (("channels", Channel), ("aps", AccessPoint),
                          ("clients", Client), ("regions", ClientRegion)):
            members = getattr(self, name)
            if members is None and name in ("clients", "regions"):
                continue
            if not isinstance(members, (tuple, list)):
                raise ScenarioError(f"{name}: expected a tuple of {cls.__name__}, "
                                    f"got {members!r}")
            for k, member in enumerate(members):
                if not isinstance(member, cls):
                    raise ScenarioError(f"{name}[{k}]: expected {cls.__name__}, "
                                        f"got {member!r}")
        if not isinstance(self.radio_model, RadioModel):
            raise ScenarioError(f"radio_model: expected RadioModel, got {self.radio_model!r}")

    def materialize_clients(self) -> tuple[Client, ...]:
        if self.clients is not None:
            return self.clients
        rng = np.random.default_rng(self.seed)
        out: list[Client] = []
        for region in self.regions:
            xmin, ymin, xmax, ymax = region.rect
            # one draw per region, x then y for each client in turn
            points = rng.uniform((xmin, ymin), (xmax, ymax), size=(region.count, 2))
            for x, y in points.tolist():
                out.append(Client(f"c{len(out) + 1:02d}", (x, y), region.weight))
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


# The file format is a table: a section lists, for each of its keys, the
# constructor argument it fills, how the file's value is read into that
# argument and how the attribute is written back. The objects check every
# value; the reader checks only the shape of the file (lists of mappings,
# known keys, required keys present) and builds each object under _at, so its
# error names the path. A key that is left out or null takes the default of
# its argument; an argument without a default is required.


class _Field(NamedTuple):
    key: str
    read: Callable  # (file value, its path) -> constructor argument
    write: Callable  # attribute -> file value
    arg: str  # the constructor argument and attribute
    sparse: bool  # written only when it differs from the default


def _same(value, where=None):
    return value


def _float(value, where=None):
    """A YAML int as a float, as files' numbers are read; anything else as
    it is, for the object to check (an int beyond the float range too)."""
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    return value


def _floats(value, where=None):
    return tuple(map(_float, value)) if isinstance(value, list) else value


def _tiers(value, where=None):
    return [_floats(t) for t in value] if isinstance(value, list) else value


_AS_IS = (_same, _same)
_NUMBER = (_float, _same)
_NUMBER_LIST = (_floats, list)
_TIERS = (_tiers, lambda tiers: [[t.rate_mbps, t.range_m] for t in tiers])


def _f(key, shape, arg=None, sparse=False) -> _Field:
    return _Field(key, *shape, arg or key, sparse)


def _defaults(cls) -> dict:
    """The constructor arguments of the dataclass cls that have a default,
    with that default."""
    out = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            out[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            out[f.name] = f.default_factory()
    return out


def _at(where: str, make, renames: dict, kwargs: dict):
    """make(**kwargs), with where prefixed to the field named by the
    ScenarioError it raises, and that field's file key in place of its
    argument's name."""
    try:
        return make(**kwargs)
    except ScenarioError as exc:
        msg = str(exc)
        head = re.match(r"\w*", msg).group()
        msg = renames.get(head, head) + msg[len(head):]
        raise ScenarioError(f"{where}.{msg}" if where else msg) from None


def _read(cls, fields, raw, where: str, label: str | None = None):
    """cls built from the file's mapping raw at path where (label names it
    in errors; default where)."""
    label = label or where
    if not isinstance(raw, dict):
        raise ScenarioError(f"{label}: expected a mapping")
    unknown = set(raw) - {f.key for f in fields}
    if unknown:
        raise ScenarioError(f"{label}: unknown fields {sorted(map(str, unknown))}")
    defaults = _defaults(cls)
    kwargs = {}
    for f in fields:
        value = raw.get(f.key)
        if value is None and f.arg in defaults:
            continue
        if f.key not in raw:
            raise ScenarioError(f"{label}: missing required field {f.key!r}")
        kwargs[f.arg] = f.read(value, f"{where}.{f.key}" if where else f.key)
    return _at(where, cls, {f.arg: f.key for f in fields}, kwargs)


def _write(obj, fields) -> dict:
    defaults = _defaults(type(obj))
    out = {}
    for f in fields:
        value = getattr(obj, f.arg)
        if not (f.sparse and value == defaults[f.arg]):
            out[f.key] = f.write(value)
    return out


def _section(cls, fields, many: bool):
    """The shape of a section of cls objects read by fields: a list of
    mappings (many) or one mapping."""
    if not many:
        return (lambda raw, where: _read(cls, fields, raw, where),
                lambda obj: _write(obj, fields))

    def read(raw, where):
        if not isinstance(raw, list):
            raise ScenarioError(f"{where}: expected a list")
        return tuple(_read(cls, fields, entry, f"{where}[{k}]")
                     for k, entry in enumerate(raw))

    return read, lambda objs: [_write(obj, fields) for obj in objs]


_CHANNELS = _section(Channel, (
    _f("id", _AS_IS),
    _f("center_frequency_mhz", _NUMBER),
    _f("bandwidth_mhz", _NUMBER),
), many=True)
_APS = _section(AccessPoint, (
    _f("id", _AS_IS),
    _f("position", _NUMBER_LIST),
    _f("radios", _AS_IS, arg="radio_count"),
), many=True)
_CLIENTS = _section(Client, (
    _f("id", _AS_IS),
    _f("position", _NUMBER_LIST),
    _f("weight", _NUMBER),
), many=True)
_REGIONS = _section(ClientRegion, (
    _f("count", _AS_IS),
    _f("rect", _NUMBER_LIST),
    _f("weight", _NUMBER),
), many=True)
_RADIO_MODEL = _section(RadioModel, (
    _f("path_loss_alpha", _NUMBER),
    _f("base_frequency_mhz", _NUMBER),
    _f("base_bandwidth_mhz", _NUMBER),
    _f("carrier_sense_factor", _NUMBER),
    _f("base_tiers", _TIERS, sparse=True),
), many=False)
# the top level, after its format key
_SCENARIO = (
    _f("name", _AS_IS),
    _f("channels", _CHANNELS),
    _f("aps", _APS),
    _f("clients", _CLIENTS, sparse=True),
    _f("regions", _REGIONS, sparse=True),
    _f("seed", _AS_IS, sparse=True),
    _f("radio_model", _RADIO_MODEL, sparse=True),
)


# the floats of YAML 1.2 that YAML 1.1 reads as strings: an exponent without
# a decimal point or without a sign, such as 1e3 or 2.5e8
_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$")


class _Loader(yaml.SafeLoader):
    """yaml.SafeLoader that also reads _EXPONENT_FLOAT as floats."""


class _Dumper(yaml.SafeDumper):
    """yaml.SafeDumper that knows _Loader's floats, so it quotes a string
    such as "1e3" that _Loader would read back as a number."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT,
                              list("-+0123456789."))
_Dumper.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT,
                              list("-+0123456789."))


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario file, raising ScenarioError with the offending field
    path on malformed input."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ScenarioError(f"{path}: cannot read: {reason}") from exc
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: expected a mapping at top level")
    fmt = raw.pop("format", None)
    if fmt != SCENARIO_FORMAT:
        raise ScenarioError(
            f"{path}: format is {fmt!r}, this reader understands {SCENARIO_FORMAT!r}"
        )
    return _read(Scenario, _SCENARIO, raw, "", str(path))


def _scenario_dict(s: Scenario) -> dict:
    return {"format": SCENARIO_FORMAT, **_write(s, _SCENARIO)}


def save_scenario(path: str | Path, scenario: Scenario):
    Path(path).write_text(yaml.dump(_scenario_dict(scenario), Dumper=_Dumper,
                                    sort_keys=False))


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
