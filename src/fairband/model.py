"""Domain model: channels, access points, clients, configurations.

A multi-radio AP is expanded into co-located single-radio virtual APs, so
every decision variable lives on either a client (which virtual AP it is
associated with) or a virtual AP (which channel its radio uses). The
compiled Network holds the fixed tables every other layer reads: distances,
per-channel link rates and the per-channel interference adjacency between
radios. The per-radio loads of a configuration live in
fairness.SystemState.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .radio import ChannelProfile, RadioModel, channel_profile


class ScenarioError(ValueError):
    """A scenario is malformed or cannot support any feasible configuration."""


@dataclass(frozen=True)
class Channel:
    id: str
    center_frequency_mhz: float
    bandwidth_mhz: float

    def __post_init__(self):
        if self.center_frequency_mhz <= 0 or self.bandwidth_mhz <= 0:
            raise ScenarioError(
                f"channel {self.id!r}: frequency and bandwidth must be positive"
            )


@dataclass(frozen=True)
class AccessPoint:
    id: str
    position: tuple[float, float]
    radio_count: int = 1

    def __post_init__(self):
        if self.radio_count < 1:
            raise ScenarioError(f"ap {self.id!r}: radio_count must be at least 1")


@dataclass(frozen=True)
class VirtualAP:
    """A single radio of a physical AP, at the parent's position."""

    id: str
    parent_ap: str
    position: tuple[float, float]


@dataclass(frozen=True)
class Client:
    id: str
    position: tuple[float, float]
    weight: float = 1.0

    def __post_init__(self):
        if not self.weight > 0:
            raise ScenarioError(f"client {self.id!r}: weight must be positive")


def expand_virtual_aps(aps: list[AccessPoint]) -> list[VirtualAP]:
    """One virtual AP per radio, ordered by parent then radio index."""
    out = []
    for ap in aps:
        for k in range(ap.radio_count):
            out.append(VirtualAP(f"{ap.id}/r{k}", ap.id, ap.position))
    return out


@dataclass
class Configuration:
    """One point of the slow-timescale decision space.

    association maps client id to virtual AP id; channel maps virtual AP id
    to channel id. A configuration whose association uses a zero-rate link
    is kept as-is and flagged infeasible by the evaluation layer, never
    silently repaired.
    """

    association: dict[str, str]
    channel: dict[str, str]

    def digest(self) -> str:
        """Stable short hash of the configuration."""
        blob = json.dumps(
            [sorted(self.association.items()), sorted(self.channel.items())],
            separators=(",", ":"),
        )
        return _short_hash(blob)


def _short_hash(blob: str) -> str:
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Network:
    """Compiled immutable scenario: rate table, interference sets, weights.

    Index order follows construction order of clients, virtual APs and
    channels; every downstream iteration uses these fixed orders so results
    are reproducible.
    """

    def __init__(
        self,
        channels: list[Channel],
        aps: list[AccessPoint],
        clients: list[Client],
        radio_model: RadioModel | None = None,
        name: str = "network",
    ):
        if not channels:
            raise ScenarioError("at least one channel is required")
        if not aps:
            raise ScenarioError("at least one access point is required")
        if not clients:
            raise ScenarioError("at least one client is required")
        _check_unique("channel", [c.id for c in channels])
        _check_unique("ap", [a.id for a in aps])
        _check_unique("client", [c.id for c in clients])

        self.name = name
        self.radio_model = radio_model or RadioModel()
        self.channels = tuple(channels)
        self.aps = tuple(aps)
        self.clients = tuple(clients)
        self.vaps = tuple(expand_virtual_aps(list(aps)))

        self.channel_ids = tuple(c.id for c in self.channels)
        self.vap_ids = tuple(v.id for v in self.vaps)
        self.client_ids = tuple(c.id for c in self.clients)
        self.channel_index = {c: i for i, c in enumerate(self.channel_ids)}
        self.vap_index = {v: i for i, v in enumerate(self.vap_ids)}
        self.client_index = {c: i for i, c in enumerate(self.client_ids)}

        self.profiles: tuple[ChannelProfile, ...] = tuple(
            channel_profile(ch, self.radio_model) for ch in self.channels
        )
        vpos = np.array([v.position for v in self.vaps], dtype=float)
        cpos = np.array([c.position for c in self.clients], dtype=float)
        self.distances = _distances(cpos, vpos)  # (I, V)

        I, V, C = len(self.clients), len(self.vaps), len(self.channels)
        self.rates = np.zeros((I, V, C), dtype=float)
        for c, prof in enumerate(self.profiles):
            conds = [self.distances <= t.range_m for t in prof.tiers]
            vals = [t.rate_mbps for t in prof.tiers]
            self.rates[:, :, c] = np.select(conds, vals, default=0.0)
        with np.errstate(divide="ignore"):
            self.log_rates = np.where(
                self.rates > 0, np.log(np.where(self.rates > 0, self.rates, 1.0)), -np.inf
            )

        # adjacency[n, m, c]: radios n and m interfere on channel c, i.e. they
        # are at most its interference range apart; co-located radios (the
        # diagonal included) sit at distance 0. Built after the rate tables so
        # its temporaries do not add to their peak memory.
        vdist = _distances(vpos, vpos)
        self.adjacency = np.stack(
            [vdist <= prof.interference_range_m for prof in self.profiles], axis=2
        )  # (V, V, C) bool

        self.weights = np.array([c.weight for c in self.clients], dtype=float)
        self.sum_w_log_w = float((self.weights * np.log(self.weights)).sum())

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    @property
    def n_vaps(self) -> int:
        return len(self.vaps)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def channel_array(self, channel_map: dict[str, str]) -> np.ndarray:
        """Channel map as channel indices in vap order."""
        try:
            return np.array(
                [self.channel_index[channel_map[v]] for v in self.vap_ids], dtype=np.int64
            )
        except KeyError as exc:
            raise ScenarioError(f"channel map: unknown id {exc.args[0]!r}") from exc

    def association_array(self, association: dict[str, str]) -> np.ndarray:
        """Association map as vap indices in client order."""
        try:
            return np.array(
                [self.vap_index[association[c]] for c in self.client_ids], dtype=np.int64
            )
        except KeyError as exc:
            raise ScenarioError(f"association map: unknown id {exc.args[0]!r}") from exc

    def configuration(self, assoc: np.ndarray, chan: np.ndarray) -> Configuration:
        return Configuration(
            association={
                self.client_ids[i]: self.vap_ids[assoc[i]] for i in range(self.n_clients)
            },
            channel={
                self.vap_ids[v]: self.channel_ids[chan[v]] for v in range(self.n_vaps)
            },
        )

    @cached_property
    def _digest_parts(self):
        """What digest() needs, built on first use: the JSON text that
        Configuration.digest hashes as a template with a gap for each value
        (pairs '["<key>","<value>"]', clients and then radios in sorted id
        order), the JSON of every radio and channel id, and the two orders."""
        I = self.n_clients
        vap_json = np.array([json.dumps(v) for v in self.vap_ids], dtype=object)
        channel_json = np.array([json.dumps(c) for c in self.channel_ids], dtype=object)
        client_order = np.array(sorted(range(I), key=self.client_ids.__getitem__))
        vap_order = np.array(sorted(range(self.n_vaps), key=self.vap_ids.__getitem__))
        keys = [json.dumps(self.client_ids[i]) for i in client_order]
        keys += vap_json[vap_order].tolist()
        template = []
        for k, key in enumerate(keys):
            opener = "[[[" if k == 0 else "]],[[" if k == I else "],["
            template += [opener + key + ",", None]
        return template + ["]]]"], vap_json, channel_json, client_order, vap_order

    def digest(self, assoc: np.ndarray, chan: np.ndarray) -> str:
        """configuration(assoc, chan).digest(), built straight from the arrays:
        the same JSON text, without the maps, the sorts or the encoder."""
        template, vap_json, channel_json, client_order, vap_order = self._digest_parts
        parts = template.copy()
        I = self.n_clients
        parts[1:2 * I:2] = vap_json[np.asarray(assoc)[client_order]].tolist()
        parts[2 * I + 1::2] = channel_json[np.asarray(chan)[vap_order]].tolist()
        return _short_hash("".join(parts))


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from every point of a to every point of b."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _check_unique(kind: str, ids: list[str]):
    seen = set()
    for i in ids:
        if i in seen:
            raise ScenarioError(f"duplicate {kind} id {i!r}")
        seen.add(i)
