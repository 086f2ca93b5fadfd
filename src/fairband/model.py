"""Domain model: channels, access points, clients, configurations.

A multi-radio AP is expanded into co-located single-radio virtual APs, so
every decision variable lives on either a client (which virtual AP it is
associated with) or a virtual AP (which channel its radio uses). The
compiled Network holds the fixed tables every other layer reads, as link and
pair lists in compressed-sparse-row form: every client's links to the radios
within the largest link range, with their distances and per-channel rates,
and every radio's interference partners within the largest interference
range, with the channels on which each pair interferes. Both are local, so
the lists grow with the number of clients and radios, not with their
product. The per-radio loads of a configuration live in
fairness.SystemState.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .checks import ScenarioError, check_id, check_integer, check_numbers, check_positive
from .radio import ChannelProfile, RadioModel, channel_profile

# a network with at most this many configurations numbers them
# (Network._config_places) and keeps a candidate table (SystemState)
INDEX_LIMIT = 2**64
# entries at which a network's candidate table is cleared
TABLE_CAP = 2**16


@dataclass(frozen=True)
class Channel:
    id: str
    center_frequency_mhz: float
    bandwidth_mhz: float

    def __post_init__(self):
        check_id("id", self.id)
        check_positive("center_frequency_mhz", self.center_frequency_mhz)
        check_positive("bandwidth_mhz", self.bandwidth_mhz)


@dataclass(frozen=True)
class AccessPoint:
    id: str
    position: tuple[float, float]
    radio_count: int = 1

    def __post_init__(self):
        check_id("id", self.id)
        check_numbers("position", self.position, 2, "[x, y]")
        check_integer("radio_count", self.radio_count, 1, ScenarioError)


@dataclass(frozen=True)
class Client:
    id: str
    position: tuple[float, float]
    weight: float = 1.0

    def __post_init__(self):
        check_id("id", self.id)
        check_numbers("position", self.position, 2, "[x, y]")
        check_positive("weight", self.weight)


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


class DigestParts(NamedTuple):
    """The JSON text that Configuration.digest hashes is one piece per client
    and per radio, clients and then radios in sorted id order, and a closing
    "]]]": a pair '["<key>","<value>"]' with the brackets and comma before
    it. Kept: each piece's text up to its value (heads), the JSON of every
    radio and channel id, and the piece of every client and of every radio."""

    heads: np.ndarray
    vap_json: np.ndarray
    channel_json: np.ndarray
    client_piece: np.ndarray
    vap_piece: np.ndarray


class Network:
    """Compiled immutable scenario: link rates, interference pairs, weights.

    Index order follows construction order of clients, virtual APs and
    channels; every downstream iteration uses these fixed orders so results
    are reproducible.

    Links (L of them) are the (client, radio) pairs at most the largest
    outermost tier range of any channel apart; a pair farther apart has rate
    0 on every channel and is not stored. Client i's links are positions
    link_ptr[i]:link_ptr[i + 1], radios ascending:

    * ``link_vap`` (L): the radio of each link, ``link_client`` (L) its client;
    * ``distances`` (L): its length;
    * ``rates`` and ``log_rates`` (L, C): its rate and log rate on each
      channel, 0 and -inf on a channel whose outermost tier it exceeds.

    Pairs (P of them) are the (radio, radio) pairs at most the largest
    interference range apart, each radio paired with itself and with its
    co-located radios. Radio n's partners are positions
    pair_ptr[n]:pair_ptr[n + 1], ascending:

    * ``pair_vap`` (P): the partner, ``pair_radio`` (P) the radio whose list
      holds the pair;
    * ``adjacency`` (P, C) bool: the two interfere on channel c, i.e. they
      are at most its interference range apart.

    ``distances``, ``rates``, ``log_rates`` and ``adjacency`` keep the names
    of the dense (I, V), (I, V, C) and (V, V, C) tables they replace, with a
    row per link or pair, so code that measures the compiled tables by those
    names measures these. ``link_index`` finds the link positions of many
    pairs at once (a state's construction) and ``_link_at``, a dict by
    client * V + radio built on first use, that of one pair (a move); a
    configuration may still use a pair that is not a link, which has rate 0
    and log rate -inf. Under a channel map,
    ``nearest_links`` and ``same_channel_pairs`` answer which links with a rate are each client's
    nearest and which pairs share a channel on which they interfere.

    Built on first use: ``_digest_parts``, the JSON text a state's digest
    is hashed from, and, on a network with at most INDEX_LIMIT
    configurations, ``_config_places``, which numbers them
    (SystemState.config_index), and ``_candidate_table``; both are None on
    a larger network.
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
            raise ScenarioError("channels: at least one channel is required")
        if not aps:
            raise ScenarioError("aps: at least one access point is required")
        if not clients:
            raise ScenarioError("clients: at least one client is required")
        _check_unique("channels", [c.id for c in channels])
        _check_unique("aps", [a.id for a in aps])
        _check_unique("clients", [c.id for c in clients])

        self.name = name
        self.radio_model = radio_model or RadioModel()
        self.channels = tuple(channels)
        self.aps = tuple(aps)
        self.clients = tuple(clients)

        self.channel_ids = tuple(c.id for c in self.channels)
        # one virtual AP per radio, "<ap>/r<k>", ordered by AP then radio, at
        # its AP's position
        self.vap_ids = tuple(f"{ap.id}/r{k}" for ap in aps for k in range(ap.radio_count))
        self.vap_positions = np.repeat(
            np.array([ap.position for ap in aps], dtype=float),
            [ap.radio_count for ap in aps], axis=0,
        )
        self.client_ids = tuple(c.id for c in self.clients)
        self.channel_index = {c: i for i, c in enumerate(self.channel_ids)}
        self.vap_index = {v: i for i, v in enumerate(self.vap_ids)}
        self.client_index = {c: i for i, c in enumerate(self.client_ids)}

        self.profiles: tuple[ChannelProfile, ...] = tuple(
            channel_profile(ch, self.radio_model) for ch in self.channels
        )
        vpos = self.vap_positions
        cpos = np.array([c.position for c in self.clients], dtype=float)
        I, V, C = len(self.clients), len(self.vap_ids), len(self.channels)
        # (C, T) tier ranges and (C, T + 1) tier rates, 0 past the last tier;
        # every channel scales the radio model's tiers, so T is shared
        ranges = np.array([[t.range_m for t in p.tiers] for p in self.profiles])
        tier_rates = np.array([[t.rate_mbps for t in p.tiers] + [0.0] for p in self.profiles])

        self.link_client, self.link_vap, self.distances = _pairs(cpos, vpos, ranges.max())
        self.link_ptr = self.link_client.searchsorted(np.arange(I + 1))
        # a link's tier on a channel counts the tiers it lies beyond, which
        # picks the first tier whose (inclusive) range holds it
        tier = (self.distances[:, None, None] > ranges).sum(axis=2)  # (L, C)
        self.rates = tier_rates[np.arange(C), tier]
        with np.errstate(divide="ignore"):
            self.log_rates = np.log(tier_rates)[np.arange(C), tier]
        # link_index searches client * V + radio; the trailing I * V exceeds
        # every key, so a search never runs off the end
        self._link_keys = np.append(self.link_client * V + self.link_vap, I * V)

        intf = np.array([p.interference_range_m for p in self.profiles])
        self.pair_radio, self.pair_vap, pair_d = _pairs(vpos, vpos, intf.max())
        self.pair_ptr = self.pair_radio.searchsorted(np.arange(V + 1))
        self.adjacency = pair_d[:, None] <= intf  # (P, C)

        self.weights = np.array([c.weight for c in self.clients], dtype=float)
        _check_total_weight(self.weights, self.rates)
        _check_weight_spread(self.weights, I + V)
        self.sum_w_log_w = float((self.weights * np.log(self.weights)).sum())

    def link_index(self, clients, radios) -> np.ndarray:
        """Position in the link lists of the link from each client to each
        radio, -1 where the pair is not a link. clients and radios are ints
        or integer ndarrays (not lists), broadcast against each other."""
        key = clients * len(self.vap_ids) + radios
        pos = self._link_keys.searchsorted(key)
        return (pos + 1) * (self._link_keys[pos] == key) - 1

    def nearest_links(self, chan: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The links of every client at its smallest distance among its links
        with a positive rate on their radio's channel under the channel
        indices chan, client by client with radios ascending, and how many
        each client has: 0 for a stranded client, one without such a link."""
        usable = self.rates[np.arange(len(self.link_vap)), chan[self.link_vap]] > 0
        # the trailing inf closes the last client's segment, also when it is
        # empty; an empty segment's minimum is never read
        d = np.append(np.where(usable, self.distances, np.inf), np.inf)
        least = np.minimum.reduceat(d, self.link_ptr[:-1])
        hits = (usable & (d[:-1] == least[self.link_client])).nonzero()[0]
        return hits, np.bincount(self.link_client[hits], minlength=self.n_clients)

    def same_channel_pairs(self, chan: np.ndarray) -> np.ndarray:
        """Mask of the pairs whose radios share a channel under the channel
        indices chan and interfere on it."""
        here = chan[self.pair_radio]
        return self.adjacency[np.arange(len(here)), here] & (chan[self.pair_vap] == here)

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    @property
    def n_vaps(self) -> int:
        return len(self.vap_ids)

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
    def _link_at(self) -> dict[int, int]:
        """Each link's position by its key client * V + radio, as link_index
        finds it, for fairness.SystemState.apply_association."""
        keys = self._link_keys[:-1].tolist()
        return dict(zip(keys, range(len(keys))))

    @cached_property
    def _digest_parts(self) -> DigestParts:
        """What SystemState.digest() needs, built on first use."""
        I = self.n_clients
        vap_json = np.array([json.dumps(v) for v in self.vap_ids], dtype=object)
        channel_json = np.array([json.dumps(c) for c in self.channel_ids], dtype=object)
        client_order = sorted(range(I), key=self.client_ids.__getitem__)
        vap_order = sorted(range(self.n_vaps), key=self.vap_ids.__getitem__)
        keys = [json.dumps(self.client_ids[i]) for i in client_order]
        keys += vap_json[vap_order].tolist()
        heads = np.array([("[[[" if k == 0 else "]],[[" if k == I else "],[") + key + ","
                          for k, key in enumerate(keys)], dtype=object)
        piece = np.empty(len(keys), dtype=np.int64)
        piece[client_order + [I + v for v in vap_order]] = np.arange(len(keys))
        return DigestParts(heads, vap_json, channel_json, piece[:I], piece[I:])

    @cached_property
    def _config_places(self) -> tuple[int, ...] | None:
        """The mixed-radix place value of every digit of a configuration,
        clients and then radios, as Python ints, or None when the network
        has more than INDEX_LIMIT configurations. Client i's digit is the
        position of its link among its links, _link[i] - link_ptr[i], of
        radix the number of its links (1 for a client with none); radio v's
        digit is its channel, of radix C. Each place is the product of the
        radices before it, so the configurations in which every client sits
        on a link get distinct indices below the product of all radices."""
        radices = np.maximum(np.diff(self.link_ptr), 1).tolist()
        places, size = [], 1
        for radix in radices + [self.n_channels] * self.n_vaps:
            places.append(size)
            size *= radix
            if size > INDEX_LIMIT:
                return None
        return tuple(places)

    @cached_property
    def _candidate_table(self) -> dict[int, bytes | tuple[float, str] | float] | None:
        """What states on the network have evaluated (SystemState lists the
        keys and entries; _store fills it); None when _config_places is."""
        return None if self._config_places is None else {}


def _store(table: dict, key: int, entry):
    """Store an entry in a candidate table, clearing it first when it holds
    TABLE_CAP entries."""
    if len(table) >= TABLE_CAP:
        table.clear()
    table[key] = entry


def _check_total_weight(weights: np.ndarray, rates: np.ndarray):
    """Raise ScenarioError unless W log(W r_max) is finite, W the clients'
    total weight and r_max the largest link rate, or 1 when there is no
    larger one: every psi term of the energy, such as psi(z) = z log z of a
    load z <= W and w_i log(w_i r_i), is at most of that size."""
    r_max = max(float(rates.max()) if rates.size else 0.0, 1.0)
    with np.errstate(over="ignore"):
        total = float(weights.sum())
    if not math.isfinite(total * math.log(total * r_max)):
        raise ScenarioError(
            f"clients.weight: the weights total {total!r}, too much for finite "
            f"energies: W log(W r_max) overflows, with r_max = {r_max!r} Mb/s "
            "the largest link rate (at least 1)")


def _check_weight_spread(weights: np.ndarray, movers: int):
    """Raise ScenarioError unless the smallest weight exceeds
    (I + V + 3) ulp(W), movers = I + V and W the clients' total weight: a
    weight below that can vanish in the rounding of a load sum.

    Every load the energy and the scores read (a radio's w and z, a
    neighbourhood's z with a client taken out or moved in, z+ - w_j) is at
    most about W. A rounding to nearest errs by at most half the ulp of its
    result, and a result of at most about W has an ulp of at most 2 ulp(W)
    (twice only just past a power of two), so each rounding errs by at
    most ulp(W). A load adds a radio's clients' weights in turn (at most I
    roundings across the radios), then its neighbours' loads (at most V),
    then at most three more: a client's weight taken out, put back on a
    candidate, and another client's taken out of that. So a computed load
    is within (I + V + 3) ulp(W) of the exact one, and one whose exact
    value is at least the smallest weight, such as the rest z+ - w_j of a
    load that also holds w_i, stays positive. Below the bound it can round
    to 0: under the client scheme dp-approx's scores then all become -inf
    (weights 1e100, 1 and 1 on one channel)."""
    total = float(weights.sum())
    bound = (movers + 3) * math.ulp(total)
    least = float(weights.min())
    if not least > bound:
        raise ScenarioError(
            f"clients.weight: the smallest weight {least!r} is within the rounding "
            f"of a load sum: it must exceed (I + V + 3) ulp(W) = {bound!r}, "
            f"W = {total!r} the total weight")


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from every point of a to every point of b."""
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


_PAIR_BLOCK = 64


def _pairs(a: np.ndarray, b: np.ndarray, r: float):
    """(row, column, distance) of every pair of a point of a and a point of b
    at most r apart, ordered by row and then column.

    The rows are taken in x order, _PAIR_BLOCK at a time, and each block is
    measured with _distances against just the columns whose x lies within r
    of the block's x range, found by one searchsorted on the x-sorted
    columns. The window is padded by a hair, so rounding cannot drop a pair;
    every distance is computed as in the full matrix and the test d <= r is
    exact, so the pairs and distances equal those of the full matrix bit for
    bit. Rows that fit in one block are measured against every column, which
    leaves the pairs in order without any sort.
    """
    if len(a) <= _PAIR_BLOCK:
        d = _distances(a, b)
        rows, cols = (d <= r).nonzero()
        return rows, cols, d[rows, cols]
    cols_by_x = b[:, 0].argsort(kind="stable")
    bx = b[cols_by_x, 0]
    reach = r + 1e-9 * (r + max(-bx[0], bx[-1]))
    by_row_x = a[:, 0].argsort(kind="stable")
    rows, cols, dist = [], [], []
    for start in range(0, len(a), _PAIR_BLOCK):
        block = by_row_x[start:start + _PAIR_BLOCK]
        x = a[block, 0]
        lo, hi = bx.searchsorted((x[0] - reach, x[-1] + reach))
        near = cols_by_x[lo:hi]
        d = _distances(a[block], b[near])
        i, j = (d <= r).nonzero()
        rows.append(block[i])
        cols.append(near[j])
        dist.append(d[i, j])
    rows, cols, dist = np.concatenate(rows), np.concatenate(cols), np.concatenate(dist)
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], dist[order]


def _check_unique(field: str, ids: list[str]):
    seen = set()
    for k, i in enumerate(ids):
        if i in seen:
            raise ScenarioError(f"{field}[{k}].id: duplicate id {i!r}")
        seen.add(i)
