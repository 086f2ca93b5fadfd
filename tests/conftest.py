"""Shared fixtures and instance builders for the test suite."""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fairband import (
    AccessPoint,
    Channel,
    Client,
    Network,
    SystemState,
    builtin,
)


def rel(a: float, b: float) -> float:
    """Relative error with a floor of 1 on the scale."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def dense_candidates(candidates, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A candidate method's (targets, values) over all n radios or channels:
    the values, -inf off the targets, and the mask of the targets."""
    targets, values = candidates
    dense = np.full(n, -np.inf)
    dense[targets] = values
    feasible = np.zeros(n, dtype=bool)
    feasible[targets] = True
    return dense, feasible


# weights from this palette keep aggregate sums exact in binary floating
# point, which lets incremental-vs-fresh comparisons demand bit equality
DYADIC_WEIGHTS = (0.5, 1.0, 1.5, 2.0, 2.5)

CHANNEL_PALETTE = (
    Channel("ch-2400", 2400.0, 22.0),
    Channel("ch-4000", 4000.0, 44.0),
    Channel("ch-16000", 16000.0, 50.0),
    Channel("ch-600", 600.0, 6.0),
)


def _dist(p, q) -> float:
    """The model's distance arithmetic, sqrt(dx * dx + dy * dy), on scalars."""
    dx, dy = float(p[0]) - float(q[0]), float(p[1]) - float(q[1])
    return math.sqrt(dx * dx + dy * dy)


def dense_reference(net: Network) -> SimpleNamespace:
    """A network's link and interference data as dense tables, built pair by
    pair from the positions with ChannelProfile.rate_at and each channel's
    interference range, without reading the network's link or pair lists:
    ``rates`` and ``log_rates`` (I, V, C), ``adjacency`` (V, V, C) and
    ``distances`` (I, V)."""
    I, V, C = net.n_clients, net.n_vaps, net.n_channels
    distances = np.array([[_dist(c.position, v) for v in net.vap_positions]
                          for c in net.clients]).reshape(I, V)
    rates = np.array([[[prof.rate_at(d) for prof in net.profiles] for d in row]
                      for row in distances]).reshape(I, V, C)
    adjacency = np.array([[[_dist(a, b) <= prof.interference_range_m
                            for prof in net.profiles] for b in net.vap_positions]
                          for a in net.vap_positions]).reshape(V, V, C)
    with np.errstate(divide="ignore"):
        log_rates = np.log(rates)  # -inf at rate 0
    return SimpleNamespace(rates=rates, log_rates=log_rates, adjacency=adjacency,
                           distances=distances)


def random_network(
    rng: np.random.Generator,
    n_aps: int = 3,
    n_clients: int = 6,
    n_channels: int = 2,
    box: float = 260.0,
    dyadic: bool = True,
    max_radios: int = 1,
) -> Network:
    """Random scenario whose clients all have a usable link on every channel.

    Clients are placed near a random AP (within the smallest max range over
    the palette channels) so any channel assignment keeps them connected,
    which keeps downstream random-configuration draws trivially feasible.
    """
    channels = list(CHANNEL_PALETTE[:n_channels])
    aps = []
    for k in range(n_aps):
        radios = int(rng.integers(1, max_radios + 1))
        aps.append(
            AccessPoint(
                f"ap{k}",
                (float(rng.uniform(0, box)), float(rng.uniform(0, box))),
                radio_count=radios,
            )
        )
    # stay within reach of the shortest-ranged channel in the palette
    from fairband import channel_profile

    reach = min(channel_profile(c).max_range_m for c in channels) * 0.95
    clients = []
    for i in range(n_clients):
        home = aps[int(rng.integers(n_aps))]
        angle = rng.uniform(0, 2 * np.pi)
        d = rng.uniform(0, reach)
        pos = (home.position[0] + d * np.cos(angle), home.position[1] + d * np.sin(angle))
        weight = float(rng.choice(DYADIC_WEIGHTS)) if dyadic else float(rng.uniform(0.4, 2.5))
        clients.append(Client(f"c{i}", (float(pos[0]), float(pos[1])), weight))
    return Network(channels, aps, clients)


def dual_radio_grid(rng: np.random.Generator, n_clients: int) -> Network:
    """16 x 16 dual-radio APs 300 m apart (V = 512) on grid16-weighted's
    channels, with n_clients uniform clients over the grid."""
    aps = [AccessPoint(f"ap{k}", (300.0 * (k // 16), 300.0 * (k % 16)), radio_count=2)
           for k in range(256)]
    clients = [Client(f"c{i}", tuple(rng.uniform(0.0, 4500.0, 2).tolist()))
               for i in range(n_clients)]
    return Network(list(builtin("grid16-weighted").channels), aps, clients)


def random_state(
    net: Network, rng: np.random.Generator, scheme: str = "server"
) -> SystemState:
    """Uniform random feasible configuration as a live state."""
    V, C = net.n_vaps, net.n_channels
    rates = dense_reference(net).rates
    for _ in range(200):
        chan = rng.integers(0, C, size=V)
        rates_now = rates[:, np.arange(V), chan]
        if not (rates_now > 0).any(axis=1).all():
            continue
        assoc = np.empty(net.n_clients, dtype=np.int64)
        for i in range(net.n_clients):
            ok = np.flatnonzero(rates_now[i] > 0)
            assoc[i] = ok[rng.integers(len(ok))]
        return SystemState(net, scheme, assoc, chan)
    raise AssertionError("could not draw a feasible configuration")


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)
