"""Reference policies that ignore the fairness objective.

The channel picker minimizes the number of same-channel interfering radio
pairs by steepest single-radio descent from random starts. The association
rule is the classic one: join the closest radio with a usable link, then
split airtime so every client of an AP gets equal throughput.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annealing import RunResult, TrajectoryPoint, _coerce_network
from .checks import check_integer
from .fairness import SCHEME_SERVER, Allocation, SystemState, throughput
from .model import Network, ScenarioError


def interfering_pair_count(net: Network, chan: np.ndarray) -> int:
    """Number of unordered radio pairs that interfere on a shared channel."""
    same = net.same_channel_pairs(np.asarray(chan))  # each radio paired with itself
    return int((same.sum() - net.n_vaps) // 2)


@dataclass
class MinIntResult:
    channels: np.ndarray
    cost: int


def _descend(net: Network, chan: np.ndarray) -> tuple[np.ndarray, int]:
    """Steepest descent over single-radio channel moves; ties to lowest
    (radio, channel). Returns the channels and their pair count."""
    V, C = net.n_vaps, net.n_channels
    chan = chan.copy()
    others = net.pair_radio != net.pair_vap
    radio, partner = net.pair_radio[others], net.pair_vap[others]
    adjacency = net.adjacency[others]
    cost = interfering_pair_count(net, chan)
    while True:
        # deg[n, c]: same-channel interferers radio n would have on channel c,
        # counted over its partners that use c and interfere with it there
        there = chan[partner]
        hit = adjacency[np.arange(len(there)), there]
        deg = np.bincount(radio[hit] * C + there[hit], minlength=V * C).reshape(V, C)
        delta = deg - deg[np.arange(V), chan][:, None]
        best = int(np.argmin(delta))
        n, c = divmod(best, C)
        if delta[n, c] >= 0:
            break
        chan[n] = c
        cost += int(delta[n, c])
    return chan, cost


def minint_channel_selection(
    net: Network, restarts: int = 20, seed: int = 0
) -> MinIntResult:
    """Best channel map over several random-start descents.

    A single descent can stall in a local minimum of the pair count; a
    handful of restarts makes that vanishingly unlikely on small networks.
    Ties between restarts keep the earliest result.
    """
    check_integer("restarts", restarts, 1)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    best: MinIntResult | None = None
    for _ in range(restarts):
        start = rng.integers(0, net.n_channels, size=net.n_vaps)
        chan, cost = _descend(net, start)
        if best is None or cost < best.cost:
            best = MinIntResult(chan, cost)
        if best.cost == 0:
            break
    return best


def wifi_association(net: Network, chan: np.ndarray) -> np.ndarray:
    """Closest radio with a positive rate, ties to the lowest radio index."""
    hits, counts = net.nearest_links(chan)
    if not counts.all():
        raise ScenarioError(
            f"client {net.client_ids[int(counts.argmin())]!r} has no usable radio "
            "under the selected channels"
        )
    return net.link_vap[hits[np.cumsum(counts) - counts]]


def wifi_allocation(net: Network, assoc: np.ndarray, chan: np.ndarray) -> Allocation:
    """Equal-throughput airtime split per AP, closed-form access otherwise.

    phi_i is proportional to 1/B_i among the clients of each radio, so all
    of them see the same throughput whenever the radio wins a slot.
    """
    state = SystemState(net, SCHEME_SERVER, assoc, chan)
    if not state.feasible:
        raise ScenarioError("equal-throughput split needs positive rates")
    inv = 1.0 / state._b_clients
    phi = np.empty(net.n_clients)
    for n in range(net.n_vaps):
        members = assoc == n
        if members.any():
            phi[members] = inv[members] / inv[members].sum()
    p = state.access_probabilities()
    schedule = {
        net.client_ids[i]: float(phi[i]) for i in range(net.n_clients)
    }
    access = {net.vap_ids[n]: float(p[n]) for n in range(net.n_vaps)}
    return Allocation(scheme=SCHEME_SERVER, schedule=schedule, access=access)


def minint_wifi_run(
    scenario_or_network, seed: int = 0, run_id: str = "run0"
) -> RunResult:
    """The full baseline: interference-minimal channels, closest-AP
    association, equal-throughput scheduling. One-shot, no trajectory."""
    check_integer("seed", seed, 0)
    net = _coerce_network(scenario_or_network)
    picked = minint_channel_selection(net, seed=seed)
    assoc = wifi_association(net, picked.channels)
    alloc = wifi_allocation(net, assoc, picked.channels)
    config = net.configuration(assoc, picked.channels)
    report = throughput(net, config, alloc)
    point = TrajectoryPoint(
        0, None, report.energy, report.weighted_throughput, config.digest()
    )
    return RunResult(
        run_id=run_id,
        policy_kind="minint-wifi",
        scheme=SCHEME_SERVER,
        seed=seed,
        iterations=0,
        trajectory=[point],
        final_configuration=config,
        final_energy=report.energy,
        final_weighted_throughput=report.weighted_throughput,
        rates=dict(report.rates),
        schedule_phi=alloc.schedule,
        access_p=alloc.access,
        best_energy=report.energy,
        best_t=0,
        best_configuration=config,
    )
