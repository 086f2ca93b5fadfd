"""Interference-count channel picker and the closest-AP baseline."""
import numpy as np
import pytest

from fairband import (
    AccessPoint,
    Channel,
    Client,
    Network,
    ScenarioError,
    builtin,
    interfering_pair_count,
    minint_channel_selection,
    minint_wifi_run,
    wifi_allocation,
    wifi_association,
)
from fairband.baselines import _descend
from conftest import dense_reference, random_network


def _brute_force_pairs(net, chan):
    adjacency = dense_reference(net).adjacency
    count = 0
    for a in range(net.n_vaps):
        for b in range(a + 1, net.n_vaps):
            if chan[a] == chan[b] and adjacency[a, b, chan[a]]:
                count += 1
    return count


def test_interfering_pair_count_matches_brute_force(rng):
    for _ in range(20):
        net = random_network(rng, n_aps=4, n_clients=2, n_channels=3, max_radios=2)
        chan = rng.integers(0, net.n_channels, size=net.n_vaps)
        assert interfering_pair_count(net, chan) == _brute_force_pairs(net, chan)


def test_descent_trace_is_monotone(rng):
    net = random_network(rng, n_aps=5, n_clients=2, n_channels=2, max_radios=2)
    start = rng.integers(0, net.n_channels, size=net.n_vaps)
    chan, cost = _descend(net, start)
    assert cost == interfering_pair_count(net, chan)
    assert cost <= interfering_pair_count(net, start)
    # it stops where no single radio's channel change lowers the count
    for n in range(net.n_vaps):
        for c in range(net.n_channels):
            moved = chan.copy()
            moved[n] = c
            assert interfering_pair_count(net, moved) >= cost


def test_minint_finds_zero_interference_on_line3_2ch():
    net = builtin("line3-2ch").to_network()
    picked = minint_channel_selection(net, restarts=20, seed=0)
    assert picked.cost == 0
    chans = [net.channel_ids[c] for c in picked.channels]
    # the only conflict-free map: outer APs on 16 GHz, middle on 2.4 GHz
    assert chans == ["ch-16000", "ch-2400", "ch-16000"]


def test_minint_single_start_can_stall_restarts_recover():
    # with one restart some seeds stop at cost 1; twenty restarts always
    # reach the global minimum on this instance
    net = builtin("line3-2ch").to_network()
    single_costs = {
        minint_channel_selection(net, restarts=1, seed=s).cost for s in range(12)
    }
    assert 0 in single_costs  # some starts do descend all the way
    multi = {minint_channel_selection(net, restarts=20, seed=s).cost for s in range(12)}
    assert multi == {0}


def test_wifi_association_prefers_nearest_usable():
    net = Network(
        [Channel("b", 2400.0, 22.0), Channel("h", 16000.0, 50.0)],
        [AccessPoint("near", (0, 0)), AccessPoint("far", (60, 0))],
        [Client("c1", (55, 0))],
    )
    # nearest radio (far, 5 m) wins when usable
    assoc = wifi_association(net, np.array([0, 0]))
    assert net.vap_ids[assoc[0]] == "far/r0"
    # put the nearest on 16 GHz: still usable at 5 m, still wins
    assoc = wifi_association(net, np.array([0, 1]))
    assert net.vap_ids[assoc[0]] == "far/r0"


def test_wifi_association_skips_dead_links():
    net = Network(
        [Channel("b", 2400.0, 22.0), Channel("h", 16000.0, 50.0)],
        [AccessPoint("near", (0, 0)), AccessPoint("far", (100, 0))],
        [Client("c1", (70, 0))],  # 30 m from far, 70 m from near
    )
    # far is closest but on 16 GHz it still works (30 m); on the scenario
    # where far has no rate the client must fall back to near
    net2 = Network(
        [Channel("b", 2400.0, 22.0), Channel("h", 16000.0, 50.0)],
        [AccessPoint("near", (0, 0)), AccessPoint("far", (200, 0))],
        [Client("c1", (130, 0))],  # 70 m from far: dead on 16 GHz
    )
    assoc = wifi_association(net2, np.array([0, 1]))
    assert net2.vap_ids[assoc[0]] == "near/r0"
    with pytest.raises(ScenarioError):
        wifi_association(net2, np.array([1, 1]))  # both out of reach on 16 GHz


def test_wifi_allocation_equalizes_throughput_within_ap():
    net = Network(
        [Channel("b", 2400.0, 22.0)],
        [AccessPoint("a", (0, 0))],
        [Client("c1", (30, 0)), Client("c2", (100, 0)), Client("c3", (140, 0))],
    )
    assoc = np.zeros(3, dtype=np.int64)
    chan = np.zeros(1, dtype=np.int64)
    alloc = wifi_allocation(net, assoc, chan)
    rates = dense_reference(net).rates[np.arange(3), assoc, chan[assoc]]
    throughputs = rates * np.array([alloc.schedule[c] for c in net.client_ids])
    assert np.allclose(throughputs, throughputs[0])
    assert sum(alloc.schedule.values()) == pytest.approx(1.0)


def test_minint_wifi_run_shape():
    res = minint_wifi_run(builtin("line3-1ch"), seed=0)
    assert res.policy_kind == "minint-wifi"
    assert res.iterations == 0
    assert len(res.trajectory) == 1 and res.trajectory[0].t == 0
    assert res.best_energy == res.final_energy
    assert set(res.rates) == set(builtin("line3-1ch").to_network().client_ids)


def test_minint_wifi_line3_2ch_frozen_metrics():
    # hand-checked: zero-interference channels, 15 clients on the middle AP,
    # one on the right AP, each radio alone on its channel (p = 1)
    res = minint_wifi_run(builtin("line3-2ch"), seed=0)
    assert res.final_energy == pytest.approx(-3.1382, abs=2e-4)
    assert res.final_weighted_throughput == pytest.approx(15.5455, abs=2e-4)
