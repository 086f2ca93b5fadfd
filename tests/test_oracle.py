"""The independent evaluator, exhaustive search, and numeric optimizer."""
import itertools
import math

import numpy as np
import pytest

from fairband import (
    AccessPoint,
    Channel,
    Client,
    Configuration,
    Network,
    SystemState,
    builtin,
    enumerate_optimum,
    numeric_allocation_optimum,
    oracle_energy,
)
from conftest import random_network, random_state, rel


def test_oracle_minus_inf_on_dead_link():
    net = Network(
        [Channel("h", 16000.0, 50.0)],
        [AccessPoint("a", (0, 0))],
        [Client("c1", (500, 0))],
    )
    assert oracle_energy(net, {"c1": "a/r0"}, {"a/r0": "h"}) == -math.inf


def test_enumerate_micro_counts_and_agrees_both_schemes():
    micro = builtin("micro").to_network()
    # non-dyadic weights and a two-radio AP; on ch-16000 (51 m range) each
    # client reaches only its nearest AP
    dual = Network(
        [Channel("ch-2400", 2400.0, 22.0), Channel("ch-16000", 16000.0, 50.0)],
        [AccessPoint("ap0", (0.0, 0.0), radio_count=2), AccessPoint("ap1", (120.0, 0.0))],
        [Client("c1", (20.0, 0.0), 0.7), Client("c2", (50.0, 0.0), 1.3),
         Client("c3", (80.0, 0.0), 2.1), Client("c4", (110.0, 5.0), 0.9)],
    )
    # micro: 4 channel maps x 8 associations, all feasible
    for net, count in ((micro, 32), (dual, 234)):
        for scheme in ("server", "client"):
            best = enumerate_optimum(net, scheme)
            assert best.evaluated == count
            cfg = Configuration(best.association, best.channel)
            u = SystemState.from_configuration(net, cfg, scheme).energy()
            assert rel(best.energy, u) < 1e-12
            # nothing beats it in its own enumeration, scored by the engine
            feasible = 0
            for chan in itertools.product(range(net.n_channels), repeat=net.n_vaps):
                for assoc in itertools.product(range(net.n_vaps), repeat=net.n_clients):
                    state = SystemState(net, scheme, np.array(assoc), np.array(chan))
                    feasible += state.feasible
                    assert state.energy() <= best.energy + 1e-12
            assert feasible == count


def test_enumerate_respects_limit():
    net = builtin("grid16-unweighted", seed=0).to_network()
    with pytest.raises(ValueError):
        enumerate_optimum(net, "server", limit=10**6)


def test_enumerate_beats_random_configs(rng):
    net = builtin("micro").to_network()
    best = enumerate_optimum(net, "server")
    for _ in range(30):
        state = random_state(net, rng, "server")
        assert state.energy() <= best.energy + 1e-12


def test_numeric_optimum_confirms_closed_form(rng):
    # the objective is concave in (phi, p), so SLSQP from an interior start
    # lands on the global optimum; closed form must match it
    # the last network has a two-radio AP: 3 clients + at most 3 occupied radios
    for max_radios in [1] * 6 + [2]:
        net = random_network(rng, n_aps=2, n_clients=3, n_channels=2, dyadic=False,
                             max_radios=max_radios)
        assert net.n_vaps > 2 or max_radios == 1
        state = random_state(net, rng, "server")
        cfg = state.to_configuration()
        numeric = numeric_allocation_optimum(
            net, cfg.association, cfg.channel, "server", samples=64, refine=2
        )
        closed = state.energy()
        assert closed >= numeric - 1e-3
        assert numeric >= closed - 1e-4  # and the search does find it


def test_numeric_optimum_client_scheme(rng):
    # the last network has a two-radio AP
    for max_radios in [1] * 4 + [2]:
        net = random_network(rng, n_aps=2, n_clients=4, n_channels=2, dyadic=False,
                             max_radios=max_radios)
        assert net.n_vaps > 2 or max_radios == 1
        state = random_state(net, rng, "client")
        cfg = state.to_configuration()
        numeric = numeric_allocation_optimum(
            net, cfg.association, cfg.channel, "client", samples=64, refine=2
        )
        closed = state.energy()
        assert closed >= numeric - 1e-3
        assert numeric >= closed - 1e-4


def test_numeric_optimum_guards_dimensions():
    net = builtin("line3-1ch").to_network()
    cfg_assoc = {c: "ap1/r0" for c in net.client_ids}
    cfg_chan = {v: "ch-2400" for v in net.vap_ids}
    with pytest.raises(ValueError):
        numeric_allocation_optimum(net, cfg_assoc, cfg_chan, "server")
