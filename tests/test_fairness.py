"""Closed-form allocations, energy identities, candidate evaluation."""
import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from fairband import (
    AccessPoint,
    Allocation,
    Channel,
    Client,
    Configuration,
    Network,
    OptimizerPolicy,
    Schedule,
    SystemState,
    builtin,
    enumerate_optimum,
    initial_configuration,
    oracle_energy,
    slot_monte_carlo,
    throughput,
)
from fairband.annealing import _draw, gibbs_step, softmax_probabilities
from fairband.fairness import (
    _idle_products,
    _load_change,
    _same_channel_adjacency,
    _slot_rates,
)
from conftest import (
    dense_candidates, dense_reference, dual_radio_grid, random_network, random_state, rel,
)


def _single_ap_two_clients():
    return Network(
        [Channel("b", 2400.0, 22.0)],
        [AccessPoint("a", (0, 0))],
        [Client("c1", (30, 0)), Client("c2", (40, 0))],  # both at 11 Mbps
    )


def test_energy_single_ap_two_clients_server():
    # phi = 1/2 each, p = 1 (alone in its neighborhood):
    # U = 2 log 11 + 2 log(1/2) = 2 log(11/2)
    net = _single_ap_two_clients()
    cfg = Configuration({"c1": "a/r0", "c2": "a/r0"}, {"a/r0": "b"})
    u = SystemState.from_configuration(net, cfg, "server").energy()
    assert u == pytest.approx(2 * math.log(11 / 2), abs=1e-12)


def test_energy_single_ap_two_clients_client_scheme():
    # each client transmits with p = 1/2 against the other:
    # r_i = 11 * (1/2) * (1/2), U = 2 log 11 - 4 log 2
    net = _single_ap_two_clients()
    cfg = Configuration({"c1": "a/r0", "c2": "a/r0"}, {"a/r0": "b"})
    expected = 2 * math.log(11) - 4 * math.log(2)
    u = SystemState.from_configuration(net, cfg, "client").energy()
    assert u == pytest.approx(expected, abs=1e-12)


def test_schedule_and_access_closed_forms():
    net = Network(
        [Channel("b", 2400.0, 22.0)],
        [AccessPoint("a", (0, 0)), AccessPoint("b", (100, 0))],
        [Client("c1", (10, 0), 2.0), Client("c2", (20, 0), 1.0), Client("c3", (90, 0), 1.0)],
    )
    cfg = Configuration(
        {"c1": "a/r0", "c2": "a/r0", "c3": "b/r0"}, {"a/r0": "b", "b/r0": "b"}
    )
    phi = SystemState.from_configuration(net, cfg, "server").allocation().schedule
    assert phi["c1"] == pytest.approx(2 / 3) and phi["c2"] == pytest.approx(1 / 3)
    assert phi["c3"] == 1.0
    p = SystemState.from_configuration(net, cfg, "server").allocation().access
    # the APs interfere: z = 4 for both
    assert p["a/r0"] == pytest.approx(3 / 4) and p["b/r0"] == pytest.approx(1 / 4)
    client = SystemState.from_configuration(net, cfg, "client").allocation()
    assert client.schedule is None
    pc = client.access
    assert pc["c1"] == pytest.approx(2 / 4) and pc["c3"] == pytest.approx(1 / 4)


def test_clientless_radio_gets_zero_access():
    net = Network(
        [Channel("b", 2400.0, 22.0)],
        [AccessPoint("a", (0, 0)), AccessPoint("b", (100, 0))],
        [Client("c1", (10, 0))],
    )
    cfg = Configuration({"c1": "a/r0"}, {"a/r0": "b", "b/r0": "b"})
    p = SystemState.from_configuration(net, cfg, "server").allocation().access
    assert p["b/r0"] == 0.0
    assert p["a/r0"] == 1.0  # empty neighbor does not count toward z
    alloc = SystemState.from_configuration(net, cfg, "server").allocation()
    rep = throughput(net, cfg, alloc)
    assert rep.rates["c1"] == pytest.approx(11.0)


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_energy_identity_closed_form_vs_assembled(rng, scheme):
    # U(psi) must equal sum w log r with r assembled from the success
    # probabilities; checked at 1e-12 relative precision
    for _ in range(60):
        net = random_network(rng, n_aps=int(rng.integers(1, 4)),
                             n_clients=int(rng.integers(2, 7)),
                             n_channels=int(rng.integers(1, 3)),
                             dyadic=False, max_radios=2)
        state = random_state(net, rng, scheme)
        cfg = state.to_configuration()
        u_closed = state.energy()
        alloc = SystemState.from_configuration(net, cfg, scheme).allocation()
        rep = throughput(net, cfg, alloc)
        assert rel(u_closed, rep.energy) < 1e-12


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_energy_agrees_with_plain_loop_oracle(rng, scheme):
    for _ in range(40):
        net = random_network(rng, n_aps=int(rng.integers(2, 4)),
                             n_clients=int(rng.integers(2, 6)),
                             n_channels=2, dyadic=False)
        state = random_state(net, rng, scheme)
        cfg = state.to_configuration()
        assert rel(state.energy(), oracle_energy(net, cfg.association, cfg.channel, scheme)) < 1e-10


def test_perturbing_allocation_never_improves(rng):
    net = random_network(rng, n_aps=2, n_clients=4, n_channels=2, dyadic=False)
    state = random_state(net, rng, "server")
    cfg = state.to_configuration()
    alloc = SystemState.from_configuration(net, cfg, "server").allocation()
    u_star = throughput(net, cfg, alloc).energy
    for _ in range(50):
        phi = np.array([alloc.schedule[c] for c in net.client_ids])
        assoc = [cfg.association[c] for c in net.client_ids]
        for v in net.vap_ids:
            members = [k for k, a in enumerate(assoc) if a == v]
            if members:
                bump = rng.dirichlet(np.ones(len(members)))
                mixed = 0.9 * phi[members] + 0.1 * bump
                phi[members] = mixed / mixed.sum()
        p = {
            v: float(np.clip(alloc.access[v] + rng.normal(0, 0.05), 0.001, 1.0))
            for v in net.vap_ids
        }
        perturbed = Allocation(
            "server", {c: float(phi[k]) for k, c in enumerate(net.client_ids)}, p
        )
        assert throughput(net, cfg, perturbed).energy <= u_star + 1e-12


def test_isolated_ap_transmits_every_slot():
    # p = 1 is a legitimate operating point: the success probability is the
    # explicit product over other interferers, which is empty here
    net = _single_ap_two_clients()
    cfg = Configuration({"c1": "a/r0", "c2": "a/r0"}, {"a/r0": "b"})
    alloc = SystemState.from_configuration(net, cfg, "server").allocation()
    rep = throughput(net, cfg, alloc)
    assert rep.rates["c1"] == pytest.approx(5.5)
    assert rep.rates["c2"] == pytest.approx(5.5)


def test_forced_always_on_neighbors_collide_forever():
    net = Network(
        [Channel("b", 2400.0, 22.0)],
        [AccessPoint("a", (0, 0)), AccessPoint("b", (100, 0))],
        [Client("c1", (10, 0)), Client("c2", (90, 0))],
    )
    cfg = Configuration({"c1": "a/r0", "c2": "b/r0"}, {"a/r0": "b", "b/r0": "b"})
    forced = Allocation("server", {"c1": 1.0, "c2": 1.0}, {"a/r0": 1.0, "b/r0": 1.0})
    rep = throughput(net, cfg, forced)
    assert rep.rates["c1"] == 0.0 and rep.rates["c2"] == 0.0
    assert not rep.feasible
    assert rep.energy == -math.inf


def test_one_sided_always_on():
    # a transmits every slot, so b never succeeds; b still transmits with
    # p = 1/2 and knocks out half of a's slots
    net = Network(
        [Channel("b", 2400.0, 22.0)],
        [AccessPoint("a", (0, 0)), AccessPoint("b", (100, 0))],
        [Client("c1", (10, 0)), Client("c2", (90, 0))],
    )
    cfg = Configuration({"c1": "a/r0", "c2": "b/r0"}, {"a/r0": "b", "b/r0": "b"})
    forced = Allocation("server", {"c1": 1.0, "c2": 1.0}, {"a/r0": 1.0, "b/r0": 0.5})
    rep = throughput(net, cfg, forced)
    assert rep.rates["c1"] == pytest.approx(11.0 * 0.5)
    assert rep.rates["c2"] == 0.0
    assert not rep.feasible


def test_infeasible_configuration_reports_minus_inf():
    net = Network(
        [Channel("h", 16000.0, 50.0), Channel("b", 2400.0, 22.0)],
        [AccessPoint("a", (0, 0))],
        [Client("c1", (100, 0))],  # beyond 16 GHz range, fine on 2.4
    )
    bad = Configuration({"c1": "a/r0"}, {"a/r0": "h"})
    state = SystemState.from_configuration(net, bad, "server")
    assert state.energy() == -math.inf
    assert not state.feasible
    good = Configuration({"c1": "a/r0"}, {"a/r0": "b"})
    assert math.isfinite(SystemState.from_configuration(net, good, "server").energy())


@pytest.mark.parametrize("name, assoc, chan", [
    ("association array", [0, 3], [0, 1, 0]),  # radio index V
    ("association array", [-1, 0], [0, 1, 0]),
    ("channel array", [0, 1], [0, 2, 0]),  # channel index C
    ("channel array", [0, 1], [0, -1, 0]),  # not read as the last channel
    ("channel array", [0, 1], [0.5, 1.0, 0.0]),  # not truncated to 0
])
def test_state_refuses_index_arrays_out_of_range(name, assoc, chan):
    net = random_network(np.random.default_rng(0), n_aps=3, n_clients=2, n_channels=2)
    assert (net.n_vaps, net.n_channels) == (3, 2)
    with pytest.raises(ValueError, match=f"^{name} has entries that are not integers in"):
        SystemState(net, "server", assoc, chan)


def _state_snapshot(state):
    """Everything a state holds but its network, with arrays as bytes."""
    return {k: v.tobytes() if isinstance(v, np.ndarray) else copy.deepcopy(v)
            for k, v in vars(state).items() if k != "net"}


_NOT_INTEGERS = (1.5, 1.0, np.float64(1.0), "1", None, True)


@pytest.mark.parametrize("scheme", ["server", "client"])
@pytest.mark.parametrize("defer", [False, True])
@pytest.mark.parametrize("method, args, name", [
    ("apply_association", (3, 0), "client"),  # micro: I = 3, V = 2, C = 2
    ("apply_association", (-1, 0), "client"),
    ("apply_association", (0, 2), "target_vap"),
    ("apply_association", (0, -1), "target_vap"),
    ("apply_channel", (2, 0), "vap"),
    ("apply_channel", (-1, 0), "vap"),
    ("apply_channel", (0, 2), "target_channel"),
    ("apply_channel", (0, -1), "target_channel"),
    # not integers: numpy would truncate 1.5 into the digits while the link
    # lookup found no link of key 1.5
    *(("apply_association", (0, bad), "target_vap") for bad in _NOT_INTEGERS),
    *(("apply_association", (bad, 0), "client") for bad in _NOT_INTEGERS),
    *(("apply_channel", (0, bad), "target_channel") for bad in _NOT_INTEGERS),
    *(("apply_channel", (bad, 0), "vap") for bad in _NOT_INTEGERS),
    # a mover's position: a wrong one would read another mover's table entry
    ("candidates", (5,), "pos"),
    ("candidates", (-1,), "pos"),
    *(("candidates", (bad,), "pos") for bad in _NOT_INTEGERS),
])
def test_moves_refuse_indices_out_of_range(scheme, defer, method, args, name):
    # a move or a candidate lookup names the argument out of range or not an
    # integer and writes nothing: not the digits, the arrays, the index or
    # the pending moves of a deferred state
    net = builtin("micro").to_network()
    assert (net.n_clients, net.n_vaps, net.n_channels) == (3, 2, 2)
    state = SystemState(net, scheme, *initial_configuration(net, np.random.default_rng(3)))
    state.rates(), state.digest(), state.config_index()
    state._defer = defer
    state.apply_channel(1, 1 - int(state.chan[1]))
    before = _state_snapshot(state)
    assert bool(state._moved) == defer
    with pytest.raises(ValueError, match=f"^{name}: must be an integer in "):
        getattr(state, method)(*args)
    assert _state_snapshot(state) == before


@pytest.mark.parametrize("scheme", ["server", "client"])
@pytest.mark.parametrize("defer", [False, True])
def test_moves_take_numpy_integers_as_ints(scheme, defer):
    net = builtin("micro").to_network()
    config = initial_configuration(net, np.random.default_rng(3))
    states = [SystemState(net, scheme, *config) for _ in range(2)]
    for state, kind in zip(states, (int, np.int32)):
        state._defer = defer
        state.apply_channel(kind(1), kind(1 - int(state.chan[1])))
        state.apply_association(kind(0), kind(1 - int(state.assoc[0])))
        state._sync()
    assert _state_snapshot(states[0]) == _state_snapshot(states[1])


_SPARSE = dict(n_aps=3, n_clients=5, max_radios=2)
_CROWDED = dict(n_aps=2, n_clients=20, max_radios=1)


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_association_candidates_match_from_scratch(rng, scheme):
    # the last networks put 20 clients on two radios, so one radio holds 10
    # or more
    crowd = 0
    for cell in [_SPARSE] * 15 + [_CROWDED] * 3:
        net = random_network(rng, n_channels=2, dyadic=False, **cell)
        state = random_state(net, rng, scheme)
        crowd = max(crowd, np.bincount(state.assoc).max())
        i = int(rng.integers(net.n_clients))
        values, feasible = dense_candidates(state.association_candidates(i), net.n_vaps)
        for b in range(net.n_vaps):
            fresh_assoc = state.assoc.copy()
            fresh_assoc[i] = b
            fresh = SystemState(net, scheme, fresh_assoc, state.chan)
            if feasible[b]:
                assert rel(values[b], fresh.energy()) < 1e-11
            else:
                assert values[b] == -math.inf and fresh.energy() == -math.inf
    assert crowd >= 8


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_channel_candidates_match_from_scratch(rng, scheme):
    # the last networks put 20 clients on two radios, so one radio holds 10
    # or more
    clientless = crowd = 0
    for cell in [_SPARSE] * 15 + [_CROWDED] * 3:
        net = random_network(rng, n_channels=3, dyadic=False, **cell)
        state = random_state(net, rng, scheme)
        crowd = max(crowd, np.bincount(state.assoc).max())
        n = int(rng.integers(net.n_vaps))
        values, feasible = dense_candidates(state.channel_candidates(n), net.n_channels)
        for c in range(net.n_channels):
            fresh_chan = state.chan.copy()
            fresh_chan[n] = c
            fresh = SystemState(net, scheme, state.assoc, fresh_chan)
            if feasible[c]:
                assert rel(values[c], fresh.energy()) < 1e-11
            else:
                assert values[c] == -math.inf and fresh.energy() == -math.inf
        # a clientless radio takes the general path, whose load of 0.0
        # changes no term: every channel, each valued at exactly U
        for v in (state.w_ap == 0).nonzero()[0]:
            targets, values = state.channel_candidates(int(v))
            assert np.array_equal(targets, np.arange(net.n_channels))
            assert np.array_equal(values, np.full(net.n_channels, state.energy()))
            clientless += 1
    assert clientless > 0 and crowd >= 8


def _network_with_far_clients(rng):
    """A random multi-radio network with non-dyadic weights whose clients sit
    up to 140 m from an AP: within reach on ch-2400, but often beyond the
    reach of ch-4000 (112 m) or ch-16000 (51 m), so some links and some
    channels of a radio are infeasible."""
    base = random_network(rng, n_aps=4, n_clients=8, n_channels=3,
                          dyadic=False, max_radios=3)
    clients = []
    for c in base.clients:
        home = base.aps[int(rng.integers(len(base.aps)))].position
        angle, d = rng.uniform(0, 2 * np.pi), rng.uniform(0, 140.0)
        clients.append(Client(c.id, (home[0] + d * math.cos(angle),
                                     home[1] + d * math.sin(angle)), c.weight))
    return Network(list(base.channels), list(base.aps), clients)


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_candidate_targets_are_the_feasible_moves(rng, scheme):
    # association targets are the radios with a positive-rate link on the
    # current channels, channel targets the channels on which every client
    # of the radio keeps its link; each value is the energy of a fresh
    # state after that move
    for _ in range(12):
        net = _network_with_far_clients(rng)
        rates = dense_reference(net).rates
        state = random_state(net, rng, scheme)
        linked = rates[:, np.arange(net.n_vaps), state.chan] > 0  # (I, V)
        for i in range(net.n_clients):
            targets, values = state.association_candidates(i)
            assert targets.tolist() == np.flatnonzero(linked[i]).tolist()
            assert np.array_equal(state.association_scores_approx(i)[0], targets)
            for b, value in zip(targets.tolist(), values.tolist()):
                assoc = state.assoc.copy()
                assoc[i] = b
                assert rel(value, SystemState(net, scheme, assoc, state.chan).energy()) < 1e-11
        for n in range(net.n_vaps):
            members = np.flatnonzero(state.assoc == n)
            keeps = (rates[members, n, :] > 0).all(axis=0)
            targets, values = state.channel_candidates(n)
            assert targets.tolist() == np.flatnonzero(keeps).tolist()
            for c, value in zip(targets.tolist(), values.tolist()):
                chan = state.chan.copy()
                chan[n] = c
                assert rel(value, SystemState(net, scheme, state.assoc, chan).energy()) < 1e-11


def _network_with_isolated_cell(rng, n_aps=14, n_clients=16):
    """A random multi-radio network (V >= 16, non-dyadic weights) plus a
    far-away two-radio AP with one client: in any configuration one of its
    radios is clientless and the served one has z == w."""
    base = random_network(rng, n_aps=n_aps, n_clients=n_clients, n_channels=3,
                          dyadic=False, max_radios=2)
    return Network(
        list(base.channels),
        list(base.aps) + [AccessPoint("far", (50000.0, 0.0), radio_count=2)],
        list(base.clients) + [Client("f0", (50010.0, 0.0), 0.7)],
    )


def _assert_rel_close(a, b, tol=1e-12):
    if math.isfinite(a) or math.isfinite(b):
        assert rel(a, b) < tol
    else:
        assert a == b


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_applied_moves_never_drift(rng, scheme):
    # the adjacency is patched in place on channel moves; after each of 240
    # random moves it must equal a rebuild exactly, and every derived
    # quantity must match a fresh state
    for _ in range(3):
        net = random_network(rng, n_aps=6, n_clients=10, n_channels=3,
                             dyadic=False, max_radios=3)
        state = random_state(net, rng, scheme)
        for _ in range(80):
            if rng.random() < 0.5:
                state.apply_association(int(rng.integers(net.n_clients)),
                                        int(rng.integers(net.n_vaps)))
            else:
                state.apply_channel(int(rng.integers(net.n_vaps)),
                                    int(rng.integers(net.n_channels)))
            assert np.array_equal(state.same_ch_adj,
                                  _same_channel_adjacency(net, state.chan))
            fresh = SystemState(net, scheme, state.assoc, state.chan)
            np.testing.assert_allclose(state.w_ap, fresh.w_ap, rtol=1e-12, atol=0)
            np.testing.assert_allclose(state.z, fresh.z, rtol=1e-12, atol=0)
            _assert_rel_close(state.energy(), fresh.energy())
            np.testing.assert_allclose(state.rates(), fresh.rates(), rtol=1e-12, atol=0)


def _approx_scores_from_scratch(net, state, client, scheme):
    """association_scores_approx by its definition: for each candidate b,
    the local score under a fresh state with the client moved to b; for a
    client that reaches one radio, the state's energy U on that radio."""
    wi = net.weights[client]
    log_rates = dense_reference(net).log_rates
    scores = np.full(net.n_vaps, -np.inf)
    reach = np.isfinite(log_rates[client, np.arange(net.n_vaps), state.chan])
    if reach.sum() == 1:
        scores[reach] = SystemState(net, scheme, state.assoc, state.chan).energy()
        return scores
    for b in range(net.n_vaps):
        lb = log_rates[client, b, state.chan[b]]
        if not np.isfinite(lb):
            continue
        assoc = state.assoc.copy()
        assoc[client] = b
        s = SystemState(net, scheme, assoc, state.chan)
        near = s.same_ch_adj[b]
        score = wi * (lb + math.log(wi) - math.log(s.z[b]))
        if scheme == "server":
            for n in range(net.n_vaps):
                if near[n] and n != b:
                    score += wi * (math.log(s.z[n] - s.w_ap[n]) - math.log(s.z[n]))
        else:
            for j in range(net.n_clients):
                n = assoc[j]
                if near[n] and j != client:
                    score += wi * (math.log(s.z[n] - net.weights[j]) - math.log(s.z[n]))
            zb = s.z[b] - wi
            score -= zb * math.log(s.z[b]) - (zb * math.log(zb) if zb > 0 else 0.0)
        scores[b] = score
    return scores


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_candidates_match_from_scratch_with_empty_and_isolated_radios(rng, scheme):
    # networks with an isolated cell, and networks with far clients, some
    # of which reach one radio alone on the drawn channels
    one_target = 0
    for trial in range(6):
        if trial < 3:
            net = _network_with_isolated_cell(rng)
            assert net.n_vaps >= 16
            state = random_state(net, rng, scheme)
            far = [net.vap_index["far/r0"], net.vap_index["far/r1"]]
            served = int(state.assoc[net.client_index["f0"]])
            assert state.w_ap[[v for v in far if v != served][0]] == 0.0
            assert state.z[served] == state.w_ap[served]
        else:
            net = _network_with_far_clients(rng)
            state = random_state(net, rng, scheme)
        for i in range(net.n_clients):
            targets, values = state.association_candidates(i)
            targets2, approx = state.association_scores_approx(i)
            assert np.array_equal(targets, targets2)
            one_target += targets.size == 1
            values, feasible = dense_candidates((targets, values), net.n_vaps)
            approx, _ = dense_candidates((targets2, approx), net.n_vaps)
            ref_approx = _approx_scores_from_scratch(net, state, i, scheme)
            for b in range(net.n_vaps):
                assoc = state.assoc.copy()
                assoc[i] = b
                fresh = SystemState(net, scheme, assoc, state.chan).energy()
                if feasible[b]:
                    assert rel(values[b], fresh) < 1e-12
                    assert rel(approx[b], ref_approx[b]) < 1e-12
                else:
                    assert values[b] == approx[b] == fresh == ref_approx[b] == -math.inf
    assert one_target > 0


def _assert_state_equals_fresh(state, rates=True):
    """Everything a state maintains equals a state built from scratch, bit
    for bit, and on a network that numbers its configurations so does the
    configuration index (which the state builds on the first check and
    maintains after it); when asked, rates too, and then the success
    products the state keeps for them."""
    net = state.net
    fresh = SystemState(net, state.scheme, state.assoc, state.chan)
    assert np.array_equal(state.same_ch_adj, fresh.same_ch_adj)
    assert np.array_equal(state.same_ch_adj, _same_channel_adjacency(net, state.chan))
    assert np.array_equal(state._link, fresh._link)
    assert np.array_equal(state._b_clients, fresh._b_clients)
    assert np.array_equal(state._log_b_clients, fresh._log_b_clients)
    assert np.array_equal(state.w_ap, fresh.w_ap)
    assert np.array_equal(state.z, fresh.z)
    assert np.array_equal(state._f, fresh._f)
    assert state.b_term == fresh.b_term
    assert state.energy() == fresh.energy()
    fresh.digest()  # builds fresh._pieces
    assert state._pieces in (None, fresh._pieces)
    if net._config_places is not None:
        assert state.config_index() == fresh.config_index()
    if not rates:
        return
    assert np.array_equal(state.rates(), fresh.rates())
    _assert_products_equal_every_row(state, fresh)


def _assert_products_equal_every_row(state, fresh):
    """After a refresh, the products a state keeps equal a fresh state's and
    the product routine run on every row, bit for bit, wherever they are
    read: every client under the client scheme, every radio with clients
    under the server scheme (a clientless radio's p is 0, and a channel
    move leaves its own product for the move that gives it a client)."""
    p = state.access_probabilities()
    every = np.arange(len(p))
    want = _idle_products(every, state._contention_lists(every), p)
    read = every if state.scheme == "client" else (state.w_ap > 0).nonzero()[0]
    assert np.array_equal(state._idle[read], want[read])
    assert np.array_equal(fresh._idle, want)
    assert not state._stale.any()


def _close(a, b, net):
    """a and b agree to 1e-12 of the largest term the closed forms add up.

    Those include psi(z) = z log z of a neighbourhood load, up to W log W
    for the total weight W; with weights 1e6 apart they cancel down to a U
    many orders smaller, and the rounding error left is relative to them,
    not to U."""
    total = float(net.weights.sum())
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b), total * abs(math.log(total)))


def _weighted_network(seed, n_aps, n_clients, n_channels, max_radios, spread):
    """random_network with non-dyadic weights spanning a ratio up to 10**spread."""
    rng = np.random.default_rng(seed)
    base = random_network(rng, n_aps=n_aps, n_clients=n_clients, n_channels=n_channels,
                          box=150.0, dyadic=False, max_radios=max_radios)
    weights = rng.uniform(0.4, 2.5, n_clients) * 10.0 ** rng.uniform(0.0, spread, n_clients)
    clients = [Client(c.id, c.position, float(w)) for c, w in zip(base.clients, weights)]
    return Network(list(base.channels), list(base.aps), clients), rng


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(["server", "client"]),
    n_aps=st.integers(2, 5),
    n_clients=st.integers(2, 12),
    n_channels=st.integers(1, 3),
    max_radios=st.integers(1, 3),
    spread=st.sampled_from([0.0, 3.0, 6.0]),
)
def test_moves_keep_the_state_equal_to_a_fresh_one_and_the_oracle(
    seed, scheme, n_aps, n_clients, n_channels, max_radios, spread
):
    # random multi-radio networks, non-dyadic weights up to 1e6 apart; after
    # each of a random sequence of feasible moves the maintained arrays equal
    # a fresh state's, exact candidates match fresh energies and the oracle,
    # and approx scores match a loop over their definition
    net, rng = _weighted_network(seed, n_aps, n_clients, n_channels, max_radios, spread)
    state = random_state(net, rng, scheme)
    _assert_state_equals_fresh(state)
    for _ in range(6):
        moves_client = rng.random() < 0.6
        if moves_client:
            mover = int(rng.integers(net.n_clients))
            targets, values = state.association_candidates(mover)
            targets_approx, approx = state.association_scores_approx(mover)
            assert np.array_equal(targets, targets_approx)
            values, feasible = dense_candidates((targets, values), net.n_vaps)
            approx, _ = dense_candidates((targets_approx, approx), net.n_vaps)
            want = _approx_scores_from_scratch(net, state, mover, scheme)
            assert np.array_equal(np.isfinite(want), feasible)
            assert all(_close(a, b, net) for a, b in zip(approx[feasible], want[feasible]))
        else:
            mover = int(rng.integers(net.n_vaps))
            values, feasible = dense_candidates(state.channel_candidates(mover), net.n_channels)

        def moved(k):
            assoc, chan = state.assoc.copy(), state.chan.copy()
            (assoc if moves_client else chan)[mover] = k
            return assoc, chan

        for k in range(len(values)):
            fresh = SystemState(net, scheme, *moved(k)).energy()
            if feasible[k]:
                assert _close(values[k], fresh, net)
            else:
                assert values[k] == fresh == -math.inf
        target = int(rng.choice(np.flatnonzero(feasible)))
        cfg = net.configuration(*moved(target))
        oracle = oracle_energy(net, cfg.association, cfg.channel, scheme)
        assert _close(values[target], oracle, net)
        if moves_client:
            state.apply_association(mover, target)
        else:
            state.apply_channel(mover, target)
        # rates now and then, so the neighbour lists rates() keeps outlive
        # some moves
        _assert_state_equals_fresh(state, rates=rng.random() < 0.4)


class _Uniform:
    """A stand-in Generator whose one draw is the given uniform."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _full_path_choice(state, kind, mover, policy, temperature):
    """The target the whole step arithmetic picks from a fresh copy of the
    state (no caches): every candidate evaluated, then the softmax draw at
    T > 0, or greedy's margin rule at T = 0."""
    fresh = SystemState(state.net, state.scheme, state.assoc, state.chan)
    if kind == "channel":
        targets, values = fresh.channel_candidates(mover)
        current = int(state.chan[mover])
    elif policy.kind == "dp-approx":
        targets, values = fresh.association_scores_approx(mover)
        current = int(state.assoc[mover])
    else:
        targets, values = fresh.association_candidates(mover)
        current = int(state.assoc[mover])

    def choose(u):
        if temperature:
            return int(targets[_draw(values.tolist(), temperature, u)])
        best, u_cur = values.max(), values[targets.tolist().index(current)]
        margin = 1e-12 * max(1.0, abs(u_cur))
        return current if best - u_cur <= margin \
            else int(targets[np.argmax(values >= best - margin)])

    return choose, len(targets)


_STEP_POLICIES = [("greedy", None)] + [
    (kind, temperature) for kind in ("dp-exact", "dp-approx")
    for temperature in (0.0, 1e-3, 0.4, 3.0)
]


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_determined_steps_pick_the_full_path_target(rng, scheme):
    # movers with one target and clientless radios skip the evaluation or the
    # draw; at every temperature and uniform the step must still pick the
    # target the full arithmetic picks, and leave a state equal to a fresh
    # one. The chains run on one live state, whose candidates are evaluated
    # over the arrays that the moves before have maintained.
    uniforms = (0.0, 0.2, 0.5, 0.73, 1.0 - 2.0 ** -53)
    seen = {"one target": 0, "clientless": 0, "moved clientless": 0}
    for trial in range(4):
        if trial % 2:
            net = _network_with_far_clients(rng)
        else:
            net = random_network(rng, n_aps=6, n_clients=5, n_channels=3,
                                 dyadic=False, max_radios=3)
        state = random_state(net, rng, scheme)
        m = net.n_clients + net.n_vaps
        for t in range(1, 3 * m + 1):
            kind = "association" if (t - 1) % m < net.n_clients else "channel"
            mover = (t - 1) % m - (0 if kind == "association" else net.n_clients)
            clientless = kind == "channel" and not (state.assoc == mover).any()
            seen["clientless"] += clientless
            for kind_of_policy, temperature in _STEP_POLICIES:
                schedule = Schedule("const", temperature or 0.0)
                policy = OptimizerPolicy(kind=kind_of_policy, scheme=scheme,
                                         schedule=schedule)
                choose, n_targets = _full_path_choice(state, kind, mover, policy,
                                                      temperature)
                seen["one target"] += n_targets == 1
                for u in uniforms:
                    trial_state = SystemState(net, scheme, state.assoc, state.chan)
                    move, energy = gibbs_step(trial_state, t, policy, _Uniform(u))
                    assert move.chosen == choose(u)
                    assert energy == trial_state.energy()
                    _assert_state_equals_fresh(trial_state, rates=False)
            # advance the live state by one dp-exact step; its candidates,
            # evaluated on the maintained arrays, equal a fresh state's bit
            # for bit
            fresh = SystemState(net, scheme, state.assoc, state.chan)
            methods = ("association_candidates", "association_scores_approx") \
                if kind == "association" else ("channel_candidates",)
            for name in methods:
                for got, want in zip(getattr(state, name)(mover), getattr(fresh, name)(mover)):
                    assert np.array_equal(got, want)
            policy = OptimizerPolicy(scheme=scheme, schedule=Schedule("const", 0.4))
            choose, _ = _full_path_choice(state, kind, mover, policy, 0.4)
            u = float(rng.random())
            move, energy = gibbs_step(state, t, policy, _Uniform(u))
            assert move.chosen == choose(u)
            seen["moved clientless"] += clientless and move.changed
            _assert_state_equals_fresh(state, rates=t % 5 == 0)
    assert min(seen.values()) > 0, seen


def test_config_indices_number_every_configuration_of_micro():
    # every channel map and every combination of the clients' links, of
    # which the oracle's feasible configurations are a part, gets its own
    # index, and together they fill range(size)
    net = builtin("micro").to_network()
    links = [net.link_vap[net.link_ptr[i]:net.link_ptr[i + 1]].tolist()
             for i in range(net.n_clients)]
    indices, feasible = [], 0
    for chan in itertools.product(range(net.n_channels), repeat=net.n_vaps):
        for assoc in itertools.product(*links):
            state = SystemState(net, "server", np.array(assoc), np.array(chan))
            indices.append(state.config_index())
            feasible += state.feasible
    size = math.prod(map(len, links)) * net.n_channels ** net.n_vaps
    assert sorted(indices) == list(range(size))
    assert feasible == enumerate_optimum(net).evaluated


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_large_networks_keep_no_index_or_table(rng, scheme):
    # grid16-weighted and the dual-radio grid have more than 2**64
    # configurations: no place values, no candidate table, and steps on
    # them never build an index
    for net in (builtin("grid16-weighted").to_network(), dual_radio_grid(rng, 64)):
        assert net._config_places is None and net._candidate_table is None
        state = SystemState(net, scheme, *initial_configuration(net, rng))
        policy = OptimizerPolicy(scheme=scheme)
        for t in range(1, net.n_clients + net.n_vaps + 1):
            gibbs_step(state, t, policy, rng)
        assert state._index is None
        with pytest.raises(ValueError, match="^config_index:"):
            state.config_index()


def _load_change_unstacked(w, z, shift):
    """_load_change with its four xlogy calls on the rows apart."""
    moved = z + shift
    rest = np.maximum(z - w, 0.0)
    rest_moved = np.maximum(moved - w, 0.0)
    return (xlogy(rest_moved, rest_moved) - xlogy(rest, rest)
            + xlogy(z, z) - xlogy(moved, moved))


def test_stacked_load_change_equals_the_unstacked_form(rng):
    for _ in range(2000):
        n = int(rng.integers(0, 40))
        z = rng.uniform(0.0, 10.0, n) * 10.0 ** rng.uniform(-3, 3, n)
        w = z * rng.uniform(0.0, 1.2, n)
        w[rng.random(n) < 0.2] = np.inf
        w[rng.random(n) < 0.2] = 0.0
        if rng.random() < 0.5:
            shift = float(rng.uniform(0.0, 5.0))
        else:
            shift = rng.uniform(-1.0, 1.0, n) * z
        got = _load_change(w, z, shift)
        want = _load_change_unstacked(w, z, shift)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("every", [1, 2, 5, 17])
@pytest.mark.parametrize("scheme", ["server", "client"])
def test_records_every_k_moves_equal_a_fresh_state(rng, scheme, every):
    # the products and digest pieces a state keeps for its records are
    # brought up to date only when read; read every k moves, after random
    # moves that include clientless radios changing channel and clients
    # moving onto clientless radios, they equal a fresh state's, the product
    # routine over every row and both digests, bit for bit; the last two
    # networks put 20 clients on two radios, so one radio holds 10 or more
    seen = {"clientless channel": 0, "onto clientless": 0}
    cells = [dict(n_aps=5, n_clients=7, max_radios=3)] * 8 \
        + [dict(n_aps=2, n_clients=20, max_radios=1)] * 2
    for cell in cells:
        net, _ = _weighted_network(int(rng.integers(2**32)), n_channels=3, spread=3.0, **cell)
        state = random_state(net, rng, scheme)
        for t in range(1, 41):
            clientless = (state.w_ap == 0).nonzero()[0]
            pool = clientless if clientless.size and rng.random() < 0.5 \
                else np.arange(net.n_vaps)
            target = int(rng.choice(pool))
            if rng.random() < 0.5:
                seen["onto clientless"] += not state.w_ap[target]
                state.apply_association(int(rng.integers(net.n_clients)), target)
            else:
                seen["clientless channel"] += not state.w_ap[target]
                state.apply_channel(target, int(rng.integers(net.n_channels)))
            if t % every:
                continue
            fresh = SystemState(net, scheme, state.assoc, state.chan)
            assert np.array_equal(state.rates(), fresh.rates())
            assert state.weighted_throughput() == fresh.weighted_throughput()
            _assert_products_equal_every_row(state, fresh)
            assert state.digest() == fresh.digest() \
                == state.to_configuration().digest()
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_a_record_gathers_only_the_neighbourhood_of_a_move(scheme):
    # V = 512: after one association move a record reads neighbour lists
    # only within two hops of the two radios, and after a clientless radio's
    # channel move it refreshes no product at all
    rng = np.random.default_rng(7)
    net = dual_radio_grid(rng, 512)
    state = SystemState(net, scheme, *initial_configuration(net, rng))
    gathered = []
    neighbours = state._neighbours

    def counting(radios):
        gathered.append(np.array(radios))
        return neighbours(radios)

    state._neighbours = counting
    state.weighted_throughput()
    # the first record reads the list of every radio (server) or of every
    # radio with clients (client scheme)
    first = np.unique(np.concatenate(gathered))
    assert first.size == (net.n_vaps if scheme == "server" else np.unique(state.assoc).size)
    moved = 0
    for client in rng.permutation(net.n_clients)[:20]:
        targets, _ = state.association_candidates(int(client))
        a = int(state.assoc[client])
        others = targets[targets != a]
        if not others.size:
            continue
        b = int(others[0])
        state.apply_association(int(client), b)
        gathered.clear()
        state.weighted_throughput()
        adj = state.same_ch_adj
        two_hops = adj[adj[a] | adj[b]].any(axis=0)
        rows = np.concatenate(gathered)
        assert two_hops[rows].all()
        assert 0 < len(rows) < net.n_vaps
        moved += 1
    assert moved >= 10
    _assert_state_equals_fresh(state)

    clientless = (state.w_ap == 0).nonzero()[0]
    assert clientless.size
    for v in clientless[:10]:
        kept = state._idle.copy()
        state.apply_channel(int(v), (int(state.chan[v]) + 1) % net.n_channels)
        gathered.clear()
        state.weighted_throughput()
        assert not gathered
        assert np.array_equal(state._idle, kept)
        assert state.digest() == state.to_configuration().digest()
    _assert_state_equals_fresh(state)


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_state_rates_equal_throughput_of_optimal_allocation(rng, scheme):
    for _ in range(20):
        net = random_network(rng, n_aps=4, n_clients=8, n_channels=2,
                             dyadic=False, max_radios=2)
        state = random_state(net, rng, scheme)
        cfg = state.to_configuration()
        alloc = SystemState.from_configuration(net, cfg, scheme).allocation()
        rep = throughput(net, cfg, alloc)
        expected = np.array([rep.rates[c] for c in net.client_ids])
        np.testing.assert_allclose(state.rates(), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_slot_rates_equal_a_loop_over_the_set_entries(rng, scheme):
    # dense interference (a small box, one channel or two) gives long
    # products; p is non-dyadic, so any change of order shows in the bits.
    # The last four networks put 24 clients on two radios, so one radio
    # holds 12 or more.
    for trial in range(24):
        crowded = trial >= 20
        net = random_network(rng, n_aps=2 if crowded else 10, n_clients=24,
                             n_channels=1 + trial % 2, box=120.0, dyadic=False,
                             max_radios=1 if crowded else 2)
        state = random_state(net, rng, scheme)
        rates = dense_reference(net).rates
        n = net.n_vaps if scheme == "server" else net.n_clients
        for p in (state.access_probabilities(), rng.uniform(0.0, 1.0, n)):
            assoc = state.assoc
            rates_now = rates[np.arange(net.n_clients), assoc, state.chan[assoc]]
            phi = rng.uniform(0.1, 1.0, net.n_clients) if scheme == "server" else None
            every = np.arange(n)
            idle = _idle_products(every, state._contention_lists(every), p)
            got = _slot_rates(scheme, idle, assoc, rates_now, p, phi)

            # row k marks the transmitters other than k in k's contention set
            adj = state.same_ch_adj if scheme == "server" else \
                state.same_ch_adj[np.ix_(assoc, assoc)]
            others = adj & ~np.eye(n, dtype=bool)
            idle = []
            for k in range(n):
                prod = 1.0
                for m in np.flatnonzero(others[k]):
                    prod *= 1.0 - p[m]
                idle.append(prod)
            idle = np.array(idle)
            if scheme == "server":
                want = rates_now * phi * (p * idle)[assoc]
            else:
                want = rates_now * p * idle
            assert (got == want).all()


def _heavy_load_network(n_per_ap=12, mover_weight=0.1):
    # three mutually interfering APs, each stacked with unit-weight clients;
    # neighborhood loads are >= 100x the mover's weight
    channels = [Channel("b", 2400.0, 22.0), Channel("g", 2450.0, 22.0)]
    aps = [AccessPoint(f"ap{k}", (k * 100.0, 0.0)) for k in range(3)]
    clients = []
    for k in range(3):
        for j in range(n_per_ap):
            clients.append(Client(f"c{k}_{j}", (k * 100.0 + 5.0 + j, 0.0), 1.0))
    clients.append(Client("mover", (100.0, 5.0), mover_weight))
    return Network(channels, aps, clients)


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_approx_scores_track_exact_softmax_under_heavy_load(rng, scheme):
    net = _heavy_load_network()
    assoc = np.array(
        [k for k in range(3) for _ in range(12)] + [1], dtype=np.int64
    )
    for chan_tuple in [(0, 0, 0), (0, 1, 0), (0, 0, 1)]:
        state = SystemState(net, scheme, assoc, np.array(chan_tuple, dtype=np.int64))
        i = net.client_index["mover"]
        targets, exact = state.association_candidates(i)
        targets2, approx = state.association_scores_approx(i)
        assert np.array_equal(targets, targets2)
        p_exact = softmax_probabilities(exact, 1.0)
        p_approx = softmax_probabilities(approx, 1.0)
        assert np.abs(p_exact - p_approx).max() < 0.02


def test_monte_carlo_agrees_with_closed_form(rng):
    net = random_network(rng, n_aps=3, n_clients=5, n_channels=2, dyadic=False)
    state = random_state(net, rng, "server")
    cfg = state.to_configuration()
    alloc = SystemState.from_configuration(net, cfg, "server").allocation()
    rep = throughput(net, cfg, alloc)
    slots = 400_000
    emp = slot_monte_carlo(net, cfg, alloc, slots, seed=7)
    assoc = cfg.association
    rates = dense_reference(net).rates
    for cid in net.client_ids:
        i = net.client_index[cid]
        b = rates[i, net.vap_index[assoc[cid]],
                  net.channel_index[cfg.channel[assoc[cid]]]]
        q = rep.rates[cid] / b
        sigma = b * math.sqrt(q * (1 - q) / slots)
        assert abs(emp[cid] - rep.rates[cid]) <= 3 * sigma + 1e-12


def test_monte_carlo_client_scheme(rng):
    net = random_network(rng, n_aps=2, n_clients=4, n_channels=2, dyadic=False)
    state = random_state(net, rng, "client")
    cfg = state.to_configuration()
    alloc = SystemState.from_configuration(net, cfg, "client").allocation()
    rep = throughput(net, cfg, alloc)
    slots = 400_000
    emp = slot_monte_carlo(net, cfg, alloc, slots, seed=11)
    rates = dense_reference(net).rates
    for cid in net.client_ids:
        i = net.client_index[cid]
        b = rates[i, net.vap_index[cfg.association[cid]],
                  net.channel_index[cfg.channel[cfg.association[cid]]]]
        q = rep.rates[cid] / b
        sigma = b * math.sqrt(q * (1 - q) / slots)
        assert abs(emp[cid] - rep.rates[cid]) <= 3 * sigma + 1e-12


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_monte_carlo_equals_a_loop_over_the_slots(rng, scheme):
    # the same uniforms read slot by slot: a transmitter wins a slot when no
    # other member of its same-channel interference set sends in it; under
    # the server scheme one multinomial draw per radio, in radio order,
    # splits its wins by the schedule
    for trial in range(6):
        net = random_network(rng, n_aps=4, n_clients=6, n_channels=1 + trial % 2,
                             box=150.0, dyadic=False, max_radios=2)
        state = random_state(net, rng, scheme)
        cfg = state.to_configuration()
        alloc = state.allocation()
        if trial % 2:  # any access probabilities, clientless radios included
            alloc.access = {k: float(rng.uniform()) for k in alloc.access}
        assoc, chan = state.assoc, state.chan
        ref = dense_reference(net)
        radio = np.arange(net.n_vaps) if scheme == "server" else assoc
        keys = net.vap_ids if scheme == "server" else net.client_ids
        slots = 700
        draws = np.random.default_rng(trial)
        tx = draws.random((slots, len(keys))) < np.array([alloc.access[k] for k in keys])
        wins = np.zeros(len(keys), dtype=np.int64)
        for sent in tx:
            for k in np.flatnonzero(sent):
                a = radio[k]
                wins[k] += not any(
                    m != k and chan[radio[m]] == chan[a] and ref.adjacency[a, radio[m], chan[a]]
                    for m in np.flatnonzero(sent)
                )
        rates_now = ref.rates[np.arange(net.n_clients), assoc, chan[assoc]]
        if scheme == "server":
            counts = np.zeros(net.n_clients, dtype=np.int64)
            for v in range(net.n_vaps):
                members = np.flatnonzero(assoc == v)
                if members.size and wins[v]:
                    share = np.array([alloc.schedule[net.client_ids[i]] for i in members])
                    counts[members] += draws.multinomial(wins[v], share / share.sum())
            want = rates_now * counts / slots
        else:
            want = rates_now * wins / slots
        got = slot_monte_carlo(net, cfg, alloc, slots, seed=trial)
        assert [got[c] for c in net.client_ids] == want.tolist()


@pytest.mark.parametrize("field, kwargs", [
    ("slots", {"slots": 0}),
    ("slots", {"slots": -5}),
    ("slots", {"slots": 2.5}),
    ("slots", {"slots": True}),
    ("seed", {"slots": 10, "seed": -1}),
], ids=["slots=0", "slots=-5", "slots=2.5", "slots=True", "seed=-1"])
def test_monte_carlo_rejects_bad_slots_and_seed(field, kwargs):
    net = _single_ap_two_clients()
    cfg = Configuration({"c1": "a/r0", "c2": "a/r0"}, {"a/r0": "b"})
    alloc = SystemState.from_configuration(net, cfg).allocation()
    with pytest.raises(ValueError, match=f"^{field}: "):
        slot_monte_carlo(net, cfg, alloc, **kwargs)


@pytest.mark.parametrize("evaluate, args", [(throughput, ()), (slot_monte_carlo, (10,))],
                         ids=["throughput", "slot_monte_carlo"])
@pytest.mark.parametrize("scheme, field, missing", [
    ("server", "access", "ap0/r0"), ("server", "schedule", "c01"), ("client", "access", "c01"),
])
def test_a_missing_allocation_id_is_named(evaluate, args, scheme, field, missing):
    # an access or schedule map that lacks an id of the network is a
    # ValueError naming the map and the id, not a bare KeyError
    net = builtin("micro").to_network()
    state = SystemState(net, scheme, *initial_configuration(net, np.random.default_rng(0)))
    cfg, alloc = state.to_configuration(), state.allocation()
    del getattr(alloc, field)[missing]
    with pytest.raises(ValueError, match=f"^{field}: no entry for {missing!r}$"):
        evaluate(net, cfg, alloc, *args)


def test_allocation_validation():
    net = _single_ap_two_clients()
    cfg = Configuration({"c1": "a/r0", "c2": "a/r0"}, {"a/r0": "b"})
    with pytest.raises(ValueError):
        throughput(net, cfg, Allocation("server", {"c1": 0.7, "c2": 0.7}, {"a/r0": 1.0}))
    with pytest.raises(ValueError):
        throughput(net, cfg, Allocation("server", {"c1": 0.5, "c2": 0.5}, {"a/r0": 1.5}))
    with pytest.raises(ValueError):
        throughput(net, cfg, Allocation("server", None, {"a/r0": 1.0}))
