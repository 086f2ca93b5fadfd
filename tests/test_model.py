"""Domain model: virtual AP expansion, interference adjacency, rate tables,
and the per-radio loads SystemState derives from them."""
import itertools
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairband import (
    BUILTIN_NAMES,
    AccessPoint,
    Channel,
    Client,
    Configuration,
    Network,
    OptimizerPolicy,
    ScenarioError,
    SystemState,
)
from fairband import builtin, channel_profile, initial_configuration, model, run
from conftest import (
    CHANNEL_PALETTE, dense_reference, dual_radio_grid, random_network, random_state,
)


def _dense_adjacency(net):
    """The network's pair lists scattered into a (V, V, C) bool table."""
    adj = np.zeros((net.n_vaps, net.n_vaps, net.n_channels), dtype=bool)
    adj[net.pair_radio, net.pair_vap] = net.adjacency
    return adj


def _interfere(net, a, b, channel_id):
    return bool(_dense_adjacency(net)[net.vap_index[a], net.vap_index[b],
                                      net.channel_index[channel_id]])


def test_virtual_ap_expansion_order_and_ids():
    aps = [AccessPoint("a", (0, 0), radio_count=2), AccessPoint("b", (1, 1))]
    net = Network([Channel("x", 2400.0, 22.0)], aps, [Client("c", (10, 0))])
    assert net.vap_ids == ("a/r0", "a/r1", "b/r0")
    assert net.vap_positions.tolist() == [[0, 0], [0, 0], [1, 1]]


def test_co_located_radios_always_interfere():
    net = Network(
        [Channel("x", 2400.0, 22.0)],
        [AccessPoint("a", (0, 0), radio_count=2)],
        [Client("c", (10, 0))],
    )
    assert _interfere(net, "a/r0", "a/r1", "x")


def test_interference_depends_on_channel_range():
    # 200 m apart: inside the 2.4 GHz interference range (369 m) but outside
    # the 16 GHz one (124.8 m)
    net = Network(
        [Channel("far", 2400.0, 22.0), Channel("near", 16000.0, 50.0)],
        [AccessPoint("a", (0, 0)), AccessPoint("b", (200, 0))],
        [Client("c", (10, 0))],
    )
    assert _interfere(net, "a/r0", "b/r0", "far")
    assert not _interfere(net, "a/r0", "b/r0", "near")


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_interference_graph_symmetric_with_true_diagonal(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_aps=int(rng.integers(2, 5)), n_clients=2,
                         n_channels=int(rng.integers(1, 4)))
    adj = _dense_adjacency(net)
    assert (adj == adj.transpose(1, 0, 2)).all()
    assert adj[np.arange(net.n_vaps), np.arange(net.n_vaps), :].all()


def test_rate_table_matches_profiles(rng):
    net = random_network(rng, n_aps=3, n_clients=5, n_channels=3)
    for i, cl in enumerate(net.clients):
        for v, pos in enumerate(net.vap_positions):
            for c, prof in enumerate(net.profiles):
                d = np.hypot(cl.position[0] - pos[0], cl.position[1] - pos[1])
                link = net.link_index(i, v)
                rate = net.rates[link, c] if link >= 0 else 0.0
                assert rate == prof.rate_at(d)


_coord = st.floats(-400.0, 400.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_link_and_pair_lists_equal_a_brute_force_loop(data):
    channels = [CHANNEL_PALETTE[k] for k in data.draw(
        st.lists(st.sampled_from(range(len(CHANNEL_PALETTE))), min_size=1, max_size=3,
                 unique=True))]
    profiles = [channel_profile(c) for c in channels]
    # anchor AP at x = 0: a point (R, y0) is exactly R from it, so clients
    # sit on tier ranges and on the outermost range, and an AP sits on an
    # interference range; co-located radios come from multi-radio APs and
    # from a second AP at the anchor
    y0 = data.draw(_coord)
    radios = st.integers(1, 3)
    aps = [AccessPoint("anchor", (0.0, y0), data.draw(radios))]
    aps += [AccessPoint(f"a{k}", (data.draw(_coord), data.draw(_coord)), data.draw(radios))
            for k in range(data.draw(st.integers(0, 3)))]
    if data.draw(st.booleans()):
        aps.append(AccessPoint("twin", (0.0, y0), data.draw(radios)))
    on_range = [p.interference_range_m for p in profiles]
    if data.draw(st.booleans()):
        aps.append(AccessPoint("edge", (data.draw(st.sampled_from(on_range)), y0)))
    tier_ranges = [t.range_m for p in profiles for t in p.tiers]
    clients = [Client(f"e{k}", (r, y0)) for k, r in enumerate(
        data.draw(st.lists(st.sampled_from(tier_ranges), max_size=4)))]
    clients += [Client(f"c{k}", (data.draw(_coord), data.draw(_coord)))
                for k in range(data.draw(st.integers(0 if clients else 1, 4)))]
    # small blocks send the pair search through its windowed, multi-block path
    with mock.patch.object(model, "_PAIR_BLOCK", data.draw(st.sampled_from([1, 2, 3, 64]))):
        net = Network(channels, aps, clients)

    ref = dense_reference(net)
    for k, cl in enumerate(clients):
        if cl.id.startswith("e"):
            assert ref.distances[k, 0] == cl.position[0]  # exactly on the range
    # links: every (client, radio) pair within the largest outermost range
    within = ref.distances <= max(p.max_range_m for p in net.profiles)
    clients_of, radios_of = within.nonzero()
    assert net.link_client.tolist() == clients_of.tolist()
    assert net.link_vap.tolist() == radios_of.tolist()
    assert net.link_ptr.tolist() == [0] + np.cumsum(within.sum(axis=1)).tolist()
    assert (net.distances == ref.distances[within]).all()
    assert (net.rates == ref.rates[within]).all()
    assert (net.log_rates == ref.log_rates[within]).all()
    assert (ref.rates[~within] == 0).all()
    expected = np.full(within.shape, -1)
    expected[within] = np.arange(within.sum())
    everyone, every_radio = np.indices(within.shape)
    assert (net.link_index(everyone, every_radio) == expected).all()
    # the dict of the deferred association moves finds the same positions
    keys = (everyone * net.n_vaps + every_radio).ravel().tolist()
    assert [net._link_at.get(key, -1) for key in keys] == expected.ravel().tolist()
    # pairs: every radio pair within the largest interference range, itself included
    near = ref.adjacency.any(axis=2)  # within the largest interference range
    assert np.diag(near).all()
    first, second = near.nonzero()
    assert net.pair_radio.tolist() == first.tolist()
    assert net.pair_vap.tolist() == second.tolist()
    assert net.pair_ptr.tolist() == [0] + np.cumsum(near.sum(axis=1)).tolist()
    assert (net.adjacency == ref.adjacency[near]).all()
    assert not ref.adjacency[~near].any()


def test_compiled_grid_holds_no_client_by_radio_table():
    rng = np.random.default_rng(16)
    for n_clients in (512, 1024):
        net = dual_radio_grid(rng, n_clients)
        table = net.n_clients * net.n_vaps  # 262 144 or 524 288 entries
        arrays = {k: v for k, v in vars(net).items() if isinstance(v, np.ndarray)}
        assert {"rates", "log_rates", "adjacency", "distances"} <= arrays.keys()
        for name, arr in arrays.items():
            assert arr.size < table, name
        if n_clients > net.n_vaps:
            # the state's V x V same_ch_adj is then smaller than a client x
            # radio table, so every state array must be too
            state = SystemState(net, "server", *initial_configuration(net, rng))
            for name, arr in vars(state).items():
                if isinstance(arr, np.ndarray):
                    assert arr.size < table, name


def test_network_rejects_duplicates_and_empties():
    ch = [Channel("x", 2400.0, 22.0)]
    ap = [AccessPoint("a", (0, 0))]
    cl = [Client("c", (1, 0))]
    with pytest.raises(ScenarioError, match=r"^channels: at least one channel"):
        Network([], ap, cl)
    with pytest.raises(ScenarioError, match=r"^aps: at least one access point"):
        Network(ch, [], cl)
    with pytest.raises(ScenarioError, match=r"^clients: at least one client"):
        Network(ch, ap, [])
    with pytest.raises(ScenarioError, match=r"^channels\[1\]\.id: duplicate id 'x'$"):
        Network(ch + ch, ap, cl)
    with pytest.raises(ScenarioError, match=r"^aps\[1\]\.id: duplicate id 'a'$"):
        Network(ch, ap + ap, cl)
    with pytest.raises(ScenarioError, match=r"^clients\[1\]\.id: duplicate id 'c'$"):
        Network(ch, ap, cl + cl)
    with pytest.raises(ValueError):
        Client("c", (0, 0), weight=0.0)
    with pytest.raises(ValueError):
        AccessPoint("a", (0, 0), radio_count=0)


def test_network_bounds_the_total_weight_at_finite_energies():
    # two clients of weight w share one radio on a channel of top rate
    # r_max = 11 Mb/s, so W = 2 w exactly. Found by bisection over the
    # floats, the largest w a Network accepts gives W log(W r_max) finite,
    # and one ulp more overflows it; at that w and one ulp below, runs under
    # both schemes keep every energy finite (RuntimeWarnings are errors here)
    def network(w):
        return Network([Channel("x", 2400.0, 22.0)], [AccessPoint("a", (0, 0))],
                       [Client("c1", (1, 0), w), Client("c2", (2, 0), w)])

    def accepted(w):
        try:
            network(w)
        except ScenarioError as exc:
            assert str(exc).startswith("clients.weight: the weights total ")
            return False
        return True

    lo, hi = 1.0, 1e308  # as bit patterns: accepted and refused
    lo, hi = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (lo, hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepted(struct.unpack("<d", struct.pack("<q", mid))[0]) \
            else (lo, mid)
    w = struct.unpack("<d", struct.pack("<q", lo))[0]
    r_max = float(network(w).rates.max())
    assert r_max == 11.0
    bound, over = 2 * w, 2 * math.nextafter(w, math.inf)
    assert math.isfinite(bound * math.log(bound * r_max))
    assert over * math.log(over * r_max) == math.inf
    assert not accepted(math.nextafter(w, math.inf))
    for weight in (w, math.nextafter(w, 0.0)):
        net = network(weight)
        for scheme in ("server", "client"):
            res = run(net, OptimizerPolicy(scheme=scheme, iterations=20, seed=0))
            assert all(math.isfinite(p.energy) for p in res.trajectory)
            assert math.isfinite(res.final_weighted_throughput)


def test_network_refuses_weights_within_the_rounding_of_a_load_sum(rng):
    # a client of weight 2^60 and two of weight w on two APs 60 m apart on
    # one channel: I + V + 3 = 8 and W = 2^60 + 2 w rounds to 2^60 + 4096
    # for every w near 4096 / 2, so ulp(W) = 256 and the bound is exactly
    # 2048. At the bound and one ulp below the network is refused; one ulp
    # above it is accepted, and runs of every policy under both schemes keep
    # every energy finite (RuntimeWarnings are errors here)
    def network(w):
        return Network([Channel("x", 2400.0, 22.0)],
                       [AccessPoint("a", (0, 0)), AccessPoint("b", (60, 0))],
                       [Client("c1", (30, 0), 2.0**60), Client("c2", (20, 0), w),
                        Client("c3", (40, 0), w)])

    for w in (2048.0, math.nextafter(2048.0, 0.0)):
        with pytest.raises(ScenarioError, match=r"^clients\.weight: the smallest weight "):
            network(w)
    net = network(math.nextafter(2048.0, math.inf))
    for kind, scheme in itertools.product(("dp-exact", "dp-approx", "greedy"),
                                          ("server", "client")):
        res = run(net, OptimizerPolicy(kind=kind, scheme=scheme, iterations=200, seed=1))
        assert all(math.isfinite(p.energy) for p in res.trajectory)
    # the built-ins, and random networks with weights up to 1e6 apart, compile
    for name in BUILTIN_NAMES:
        builtin(name).to_network()
    for _ in range(20):
        base = random_network(rng, n_aps=4, n_clients=12, n_channels=2, dyadic=False)
        weights = rng.uniform(0.4, 2.5, 12) * 10.0 ** rng.uniform(0.0, 6.0, 12)
        Network(list(base.channels), list(base.aps),
                [Client(c.id, c.position, float(w)) for c, w in zip(base.clients, weights)])


def test_association_candidates_mark_reachable_radios():
    net = Network(
        [Channel("b", 2400.0, 22.0), Channel("h", 16000.0, 50.0)],
        [AccessPoint("a", (0, 0)), AccessPoint("b", (150, 0))],
        [Client("c1", (40, 0)), Client("c2", (145, 0))],
    )
    # c1 at 40 m: reaches a on 2.4 GHz; b is 110 m away, beyond 16 GHz range
    state = SystemState(net, "server", np.array([0, 1]), np.array([0, 1]))
    assert state.association_candidates(0)[0].tolist() == [0]
    state = SystemState(net, "server", np.array([0, 1]), np.array([0, 0]))
    assert state.association_candidates(1)[0].tolist() == [0, 1]


def test_state_flags_dead_links():
    net = Network(
        [Channel("h", 16000.0, 50.0)],
        [AccessPoint("a", (0, 0))],
        [Client("c1", (40, 0)), Client("c2", (100, 0))],
    )
    cfg = Configuration({"c1": "a/r0", "c2": "a/r0"}, {"a/r0": "h"})
    assert not SystemState.from_configuration(net, cfg).feasible


def test_network_without_links_evaluates_as_infeasible():
    # the client is out of every radio's range, so there are no links at all
    net = Network(
        [Channel("h", 16000.0, 50.0)],
        [AccessPoint("a", (0, 0))],
        [Client("c1", (400, 0))],
    )
    assert len(net.link_vap) == 0 and net.link_index(0, 0) == -1
    state = SystemState(net, "server", np.array([0]), np.array([0]))
    assert not state.feasible and state.rates().tolist() == [0.0]
    with pytest.raises(ValueError, match="^state:"):
        state.channel_candidates(0)


def _brute_force_aggregates(net, config):
    w = {v: 0.0 for v in net.vap_ids}
    for cid, vid in config.association.items():
        w[vid] += net.clients[net.client_index[cid]].weight
    z = {}
    for v in net.vap_ids:
        z[v] = sum(
            w[m]
            for m in net.vap_ids
            if config.channel[m] == config.channel[v]
            and _interfere(net, v, m, config.channel[v])
        )
    return w, z


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_weight_aggregates_match_brute_force_bit_exact(seed):
    # dyadic weights make both summation orders exact, so equality is ==
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_aps=3, n_clients=7, n_channels=2, dyadic=True,
                         max_radios=2)
    state = random_state(net, rng)
    w, z = _brute_force_aggregates(net, state.to_configuration())
    for n, v in enumerate(net.vap_ids):
        assert state.w_ap[n] == w[v]
        assert state.z[n] == z[v]


def test_weight_aggregates_incremental_updates(rng):
    net = random_network(rng, n_aps=3, n_clients=8, n_channels=2, dyadic=True)
    state = random_state(net, rng)

    state.apply_association(0, net.n_vaps - 1)
    fresh = SystemState(net, state.scheme, state.assoc, state.chan)
    assert (state.w_ap == fresh.w_ap).all() and (state.z == fresh.z).all()

    state.apply_channel(0, net.n_channels - 1)
    fresh = SystemState(net, state.scheme, state.assoc, state.chan)
    assert (state.w_ap == fresh.w_ap).all() and (state.z == fresh.z).all()


def test_leave_out_queries(rng):
    net = random_network(rng, n_aps=2, n_clients=4, n_channels=1, dyadic=True)
    for scheme in ("server", "client"):
        state = random_state(net, rng, scheme)
        home = int(state.assoc[0])
        wi = net.clients[0].weight
        w_minus = state.w_ap.copy()
        w_minus[home] = state.w_ap[home] - wi
        # the client leaves every neighborhood its radio belongs to, its own
        # included
        z_minus = state.z - wi * state.same_ch_adj[home]
        assert z_minus[home] == state.z[home] - wi
        # the frame's list entries (client scheme: sorted), repeats included,
        # read the same loads
        frame = state._reach(*state._links(0))
        entries = frame[3] if scheme == "server" else frame[5]
        assert home in entries
        w_some, z_some = state._left_out(0, frame)
        assert (z_some == z_minus[entries]).all()
        if scheme == "server":
            assert (w_some == w_minus[entries]).all()
        else:
            assert w_some is None


def test_configuration_digest_distinguishes():
    c1 = Configuration({"c": "a"}, {"a": "x"})
    c2 = Configuration({"c": "b"}, {"a": "x"})
    assert c1.digest() != c2.digest()
    assert c1.digest() == Configuration({"c": "a"}, {"a": "x"}).digest()
    assert len(c1.digest()) == 16


def test_network_digest_equals_configuration_digest():
    # ids whose sorted order is not index order (c10 < c2, ap10 < ap9) and
    # that JSON must escape: a quote, a backslash, non-ASCII
    channels = [Channel('ch"q', 2400.0, 22.0), Channel("ch\\b", 600.0, 6.0),
                Channel("ch-é", 4000.0, 44.0)]
    ap_ids = ["ap9", "ap10", 'ap"1', "ap\\2", "apé", "ap雪"]
    aps = [AccessPoint(a, (30.0 * k, 0.0), radio_count=1 + k % 2)
           for k, a in enumerate(ap_ids)]
    client_ids = ["c2", "c10", "c1", 'c"x', "c\\y", "cé", "c雪", "C0"]
    clients = [Client(c, (10.0 * k, 5.0)) for k, c in enumerate(client_ids)]
    net = Network(channels, aps, clients)
    assert list(net.client_ids) != sorted(net.client_ids)
    rng = np.random.default_rng(3)
    for _ in range(200):
        assoc = rng.integers(0, net.n_vaps, size=net.n_clients)
        chan = rng.integers(0, net.n_channels, size=net.n_vaps)
        state = SystemState(net, "server", assoc, chan)
        assert state.digest() == net.configuration(assoc, chan).digest()
