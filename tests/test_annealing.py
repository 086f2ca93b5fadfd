"""Schedules, softmax moves, Gibbs steps (greedy at T = 0), full runs."""
import math

import numpy as np
import pytest
import sympy

from fairband import (
    AccessPoint,
    Channel,
    Client,
    Network,
    OptimizerPolicy,
    ScenarioError,
    Schedule,
    SystemState,
    builtin,
    initial_configuration,
    oracle_energy,
    run,
    softmax_probabilities,
)
from fairband.annealing import MAX_REDRAWS, _equal_cdf, _sample_index, gibbs_step
from conftest import dense_candidates, dense_reference, random_network, random_state, rel


# -- temperature schedules ----------------------------------------------------


def test_schedule_values():
    s = Schedule(kind="invsqrtlog", t0=2.0)
    assert s.temperature(1) == pytest.approx(2.0 / math.sqrt(math.log(3)))
    assert Schedule(kind="invlog", t0=1.0).temperature(8) == pytest.approx(1 / math.log(10))
    assert Schedule(kind="geometric", t0=1.0, ratio=0.5).temperature(3) == 0.25
    assert Schedule(kind="const", t0=0.7).temperature(999) == 0.7


def test_schedule_parse():
    assert Schedule.parse("invsqrtlog", t0=3.0) == Schedule(kind="invsqrtlog", t0=3.0)
    assert Schedule.parse("geometric:0.99") == Schedule(kind="geometric", ratio=0.99)
    assert Schedule.parse("const:0") == Schedule(kind="const", t0=0.0)
    with pytest.raises(ValueError):
        Schedule.parse("warp:9")
    with pytest.raises(ValueError):
        Schedule(kind="invsqrtlog", t0=0.0)
    with pytest.raises(ValueError):
        Schedule(kind="const", t0=-1.0)


def test_convergence_conditions_symbolically():
    # the sampler provably concentrates on optima when T -> 0 while
    # T log t -> infinity; check both limits for each schedule kind
    t = sympy.symbols("t", positive=True)
    forms = {
        "invsqrtlog": 1 / sympy.sqrt(sympy.log(t + 2)),
        "invlog": 1 / sympy.log(t + 2),
        "geometric": sympy.Rational(99, 100) ** t,
        "const": sympy.Integer(1),
    }
    meets_both = set()
    for kind, expr in forms.items():
        goes_to_zero = sympy.limit(expr, t, sympy.oo) == 0
        heats_forever = sympy.limit(expr * sympy.log(t), t, sympy.oo) == sympy.oo
        if goes_to_zero and heats_forever:
            meets_both.add(kind)
    assert meets_both == {"invsqrtlog"}


# -- softmax -------------------------------------------------------------------


def test_softmax_shift_invariance_and_stability():
    values = np.array([1.0, 2.0, 3.0])
    base = softmax_probabilities(values, 1.0)
    shifted = softmax_probabilities(values + 1e6, 1.0)
    assert np.allclose(base, shifted, atol=1e-12)
    assert base.sum() == pytest.approx(1.0)
    assert base[2] > base[1] > base[0]


def test_softmax_infeasible_is_exactly_zero():
    probs = softmax_probabilities(np.array([5.0, -np.inf, 4.0]), 0.5)
    assert probs[1] == 0.0
    assert probs.sum() == pytest.approx(1.0)


def test_softmax_all_infeasible():
    probs = softmax_probabilities(np.array([-np.inf, -np.inf]), 1.0)
    assert (probs == 0).all()
    assert softmax_probabilities(np.array([]), 1.0).size == 0


def test_softmax_temperature_sharpens():
    values = np.array([0.0, 1.0])
    hot = softmax_probabilities(values, 10.0)
    cold = softmax_probabilities(values, 0.1)
    assert cold[1] > hot[1]
    assert cold[1] == pytest.approx(1 / (1 + math.exp(-10)))
    # the smallest positive float, at which the gap over T overflows
    assert softmax_probabilities(values, 5e-324).tolist() == [0.0, 1.0]


def test_inverse_cdf_draw_matches_generator_choice():
    # softmax outputs over weights from 1e-3 to 1e3, some entries -inf; the
    # draw must pick the index Generator.choice picks and leave both
    # generators in the same state
    meta = np.random.default_rng(7)
    for _ in range(3000):
        n = int(meta.integers(1, 40))
        values = np.log(10.0 ** meta.uniform(-3, 3, n))
        values[meta.random(n) < 0.3] = -np.inf
        values[int(meta.integers(n))] = 0.0  # at least one feasible entry
        temperature = float(meta.uniform(0.2, 5))
        probs = softmax_probabilities(values, temperature)
        seed = int(meta.integers(2**32))
        ours, numpy_ = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _sample_index(probs, ours.random()) == \
            int(numpy_.choice(n, p=probs / probs.sum()))
        assert ours.random() == numpy_.random()


def test_equal_cdf_is_the_draw_arithmetic_on_equal_values():
    # a clientless radio draws its channel from the cached cdf; it must be
    # the cdf Generator.choice builds from the softmax of any n equal finite
    # values at any T > 0, bit for bit
    for n in range(1, 13):
        for temperature in (5e-324, 1e-3, 0.37, 1.0, 50.0):
            for u in (-1e6, 0.0, 7.48):
                probs = softmax_probabilities(np.full(n, u), temperature)
                cdf = (probs / probs.sum()).cumsum()
                cdf /= cdf[-1]
                assert _equal_cdf(n).tobytes() == cdf.tobytes()


def _masked_softmax(values, temperature, feasible):
    """The softmax over a whole length-V (or C) candidate vector, 0 off the
    feasible entries, that steps drew from before candidates were compact."""
    masked = np.where(feasible, values, -np.inf)
    ex = np.exp(np.maximum(masked - masked.max(), temperature * -1000.0) / temperature)
    return ex / ex.sum()


def test_compact_draw_matches_choice_over_the_masked_vector():
    # a step draws an index into its targets from the softmax of their values
    # alone; with the same uniform it must pick the target Generator.choice
    # picks over the whole masked vector, although the two normalising sums
    # group their terms differently
    meta = np.random.default_rng(11)
    for _ in range(2000):
        n = int(meta.integers(8, 601))
        k = int(meta.integers(1, min(n, 19) + 1))
        targets = np.sort(meta.choice(n, size=k, replace=False))
        values = np.full(n, -np.inf)
        values[targets] = -40.0 + meta.normal(size=len(targets)) * 10.0 ** meta.uniform(-3, 3)
        temperature = float(10.0 ** meta.uniform(-2, 2))
        feasible = np.zeros(n, dtype=bool)
        feasible[targets] = True
        seed = int(meta.integers(2**32))
        ours, numpy_ = np.random.default_rng(seed), np.random.default_rng(seed)
        probs = softmax_probabilities(values[targets], temperature)
        assert targets[_sample_index(probs, ours.random())] == \
            numpy_.choice(n, p=_masked_softmax(values, temperature, feasible))


# -- single-move deltas ---------------------------------------------------------


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_exact_deltas_match_oracle_differences(rng, scheme):
    for _ in range(10):
        net = random_network(rng, n_aps=3, n_clients=5, n_channels=2, dyadic=False)
        state = random_state(net, rng, scheme)
        cfg = state.to_configuration()
        u0 = oracle_energy(net, cfg.association, cfg.channel, scheme)

        i = int(rng.integers(net.n_clients))
        b = int(rng.integers(net.n_vaps))
        values, _ = dense_candidates(state.association_candidates(i), net.n_vaps)
        d = values[b] - values[state.assoc[i]]
        moved = {**cfg.association, net.client_ids[i]: net.vap_ids[b]}
        u1 = oracle_energy(net, moved, cfg.channel, scheme)
        if math.isfinite(d):
            assert rel(d, u1 - u0) < 1e-9
        else:
            assert u1 == -math.inf

        n = int(rng.integers(net.n_vaps))
        c = int(rng.integers(net.n_channels))
        values, _ = dense_candidates(state.channel_candidates(n), net.n_channels)
        d = values[c] - values[state.chan[n]]
        moved_ch = {**cfg.channel, net.vap_ids[n]: net.channel_ids[c]}
        u2 = oracle_energy(net, cfg.association, moved_ch, scheme)
        if math.isfinite(d):
            assert rel(d, u2 - u0) < 1e-9
        else:
            assert u2 == -math.inf


def test_delta_is_local_to_the_neighborhood(rng):
    # an identical move must have an identical delta whether or not an
    # unreachable far-away cluster exists
    channels = [Channel("b", 2400.0, 22.0)]
    near_aps = [AccessPoint("a", (0, 0)), AccessPoint("b", (120, 0))]
    near_clients = [Client("c1", (10, 0)), Client("c2", (60, 0)), Client("c3", (110, 0))]
    far_aps = [AccessPoint("z", (50000, 0))]
    far_clients = [Client("f1", (50010, 0)), Client("f2", (50020, 0))]

    small = Network(channels, near_aps, near_clients)
    big = Network(channels, near_aps + far_aps, near_clients + far_clients)

    assoc_small = np.array([0, 0, 1])
    assoc_big = np.array([0, 0, 1, 2, 2])
    for scheme in ("server", "client"):
        s_small = SystemState(small, scheme, assoc_small, np.zeros(2, dtype=np.int64))
        s_big = SystemState(big, scheme, assoc_big, np.zeros(3, dtype=np.int64))
        v_small, _ = dense_candidates(s_small.association_candidates(1), small.n_vaps)
        v_big, _ = dense_candidates(s_big.association_candidates(1), big.n_vaps)
        d_small = v_small[1] - v_small[0]  # c2 from a/r0 to b/r0
        d_big = v_big[1] - v_big[0]
        assert rel(d_small, d_big) < 1e-12


# -- steps ----------------------------------------------------------------------


def test_zero_temperature_gibbs_equals_greedy(rng):
    # at T = 0 the sampled kernel degenerates to argmax under greedy's tie
    # rule, so a const:0 dp-exact chain follows the greedy chain whatever
    # their generators draw
    net = random_network(rng, n_aps=3, n_clients=6, n_channels=2, dyadic=False)
    state_g = random_state(net, rng, "server")
    state_z = SystemState(net, "server", state_g.assoc, state_g.chan)
    pol_zero = OptimizerPolicy(
        kind="dp-exact", scheme="server", schedule=Schedule(kind="const", t0=0.0)
    )
    pol_greedy = OptimizerPolicy(kind="greedy", scheme="server")
    rng_z, rng_g = np.random.default_rng(0), np.random.default_rng(1)
    for t in range(1, 150):
        prop_z, _ = gibbs_step(state_z, t, pol_zero, rng_z)
        prop_g, _ = gibbs_step(state_g, t, pol_greedy, rng_g)
        assert (state_z.assoc == state_g.assoc).all()
        assert (state_z.chan == state_g.chan).all()


@pytest.mark.parametrize("pol", [
    OptimizerPolicy(kind="greedy", scheme="server"),
    OptimizerPolicy(kind="dp-exact", scheme="server", schedule=Schedule("const", 0.0)),
], ids=["greedy", "dp-exact-const0"])
def test_greedy_treats_near_equal_candidates_as_tied(rng, pol):
    # candidate values within 1e-12 max(1, |U|) of the best are ties: the
    # lowest index wins, and the mover stays unless the gain beats the
    # margin; a zero-temperature Gibbs step follows the same rule
    net = random_network(rng, n_aps=3, n_clients=4, n_channels=1)
    u = -40.0
    m = 1e-12 * abs(u)
    cases = [
        ([u + 0.5 * m, u, u], 1, 1, False),  # gain below the margin: stay
        ([u + 2.0 * m, u, u], 1, 0, True),  # gain above it: move
        ([u + 5.0 * m, u + 5.5 * m, u], 2, 0, True),  # tied best: lowest index
        ([u, u, u], 1, 1, False),  # exact tie with the current target: stay
    ]
    for values, current, expected, moved in cases:
        state = random_state(net, rng, "server")
        state.apply_association(0, current)
        state.association_candidates = lambda i, v=values: (np.arange(3), np.array(v))
        prop, _ = gibbs_step(state, 1, pol, np.random.default_rng(0))
        assert prop.changed == moved
        assert int(state.assoc[0]) == expected


def test_round_robin_covers_all_movers(rng):
    net = random_network(rng, n_aps=2, n_clients=3, n_channels=2)
    state = random_state(net, rng, "server")
    pol = OptimizerPolicy(kind="dp-exact", scheme="server")
    rng_step = np.random.default_rng(1)
    movers = []
    for t in range(1, net.n_clients + net.n_vaps + 1):
        move, _ = gibbs_step(state, t, pol, rng_step)
        movers.append((move.kind, move.index))
    assert set(movers) == {("association", i) for i in range(net.n_clients)} | {
        ("channel", v) for v in range(net.n_vaps)
    }


def _infeasible_cases():
    """Networks with an infeasible association on channels [1, 1]: (network,
    association, a client to move)."""
    channels = [Channel("b", 2400.0, 22.0), Channel("h", 16000.0, 50.0)]
    return [
        # the client reaches its radios only on 2.4 GHz and both sit on
        # 16 GHz: it has a zero-rate link and no feasible target
        (Network(channels,
                 [AccessPoint("a0", (0, 0)), AccessPoint("a1", (200, 0))],
                 [Client("c", (100, 0))]),
         [0], 0),
        # c0 sits on a zero-rate 16 GHz link, so every candidate of c1 has
        # energy -inf, though c1 reaches both radios
        (Network(channels,
                 [AccessPoint("ap0", (0, 0)), AccessPoint("ap1", (60, 0))],
                 [Client("c0", (-80, 0)), Client("c1", (30, 0))]),
         [1, 0], 1),
    ]


def test_steps_refuse_an_infeasible_state():
    for net, assoc, mover in _infeasible_cases():
        state = SystemState(net, "server", np.array(assoc), np.array([1, 1]))
        u = state.energy()
        t = mover + 1  # round-robin: step t moves client t - 1
        for policy in (OptimizerPolicy(kind="greedy"),
                       OptimizerPolicy(kind="dp-exact", selection="round-robin"),
                       OptimizerPolicy(kind="dp-exact", selection="random")):
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError, match="^state:"):
                gibbs_step(state, t, policy, rng)
            assert rng.random() == np.random.default_rng(0).random()  # no draw made
        assert state.assoc.tolist() == assoc and state.chan.tolist() == [1, 1]
        assert state.energy() == u == -math.inf


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_candidates_refuse_an_infeasible_state(scheme):
    # every candidate method refuses an infeasible state, as the steps do,
    # also for a clientless radio (a1 of the first network)
    for net, assoc, mover in _infeasible_cases():
        state = SystemState(net, scheme, np.array(assoc), np.array([1, 1]))
        for evaluate, idx in ((state.association_candidates, mover),
                              (state.association_scores_approx, mover),
                              (state.channel_candidates, 0),
                              (state.channel_candidates, 1)):
            with pytest.raises(ValueError, match="^state:"):
                evaluate(idx)


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_steps_keep_the_state_feasible_and_draw_once(scheme):
    # from a feasible start every step picks a target and stays feasible, at
    # any temperature, and every step, greedy included, makes exactly one
    # uniform draw; the networks take the policies and temperatures in turn
    runs = [(kind, temp) for temp in (0.0, 1e-9, 1.0, 50.0)
            for kind in ("dp-exact", "dp-approx", "greedy")]
    for seed in range(30):
        kind, temp = runs[seed % len(runs)]
        meta = np.random.default_rng(seed)
        net = random_network(meta, n_aps=3, n_clients=6, n_channels=3, dyadic=False,
                             max_radios=2)
        state = SystemState(net, scheme, *initial_configuration(net, meta))
        policy = OptimizerPolicy(kind=kind, scheme=scheme,
                                 schedule=Schedule(kind="const", t0=temp))
        rng, mirror = np.random.default_rng(seed), np.random.default_rng(seed)
        for t in range(1, 201):
            move, u = gibbs_step(state, t, policy, rng)
            mirror.random()
            assert rng.bit_generator.state == mirror.bit_generator.state
            assert isinstance(move.chosen, int)
            assert state.feasible and math.isfinite(u) and u == state.energy()


# -- initialization ---------------------------------------------------------------


def test_initial_configuration_feasible_and_deterministic():
    net = builtin("line3-2ch").to_network()
    a1, c1 = initial_configuration(net, np.random.default_rng(5))
    a2, c2 = initial_configuration(net, np.random.default_rng(5))
    assert (a1 == a2).all() and (c1 == c2).all()
    state = SystemState(net, "server", a1, c1)
    assert state.feasible


def test_initial_configuration_breaks_distance_ties_randomly():
    # two radios of one AP are equidistant: both must be reachable picks
    net = Network(
        [Channel("b", 2400.0, 22.0)],
        [AccessPoint("a", (0, 0), radio_count=2)],
        [Client("c1", (10, 0))],
    )
    picks = set()
    for seed in range(40):
        a, _ = initial_configuration(net, np.random.default_rng(seed))
        picks.add(int(a[0]))
    assert picks == {0, 1}


def _initial_configuration_by_loop(net, rng):
    """initial_configuration as a loop over the clients, one tie draw each."""
    V = net.n_vaps
    ref = dense_reference(net)
    for _ in range(MAX_REDRAWS):
        chan = rng.integers(0, net.n_channels, size=V)
        rates_now = ref.rates[:, np.arange(V), chan]
        if (rates_now > 0).any(axis=1).all():
            break
    else:
        far = int(np.argmax([prof.max_range_m for prof in net.profiles]))
        chan = np.full(V, far, dtype=np.int64)
        rates_now = ref.rates[:, :, far]
    assoc = np.empty(net.n_clients, dtype=np.int64)
    for i in range(net.n_clients):
        d = np.where(rates_now[i] > 0, ref.distances[i], np.inf)
        ties = np.flatnonzero(d == d.min())
        assoc[i] = ties[rng.integers(len(ties))] if len(ties) > 1 else ties[0]
    return assoc, chan


def test_initial_configuration_equals_a_loop_over_the_clients():
    # co-located radios (up to three per AP) tie on distance; clients placed
    # on an AP tie between its radios, and some clients sit at equal
    # distance from two APs
    for seed in range(12):
        meta = np.random.default_rng(seed)
        net = random_network(meta, n_aps=5, n_clients=14, n_channels=3, max_radios=3)
        extra = [Client(f"on{k}", ap.position) for k, ap in enumerate(net.aps)]
        a0, a1 = net.aps[0].position, net.aps[1].position
        extra.append(Client("mid", ((a0[0] + a1[0]) / 2, (a0[1] + a1[1]) / 2)))
        net = Network(list(net.channels), list(net.aps), list(net.clients) + extra)
        for draw in range(4):
            rng_a, rng_b = np.random.default_rng(draw), np.random.default_rng(draw)
            got = initial_configuration(net, rng_a)
            want = _initial_configuration_by_loop(net, rng_b)
            assert (got[0] == want[0]).all() and (got[1] == want[1]).all()
            assert got[0].dtype == want[0].dtype
            assert rng_a.random() == rng_b.random()  # the same draws were made


def test_initial_configuration_unreachable_client_raises():
    net = Network(
        [Channel("h", 16000.0, 50.0)],
        [AccessPoint("a", (0, 0))],
        [Client("c1", (500, 0))],
    )
    with pytest.raises(ScenarioError):
        initial_configuration(net, np.random.default_rng(0))


def test_initial_configuration_falls_back_to_the_farthest_reaching_channel():
    # 40 isolated cells whose clients only 2.4 GHz reaches: a uniform channel
    # draw keeps all of them reachable with probability 2^-40
    net = Network(
        [Channel("b", 2400.0, 22.0), Channel("h", 16000.0, 50.0)],
        [AccessPoint(f"a{k}", (1000.0 * k, 0.0)) for k in range(40)],
        [Client(f"c{k}", (1000.0 * k + 100.0, 0.0)) for k in range(40)],
    )
    assoc, chan = initial_configuration(net, np.random.default_rng(0))
    assert (chan == 0).all() and (assoc == np.arange(40)).all()
    assert SystemState(net, "server", assoc, chan).feasible


# -- full runs --------------------------------------------------------------------


def test_run_records_trajectory_and_best(rng):
    net = builtin("micro").to_network()
    pol = OptimizerPolicy(kind="dp-exact", scheme="server", iterations=400, seed=9)
    res = run(net, pol, record_every=100)
    assert res.trajectory[0].t == 0
    assert res.trajectory[-1].t == res.iterations
    assert [p.t for p in res.trajectory] == [0, 100, 200, 300, 400]
    # best tracking must agree with a fresh evaluation of the snapshot
    best_state = SystemState.from_configuration(net, res.best_configuration, "server")
    assert rel(res.best_energy, best_state.energy()) < 1e-12
    assert res.best_energy >= res.final_energy - 1e-12
    traj_max = max(p.energy for p in res.trajectory)
    assert res.best_energy >= traj_max - 1e-12


def test_best_is_the_first_record_of_the_maximum_energy():
    # weights near 1e4 put the best energies at |U| >= 2e4, where one ulp
    # (3.6e-12 or more) exceeds run()'s 1e-12 margin: best tracking must
    # follow the state's exact energy, not a candidate value close to it
    for seed in range(3):
        base = random_network(np.random.default_rng(seed), n_aps=4, n_clients=12,
                              dyadic=False)
        clients = [Client(c.id, c.position, c.weight * 1e4) for c in base.clients]
        net = Network(list(base.channels), list(base.aps), clients)
        pol = OptimizerPolicy(kind="dp-exact", iterations=400, seed=seed,
                              schedule=Schedule(kind="const", t0=2e4))
        res = run(net, pol, record_every=1)
        top = max(p.energy for p in res.trajectory)
        assert res.best_t == next(p.t for p in res.trajectory if p.energy == top)
        assert res.best_energy == top


def test_greedy_stops_at_verified_local_optimum(rng):
    net = builtin("micro").to_network()
    pol = OptimizerPolicy(kind="greedy", scheme="server", iterations=5000, seed=4)
    res = run(net, pol)
    assert res.iterations < 5000  # early stop after one clean sweep
    state = SystemState.from_configuration(net, res.final_configuration, "server")
    u = state.energy()
    for i in range(net.n_clients):
        _, values = state.association_candidates(i)
        assert values.max() <= u + 1e-9
    for n in range(net.n_vaps):
        _, values = state.channel_candidates(n)
        assert values.max() <= u + 1e-9


def test_greedy_energy_is_monotone(rng):
    net = builtin("line3-1ch").to_network()
    pol = OptimizerPolicy(kind="greedy", scheme="server", iterations=3000, seed=2)
    res = run(net, pol, record_every=1)
    energies = [p.energy for p in res.trajectory]
    assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))


def test_run_accepts_scenario_directly():
    res = run(builtin("micro"), OptimizerPolicy(kind="greedy", iterations=100, seed=0))
    assert math.isfinite(res.final_energy)


def test_dp_approx_runs_and_reports_true_energy(rng):
    net = builtin("micro").to_network()
    pol = OptimizerPolicy(kind="dp-approx", scheme="server", iterations=500, seed=3)
    res = run(net, pol)
    # trajectory energies are real energies, not scores
    state = SystemState.from_configuration(net, res.final_configuration, "server")
    assert rel(res.final_energy, state.energy()) < 1e-12


def test_policy_validation():
    with pytest.raises(ValueError):
        OptimizerPolicy(kind="tabu")
    with pytest.raises(ValueError):
        OptimizerPolicy(scheme="mesh")
    with pytest.raises(ValueError):
        OptimizerPolicy(selection="sorted")
    with pytest.raises(ValueError, match="^selection:"):
        OptimizerPolicy(kind="greedy", selection="random")


@pytest.mark.parametrize("field, policy_args, run_args", [
    ("seed", {"seed": True}, {}),
    ("seed", {"seed": -1}, {}),
    ("seed", {"seed": 1.5}, {}),
    ("iterations", {"iterations": -5}, {}),
    ("record_every", {}, {"record_every": -3}),
    ("record_every", {}, {"record_every": 0}),
], ids=["seed-bool", "seed-negative", "seed-float", "iterations-policy",
        "record_every-negative", "record_every-zero"])
def test_bad_arguments_raise_value_error_naming_the_field(field, policy_args, run_args):
    with pytest.raises(ValueError, match=f"^{field}:"):
        run(builtin("micro"), OptimizerPolicy(**{"iterations": 10, **policy_args}),
            **run_args)
