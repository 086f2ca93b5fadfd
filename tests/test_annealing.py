"""Schedules, softmax moves, Gibbs steps (greedy at T = 0), full runs, the
candidate table."""
import itertools
import math
import sys

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

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
    save_result,
    softmax_probabilities,
)
from fairband import annealing
from fairband.annealing import (
    BLOCK, MAX_REDRAWS, Chain, _draw, gibbs_step, potential_scale_reduction,
)
from fairband.model import TABLE_CAP
from conftest import (
    dense_candidates, dense_reference, dual_radio_grid, random_network, random_state, rel,
)


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
    with pytest.raises(ValueError, match="^cannot parse schedule 'geometric:abc': ratio must "
                                         "be a number$"):
        Schedule.parse("geometric:abc")
    with pytest.raises(ValueError, match="^cannot parse schedule 'const:': temperature must "
                                         "be a number$"):
        Schedule.parse("const:")
    with pytest.raises(ValueError, match="^t0: must be positive$"):
        Schedule(kind="invsqrtlog", t0=0.0)
    with pytest.raises(ValueError, match="^t0: "):
        Schedule(kind="const", t0=-1.0)
    # each field is a finite number, not a bool or a string
    for field, bad in [("t0", True), ("t0", "1"), ("t0", math.inf), ("ratio", "0.5"),
                       ("ratio", False), ("ratio", math.nan)]:
        with pytest.raises(ValueError, match=f"^{field}: "):
            Schedule(kind="geometric", **{field: bad})
    with pytest.raises(ValueError, match="^ratio: "):
        Schedule(kind="geometric", ratio=1.0)


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


@pytest.mark.parametrize("temperature", [0.0, -0.0, -1.0, -math.inf, math.nan])
def test_softmax_refuses_a_temperature_that_is_not_positive(temperature):
    # the probabilities are not defined unless T > 0 (gibbs_step takes the
    # argmax at T = 0): the call refuses the temperature rather than return
    # nans
    with pytest.raises(ValueError, match=r"^temperature: must be > 0, got "):
        softmax_probabilities(np.array([0.0, 1.0]), temperature)


@pytest.mark.parametrize("values", [[1.0, math.nan], [math.nan, 1.0], [0.0, math.inf],
                                    [math.inf, -math.inf], [-math.inf, math.nan]])
def test_softmax_refuses_values_that_are_nan_or_plus_infinity(values):
    # a NaN or +inf value has no probability: the call refuses the values
    # rather than return [1, 0] or nans, whatever their order
    with pytest.raises(ValueError, match=r"^values: must be finite or -inf, got "):
        softmax_probabilities(np.array(values), 1.0)
    assert softmax_probabilities(np.array([-math.inf, -math.inf]), 1.0).tolist() == [0.0, 0.0]


def _clear_of_the_cdf(probs, uniform, gap=1e-12) -> bool:
    """Whether the uniform lies at least gap from every boundary of the cdf
    of probs: there the draw's floats and numpy's arithmetic, which differ
    by about 1e-13 at most, pick the same index."""
    return bool(np.abs(np.cumsum(probs) - uniform).min() >= gap)


def _cdf_by_definition(values, temperature):
    """The draw's cdf from its definition, the running sums of the terms
    e_j = exp(max(v_j - max(v), -1000 T) / T) over their total, and the
    probabilities e_j / total."""
    top = max(values)
    ex = [math.exp(max(v - top, -1000.0 * temperature) / temperature) for v in values]
    running = list(itertools.accumulate(ex))
    return [r / running[-1] for r in running], [e / running[-1] for e in ex]


def test_inverse_cdf_draw_matches_generator_choice():
    # softmax outputs over weights from 1e-3 to 1e3, some entries -inf; on
    # every uniform at least 1e-12 from a cdf boundary the draw must pick
    # the index Generator.choice picks from softmax_probabilities, and both
    # generators must end in the same state
    meta = np.random.default_rng(7)
    compared = 0
    for _ in range(3000):
        n = int(meta.integers(1, 40))
        values = np.log(10.0 ** meta.uniform(-3, 3, n))
        values[meta.random(n) < 0.3] = -np.inf
        values[int(meta.integers(n))] = 0.0  # at least one feasible entry
        temperature = float(meta.uniform(0.2, 5))
        probs = softmax_probabilities(values, temperature)
        seed = int(meta.integers(2**32))
        ours, numpy_ = np.random.default_rng(seed), np.random.default_rng(seed)
        uniform = ours.random()
        want = int(numpy_.choice(n, p=probs))
        if _clear_of_the_cdf(probs, uniform):
            assert _draw(values.tolist(), temperature, uniform) == want
            compared += 1
        assert ours.random() == numpy_.random()
    assert compared > 2990


def test_equal_cdf_is_the_draw_arithmetic_on_equal_values():
    # a clientless radio draws its channel with _draw over n zeros: every
    # term is exp(0) = 1, so its cdf is (j + 1) / n; on every boundary and
    # one ulp to either side of it, at any T > 0, it must pick the first j
    # with (j + 1) / n > u
    meta = np.random.default_rng(5)
    for n in range(1, 13):
        cdf = [(j + 1) / n for j in range(n)]
        uniforms = [0.0, *meta.random(20), *cdf, *np.nextafter(cdf, 0.0),
                    *np.nextafter(cdf, 2.0)]
        for temperature in (5e-324, 1e-3, 0.37, 1.0, 50.0):
            for u in uniforms:
                if u < 1.0:
                    assert _draw((0.0,) * n, temperature, float(u)) == \
                        next(j for j, c in enumerate(cdf) if c > u)


def test_step_draw_from_gaps_matches_the_softmax_draw():
    # the step draws from its candidate values; at temperatures from the
    # smallest positive float (where the -1000 T floor binds) to 1e3, the
    # draw must pick the first index whose cdf value, by the definition,
    # exceeds the uniform, on every boundary and one ulp to either side of
    # it; softmax_probabilities must return the draw's own terms over their
    # total; and on uniforms clear of the boundaries the draw must pick the
    # index numpy's inverse-CDF arithmetic picks
    meta = np.random.default_rng(23)
    counts = {"boundary": 0, "clear": 0}
    for trial in range(1000):
        n = int(meta.integers(2, 17))
        values = meta.normal(size=n) * 10.0 ** meta.uniform(-3, 3) + meta.normal() * 100.0
        if meta.random() < 0.2:
            values[int(meta.integers(n))] = values.max()  # a tied best
        temperature = 5e-324 if trial % 10 == 0 else float(10.0 ** meta.uniform(-323, 3))
        floats = values.tolist()
        cdf, want_probs = _cdf_by_definition(floats, temperature)
        probs = softmax_probabilities(values, temperature)
        assert probs.tolist() == want_probs
        for u in [*cdf, *np.nextafter(cdf, -1.0), *np.nextafter(cdf, 2.0)]:
            if 0.0 <= u < 1.0:
                assert _draw(floats, temperature, u) == next(j for j, c in enumerate(cdf) if c > u)
                counts["boundary"] += 1
        for u in meta.random(4).tolist():
            if _clear_of_the_cdf(probs, u):
                assert _draw(floats, temperature, u) == \
                    int(np.cumsum(probs).searchsorted(u, side="right"))
                counts["clear"] += 1
    assert min(counts.values()) > 3_000, counts


def _masked_softmax(values, temperature, feasible):
    """The softmax over a whole length-V (or C) candidate vector, 0 off the
    feasible entries, that steps drew from before candidates were compact."""
    masked = np.where(feasible, values, -np.inf)
    ex = np.exp(np.maximum(masked - masked.max(), temperature * -1000.0) / temperature)
    return ex / ex.sum()


def test_compact_draw_matches_choice_over_the_masked_vector():
    # a step draws an index into its targets from the softmax of their values
    # alone; with the same uniform, when it is at least 1e-12 from a cdf
    # boundary, it must pick the target Generator.choice picks over the whole
    # masked vector, although the two normalising sums group their terms
    # differently
    meta = np.random.default_rng(11)
    compared = 0
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
        uniform = ours.random()
        want = numpy_.choice(n, p=_masked_softmax(values, temperature, feasible))
        if _clear_of_the_cdf(probs, uniform):
            assert targets[_draw(values[targets].tolist(), temperature, uniform)] == want
            compared += 1
    assert compared > 1990


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
        # tied within the margin, the current target neither the lowest nor
        # the best: stay
        ([u + 5.0 * m, u + 5.5 * m, u + 5.2 * m], 2, 2, False),
        ([u, u + 5.5 * m, u + 5.5 * m], 2, 2, False),
    ]
    # a gain of exactly the margin stays and one ulp more moves, under both
    # branches of max(1, |U|): U = 0 (margin 1e-12) and |U| near 1e6, where
    # the margin is 2^-20, a multiple of U's ulp, so U + margin is exact
    for u in (0.0, -(2.0**-20 / 1e-12), 2.0**-20 / 1e-12):
        m = 1e-12 * max(1.0, abs(u))
        assert (u + m) - u == m
        cases += [([u + m, u, u], 1, 1, False),
                  ([float(np.nextafter(u + m, math.inf)), u, u], 1, 0, True)]
    # gains of 0.75 and 1.25 margins at |U| = 1e6 and 0.5: a margin of
    # 1e-12 |U|, or of 1e-12 alone, would misjudge one of each pair
    for u in (-1e6, 1e6, -0.5, 0.5):
        m = 1e-12 * max(1.0, abs(u))
        cases += [([u + 0.75 * m, u, u], 1, 1, False), ([u + 1.25 * m, u, u], 1, 0, True)]
    for values, current, expected, moved in cases:
        # the cases patch the candidate method, so a table entry of an
        # earlier case must not answer for it
        net._candidate_table.clear()
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


class _ScalarTieDraws:
    """A generator that answers integers(counts) with one scalar draw per
    entry, in order, and passes every other draw through."""

    def __init__(self, rng):
        self.rng = rng
        self.tied = 0

    def integers(self, *args, **kwargs):
        if len(args) == 1 and not kwargs and np.ndim(args[0]) == 1:
            self.tied += len(args[0])
            return np.array([self.rng.integers(n) for n in args[0].tolist()])
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("make", [
    lambda: builtin("micro").to_network(),
    lambda: builtin("grid16-weighted").to_network(),
    lambda: dual_radio_grid(np.random.default_rng(16), 512),
], ids=["micro", "grid16-weighted", "dual-radio-grid"])
def test_initial_configuration_tie_draw_equals_scalar_draws(make):
    # one vector draw over the tied clients makes the same picks as a scalar
    # draw per tied client and leaves the generator in the same state
    net = make()
    tied = 0
    for seed in range(5):
        rng, scalar = np.random.default_rng(seed), _ScalarTieDraws(np.random.default_rng(seed))
        got, want = initial_configuration(net, rng), initial_configuration(net, scalar)
        assert (got[0] == want[0]).all() and (got[1] == want[1]).all()
        assert rng.random() == scalar.rng.random()
        tied += scalar.tied
    assert tied > 0


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


# -- resumable chains ---------------------------------------------------------

_CHAIN_RUNS = [("dp-exact", "round-robin"), ("dp-exact", "random"), ("dp-approx", "round-robin"),
               ("dp-approx", "random"), ("greedy", "round-robin")]


def _chain_outcome(chain):
    """Everything a chain's run shows: the result (records, best energy, best
    t, best and final configuration, rates and allocation, floats by repr)
    and the final state's arrays and energy bits."""
    state = chain.state
    return (repr(chain.result()), state.assoc.tolist(), state.chan.tolist(),
            state.energy().hex())


def _check_split_advances(net, kind, selection, scheme, iterations, splits):
    """Check advance(a) then advance(iterations - a) against one advance, at
    the given splits and, for a greedy chain, on either side of its stop."""
    policy = OptimizerPolicy(kind=kind, scheme=scheme, selection=selection,
                             iterations=iterations, seed=3)
    whole = Chain(net, policy, record_every=1).advance(iterations)
    want = _chain_outcome(whole)
    if kind == "greedy":
        # the chain stops inside its first block, and stays stopped
        assert whole.stopped and 0 < whole.t < min(iterations, BLOCK)
        splits = (*splits, whole.t - 1, whole.t)
    for a in splits:
        chain = Chain(net, policy, record_every=1).advance(a)
        assert chain.t == min(a, whole.t)
        assert chain.advance(iterations - a) is chain
        assert _chain_outcome(chain) == want, a
        if kind != "greedy":  # one uniform per step, however the blocks fall
            assert chain.rng.bit_generator.state == whole.rng.bit_generator.state
        assert _chain_outcome(chain.advance(50)) == want  # nothing left to do
    return want


@pytest.mark.parametrize("scheme", ["server", "client"])
@pytest.mark.parametrize("kind, selection", _CHAIN_RUNS)
def test_split_advances_equal_one_advance_on_a_table_network(kind, selection, scheme):
    # advance(a) then advance(b) equals advance(a + b) byte for byte, at the
    # ends and the edges of the first block, on line3-2ch (candidate table)
    _check_split_advances(builtin("line3-2ch").to_network(), kind, selection, scheme,
                          BLOCK + 4, (0, 1, BLOCK - 1, BLOCK, BLOCK + 1))


@pytest.mark.parametrize("scheme", ["server", "client"])
@pytest.mark.parametrize("kind, selection", _CHAIN_RUNS)
def test_split_advances_equal_one_advance_without_a_table(monkeypatch, kind, selection, scheme):
    # the same on grid16-weighted, which has no candidate table. A greedy
    # chain stops inside the first block, before the later splits. The
    # others run in blocks of 64, which must change no output, and split at
    # the edges of the first (a full block of grid16 steps is slow)
    net = builtin("grid16-weighted").to_network()
    if kind == "greedy":
        _check_split_advances(net, kind, selection, scheme, BLOCK + 4,
                              (0, 1, BLOCK - 1, BLOCK, BLOCK + 1))
        return
    policy = OptimizerPolicy(kind=kind, scheme=scheme, selection=selection,
                             iterations=200, seed=3)
    want = _chain_outcome(Chain(net, policy, record_every=1).advance(200))
    monkeypatch.setattr(annealing, "BLOCK", 64)
    assert _check_split_advances(net, kind, selection, scheme, 200, (0, 1, 63, 64, 65)) == want


def test_chain_results_close_with_a_record_of_the_current_state():
    # a result taken between advances ends with a record of the current
    # state, which the chain's own records do not keep
    net = builtin("line3-2ch").to_network()
    chain = Chain(net, OptimizerPolicy(iterations=1000, seed=1))  # records every 10
    part = chain.advance(15).result()
    assert [p.t for p in part.trajectory] == [0, 10, 15]
    assert part.iterations == 15 and part.final_energy == chain.state.energy()
    assert part.final_configuration == chain.state.to_configuration()
    assert [p.t for p in chain.trajectory] == [0, 10]
    assert chain.advance(985).result() == run(net, OptimizerPolicy(iterations=1000, seed=1))


def test_chain_buffers_hold_at_most_one_block():
    # a chain holds the uniforms and temperatures of one block at most,
    # however many steps its policy asks for
    net = builtin("line3-2ch").to_network()
    for selection in ("round-robin", "random"):
        chain = Chain(net, OptimizerPolicy(iterations=10**9, selection=selection))
        chain.advance(10)
        assert chain.t == 10 and len(chain._temps) == 10
        chain.advance(BLOCK + 5)
        assert chain.t == BLOCK + 15 and len(chain._temps) <= BLOCK
        assert chain._uniforms is None if selection == "random" else \
            len(chain._uniforms) <= BLOCK
    with pytest.raises(ValueError, match="^n:"):
        chain.advance(-1)


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
    # a schedule's text is for Schedule.parse; the policy takes a Schedule
    with pytest.raises(ValueError, match="^schedule: expected a Schedule, got 'invlog'$"):
        OptimizerPolicy(schedule="invlog")


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


def test_potential_scale_reduction_matches_a_hand_computation():
    # chains [1, 2, 3] and [2, 4, 6]: within-chain variances 1 and 4, so
    # W = 5/2; the means 2 and 4 vary by B / n = 2; with n = 3,
    # V = (2/3) W + B / n = 11/3 and the factor is sqrt(V / W) = sqrt(22/15)
    assert potential_scale_reduction([[1, 2, 3], [2, 4, 6]]) == pytest.approx(
        math.sqrt(22 / 15), rel=1e-15)
    # identical chains: no spread between them, so V / W = (n - 1) / n
    assert potential_scale_reduction([[0, 1], [0, 1], [0, 1]]) == pytest.approx(
        math.sqrt(1 / 2), rel=1e-15)
    # no within-chain variance, a single draw, a single chain or no chain:
    # not defined
    assert potential_scale_reduction([[1, 1, 1], [2, 2, 2]]) is None
    assert potential_scale_reduction([[1.0], [2.0]]) is None
    assert potential_scale_reduction([[1.0, 2.0, 4.0]]) is None
    assert potential_scale_reduction([]) is None


# -- the candidate table ------------------------------------------------------------


class _CountingTable(dict):
    """A candidate table that counts the lookups that find an entry."""

    hits = 0

    def get(self, key):
        entry = super().get(key)
        self.hits += entry is not None
        return entry


def _table_networks(rng):
    """line3-2ch, micro and two random three-AP networks with two-radio APs
    and non-dyadic weights, each with a counting candidate table."""
    nets = [builtin("line3-2ch").to_network(), builtin("micro").to_network()]
    nets += [random_network(rng, n_aps=3, n_clients=6, n_channels=3, dyadic=False,
                            max_radios=2) for _ in range(2)]
    for net in nets:
        net.__dict__["_candidate_table"] = _CountingTable()
    return nets


_TABLE_RUNS = [("dp-exact", "round-robin"), ("dp-exact", "random"), ("greedy", "round-robin"),
               ("dp-approx", "round-robin"), ("dp-approx", "random")]


def test_table_hits_equal_a_fresh_evaluation(monkeypatch, rng):
    # every candidate lookup of a step, from the table or not, gives the
    # entry values + targets: the bits and targets of the mover's candidate
    # method on a fresh state of the step's configuration; and every energy a
    # step returns, from an energy entry or not, has the bits of that fresh
    # state's energy(); two chains of each policy, selection and scheme share
    # one network and its table
    original, step = annealing._candidates, annealing.gibbs_step

    def checked(state, kind, idx, approx):
        entry = original(state, kind, idx, approx)
        fresh = SystemState(state.net, state.scheme, state.assoc, state.chan)
        if approx:
            targets, values = fresh.association_scores_approx(idx)
        elif kind == "association":
            targets, values = fresh.association_candidates(idx)
        else:
            targets, values = fresh.channel_candidates(idx)
        assert entry == values.tobytes() + targets.astype(np.int64).tobytes()
        return entry

    def checked_step(chain, t, policy, rng):
        move, u = step(chain, t, policy, rng)
        state = chain.state
        fresh = SystemState(state.net, state.scheme, state.assoc, state.chan)
        assert u.hex() == fresh.energy().hex()
        return move, u

    monkeypatch.setattr(annealing, "_candidates", checked)
    monkeypatch.setattr(annealing, "gibbs_step", checked_step)
    for net in _table_networks(rng):
        for (kind, selection), scheme, seed in itertools.product(
                _TABLE_RUNS, ("server", "client"), range(2)):
            run(net, OptimizerPolicy(kind=kind, scheme=scheme, selection=selection,
                                     iterations=400, seed=seed))
        assert net._candidate_table.hits >= 100, net.name


def test_table_records_equal_a_fresh_state(monkeypatch, rng):
    # every trajectory record, from the table or not, gives the weighted
    # throughput bits and the digest of a fresh state of its configuration,
    # under both schemes; the chains share each network and its table
    original = annealing._record
    hits = []

    def checked(state):
        table = state.net._candidate_table
        before = table.hits
        wthr, digest = original(state)
        hits.append(table.hits - before)
        fresh = SystemState(state.net, state.scheme, state.assoc, state.chan)
        assert wthr.hex() == fresh.weighted_throughput().hex()
        assert digest == fresh.to_configuration().digest()
        return wthr, digest

    monkeypatch.setattr(annealing, "_record", checked)
    for net in _table_networks(rng):
        hits.clear()
        for (kind, selection), scheme, seed in itertools.product(
                _TABLE_RUNS, ("server", "client"), range(2)):
            run(net, OptimizerPolicy(kind=kind, scheme=scheme, selection=selection,
                                     iterations=300, seed=seed), record_every=1)
        assert sum(hits) >= 100, net.name


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_runs_on_a_warm_table_equal_runs_on_fresh_networks(monkeypatch, tmp_path, scheme):
    # seeds 0-9 twice on one compiled network: the second round finds every
    # entry it looks up, records included, so it computes no weighted
    # throughput, and both rounds write what runs on freshly compiled
    # networks write
    def saved(res):
        path = tmp_path / "result.json"
        save_result(path, res)
        return path.read_text()

    # throughput, and its steps find every candidate and energy entry, so
    # SystemState._update runs only from the sync at the end of advance
    net = builtin("line3-2ch").to_network()
    policies = [OptimizerPolicy(scheme=scheme, iterations=2000, seed=s) for s in range(10)]
    cold = [run(net, policy) for policy in policies]
    size = len(net._candidate_table)
    calls, updates = [], []
    original, update = SystemState.weighted_throughput, SystemState._update

    def counted(state):
        calls.append(state)
        return original(state)

    def traced_update(state, *args, **kwargs):
        frame, callers = sys._getframe(1), []
        while frame is not None and len(callers) < 4:
            callers.append(frame.f_code.co_name)
            frame = frame.f_back
        updates.append(tuple(callers))
        return update(state, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(SystemState, "weighted_throughput", counted)
        patch.setattr(SystemState, "_update", traced_update)
        warm = [run(net, policy) for policy in policies]
    assert not calls
    # each chain's state is built once; every other update replays a move in
    # the sync at the end of an advance
    assert sum(c[0] == "__init__" for c in updates) == len(policies)
    replays = [c for c in updates if c[0] != "__init__"]
    assert replays and all(c[:2] == ("_sync", "advance") for c in replays)
    assert 0 < size == len(net._candidate_table)
    for policy, *results in zip(policies, cold, warm):
        fresh = run(builtin("line3-2ch").to_network(), policy)
        for res in results:
            assert saved(res) == saved(fresh)
            assert res.trajectory == fresh.trajectory


_DEFERRED = ("same_ch_adj", "_b_clients", "_log_b_clients", "w_ap", "z", "_psi_w", "_f")


def _state_bits(state):
    """A state's digits, deferred arrays and scalars as bytes and hex, and
    its rates and digest (which refresh the success products and pieces)."""
    arrays = [getattr(state, name).tobytes() for name in ("assoc", "chan", "_link") + _DEFERRED]
    scalars = [float(x).hex() for x in (state._sched, state.b_term, state.energy())]
    return arrays, scalars, state.rates().tobytes(), state.digest(), state.feasible


def test_deferred_chains_equal_chains_that_sync_after_every_step(monkeypatch, rng):
    # a chain that advances one step at a time syncs its state after every
    # step; one advance, on the same network's warm table, defers the most;
    # split advances, on a twin network of their own, stop at random points.
    # All three give the same result, final arrays and energy bits, and the
    # arrays and energy are those of a fresh state of the final
    # configuration
    pending = []
    sync = SystemState._sync

    def traced_sync(state):
        if sys._getframe(1).f_code.co_name == "advance":
            pending.append(bool(state._moved))
        return sync(state)

    monkeypatch.setattr(SystemState, "_sync", traced_sync)
    split_pending = 0
    for net in _table_networks(rng):
        twin = Network(list(net.channels), list(net.aps), list(net.clients), net.radio_model)
        for (kind, selection), scheme in itertools.product(_TABLE_RUNS, ("server", "client")):
            policy = OptimizerPolicy(kind=kind, scheme=scheme, selection=selection,
                                     iterations=300, seed=int(rng.integers(100)))
            stepwise = Chain(net, policy)
            for _ in range(policy.iterations):
                stepwise.advance(1)
            whole = Chain(net, policy).advance(policy.iterations)
            split, before = Chain(twin, policy), len(pending)
            while split.t < policy.iterations and not split.stopped:
                split.advance(int(rng.integers(1, 40)))
            split_pending += sum(pending[before:])
            want = repr(stepwise.result())
            state = stepwise.state
            fresh = SystemState(net, scheme, state.assoc, state.chan)
            bits = _state_bits(state)
            assert bits[:2] == _state_bits(fresh)[:2]
            for chain in (whole, split):
                assert repr(chain.result()) == want, (net.name, kind, selection, scheme)
                assert _state_bits(chain.state) == bits
    # the split advances often stopped with moves pending
    assert split_pending >= 50


def _pending_moves(state, rng):
    """Random groups of moves for a deferred state, each group in its order
    and the groups shuffled: a client and a radio moved and moved back to
    the digit the arrays hold, two partner radios moved (half the time onto
    one channel), a client moved onto a radio that changes channel, a
    clientless radio moved and a client moved onto one, a client moved onto
    a radio it does not reach (when there is one), and random moves."""
    net = state.net
    I, V, C = net.n_clients, net.n_vaps, net.n_channels

    def move(kind, mover, target):
        return lambda: (state.apply_association if kind == "a" else state.apply_channel)(
            mover, target() if callable(target) else target)

    def back(kind, mover):
        pos = mover if kind == "a" else I + mover
        digits = state.assoc if kind == "a" else state.chan
        return move(kind, mover, lambda: state._moved.get(pos, int(digits[mover])))

    c, v = int(rng.integers(I)), int(rng.integers(V))
    groups = [[move("a", c, int(rng.integers(V))), back("a", c)],
              [move("c", v, int(rng.integers(C))), back("c", v)]]
    v = int(rng.integers(V))
    partners = net.pair_vap[net.pair_ptr[v]:net.pair_ptr[v + 1]]
    partners = partners[partners != v]
    if partners.size:
        u, ch = int(rng.choice(partners)), int(rng.integers(C))
        groups.append([move("c", v, ch), move("c", u, ch if rng.random() < 0.5
                                                 else int(rng.integers(C)))])
    b = int(rng.integers(V))
    groups.append([move("a", int(rng.integers(I)), b), move("c", b, int(rng.integers(C)))])
    clientless = np.setdiff1d(np.arange(V), state.assoc)
    if clientless.size:
        groups.append([move("c", int(rng.choice(clientless)), int(rng.integers(C)))])
        groups.append([move("a", int(rng.integers(I)), int(rng.choice(clientless)))])
    c = int(rng.integers(I))
    out = [v for v in range(V) if net._link_at.get(c * V + v, -1) < 0
           or net.rates[net._link_at[c * V + v], state.chan[v]] == 0]
    if out:
        groups.append([move("a", c, int(rng.choice(out)))])
    for _ in range(int(rng.integers(0, 6))):
        kind = "a" if rng.random() < 0.5 else "c"
        groups.append([move(kind, int(rng.integers(I if kind == "a" else V)),
                            int(rng.integers(V if kind == "a" else C)))])
    return [groups[k] for k in rng.permutation(len(groups))]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(["server", "client"]),
    n_aps=st.integers(2, 5),
    n_clients=st.integers(2, 10),
    n_channels=st.integers(1, 3),
)
def test_one_sync_equals_a_fresh_state_for_any_pending_moves(
    seed, scheme, n_aps, n_clients, n_channels
):
    # a deferred state on a random numbered network (multi-radio APs,
    # non-dyadic weights) takes a pending set of moves (_pending_moves),
    # feasible or not on the way, and then one sync makes at most one
    # _update, after which its digits, arrays, energy, products and digest
    # equal a fresh state's bit for bit
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_aps=n_aps, n_clients=n_clients, n_channels=n_channels,
                         dyadic=False, max_radios=3)
    state = random_state(net, rng, scheme)
    # the products, digest pieces and index that a sync keeps up to date
    state.rates(), state.digest(), state.config_index()
    state._defer = True
    for group in _pending_moves(state, rng):
        for move in group:
            move()
    updates, update = [], state._update
    state._update = lambda *args, **kwargs: updates.append(update(*args, **kwargs))
    state._defer = False
    state._sync()
    assert len(updates) <= 1 and not state._moved
    fresh = SystemState(net, scheme, state.assoc, state.chan)
    assert _state_bits(state) == _state_bits(fresh)
    assert state.config_index() == fresh.config_index()
    assert state.digest() == state.to_configuration().digest()
    read = np.arange(net.n_clients) if scheme == "client" else (state.w_ap > 0).nonzero()[0]
    assert state._idle[read].tobytes() == fresh._idle[read].tobytes()
    assert not state._stale.any()


def test_steps_return_the_energy_of_their_state(monkeypatch, rng):
    # the energy a step returns, held by its chain or read after a move that
    # changed the state, has the bits of its state's energy() and of a fresh
    # state's: chains advanced in random parts on the table networks and on
    # grid16-weighted (no table), under both schemes, and bare states
    # stepped one gibbs_step call at a time
    step = annealing.gibbs_step
    changed = []

    def checked_step(chain, t, policy, rng):
        move, u = step(chain, t, policy, rng)
        state = chain.state if isinstance(chain, Chain) else chain
        fresh = SystemState(state.net, state.scheme, state.assoc, state.chan)
        assert u.hex() == state.energy().hex() == fresh.energy().hex()
        changed.append(move.changed)
        return move, u

    monkeypatch.setattr(annealing, "gibbs_step", checked_step)
    for net in _table_networks(rng) + [builtin("grid16-weighted").to_network()]:
        iterations = 100 if net._candidate_table is None else 300
        for (kind, selection), scheme in itertools.product(_TABLE_RUNS, ("server", "client")):
            seed = int(rng.integers(100))
            policy = OptimizerPolicy(kind=kind, scheme=scheme, selection=selection,
                                     iterations=iterations, seed=seed)
            chain = Chain(net, policy)
            while chain.t < iterations and not chain.stopped:
                chain.advance(int(rng.integers(1, 40)))
            state = SystemState(net, scheme, *initial_configuration(net, np.random.default_rng(seed)))
            step_rng = np.random.default_rng(seed)
            for t in range(1, 41):
                checked_step(state, t, policy, step_rng)
    assert any(changed) and not all(changed)


@pytest.mark.parametrize("scheme", ["server", "client"])
def test_a_warm_round_reads_energies_only_where_a_step_needs_one(monkeypatch, scheme):
    # seeds 0-9 of dp-exact and 0-4 of dp-approx twice on one line3-2ch
    # network: on the second round SystemState.energy runs once per chain, in
    # Chain.__init__, once per step that changed the state, and once per
    # one-target return of a candidate method, which reads the energy entry
    # itself; a step that changes nothing returns the chain's held energy
    net = builtin("line3-2ch").to_network()
    policies = [OptimizerPolicy(scheme=scheme, iterations=2000, seed=s) for s in range(10)]
    policies += [OptimizerPolicy(kind="dp-approx", scheme=scheme, iterations=2000, seed=s)
                 for s in range(5)]
    for policy in policies:
        run(net, policy)
    counts = dict.fromkeys(("energy", "changed", "one-target"), 0)
    energy, step = SystemState.energy, annealing.gibbs_step

    def counted_energy(state):
        counts["energy"] += 1
        return energy(state)

    def counted_step(chain, t, policy, rng):
        move, u = step(chain, t, policy, rng)
        counts["changed"] += move.changed
        return move, u

    def counted_candidates(method):
        def counted(state, idx):
            targets, values = method(state, idx)
            counts["one-target"] += targets.size == 1
            return targets, values
        return counted

    monkeypatch.setattr(SystemState, "energy", counted_energy)
    monkeypatch.setattr(annealing, "gibbs_step", counted_step)
    for name in ("association_candidates", "association_scores_approx", "channel_candidates"):
        monkeypatch.setattr(SystemState, name, counted_candidates(getattr(SystemState, name)))
    for policy in policies:
        run(net, policy)
    assert counts["changed"] > 0 and counts["one-target"] > 0
    assert counts["energy"] == counts["changed"] + counts["one-target"] + len(policies)


@pytest.mark.parametrize("schedule", ["invsqrtlog", "geometric:0.5", "const:1000"])
def test_steps_never_call_softmax_probabilities(monkeypatch, schedule):
    # the step draws by _draw alone: with softmax_probabilities made to raise,
    # runs still finish, on line3-2ch twice on one network (the second round
    # reads a warm table) under both schemes and dp-approx, on micro, and on
    # a grid16-weighted layout (no table) under the client scheme, clientless
    # radios included. geometric:0.5 falls through subnormal temperatures to
    # T = 0 by step 1076, const:1000 draws nearly uniformly
    def refuse(values, temperature):
        raise AssertionError("a step called softmax_probabilities")

    draws = []

    def draw(values, temperature, uniform):
        draws.append(values)
        return original(values, temperature, uniform)

    original = annealing._draw
    monkeypatch.setattr(annealing, "softmax_probabilities", refuse)
    monkeypatch.setattr(annealing, "_draw", draw)
    line3, micro = builtin("line3-2ch").to_network(), builtin("micro").to_network()
    grid = builtin("grid16-weighted", seed=3).to_network()
    jobs = [(line3, "dp-exact", "server", seed) for seed in range(2)]
    jobs += [(line3, "dp-exact", "client", 0), (line3, "dp-approx", "server", 0)]
    jobs += jobs + [(micro, "dp-exact", "server", 0), (grid, "dp-exact", "client", 0)]
    for net, kind, scheme, seed in jobs:
        run(net, OptimizerPolicy(kind=kind, scheme=scheme, iterations=1100, seed=seed,
                                 schedule=Schedule.parse(schedule)))
    assert len(draws) > 1000
    # a clientless radio's draw, over zeros, goes through _draw as well
    assert any(not any(values) for values in draws)


def test_the_table_is_cleared_at_its_cap():
    # a table one short of its cap fills up and is cleared, never holding
    # more than TABLE_CAP entries, and the chain moves as on a fresh network
    net, mirror_net = (builtin("line3-2ch").to_network() for _ in range(2))
    table = net._candidate_table
    table.update((-k, b"") for k in range(1, TABLE_CAP))  # keys of no configuration
    state, mirror = (SystemState(n, "server", *initial_configuration(n, np.random.default_rng(0)))
                     for n in (net, mirror_net))
    rng, mirror_rng = np.random.default_rng(1), np.random.default_rng(1)
    policy = OptimizerPolicy()
    sizes = []
    for t in range(1, 2001):
        assert gibbs_step(state, t, policy, rng) == gibbs_step(mirror, t, policy, mirror_rng)
        sizes.append(len(table))
    assert max(sizes) == TABLE_CAP and min(sizes) < 100
    assert min(table) >= 0
