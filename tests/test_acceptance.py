"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (the summary lines print even
without -s). Criteria 1-5 are exact or tolerance checks against independent
computations; 6-7 exercise the sampler's convergence and stationary
distribution; 8-10 reproduce the benchmark experiments; 11 checks output
determinism end to end.
"""
import csv
import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from fairband import (
    Channel,
    Configuration,
    OptimizerPolicy,
    RadioModel,
    Schedule,
    SystemState,
    builtin,
    channel_profile,
    enumerate_optimum,
    initial_configuration,
    minint_channel_selection,
    minint_wifi_run,
    numeric_allocation_optimum,
    run,
    slot_monte_carlo,
    softmax_probabilities,
    throughput,
)
from fairband.annealing import gibbs_step
from fairband.cli import main
from conftest import dense_candidates, dense_reference, random_network, random_state, rel
from test_fairness import _heavy_load_network


def _report(n: int, label: str, ok: bool, detail: str, capsys):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n:02d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} ({label}): {detail}"


def test_01_radio_numerics(capsys):
    prof = channel_profile(Channel("x", 4000.0, 44.0))
    ranges = [t.range_m for t in prof.tiers]
    rates = [t.rate_mbps for t in prof.tiers]
    ok = (
        all(abs(a - b) <= 0.01 for a, b in zip(ranges, (37.34, 59.75, 89.62, 112.03)))
        and rates == [22.0, 11.0, 4.0, 2.0]
        and abs(prof.interference_range_m - 275.59) <= 0.01
        and abs(RadioModel().base_interference_range() - 369.0) <= 0.5
    )
    detail = (
        f"4 GHz ranges {[round(r, 3) for r in ranges]}, rates {rates}, "
        f"interference {prof.interference_range_m:.3f} m, "
        f"base {RadioModel().base_interference_range():.1f} m"
    )
    _report(1, "radio numerics", ok, detail, capsys)


def test_02_closed_form_allocation_optimality(capsys):
    start = time.time()
    rng = np.random.default_rng(202)
    worst_gap = -math.inf
    improved = 0
    for k in range(200):
        scheme = "server" if k % 2 == 0 else "client"
        net = random_network(
            rng,
            n_aps=int(rng.integers(1, 3)),
            n_clients=int(rng.integers(2, 4)),
            n_channels=int(rng.integers(1, 3)),
            dyadic=False,
        )
        state = random_state(net, rng, scheme)
        cfg = state.to_configuration()
        closed = state.energy()
        numeric = numeric_allocation_optimum(
            net, cfg.association, cfg.channel, scheme, samples=16, refine=1,
            seed=int(rng.integers(2**31)),
        )
        worst_gap = max(worst_gap, numeric - closed)
        # no perturbation of the closed-form allocation may improve it
        alloc = SystemState.from_configuration(net, cfg, scheme).allocation()
        for _ in range(5):
            if scheme == "server":
                phi = np.array([alloc.schedule[c] for c in net.client_ids])
                assoc = [cfg.association[c] for c in net.client_ids]
                for v in net.vap_ids:
                    members = [j for j, a in enumerate(assoc) if a == v]
                    if members:
                        mixed = 0.9 * phi[members] + 0.1 * rng.dirichlet(
                            np.ones(len(members))
                        )
                        phi[members] = mixed / mixed.sum()
                access = {
                    v: float(np.clip(alloc.access[v] + rng.normal(0, 0.04), 1e-3, 1.0))
                    for v in net.vap_ids
                }
                perturbed = type(alloc)(
                    "server",
                    {c: float(phi[j]) for j, c in enumerate(net.client_ids)},
                    access,
                )
            else:
                access = {
                    c: float(np.clip(alloc.access[c] + rng.normal(0, 0.04), 1e-3, 1.0))
                    for c in net.client_ids
                }
                perturbed = type(alloc)("client", None, access)
            if throughput(net, cfg, perturbed).energy > closed + 1e-12:
                improved += 1
    elapsed = time.time() - start
    ok = worst_gap <= 1e-3 and improved == 0 and elapsed < 60
    detail = (
        f"200 instances, worst numeric-closed gap {worst_gap:.2e}, "
        f"{improved} improving perturbations, {elapsed:.1f}s"
    )
    _report(2, "closed-form optimality", ok, detail, capsys)


def test_03_energy_identity(capsys):
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(1000):
        scheme = "server" if k % 2 == 0 else "client"
        net = random_network(
            rng,
            n_aps=int(rng.integers(1, 4)),
            n_clients=int(rng.integers(2, 7)),
            n_channels=int(rng.integers(1, 4)),
            dyadic=False,
            max_radios=2,
        )
        state = random_state(net, rng, scheme)
        cfg = state.to_configuration()
        alloc = SystemState.from_configuration(net, cfg, scheme).allocation()
        assembled = throughput(net, cfg, alloc).energy
        worst = max(worst, rel(state.energy(), assembled))
    ok = worst < 1e-12
    _report(3, "energy identity", ok,
            f"1000 configurations, worst relative error {worst:.2e}", capsys)


def test_04_delta_u_correctness(capsys):
    rng = np.random.default_rng(404)
    worst = 0.0
    for k in range(1000):
        scheme = "server" if k % 2 == 0 else "client"
        net = random_network(
            rng,
            n_aps=int(rng.integers(2, 4)),
            n_clients=int(rng.integers(2, 6)),
            n_channels=int(rng.integers(1, 3)),
            dyadic=False,
            max_radios=2,
        )
        state = random_state(net, rng, scheme)
        u0 = state.energy()
        if k % 2 == 0:
            i = int(rng.integers(net.n_clients))
            b = int(rng.integers(net.n_vaps))
            values, feas = dense_candidates(state.association_candidates(i), net.n_vaps)
            fresh_assoc = state.assoc.copy()
            fresh_assoc[i] = b
            u1 = SystemState(net, scheme, fresh_assoc, state.chan).energy()
            if feas[b]:
                worst = max(worst, rel(values[b] - values[state.assoc[i]], u1 - u0))
        else:
            n = int(rng.integers(net.n_vaps))
            c = int(rng.integers(net.n_channels))
            values, feas = dense_candidates(state.channel_candidates(n), net.n_channels)
            fresh_chan = state.chan.copy()
            fresh_chan[n] = c
            u1 = SystemState(net, scheme, state.assoc, fresh_chan).energy()
            if feas[c]:
                worst = max(worst, rel(values[c] - values[state.chan[n]], u1 - u0))

    # approximate scores: softmax within 0.02 of exact in the high-load regime
    worst_prob = 0.0
    for scheme in ("server", "client"):
        net = _heavy_load_network()
        assoc = np.array([k for k in range(3) for _ in range(12)] + [1], dtype=np.int64)
        i = net.client_index["mover"]
        wi = net.weights[i]
        for chans in [(0, 0, 0), (0, 1, 0), (1, 0, 1)]:
            state = SystemState(net, scheme, assoc, np.array(chans, dtype=np.int64))
            assert (state.z - wi >= 100 * wi).all()  # regime precondition
            targets, exact = state.association_candidates(i)
            targets_approx, approx = state.association_scores_approx(i)
            assert np.array_equal(targets, targets_approx)
            p_exact = softmax_probabilities(exact, 1.0)
            p_approx = softmax_probabilities(approx, 1.0)
            worst_prob = max(worst_prob, float(np.abs(p_exact - p_approx).max()))

    ok = worst < 1e-9 and worst_prob < 0.02
    detail = (
        f"1000 moves, worst exact-delta error {worst:.2e}; "
        f"approx softmax deviation {worst_prob:.4f}"
    )
    _report(4, "move deltas", ok, detail, capsys)


def test_05_monte_carlo_agreement(capsys):
    rng = np.random.default_rng(505)
    slots = 1_000_000
    violations = 0
    checked = 0
    for k in range(20):
        scheme = "server" if k % 2 == 0 else "client"
        net = random_network(
            rng,
            n_aps=int(rng.integers(2, 4)),
            n_clients=int(rng.integers(2, 5)),
            n_channels=int(rng.integers(1, 3)),
            dyadic=False,
        )
        state = random_state(net, rng, scheme)
        cfg = state.to_configuration()
        alloc = SystemState.from_configuration(net, cfg, scheme).allocation()
        expected = throughput(net, cfg, alloc)
        emp = slot_monte_carlo(net, cfg, alloc, slots, seed=1000 + k)
        rates = dense_reference(net).rates
        for cid in net.client_ids:
            i = net.client_index[cid]
            vid = cfg.association[cid]
            b = rates[i, net.vap_index[vid], net.channel_index[cfg.channel[vid]]]
            q = expected.rates[cid] / b
            sigma = b * math.sqrt(q * (1 - q) / slots)
            checked += 1
            if abs(emp[cid] - expected.rates[cid]) > 3 * sigma + 1e-12:
                violations += 1
    ok = violations == 0
    _report(5, "slot Monte Carlo", ok,
            f"{checked} client rates over 20 instances, {violations} beyond 3 sigma",
            capsys)


def test_06_sampler_and_greedy_convergence(capsys):
    start = time.time()
    net = builtin("micro").to_network()
    ustar = enumerate_optimum(net, "server").energy

    dp_hits = 0
    for seed in range(100):
        pol = OptimizerPolicy(kind="dp-exact", scheme="server", iterations=5000,
                              seed=seed)
        res = run(net, pol)
        if res.best_energy >= ustar - 1e-9:
            dp_hits += 1

    greedy_verified = 0
    for seed in range(100):
        pol = OptimizerPolicy(kind="greedy", scheme="server", iterations=5000,
                              seed=seed)
        res = run(net, pol)
        state = SystemState.from_configuration(net, res.final_configuration, "server")
        u = state.energy()
        local_opt = True
        for i in range(net.n_clients):
            _, values = state.association_candidates(i)
            if values.max() > u + 1e-9:
                local_opt = False
        for n in range(net.n_vaps):
            _, values = state.channel_candidates(n)
            if values.max() > u + 1e-9:
                local_opt = False
        if local_opt:
            greedy_verified += 1

    elapsed = time.time() - start
    ok = dp_hits >= 95 and greedy_verified == 100 and elapsed < 120
    detail = (
        f"DP reached U*={ustar:.6f} on {dp_hits}/100 seeds by t=5000; "
        f"greedy verified local optimum on {greedy_verified}/100; {elapsed:.1f}s"
    )
    _report(6, "convergence", ok, detail, capsys)


def test_07_fixed_temperature_gibbs_measure(capsys):
    net = builtin("micro").to_network()
    digests, energies = [], []
    for chan in itertools.product(range(net.n_channels), repeat=net.n_vaps):
        for assoc in itertools.product(range(net.n_vaps), repeat=net.n_clients):
            st = SystemState(net, "server", np.array(assoc), np.array(chan))
            digests.append(st.to_configuration().digest())
            energies.append(st.energy())
    energies = np.array(energies)
    pi = np.exp(energies - energies.max())
    pi /= pi.sum()
    index = {d: j for j, d in enumerate(digests)}

    pol = OptimizerPolicy(
        kind="dp-exact", scheme="server", selection="random",
        schedule=Schedule(kind="const", t0=1.0), seed=0,
    )
    rng = np.random.default_rng(42)
    assoc, chan = initial_configuration(net, rng)
    state = SystemState(net, "server", assoc, chan)
    t = 0
    for t in range(1, 2001):  # burn-in
        gibbs_step(state, t, pol, rng)
    counts = np.zeros(len(digests))
    thin, n_samples = 40, 5000
    for _ in range(n_samples):
        for _ in range(thin):
            t += 1
            gibbs_step(state, t, pol, rng)
        counts[index[state.to_configuration().digest()]] += 1

    expected = pi * n_samples
    small = expected < 5
    obs = np.concatenate([counts[~small], [counts[small].sum()]])
    exp = np.concatenate([expected[~small], [expected[small].sum()]])
    chi2, p = stats.chisquare(obs, exp)
    ok = p > 0.01
    _report(7, "Gibbs measure", ok,
            f"chi2={chi2:.2f} over {len(obs)} cells, p={p:.4f}", capsys)


def test_08_line3_one_channel(capsys):
    start = time.time()
    net = builtin("line3-1ch").to_network()
    middle = "ap1/r0"

    def metrics(cfg):
        state = SystemState.from_configuration(net, cfg, "server")
        return state.energy(), state.weighted_throughput()

    dp = run(net, OptimizerPolicy(kind="dp-exact", scheme="server", iterations=5000,
                                  seed=0))
    greedy = run(net, OptimizerPolicy(kind="greedy", scheme="server", iterations=5000,
                                      seed=0))
    base = minint_wifi_run(net, seed=0)

    dp_cfg = dp.best_configuration
    dp_all_middle = all(v == middle for v in dp_cfg.association.values())
    gr_all_middle = all(
        v == middle for v in greedy.final_configuration.association.values()
    )
    dp_u, dp_wr = metrics(dp_cfg)
    gr_u, gr_wr = greedy.final_energy, greedy.final_weighted_throughput
    mi_u, mi_wr = base.final_energy, base.final_weighted_throughput
    elapsed = time.time() - start
    ok = (
        dp_all_middle and gr_all_middle
        and dp_u >= gr_u - 1e-9 and gr_u >= mi_u
        and dp_wr >= gr_wr - 1e-9 and gr_wr >= mi_wr
        and elapsed < 60
    )
    detail = (
        f"DP/greedy all-on-middle {dp_all_middle}/{gr_all_middle}; "
        f"U: {dp_u:.3f} >= {gr_u:.3f} >= {mi_u:.3f}; "
        f"rate: {dp_wr:.2f} >= {gr_wr:.2f} >= {mi_wr:.2f} Mb/s; {elapsed:.1f}s"
    )
    _report(8, "line3 one channel", ok, detail, capsys)


def test_09_line3_two_channels(capsys):
    net = builtin("line3-2ch").to_network()
    picked = minint_channel_selection(net, restarts=20, seed=0)
    minint_chans = [net.channel_ids[c] for c in picked.channels]
    base = minint_wifi_run(net, seed=0)

    dp = run(net, OptimizerPolicy(kind="dp-exact", scheme="server", iterations=10000,
                                  seed=0))
    dp_cfg = dp.best_configuration
    state = SystemState.from_configuration(net, dp_cfg, "server")
    dp_u, dp_wr = state.energy(), state.weighted_throughput()

    ok = (
        minint_chans == ["ch-16000", "ch-2400", "ch-16000"]
        and dp_cfg.channel["ap1/r0"] == "ch-16000"
        and dp_u > base.final_energy
        and dp_wr > base.final_weighted_throughput
    )
    detail = (
        f"MinInt channels {minint_chans}; DP middle on {dp_cfg.channel['ap1/r0']}; "
        f"U {dp_u:.3f} vs {base.final_energy:.3f}, "
        f"rate {dp_wr:.2f} vs {base.final_weighted_throughput:.2f} Mb/s"
    )
    _report(9, "line3 two channels", ok, detail, capsys)


def test_10_grid16_policy_ordering(capsys):
    start = time.time()
    summaries = {}
    for variant in ("grid16-unweighted", "grid16-weighted"):
        scn = builtin(variant)
        children = np.random.SeedSequence(0).spawn(20)
        seeds = [tuple(int(s) for s in c.generate_state(2, dtype=np.uint32))
                 for c in children]
        wr = {"dp": [], "greedy": [], "minint": []}
        for scen_seed, pol_seed in seeds:
            net = scn.reseeded(scen_seed).to_network()
            dp = run(net, OptimizerPolicy(kind="dp-exact", scheme="server",
                                          iterations=60000, seed=pol_seed))
            best = SystemState.from_configuration(net, dp.best_configuration, "server")
            wr["dp"].append(best.weighted_throughput())
            greedy = run(net, OptimizerPolicy(kind="greedy", scheme="server",
                                              iterations=60000, seed=pol_seed))
            wr["greedy"].append(greedy.final_weighted_throughput)
            wr["minint"].append(
                minint_wifi_run(net, seed=pol_seed).final_weighted_throughput
            )
        summaries[variant] = {k: float(np.mean(v)) for k, v in wr.items()}

    elapsed = time.time() - start
    ok = elapsed < 1800
    lines = []
    for variant, m in summaries.items():
        ratio_g = m["greedy"] / m["dp"]
        ratio_m = m["minint"] / m["dp"]
        ok = ok and m["dp"] > m["greedy"] > m["minint"]
        ok = ok and ratio_m < 0.6 and 0.70 <= ratio_g <= 0.95
        lines.append(
            f"{variant}: DP {m['dp']:.1f} > greedy {m['greedy']:.1f} "
            f"({ratio_g:.2f}x) > minint {m['minint']:.1f} ({ratio_m:.2f}x)"
        )
    _report(10, "grid16 ordering", ok, "; ".join(lines) + f"; {elapsed:.0f}s", capsys)


def test_11_csv_determinism(tmp_path, capsys):
    args = ["run", "--scenario", "line3-2ch", "--policy", "dp-exact",
            "--iters", "600", "--runs", "2", "--seed", "11"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = main(args + ["--out-dir", str(out1)])
    code2 = main(args + ["--out-dir", str(out2)])
    csv1 = (out1 / "trajectory.csv").read_bytes()
    csv2 = (out2 / "trajectory.csv").read_bytes()
    jsons_equal = all(
        (out1 / f"r{k:03d}.json").read_bytes() == (out2 / f"r{k:03d}.json").read_bytes()
        for k in range(2)
    )
    with (out1 / "trajectory.csv").open() as fh:
        n_rows = sum(1 for _ in csv.reader(fh)) - 1
    ok = code1 == 0 and code2 == 0 and csv1 == csv2 and jsons_equal and n_rows > 0
    _report(11, "determinism", ok,
            f"{n_rows} trajectory rows byte-identical across repeated runs", capsys)
