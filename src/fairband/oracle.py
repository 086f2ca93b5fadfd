"""Independent checks: plain-loop evaluation, exhaustive search, numeric
optimization of the fast-timescale variables.

Everything in here is deliberately slow and simple. It recomputes rates,
interference and success probabilities from positions and dictionaries
without touching the vectorized engine, so agreement between the two paths
is meaningful evidence of correctness rather than a tautology.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fairness import SCHEME_CLIENT, SCHEME_SERVER, _check_scheme
from .model import Network
from .radio import channel_profile, link_rate


def _profiles(net: Network) -> dict:
    return {c.id: channel_profile(c, net.radio_model) for c in net.channels}


def oracle_energy(
    net: Network,
    association: dict[str, str],
    channel_map: dict[str, str],
    scheme: str = SCHEME_SERVER,
) -> float:
    """sum_i w_i log r_i at the optimal allocation, by direct computation.

    Rates come straight from the tier tables, interference from pairwise
    distances, and the success probabilities from explicit products. Returns
    -inf when some client ends up with zero rate.
    """
    _check_scheme(scheme)
    profiles = _profiles(net)
    vpos = dict(zip(net.vap_ids, net.vap_positions.tolist()))
    weights = {c.id: c.weight for c in net.clients}

    link = {}
    for cl in net.clients:
        vid = association[cl.id]
        link[cl.id] = link_rate(cl.position, vpos[vid], profiles[channel_map[vid]])
    if any(b <= 0 for b in link.values()):
        return -math.inf

    w_ap = {v: 0.0 for v in net.vap_ids}
    for cl in net.clients:
        w_ap[association[cl.id]] += weights[cl.id]

    def interfere(a: str, b: str) -> bool:
        if channel_map[a] != channel_map[b]:
            return False
        reach = profiles[channel_map[a]].interference_range_m
        return math.dist(vpos[a], vpos[b]) <= reach

    z = {
        v: sum(w_ap[m] for m in net.vap_ids if interfere(v, m))
        for v in net.vap_ids
    }

    total = 0.0
    if scheme == SCHEME_SERVER:
        p = {v: (w_ap[v] / z[v] if w_ap[v] > 0 else 0.0) for v in net.vap_ids}
        for cl in net.clients:
            n = association[cl.id]
            phi = weights[cl.id] / w_ap[n]
            succ = p[n]
            for m in net.vap_ids:
                if m != n and interfere(n, m):
                    succ *= 1.0 - p[m]
            r = link[cl.id] * phi * succ
            if r <= 0:
                return -math.inf
            total += weights[cl.id] * math.log(r)
        return total

    p = {cl.id: weights[cl.id] / z[association[cl.id]] for cl in net.clients}
    for cl in net.clients:
        n = association[cl.id]
        succ = p[cl.id]
        for other in net.clients:
            if other.id != cl.id and interfere(n, association[other.id]):
                succ *= 1.0 - p[other.id]
        r = link[cl.id] * succ
        if r <= 0:
            return -math.inf
        total += weights[cl.id] * math.log(r)
    return total


@dataclass
class EnumerationResult:
    association: dict[str, str]
    channel: dict[str, str]
    energy: float
    evaluated: int


def enumerate_optimum(
    net: Network, scheme: str = SCHEME_SERVER, limit: int = 10**6
) -> EnumerationResult:
    """Exhaustive search over channel maps and feasible associations.

    Keeps the first configuration achieving the maximum, in lexicographic
    iteration order. Raises ValueError when the search space exceeds limit.
    """
    _check_scheme(scheme)
    profiles = _profiles(net)
    vpos = dict(zip(net.vap_ids, net.vap_positions.tolist()))
    if net.n_channels ** net.n_vaps > limit:
        raise ValueError("channel space alone exceeds the enumeration limit")

    best: EnumerationResult | None = None
    evaluated = 0
    for chan_combo in itertools.product(net.channel_ids, repeat=net.n_vaps):
        channel_map = dict(zip(net.vap_ids, chan_combo))
        feasible = []
        for cl in net.clients:
            ok = [
                v
                for v in net.vap_ids
                if link_rate(cl.position, vpos[v], profiles[channel_map[v]]) > 0
            ]
            feasible.append(ok)
        if any(not f for f in feasible):
            continue
        count = 1
        for f in feasible:
            count *= len(f)
        evaluated += count
        if evaluated > limit:
            raise ValueError(f"enumeration exceeds limit of {limit} configurations")
        for combo in itertools.product(*feasible):
            association = dict(zip(net.client_ids, combo))
            u = oracle_energy(net, association, channel_map, scheme)
            if best is None or u > best.energy:
                best = EnumerationResult(association, channel_map, u, 0)
    if best is None:
        raise ValueError("no feasible configuration exists")
    best.evaluated = evaluated
    return best


def numeric_allocation_optimum(
    net: Network,
    association: dict[str, str],
    channel_map: dict[str, str],
    scheme: str = SCHEME_SERVER,
    samples: int = 4000,
    refine: int = 3,
    seed: int = 0,
    max_dims: int = 8,
) -> float:
    """Best sum_i w_i log r_i over the allocation variables, numerically.

    The configuration is fixed; the free variables are the airtime shares
    (per-AP simplex) and access probabilities (box). Random sampling finds
    promising starts, SLSQP polishes the best few. Intended for tiny
    instances that independently confirm the closed-form optimum. This is
    the only function that loads scipy.optimize; importing fairband does not.
    """
    # imported here: scipy.optimize adds about 23 MB of RSS and 0.25 s to an import
    from scipy.optimize import minimize

    _check_scheme(scheme)
    profiles = _profiles(net)
    vpos = dict(zip(net.vap_ids, net.vap_positions.tolist()))
    weights = np.array([c.weight for c in net.clients])
    assoc = [association[c.id] for c in net.clients]

    link = np.array(
        [
            link_rate(
                cl.position, vpos[association[cl.id]],
                profiles[channel_map[association[cl.id]]],
            )
            for cl in net.clients
        ]
    )
    if (link <= 0).any():
        return -math.inf

    def interfere(a: str, b: str) -> bool:
        if channel_map[a] != channel_map[b]:
            return False
        reach = profiles[channel_map[a]].interference_range_m
        return math.dist(vpos[a], vpos[b]) <= reach

    rng = np.random.default_rng(seed)
    I = net.n_clients

    if scheme == SCHEME_SERVER:
        occupied = [v for v in net.vap_ids if any(a == v for a in assoc)]
        members = {v: [i for i in range(I) if assoc[i] == v] for v in occupied}
        n_phi = I
        dims = n_phi + len(occupied)
        if dims > max_dims:
            raise ValueError(f"{dims} free variables exceed the numeric budget")
        vap_pos = {v: k for k, v in enumerate(occupied)}

        def objective(x):
            phi = x[:n_phi]
            p = x[n_phi:]
            r = np.empty(I)
            for i in range(I):
                n = assoc[i]
                succ = p[vap_pos[n]]
                for m in occupied:
                    if m != n and interfere(n, m):
                        succ *= 1.0 - p[vap_pos[m]]
                r[i] = link[i] * phi[i] * succ
            if (r <= 0).any():
                return -1e30
            return float((weights * np.log(r)).sum())

        constraints = [
            {
                "type": "eq",
                "fun": (lambda x, idx=members[v]: x[list(idx)].sum() - 1.0),
            }
            for v in occupied
        ]
        bounds = [(1e-9, 1.0)] * dims

        def draw():
            x = np.empty(dims)
            for v in occupied:
                idx = members[v]
                x[idx] = rng.dirichlet(np.ones(len(idx)))
            x[n_phi:] = rng.uniform(0.0, 1.0, size=len(occupied))
            return x

    else:
        dims = I
        if dims > max_dims:
            raise ValueError(f"{dims} free variables exceed the numeric budget")

        def objective(x):
            r = np.empty(I)
            for i in range(I):
                succ = x[i]
                for j in range(I):
                    if j != i and interfere(assoc[i], assoc[j]):
                        succ *= 1.0 - x[j]
                r[i] = link[i] * succ
            if (r <= 0).any():
                return -1e30
            return float((weights * np.log(r)).sum())

        constraints = []
        bounds = [(1e-9, 1.0)] * dims

        def draw():
            return rng.uniform(0.0, 1.0, size=dims)

    points = [draw() for _ in range(samples)]
    values = [objective(x) for x in points]
    order = np.argsort(values)[::-1]
    best = values[int(order[0])]
    for k in range(min(refine, len(points))):
        with warnings.catch_warnings():
            # SLSQP probes slightly outside the box and clips; harmless here
            warnings.filterwarnings("ignore", message="Values in x were outside bounds")
            res = minimize(
                lambda x: -objective(x),
                points[int(order[k])],
                method="SLSQP",
                bounds=bounds,
                constraints=constraints,
                options={"maxiter": 200, "ftol": 1e-12},
            )
        if res.success and -res.fun > best:
            best = -res.fun
    return best
