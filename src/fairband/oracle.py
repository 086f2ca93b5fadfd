"""Independent checks: plain-loop evaluation, exhaustive search, numeric
optimization of the fast-timescale variables.

Everything in here is deliberately slow and simple. It recomputes rates,
interference and success probabilities from positions and dictionaries
without touching the vectorized engine, so agreement between the two paths
is meaningful evidence of correctness rather than a tautology. One evaluator
per channel map, `_Plain`, writes the link and interference tests and each
scheme's rate formula once, and all three checks below read them from it.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .checks import check_integer
from .fairness import SCHEME_SERVER, _check_scheme
from .model import Network, ScenarioError
from .radio import channel_profile, link_rate


class _Plain:
    """Links, interference and rates under one channel map, by plain loops."""

    def __init__(self, net: Network, channel_map: dict[str, str]):
        self.net = net
        self.channel_map = channel_map
        self.profiles = {c.id: channel_profile(c, net.radio_model) for c in net.channels}
        self.vpos = dict(zip(net.vap_ids, net.vap_positions.tolist()))

    def link(self, client, vap: str) -> float:
        """The client's link rate to the radio on the radio's channel."""
        return link_rate(client.position, self.vpos[vap], self.profiles[self.channel_map[vap]])

    def interfere(self, a: str, b: str) -> bool:
        if self.channel_map[a] != self.channel_map[b]:
            return False
        reach = self.profiles[self.channel_map[a]].interference_range_m
        return math.dist(self.vpos[a], self.vpos[b]) <= reach

    def rates(self, association: dict[str, str], scheme: str, p, phi=None) -> list:
        """Each client's rate, in client order, from explicit products: under
        the server scheme p maps each radio to its access probability and
        phi[i] is client i's airtime share; under the client scheme p[i] is
        client i's own access probability."""
        clients, rates = self.net.clients, []
        for i, cl in enumerate(clients):
            n = association[cl.id]
            if scheme == SCHEME_SERVER:
                succ = p[n]
                for m in self.net.vap_ids:
                    if m != n and self.interfere(n, m):
                        succ *= 1.0 - p[m]
                rates.append(self.link(cl, n) * phi[i] * succ)
            else:
                succ = p[i]
                for j, other in enumerate(clients):
                    if j != i and self.interfere(n, association[other.id]):
                        succ *= 1.0 - p[j]
                rates.append(self.link(cl, n) * succ)
        return rates

    def energy(self, association: dict[str, str], scheme: str) -> float:
        """The closed-form optimum's sum_i w_i log r_i (see oracle_energy)."""
        net = self.net
        w_ap = {v: 0.0 for v in net.vap_ids}
        for cl in net.clients:
            w_ap[association[cl.id]] += cl.weight
        z = {
            v: sum(w_ap[m] for m in net.vap_ids if self.interfere(v, m))
            for v in net.vap_ids
        }
        if scheme == SCHEME_SERVER:
            p = {v: (w_ap[v] / z[v] if w_ap[v] > 0 else 0.0) for v in net.vap_ids}
            phi = [cl.weight / w_ap[association[cl.id]] for cl in net.clients]
        else:
            p = [cl.weight / z[association[cl.id]] for cl in net.clients]
            phi = None
        rates = self.rates(association, scheme, p, phi)
        if any(r <= 0 for r in rates):
            return -math.inf
        total = 0.0
        for cl, r in zip(net.clients, rates):
            total += cl.weight * math.log(r)
        return total


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
    return _Plain(net, channel_map).energy(association, scheme)


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
    iteration order. Raises ValueError when the search space exceeds limit
    and ScenarioError when a client has no positive-rate AP on any channel.
    """
    _check_scheme(scheme)
    check_integer("limit", limit, 1)
    if net.n_channels ** net.n_vaps > limit:
        raise ValueError("channel space alone exceeds the enumeration limit")

    best: EnumerationResult | None = None
    evaluated = 0
    reached = set()
    for chan_combo in itertools.product(net.channel_ids, repeat=net.n_vaps):
        plain = _Plain(net, dict(zip(net.vap_ids, chan_combo)))
        feasible = [[v for v in net.vap_ids if plain.link(cl, v) > 0] for cl in net.clients]
        reached.update(cl.id for cl, f in zip(net.clients, feasible) if f)
        if any(not f for f in feasible):
            continue
        evaluated += math.prod(len(f) for f in feasible)
        if evaluated > limit:
            raise ValueError(f"enumeration exceeds limit of {limit} configurations")
        for combo in itertools.product(*feasible):
            association = dict(zip(net.client_ids, combo))
            u = plain.energy(association, scheme)
            if best is None or u > best.energy:
                best = EnumerationResult(association, plain.channel_map, u, 0)
    if best is None:  # then some client is reached on no channel at all
        bad = next(cl.id for cl in net.clients if cl.id not in reached)
        raise ScenarioError(f"client {bad!r} has no positive-rate AP on any channel")
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
    instances that independently confirm the closed-form optimum: samples
    and max_dims are integers >= 1, refine and seed integers >= 0. This is
    the only function that loads scipy.optimize; importing fairband does not.
    """
    for name, value, minimum in (("samples", samples, 1), ("refine", refine, 0),
                                 ("seed", seed, 0), ("max_dims", max_dims, 1)):
        check_integer(name, value, minimum)
    # imported here: scipy.optimize adds about 23 MB of RSS and 0.25 s to an import
    from scipy.optimize import minimize

    _check_scheme(scheme)
    plain = _Plain(net, channel_map)
    weights = np.array([c.weight for c in net.clients])
    assoc = [association[c.id] for c in net.clients]
    if any(plain.link(cl, association[cl.id]) <= 0 for cl in net.clients):
        return -math.inf

    rng = np.random.default_rng(seed)
    I = net.n_clients

    if scheme == SCHEME_SERVER:
        occupied = [v for v in net.vap_ids if any(a == v for a in assoc)]
        members = {v: [i for i in range(I) if assoc[i] == v] for v in occupied}
        dims = I + len(occupied)
        constraints = [
            {
                "type": "eq",
                "fun": (lambda x, idx=members[v]: x[list(idx)].sum() - 1.0),
            }
            for v in occupied
        ]

        def draw():
            x = np.empty(dims)
            for v in occupied:
                idx = members[v]
                x[idx] = rng.dirichlet(np.ones(len(idx)))
            x[I:] = rng.uniform(0.0, 1.0, size=len(occupied))
            return x

    else:
        dims, constraints = I, []

        def draw():
            return rng.uniform(0.0, 1.0, size=dims)

    if dims > max_dims:
        raise ValueError(f"{dims} free variables exceed the numeric budget")
    bounds = [(1e-9, 1.0)] * dims

    def objective(x):
        if scheme == SCHEME_SERVER:
            # x holds the airtime shares, then the occupied radios' access
            # probabilities; an unoccupied radio's p = 0.0 is a factor of exactly 1.0
            p = dict.fromkeys(net.vap_ids, 0.0)
            p.update(zip(occupied, x[I:]))
            r = np.array(plain.rates(association, scheme, p, x[:I]))
        else:
            r = np.array(plain.rates(association, scheme, x))
        if (r <= 0).any():
            return -1e30
        return float((weights * np.log(r)).sum())

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
