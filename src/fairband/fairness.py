"""Fast-timescale allocation: scheduling, channel access and system energy.

For a fixed configuration (association + channels) the weighted
proportional-fairness objective sum_i w_i log r_i has closed-form optimal
allocations under both access schemes:

* server scheme: radio n transmits in a slot with probability p_n and, on
  success, serves client i with probability phi_{i,n}. Optimal values are
  phi = w_i / w^n and p_n = w^n / z^n.
* client scheme: each client contends directly with probability
  p_i = w_i / z^{n(i)}; there is no scheduling stage.

Plugging the optima back in collapses the objective to a function of the
per-AP aggregates (w^n, z^n) alone, which this module calls the energy of
the configuration. A transmission succeeds only when no other radio (or
client) in the same-channel interference set transmits in the slot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .model import Configuration, Network

SCHEME_SERVER = "server"
SCHEME_CLIENT = "client"
SCHEMES = (SCHEME_SERVER, SCHEME_CLIENT)


def _check_scheme(scheme: str):
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


@dataclass
class Allocation:
    """A concrete fast-timescale operating point.

    schedule maps client id to phi (server scheme only, None otherwise);
    access maps radio id to p_n under the server scheme and client id to
    p_i under the client scheme.
    """

    scheme: str
    schedule: dict[str, float] | None
    access: dict[str, float]


@dataclass
class ThroughputReport:
    """Per-client rates plus the two headline metrics for one allocation."""

    rates: dict[str, float]
    feasible: bool
    energy: float  # sum_i w_i log r_i; -inf when any r_i is zero
    weighted_throughput: float  # sum_i w_i r_i


def _f_term(w, z):
    """w log(w/z) + (z - w) log((z - w)/z) with 0 log 0 = 0.

    This is the access-probability part of the energy for one contention
    neighborhood: load w transmitting against total neighborhood load z.
    Zero-load entries contribute exactly nothing.
    """
    rest = np.maximum(np.asarray(z, dtype=float) - w, 0.0)
    return xlogy(w, w) + xlogy(rest, rest) - xlogy(z, z)


def optimal_allocation(
    network: Network, config: Configuration, scheme: str = SCHEME_SERVER
) -> Allocation:
    """The closed-form optimal allocation of a configuration; see
    SystemState.allocation."""
    return SystemState.from_configuration(network, config, scheme).allocation()


def _validate_allocation(network: Network, config: Configuration, alloc: Allocation):
    for key, p in alloc.access.items():
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"access probability out of range for {key!r}: {p}")
    if alloc.scheme == SCHEME_SERVER:
        if alloc.schedule is None:
            raise ValueError("server scheme requires a schedule")
        sums: dict[str, float] = {}
        for cid in network.client_ids:
            phi = alloc.schedule[cid]
            if phi < 0:
                raise ValueError(f"schedule weight negative for {cid!r}")
            v = config.association[cid]
            sums[v] = sums.get(v, 0.0) + phi
        for v, s in sums.items():
            if abs(s - 1.0) > 1e-9:
                raise ValueError(f"schedule for {v!r} sums to {s}, expected 1")


def throughput(
    network: Network, config: Configuration, allocation: Allocation
) -> ThroughputReport:
    """Per-slot expected rates for an arbitrary allocation.

    A radio's transmission succeeds when no other same-channel radio in its
    interference set transmits; the p/(1-p) closed form is singular at p = 1,
    so the success probability is evaluated as p_n times the product of
    (1 - p_m) over the other interferers, which is finite everywhere.
    """
    _validate_allocation(network, config, allocation)
    chan = network.channel_array(config.channel)
    assoc = network.association_array(config.association)
    I = network.n_clients
    rates_now = network.rates[np.arange(I), assoc, chan[assoc]]
    phi = (
        np.array([allocation.schedule[c] for c in network.client_ids], dtype=float)
        if allocation.scheme == SCHEME_SERVER
        else None
    )
    r = _slot_rates(
        allocation.scheme,
        _same_channel_adjacency(network, chan),
        assoc,
        rates_now,
        _access_vector(network, allocation),
        phi,
    )

    feasible = bool((r > 0).all())
    w = network.weights
    energy = float((w * np.log(r)).sum()) if feasible else -math.inf
    return ThroughputReport(
        rates={network.client_ids[i]: float(r[i]) for i in range(I)},
        feasible=feasible,
        energy=energy,
        weighted_throughput=float((w * r).sum()),
    )


def energy(network: Network, config: Configuration, scheme: str = SCHEME_SERVER) -> float:
    """Closed-form optimum of sum_i w_i log r_i for a configuration.

    Returns -inf when some client sits on a zero-rate link; callers that
    need a hard flag should use SystemState.feasible or a ThroughputReport.
    """
    state = SystemState.from_configuration(network, config, scheme)
    return state.energy()


def _same_channel_adjacency(network: Network, chan: np.ndarray) -> np.ndarray:
    V = network.n_vaps
    idx = np.arange(V)
    adj_cur = network.adjacency[idx[:, None], idx[None, :], chan[:, None]]
    return adj_cur & (chan[None, :] == chan[:, None])


def _access_vector(network: Network, allocation: Allocation) -> np.ndarray:
    """An allocation's access probabilities in radio (server) or client order."""
    keys = network.vap_ids if allocation.scheme == SCHEME_SERVER else network.client_ids
    return np.array([allocation.access[k] for k in keys], dtype=float)


def _others_mask(scheme: str, same_ch_adj: np.ndarray, assoc: np.ndarray) -> np.ndarray:
    """Row k marks the transmitters, other than k itself, whose transmission
    collides with k's: radios under the server scheme, clients under the
    client scheme."""
    if scheme == SCHEME_SERVER:
        others = same_ch_adj.copy()
    else:
        others = same_ch_adj[np.ix_(assoc, assoc)]
    np.fill_diagonal(others, False)
    return others


def _slot_rates(
    scheme: str,
    same_ch_adj: np.ndarray,
    assoc: np.ndarray,
    rates_now: np.ndarray,
    p: np.ndarray,
    phi: np.ndarray | None,
) -> np.ndarray:
    """Per-client expected rates from access probabilities p (per radio under
    the server scheme, per client under the client scheme) and, under the
    server scheme, the schedule phi.

    A transmitter succeeds with p_k times the product of (1 - p_m) over the
    others in its contention set. That product is one masked reduce: row k of
    1 - p, multiplied only where the mask is set, starting from the identity
    1.0. Entries outside the mask are skipped, not multiplied in as 1.0, and
    the set ones are multiplied along the row in index order, so the result
    equals a loop over the set bit for bit.
    """
    others = _others_mask(scheme, same_ch_adj, assoc)
    idle = np.prod(np.broadcast_to(1.0 - p, others.shape), axis=1, where=others)
    if scheme == SCHEME_SERVER:
        return rates_now * phi * (p * idle)[assoc]
    return rates_now * p * idle


class SystemState:
    """Mutable configuration with vectorized energy and candidate evaluation.

    The same-channel adjacency ``same_ch_adj`` (with a float copy for
    mat-vecs) is updated in place: a channel move rewrites only the mover's
    row and column, and both hold exact booleans, so nothing can drift. The
    link table ``_lb`` (I x V) holds every client's log rate to every radio
    on that radio's current channel; a channel move rewrites the mover's
    column, copied from ``net.log_rates``, so it too stays exact. The loads ``w_ap`` and ``z``
    and the link term are rebuilt from scratch after every applied move.
    Association candidates are neighborhood-local closed forms: O(I + V)
    vector work plus one mat-vec with the adjacency, and no V x V
    temporaries. All arrays are indexed in network order.
    """

    def __init__(self, network: Network, scheme: str, assoc: np.ndarray, chan: np.ndarray):
        _check_scheme(scheme)
        self.net = network
        self.scheme = scheme
        self.assoc = np.asarray(assoc, dtype=np.int64).copy()
        self.chan = np.asarray(chan, dtype=np.int64).copy()
        if self.assoc.shape != (network.n_clients,):
            raise ValueError("association array has the wrong shape")
        if self.chan.shape != (network.n_vaps,):
            raise ValueError("channel array has the wrong shape")
        self._clients = np.arange(network.n_clients)
        self._vaps = np.arange(network.n_vaps)
        self.same_ch_adj = _same_channel_adjacency(network, self.chan)
        self._adj = self.same_ch_adj.astype(float)
        # log_rates[:, v, chan[v]] gathered in C order, so a client's row is contiguous
        self._lb = np.take(
            network.log_rates.reshape(network.n_clients, -1),
            self._vaps * network.n_channels + self.chan,
            axis=1,
        )
        self._refresh_loads()

    @classmethod
    def from_configuration(
        cls, network: Network, config: Configuration, scheme: str = SCHEME_SERVER
    ) -> "SystemState":
        return cls(
            network,
            scheme,
            network.association_array(config.association),
            network.channel_array(config.channel),
        )

    def to_configuration(self) -> Configuration:
        return self.net.configuration(self.assoc, self.chan)

    def copy(self) -> "SystemState":
        return SystemState(self.net, self.scheme, self.assoc, self.chan)

    # -- aggregate maintenance -------------------------------------------

    def _refresh_loads(self):
        net = self.net
        self.w_ap = np.bincount(self.assoc, weights=net.weights, minlength=net.n_vaps)
        self.z = self._adj @ self.w_ap
        self._log_b_clients = self._lb[self._clients, self.assoc]
        self.feasible = bool(np.isfinite(self._log_b_clients).all())
        self.b_term = (
            float((net.weights * self._log_b_clients).sum()) if self.feasible else -math.inf
        )

    def apply_association(self, client: int, target_vap: int):
        self.assoc[client] = target_vap
        self._refresh_loads()

    def apply_channel(self, vap: int, target_channel: int):
        self.chan[vap] = target_channel
        row = self.net.adjacency[vap, :, target_channel] & (self.chan == target_channel)
        self.same_ch_adj[vap, :] = row
        self.same_ch_adj[:, vap] = row
        self._adj[vap, :] = row
        self._adj[:, vap] = row
        self._lb[:, vap] = self.net.log_rates[:, vap, target_channel]
        self._refresh_loads()

    # -- energy -----------------------------------------------------------

    def energy(self) -> float:
        if not self.feasible:
            return -math.inf
        if self.scheme == SCHEME_SERVER:
            access = float(_f_term(self.w_ap, self.z).sum())
            sched = self.net.sum_w_log_w - float(xlogy(self.w_ap, self.w_ap).sum())
            return self.b_term + sched + access
        zs = self.z[self.assoc]
        return self.b_term + float(_f_term(self.net.weights, zs).sum())

    # -- candidate evaluation ----------------------------------------------

    def _without(self, client: int):
        """The client's weight, the loads with it taken out of the system, and
        its row of the link table (a read-only view)."""
        a = int(self.assoc[client])
        wi = self.net.weights[client]
        w_minus = self.w_ap.copy()
        w_minus[a] = max(w_minus[a] - wi, 0.0)
        z_minus = self.z - wi * self._adj[a]
        return wi, w_minus, z_minus, self._lb[client]

    def association_candidates(self, client: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact energies of moving one client to each radio.

        Returns (values, feasible): values[b] is the full system energy with
        the client on radio b (-inf when that link has zero rate), so
        differences of entries are exact energy deltas.

        Closed form, with psi(x) = x log x, A the same-channel adjacency
        (A[b, b] = 1), w-, z- the loads with the client taken out and
        z+ = z- + w_i. On candidate b the client adds w_i to w-_b and to z-_n
        for every n with A[b, n] = 1, and nothing else changes. Let
        g = psi(z-) - psi(z+) and lb_b the client's log rate on b. Server
        scheme: the psi(w_n) of scheduling and access cancel, so
        U = sum_i w_i log(B_i w_i) + sum_n [psi(z_n - w_n) - psi(z_n)] with
        B_i the rate of client i's link, and

            values[b] = c + w_i lb_b + (A d)_b - d_b + g_b,
            d_n = psi(z+_n - w-_n) - psi(z-_n - w-_n) + g_n,

        where d_n is the change of neighbor n's term and c collects the terms
        that do not depend on b. Client scheme: another client j changes its
        term by delta_j when its radio is a neighbor of b;
        D = bincount(assoc, delta) sums those per radio and

            values[b] = c + w_i lb_b + (A D)_b + g_b.

        Either way the cost is O(I + V) vector work plus one mat-vec with A.
        """
        net = self.net
        wi, w_minus, z_minus, lb = self._without(client)
        feasible = np.isfinite(lb)
        psi_zm = xlogy(z_minus, z_minus)
        z_plus = z_minus + wi
        g = psi_zm - xlogy(z_plus, z_plus)
        c = self.b_term - wi * self._log_b_clients[client] + net.sum_w_log_w

        if self.scheme == SCHEME_SERVER:
            rest = np.maximum(z_minus - w_minus, 0.0)
            rest_plus = np.maximum(z_plus - w_minus, 0.0)
            psi_rest = xlogy(rest, rest)
            d = xlogy(rest_plus, rest_plus) - psi_rest + g
            c += float((psi_rest - psi_zm).sum())
            local = self._adj @ d - d
        else:
            w = net.weights
            zs = z_minus[self.assoc]
            zs_plus = zs + wi
            rest = np.maximum(zs - w, 0.0)
            rest_plus = np.maximum(zs_plus - w, 0.0)
            h = xlogy(rest, rest) - xlogy(zs, zs)  # f(w_j, z) - psi(w_j)
            delta = xlogy(rest_plus, rest_plus) - xlogy(zs_plus, zs_plus) - h
            h[client] = 0.0
            delta[client] = 0.0
            c += float(h.sum())
            local = self._adj @ np.bincount(self.assoc, weights=delta, minlength=net.n_vaps)
        values = c + wi * np.where(feasible, lb, 0.0) + local + g
        values = np.where(feasible, values, -np.inf)
        return values, feasible

    def association_scores_approx(self, client: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighborhood-local association scores.

        Server scheme: w_i log(B w_i / z^n) plus w_i times the log success
        probability of the candidate's same-channel neighbors, all under the
        post-move aggregates. Client scheme: the analogous local form for
        direct contention. Shared constants are dropped; only differences
        between candidates matter.

        With the notation of association_candidates, a neighbor n != b of
        candidate b sees z+_n and w-_n, so its log idle probability
        q_n = log(z+_n - w-_n) - log(z+_n) does not depend on b, and the
        server neighbor term is (A q)_b - q_b. Under the client scheme each
        other client j contributes log(z+_{n(j)} - w_j) - log(z+_{n(j)}),
        summed per radio into Q by bincount, and the neighbor term is (A Q)_b.
        """
        net = self.net
        wi, w_minus, z_minus, lb = self._without(client)
        feasible = np.isfinite(lb)
        z_plus = z_minus + wi
        log_zp = np.log(z_plus)
        own = np.where(feasible, lb, 0.0) + math.log(wi) - log_zp

        if self.scheme == SCHEME_SERVER:
            with np.errstate(divide="ignore", invalid="ignore"):
                q = np.log(np.maximum(z_plus - w_minus, 0.0)) - log_zp
            scores = wi * (own + (self._adj @ q - q))
        else:
            zs_plus = z_plus[self.assoc]
            with np.errstate(divide="ignore", invalid="ignore"):
                idle = np.log(np.maximum(zs_plus - net.weights, 0.0)) - np.log(zs_plus)
            idle[client] = 0.0
            neighbor_term = self._adj @ np.bincount(
                self.assoc, weights=idle, minlength=net.n_vaps
            )
            zb = np.maximum(z_plus - wi, 0.0)  # candidate neighborhood without i
            crowd = zb * log_zp - xlogy(zb, zb)
            scores = wi * own + wi * neighbor_term - crowd
        scores = np.where(feasible, scores, -np.inf)
        return scores, feasible
    def channel_candidates(self, vap: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact energies of switching one radio to each channel.

        A channel is infeasible when any client of the radio would lose its
        link. A clientless radio can take any channel without changing the
        energy of anyone.
        """
        net = self.net
        V, C = net.n_vaps, net.n_channels
        members = np.nonzero(self.assoc == vap)[0]
        wm = net.weights[members]

        lb_members = net.log_rates[members, vap, :]  # (k, C)
        feasible = (
            np.isfinite(lb_members).all(axis=0)
            if members.size
            else np.ones(C, dtype=bool)
        )
        cand_b = (
            (wm[:, None] * np.where(np.isfinite(lb_members), lb_members, 0.0)).sum(axis=0)
            if members.size
            else np.zeros(C)
        )
        b_wo = self.b_term - (
            float((wm * self._log_b_clients[members]).sum()) if members.size else 0.0
        )

        load = self.w_ap[vap]
        z_base = self.z - load * self.same_ch_adj[vap]
        new_mask = net.adjacency[vap].T & (self.chan[None, :] == np.arange(C)[:, None])
        new_mask[:, vap] = False
        Z = z_base[None, :] + load * new_mask
        Z[:, vap] = load + (new_mask * self.w_ap[None, :]).sum(axis=1)

        if self.scheme == SCHEME_SERVER:
            sched = net.sum_w_log_w - float(xlogy(self.w_ap, self.w_ap).sum())
            access = _f_term(self.w_ap[None, :], Z).sum(axis=1)
            values = b_wo + cand_b + sched + access
        else:
            zs = Z[:, self.assoc]
            values = b_wo + cand_b + _f_term(net.weights[None, :], zs).sum(axis=1)
        values = np.where(feasible, values, -np.inf)
        return values, feasible

    # -- derived metrics ----------------------------------------------------

    def access_probabilities(self) -> np.ndarray:
        """Optimal p per radio (server) or per client (client scheme)."""
        if self.scheme == SCHEME_SERVER:
            return np.divide(
                self.w_ap, self.z, out=np.zeros_like(self.w_ap), where=self.z > 0
            )
        return self.net.weights / self.z[self.assoc]

    def allocation(self) -> Allocation:
        """The optimal allocation as id-keyed maps.

        Server scheme: phi_i = w_i / w^{n(i)} per client and p_n = w^n / z^n
        per radio, with p_n = 0 for a clientless radio. Client scheme:
        p_i = w_i / z^{n(i)} per client and no schedule.
        """
        net = self.net
        p = self.access_probabilities().tolist()
        if self.scheme == SCHEME_CLIENT:
            return Allocation(self.scheme, None, dict(zip(net.client_ids, p)))
        phi = (net.weights / self.w_ap[self.assoc]).tolist()
        return Allocation(
            self.scheme, dict(zip(net.client_ids, phi)), dict(zip(net.vap_ids, p))
        )

    def rates(self) -> np.ndarray:
        """Per-client rates under the optimal allocation for this state."""
        net = self.net
        rates_now = net.rates[self._clients, self.assoc, self.chan[self.assoc]]
        phi = net.weights / self.w_ap[self.assoc] if self.scheme == SCHEME_SERVER else None
        return _slot_rates(
            self.scheme, self.same_ch_adj, self.assoc, rates_now,
            self.access_probabilities(), phi,
        )

    def weighted_throughput(self) -> float:
        return float((self.net.weights * self.rates()).sum())


def slot_monte_carlo(
    network: Network,
    config: Configuration,
    allocation: Allocation,
    slots: int,
    seed: int = 0,
) -> dict[str, float]:
    """Empirical per-client rates from simulated random-access slots.

    Each slot draws independent transmit decisions; a transmission succeeds
    only when nothing else in the same-channel interference set transmits.
    Under the server scheme a successful radio serves one client drawn from
    its schedule. Returns Mbps averaged over slots.
    """
    _validate_allocation(network, config, allocation)
    rng = np.random.default_rng(seed)
    chan = network.channel_array(config.channel)
    assoc = network.association_array(config.association)
    I, V = network.n_clients, network.n_vaps
    rates_now = network.rates[np.arange(I), assoc, chan[assoc]]
    others = _others_mask(
        allocation.scheme, _same_channel_adjacency(network, chan), assoc
    ).T.astype(np.int64)
    p = _access_vector(network, allocation)
    batch = 200_000

    # transmitters are radios (server) or clients (client scheme)
    wins = np.zeros(len(p), dtype=np.int64)
    done = 0
    while done < slots:
        n = min(batch, slots - done)
        tx = rng.random((n, len(p))) < p[None, :]
        clash = tx.astype(np.int64) @ others
        wins += (tx & (clash == 0)).sum(axis=0)
        done += n

    if allocation.scheme == SCHEME_SERVER:
        counts = np.zeros(I, dtype=np.int64)
        for v in range(V):
            members = np.nonzero(assoc == v)[0]
            if members.size == 0 or wins[v] == 0:
                continue
            phi = np.array(
                [allocation.schedule[network.client_ids[i]] for i in members]
            )
            total = phi.sum()
            if total <= 0:
                continue
            counts[members] += rng.multinomial(wins[v], phi / total)
        r = rates_now * counts / slots
    else:
        r = rates_now * wins / slots

    return {network.client_ids[i]: float(r[i]) for i in range(I)}
