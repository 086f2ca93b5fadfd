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

SystemState evaluates a configuration: its optimal allocation, energy and
rates, and the energies of single moves. throughput and slot_monte_carlo
evaluate any given allocation, in closed form and by simulation, on the
association, link rates and contention lists of the configuration's
SystemState.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .checks import check_integer
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


def _t_term(w, z):
    """psi(z - w) - psi(z), psi(x) = x log x: the part of a transmitter's
    energy term (SystemState._f) that depends on its neighbourhood load z."""
    rest = np.maximum(np.asarray(z, dtype=float) - w, 0.0)
    return xlogy(rest, rest) - xlogy(z, z)


def _load_change(w, z, shift):
    """_t_term(w, z + shift) - _t_term(w, z): the change of a term when its
    neighbourhood load grows by shift. An entry with w = inf has no rest
    part and gives psi(z) - psi(z + shift).

    The loads after and before the change, z + shift and z, are the two rows
    of one (2, n) stack, so the rests and the psi of both take one xlogy
    each; every entry is the same arithmetic as on the rows apart, so the
    result is the same bit for bit."""
    loads = np.array((z + shift, z))
    rests = np.maximum(loads - w, 0.0)
    psi_rest, psi_load = xlogy(rests, rests), xlogy(loads, loads)
    return psi_rest[0] - psi_rest[1] + psi_load[1] - psi_load[0]


def _allocation_vectors(network: Network, config: Configuration, alloc: Allocation):
    """A validated allocation as vectors in network order: the access
    probabilities (per radio under the server scheme, per client under the
    client scheme) and the schedule (per client; None under the client
    scheme)."""
    for key, p in alloc.access.items():
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"access probability out of range for {key!r}: {p}")
    clients = network.client_ids
    if alloc.scheme == SCHEME_CLIENT:
        return np.array([alloc.access[c] for c in clients], dtype=float), None
    if alloc.schedule is None:
        raise ValueError("server scheme requires a schedule")
    sums: dict[str, float] = {}
    for cid in clients:
        phi = alloc.schedule[cid]
        if phi < 0:
            raise ValueError(f"schedule weight negative for {cid!r}")
        v = config.association[cid]
        sums[v] = sums.get(v, 0.0) + phi
    for v, s in sums.items():
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"schedule for {v!r} sums to {s}, expected 1")
    p = np.array([alloc.access[v] for v in network.vap_ids], dtype=float)
    return p, np.array([alloc.schedule[c] for c in clients], dtype=float)


def throughput(
    network: Network, config: Configuration, allocation: Allocation
) -> ThroughputReport:
    """Per-slot expected rates for an arbitrary allocation.

    A radio's transmission succeeds when no other same-channel radio in its
    interference set transmits; the p/(1-p) closed form is singular at p = 1,
    so the success probability is evaluated as p_n times the product of
    (1 - p_m) over the other interferers, which is finite everywhere.
    """
    p, phi = _allocation_vectors(network, config, allocation)
    state = SystemState.from_configuration(network, config, allocation.scheme)
    r = _slot_rates(allocation.scheme, state._contention(), state.assoc, state._link_rates(),
                    p, phi)

    feasible = bool((r > 0).all())
    w = network.weights
    energy = float((w * np.log(r)).sum()) if feasible else -math.inf
    return ThroughputReport(
        rates=dict(zip(network.client_ids, r.tolist())),
        feasible=feasible,
        energy=energy,
        weighted_throughput=float((w * r).sum()),
    )


def _same_channel_adjacency(network: Network, chan: np.ndarray) -> np.ndarray:
    """V x V bool: radios n and m share a channel and interfere on it."""
    on = network.same_channel_pairs(chan)
    adj = np.zeros((network.n_vaps, network.n_vaps), dtype=bool)
    adj[network.pair_radio[on], network.pair_vap[on]] = True
    return adj


def _entries(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every set entry of a C-ordered bool matrix, row by
    row and in ascending column order within a row: the neighbour lists of
    its rows, read with one flat nonzero."""
    flat = mask.ravel().nonzero()[0]
    return flat // mask.shape[1], flat % mask.shape[1]


def _contention_entries(scheme: str, same_ch_adj: np.ndarray, assoc: np.ndarray):
    """Every transmitter's contention set, itself included, as _entries plus
    the start of each row: radios under the server scheme, clients under the
    client scheme."""
    if scheme == SCHEME_CLIENT:
        same_ch_adj = same_ch_adj.take(assoc, axis=0).take(assoc, axis=1)
    rows, cols = _entries(same_ch_adj)
    return rows, cols, rows.searchsorted(np.arange(len(same_ch_adj)))


def _slot_rates(
    scheme: str,
    entries: tuple[np.ndarray, np.ndarray, np.ndarray],
    assoc: np.ndarray,
    rates_now: np.ndarray,
    p: np.ndarray,
    phi: np.ndarray | None,
) -> np.ndarray:
    """Per-client expected rates from access probabilities p (per radio under
    the server scheme, per client under the client scheme) and, under the
    server scheme, the schedule phi.

    A transmitter succeeds with p_k times the product of (1 - p_m) over the
    others in its contention set. entries lists each set, k itself included,
    row by row in ascending order, with where each row starts
    (_contention_entries). The factor of k's
    own entry is set to 1.0 and np.multiply.reduceat multiplies each row out
    from left to right; every row holds its own entry, so none is empty, and
    multiplying by 1.0 is exact, so the product equals a loop over the others
    in index order bit for bit.
    """
    rows, cols, starts = entries
    factors = 1.0 - p[cols]
    factors[rows == cols] = 1.0
    idle = np.multiply.reduceat(factors, starts)
    if scheme == SCHEME_SERVER:
        return rates_now * phi * (p * idle)[assoc]
    return rates_now * p * idle


class SystemState:
    """Mutable configuration with incremental energy and candidate evaluation.

    Neighbour lists: ``same_ch_adj`` (V x V bool, diagonal set) is the
    same-channel interference adjacency of the current channels, scattered
    from the network's pair lists. A channel move rewrites the mover's row
    and column from its own pair list; both hold exact booleans, so it cannot
    drift. A computation over neighbourhoods reads the neighbour lists
    of just the rows it needs with one flat ``nonzero`` (``_neighbours``) and
    sums over them with ``np.bincount``, which adds each row's entries one by
    one in ascending index order. No V x V float matrix and no channel x radio
    array is built on a step, so a step costs O(neighbourhood), not O(V^2).
    The candidate methods return only the feasible targets and their values
    and read the loads only at the entries they use.

    Link rates have one owner, the network's link lists: every rate and log
    rate is read there, at a link's position and its radio's current channel.
    The state keeps each client's position ``_link`` in those lists (-1 for a
    pair that is not a link) and, since every applied move reads it, the log
    rate ``_log_b_clients`` of that link (-inf for none). An association move
    rewrites the mover's entries, a channel move those of the radio's own
    clients.

    Cached per state and refreshed after each applied move: the loads
    ``w_ap`` (a bincount over the clients) and ``z`` (z_n sums w_ap over n's
    neighbour list); per transmitter (a radio under the server scheme, a
    client under the client scheme) psi(w) in ``_psi_w`` and the energy term
    ``_f`` = psi(w) + psi(z - w) - psi(z) of its load w and its radio's z;
    the scheduling term ``_sched`` (0 under the client scheme), the link term
    ``b_term`` and the energy ``_u``, summed from them in the order
    ``energy`` has always used, so ``energy()`` is a lookup. Kept until a
    channel move changes the neighbour lists: in ``_frames``, each evaluated
    client's reachable radios, log rates and lists (``_reach``) and each
    evaluated radio's old and new neighbourhoods (``_channel_frame``), which
    72% and 82% of the calls find there on the benchmark's line3-2ch chains,
    which run about 1.25x as fast with them; the server scheme's contention
    lists (``_edges``, read through ``_contention``).

    A move changes z only on the neighbourhoods of the radios it touches:
    N(a) and N(b) when a client moves from radio a to b, the old and the new
    neighbourhood of a radio that changes channel. ``_update`` recomputes z
    and the energy terms there, with the same bincount over the same
    neighbour lists in the same order as a fresh state, and leaves every
    other entry alone. A clientless radio that changes channel changes only
    its own z: its load is 0.0, and adding or removing 0.0 leaves every
    other z as it is, bit for bit, while its own energy term is 0 on any
    channel (see apply_channel). So the maintained arrays equal those of a
    fresh state bit for bit, and no error can build up over a chain. All
    arrays are indexed in network order.
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
        self.same_ch_adj = _same_channel_adjacency(network, self.chan)
        # each client's link to its radio (-1 for none) and its log rate
        self._link = network.link_index(np.arange(network.n_clients), self.assoc)
        self._log_b_clients = self._on_links(log=True)
        self._edges = None  # the server contention lists, until a channel move
        # client i -> _reach(i) and radio v (as ~v) -> _channel_frame(v); they
        # depend only on the channels and are dropped on a channel move
        self._frames = {}
        self.z = np.zeros(network.n_vaps)
        if scheme == SCHEME_SERVER:
            self._psi_w = np.zeros(network.n_vaps)
        else:
            self._psi_w = xlogy(network.weights, network.weights)
            self._sched = 0.0
        self._f = np.zeros(len(self._psi_w))
        self._update(np.ones(network.n_vaps, dtype=bool))

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

    # -- aggregate maintenance -------------------------------------------

    def _neighbours(self, radios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position in radios, neighbour) of every same-channel neighbour of
        the given radios, themselves included, ascending within each radio."""
        return _entries(self.same_ch_adj.take(radios, axis=0))

    def _update(self, touched: np.ndarray, loads: bool = True):
        """Bring the state up to date after a move that changed z only on the
        radios marked in touched (a bool mask), and some client's link
        (_log_b_clients is already up to date): z and the energy terms
        there, and the totals. loads: the move changed w_ap (an association
        move). The sums call np.add.reduce, the ufunc loop of ndarray.sum."""
        net = self.net
        radios = touched.nonzero()[0]
        if loads:
            self.w_ap = np.bincount(self.assoc, weights=net.weights, minlength=net.n_vaps)
        rows, nbrs = self._neighbours(radios)
        z = np.bincount(rows, weights=self.w_ap[nbrs], minlength=len(radios))
        self.z[radios] = z
        if self.scheme == SCHEME_SERVER:
            senders = radios
            w = self.w_ap[radios]
            if loads:
                self._psi_w[radios] = xlogy(w, w)
                self._sched = net.sum_w_log_w - float(np.add.reduce(self._psi_w))
        else:
            senders = touched[self.assoc].nonzero()[0]
            w, z = net.weights[senders], self.z[self.assoc[senders]]
        rest = np.maximum(z - w, 0.0)
        self._f[senders] = self._psi_w[senders] + xlogy(rest, rest) - xlogy(z, z)
        # a zero-rate link makes the sum and the energy -inf (weights are positive)
        self.b_term = float(np.add.reduce(net.weights * self._log_b_clients))
        self.feasible = self.b_term > -math.inf
        self._u = self.b_term + self._sched + float(np.add.reduce(self._f))

    def apply_association(self, client: int, target_vap: int):
        adj = self.same_ch_adj
        touched = adj[self.assoc[client]] | adj[target_vap]
        self.assoc[client] = target_vap
        self._link[client] = self.net.link_index(client, target_vap)
        self._log_b_clients[client] = self._on_links(log=True, clients=client)
        self._update(touched)

    def apply_channel(self, vap: int, target_channel: int):
        """Move the radio to the target channel. A clientless radio changes
        only its own z: its load is 0.0, so every neighbour's z, the link
        terms and every energy term stay as they are bit for bit (its own
        server term is psi(0) + psi(z) - psi(z) = 0 on any channel, and no
        client term reads its z), and so does the energy."""
        net = self.net
        adj = self.same_ch_adj
        self.chan[vap] = target_channel
        # the radio's new row, from its pair list: the partners on the target
        # channel that interfere with it there
        lo, hi = net.pair_ptr[vap], net.pair_ptr[vap + 1]
        partners = net.pair_vap[lo:hi]
        row = np.zeros(net.n_vaps, dtype=bool)
        on = net.adjacency[lo:hi, target_channel] & (self.chan[partners] == target_channel)
        row.put(partners, on)
        touched = adj[vap] | row
        adj[vap, :] = row
        adj[:, vap] = row
        self._edges = None
        self._frames.clear()
        if self.w_ap[vap]:  # the radio has clients, whose links changed
            members = (self.assoc == vap).nonzero()[0]
            self._log_b_clients[members] = self._on_links(log=True, clients=members)
            self._update(touched, loads=False)
        else:
            # z over the new neighbour list: a bincount keyed by the bool row
            # adds its set entries in ascending order, as _update's does
            self.z[vap] = np.bincount(row, weights=self.w_ap, minlength=2)[1]

    # -- energy -----------------------------------------------------------

    def energy(self) -> float:
        """sum_i w_i log r_i under the optimal allocation; -inf when some
        client sits on a zero-rate link. Cached: O(1)."""
        return self._u

    def _check_feasible(self):
        """Raise ValueError unless the state is feasible; every move needs one."""
        if not self.feasible:
            raise ValueError("state: infeasible (a client sits on a zero-rate link); "
                             "moves need a feasible state")

    # -- candidate evaluation ----------------------------------------------

    def _left_out(self, client: int, frame: tuple):
        """The loads w- and z- with the client taken out of the system, at
        the entries of its frame's neighbour lists (client scheme: of their
        sorted list, and no w-): its radio a's load loses its weight (floored
        at 0) and so does the z of every neighbour of a."""
        wi = self.net.weights[client]
        a = self.assoc[client]
        server = self.scheme == SCHEME_SERVER
        entries = frame[3] if server else frame[5]
        w = None
        if server:
            w = self.w_ap[entries]
            w[entries == a] = max(self.w_ap[a] - wi, 0.0)
        z = self.z[entries]
        z[self.same_ch_adj[a].take(entries)] -= wi
        return w, z

    def _reach(self, client: int):
        """The radios the client reaches on the current channels (ascending),
        its log rate to each, their neighbour lists (_neighbours) and the mask
        of each radio's own entry in them. Under the client scheme also the
        list entries sorted (_clients_at searches them), the position in
        that sorted list of every entry's first copy and that of each
        reachable radio. Read from the client's links; they depend only on
        the channels, so they are kept until a channel move."""
        frame = self._frames.get(client)
        if frame is None:
            net = self.net
            lo, hi = net.link_ptr[client:client + 2].tolist()
            radios = net.link_vap[lo:hi]
            lb = net.log_rates[np.arange(lo, hi), self.chan[radios]]
            usable = np.isfinite(lb)
            reach, lb = radios[usable], lb[usable]
            rows, nbrs = self._neighbours(reach)
            own = nbrs == reach[rows]
            frame = (reach, lb, rows, nbrs, own)
            if self.scheme == SCHEME_CLIENT:
                hood = np.sort(nbrs)
                slot = hood.searchsorted(nbrs)
                frame += (hood, slot, slot[own])
            self._frames[client] = frame
        return frame

    def _clients_at(self, radios: np.ndarray, but: int | None = None):
        """The clients, other than `but`, whose radio is in radios (sorted),
        and the position of that radio's first copy in radios."""
        if not radios.size:
            return radios, radios
        pos = radios.searchsorted(self.assoc)
        at = radios.take(pos, mode="clip") == self.assoc
        if but is not None:
            at[but] = False
        clients = at.nonzero()[0]
        return clients, pos[clients]

    def association_candidates(self, client: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact energies of moving one client to each radio it reaches.

        Returns (targets, values): targets are the radios with a positive-rate
        link to the client on the current channels, ascending, and values[k]
        is the full system energy with the client on targets[k], so
        differences of entries are exact energy deltas. Needs a feasible
        state (ValueError otherwise), where every value is finite. A client
        that reaches one radio can only stay on its own: the values are [U],
        read without evaluating anything.

        Closed form, evaluated only on the reachable radios F. With
        psi(x) = x log x, N(b) the same-channel neighbours of b (b included),
        w-, z- the loads with the client taken out and z+ = z- + w_i: on
        candidate b the client adds w_i to w-_b and to z-_n for every n in
        N(b), and nothing else changes. Let g = psi(z-) - psi(z+) and lb_b the
        client's log rate on b. Server scheme: the psi(w_n) of scheduling and
        access cancel, so U = sum_i w_i log(B_i w_i) + sum_n t_n with
        t_n = psi(z_n - w_n) - psi(z_n), B_i the rate of client i's link, and

            value(b) = c + w_i lb_b + E_b,  E_b = g_b + sum_{n in N(b), n != b} d_n,
            d_n = psi(z+_n - w-_n) - psi(z-_n - w-_n) + g_n,

        where d_n is the change of neighbour n's term and c does not depend on
        b. Client scheme: another client j changes its term by delta_j when
        its radio is a neighbour of b; D sums those per radio and

            E_b = g_b + sum_{n in N(b)} D_n.

        The client on its own radio a leaves the state as it is, so
        value(a) = U, c = U - w_i lb_a - E_a and

            value(b) = U + w_i (lb_b - lb_a) + E_b - E_a.

        E is one bincount over the neighbour lists of F, and d, g and delta
        are evaluated only on those lists and on the clients of their radios:
        the cost grows with the neighbourhood of F, not with V. w- and z-
        come from _left_out.
        """
        self._check_feasible()
        net = self.net
        frame = self._reach(client)
        reach, lb, rows, nbrs, own = frame[:5]
        if reach.size == 1:
            return reach, np.array([self._u])
        wi = net.weights[client]
        w, z = self._left_out(client, frame)
        if self.scheme == SCHEME_SERVER:
            w[own] = np.inf  # a candidate's own entry is g_b alone
            terms = _load_change(w, z, wi)
        else:
            hood, slot, own_slot = frame[5:]
            others, key = self._clients_at(hood, but=client)
            d = np.bincount(
                key, weights=_load_change(net.weights[others], z[key], wi),
                minlength=len(hood),
            )
            zm = z[own_slot]
            zp = zm + wi
            terms = d[slot]
        e = np.bincount(rows, weights=terms, minlength=len(reach))
        if self.scheme == SCHEME_CLIENT:
            e += xlogy(zm, zm) - xlogy(zp, zp)
        values = lb * wi + e
        values += self._u - values[reach.searchsorted(self.assoc[client])]
        return reach, values

    def association_scores_approx(self, client: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbourhood-local association scores.

        Returns (targets, scores) over the same targets as
        association_candidates. Server scheme: w_i log(B w_i / z^n) plus w_i
        times the log success probability of the candidate's same-channel
        neighbours, all under the post-move aggregates. Client scheme: the
        analogous local form for direct contention. Shared constants are
        dropped; only differences between candidates matter. Needs a
        feasible state (ValueError otherwise).

        With the notation of association_candidates, a neighbour n != b of
        candidate b sees z+_n and w-_n, so its log idle probability
        q_n = log(z+_n - w-_n) - log(z+_n) does not depend on b, and the
        server neighbour term sums q over N(b) without b. Under the client
        scheme each other client j contributes log(z+_{n(j)} - w_j) -
        log(z+_{n(j)}), summed per radio into Q by bincount, and the
        neighbour term sums Q over N(b). Only the reachable radios and their
        neighbour lists are evaluated.
        """
        self._check_feasible()
        net = self.net
        wi = net.weights[client]
        frame = self._reach(client)
        reach, lb, rows, nbrs, own = frame[:5]
        link = lb + math.log(wi)
        w, z = self._left_out(client, frame)
        if self.scheme == SCHEME_SERVER:
            zp = z + wi
            log_zp = np.log(zp)
            with np.errstate(divide="ignore"):
                idle = np.log(np.maximum(zp - w, 0.0)) - log_zp
            # a candidate's own entry carries its -log z+_b
            terms = np.where(own, -log_zp, idle)
            near = np.bincount(rows, weights=terms, minlength=len(reach))
            return reach, wi * (link + near)
        hood, slot, home = frame[5:]
        others, key = self._clients_at(hood, but=client)
        zs_plus = z[key] + wi
        with np.errstate(divide="ignore"):
            rest = np.maximum(zs_plus - net.weights[others], 0.0)
            idle = np.log(rest) - np.log(zs_plus)
        q = np.bincount(key, weights=idle, minlength=len(hood))
        neighbour_term = np.bincount(rows, weights=q[slot], minlength=len(reach))
        zp = z[home] + wi
        log_zp = np.log(zp)
        zb = np.maximum(zp - wi, 0.0)  # candidate neighbourhood without i
        crowd = zb * log_zp - xlogy(zb, zb)
        return reach, wi * (link - log_zp) + wi * neighbour_term - crowd

    def channel_candidates(self, vap: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact energies of switching one radio to each feasible channel.

        Returns (targets, values): targets are the channels, ascending, on
        which every client of the radio keeps its link, and values[k] is the
        full system energy with the radio on targets[k]. A clientless radio
        can take any channel without changing the energy of anyone, so its
        targets are all channels and every value is the current energy.
        Needs a feasible state (ValueError otherwise), where every value is
        finite. A radio with one feasible channel can only stay on its own:
        the values are [U], read without evaluating anything.

        U = b_term + sum_w_log_w + the sum of t(w, z) = psi(z - w) - psi(z)
        over radios (server scheme) or clients (client scheme). On another
        channel c the radio, of load L, leaves its old neighbours, whose z
        loses L, and joins N_c, the radios on c within c's interference
        range, whose z gains L; its own z becomes L + the sum of w_ap over
        N_c. So value(c) = U + the change of its clients' link terms + the
        change of t over the old neighbours + the change over N_c + the change
        of the radio's own terms, and value(here) = U. The terms that change
        sit on the entries of _channel_frame, one bincount keyed by channel
        adds them up, and the cost is O(degree + C): no channel x radio array.
        """
        self._check_feasible()
        net = self.net
        C = net.n_channels
        members = (self.assoc == vap).nonzero()[0]
        if not members.size:
            return np.arange(C), np.full(C, self._u)
        wm = net.weights[members]
        links = wm @ net.log_rates[self._link[members]]  # -inf where a client loses its link
        targets = np.isfinite(links).nonzero()[0]
        if targets.size == 1:
            return targets, np.array([self._u])

        here = self.chan[vap]
        load = self.w_ap[vap]
        radios, key, sign, new, ch = self._channel_frame(vap)
        # the radio's own load z: on each channel, and (last) as it is now
        z_own = np.append(load + np.bincount(ch, weights=self.w_ap[new], minlength=C),
                          self.z[vap])
        if self.scheme == SCHEME_SERVER:
            w, z = self.w_ap[radios], self.z[radios]
            t_own = _t_term(load, z_own)
            own = t_own[:C] - t_own[C]
        else:
            # the clients of those radios (ascending), keyed like their radio
            clients, at = self._clients_at(radios)
            key, sign = key[at], sign[at]
            w, z = net.weights[clients], self.z[radios[at]]
            t_own = _t_term(wm[:, None], z_own)
            own = (t_own[:, :C] - t_own[:, C:]).sum(axis=0)
        # key C: the old neighbourhood, whose change applies to every channel
        totals = np.bincount(key, weights=_load_change(w, z, sign * load), minlength=C + 1)
        values = self._u + (links - links[here]) + (totals[:C] + totals[C] + own)
        values[here] = self._u
        return targets, values[targets]

    def _channel_frame(self, vap: int):
        """The radios whose z changes when the radio leaves its channel, in
        ascending order (_clients_at searches them): its old neighbours (key
        C, sign -1) and, for every other channel c, the new neighbours N_c
        (key c, sign +1); and the new neighbours again as (radios, channels).
        All come from one nonzero on the rows of net.adjacency that hold the
        radio's pairs: a partner on channel c within c's range is an old
        neighbour when c is the radio's channel and in N_c otherwise. A
        partner is on one channel, so it appears once. Kept until a channel
        move."""
        frame = self._frames.get(~vap)
        if frame is None:
            net = self.net
            here = self.chan[vap]
            lo, hi = net.pair_ptr[vap], net.pair_ptr[vap + 1]
            pairs, ch = net.adjacency[lo:hi].nonzero()
            radios = net.pair_vap[lo:hi][pairs]
            on = (self.chan[radios] == ch) & (radios != vap)
            radios, ch = radios[on], ch[on]
            joins = ch != here
            frame = self._frames[~vap] = (
                radios,
                np.where(joins, ch, net.n_channels),
                np.where(joins, 1.0, -1.0),
                radios[joins],
                ch[joins],
            )
        return frame

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

    def _on_links(self, log: bool, clients=slice(None)):
        """Each given client's log rate (log) or rate on its link at its
        radio's current channel, read from the network's link lists: -inf or
        0 where the client has no link."""
        links = self._link[clients]
        table, none = (self.net.log_rates, -np.inf) if log else (self.net.rates, 0.0)
        if not table.size:  # no links, nothing to index
            return np.full(np.shape(links), none)
        return np.where(links >= 0, table[links, self.chan[self.assoc[clients]]], none)

    def _link_rates(self) -> np.ndarray:
        """Each client's rate on its link at its radio's channel, 0 where it
        has no link."""
        return self._on_links(log=False)

    def _contention(self):
        """The contention lists of this state (_contention_entries); under the
        server scheme they depend only on the channels and are kept until a
        channel move."""
        if self.scheme == SCHEME_CLIENT:
            return _contention_entries(SCHEME_CLIENT, self.same_ch_adj, self.assoc)
        if self._edges is None:
            self._edges = _contention_entries(SCHEME_SERVER, self.same_ch_adj, self.assoc)
        return self._edges

    def rates(self) -> np.ndarray:
        """Per-client rates under the optimal allocation for this state.

        The server scheme multiplies over every radio's neighbour list, the
        client scheme over every client's list of the clients of its radio's
        neighbours (_contention).
        """
        server = self.scheme == SCHEME_SERVER
        phi = self.net.weights / self.w_ap[self.assoc] if server else None
        return _slot_rates(self.scheme, self._contention(), self.assoc, self._link_rates(),
                           self.access_probabilities(), phi)

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
    its schedule. Returns Mbps averaged over slots; slots is an integer
    >= 1 and seed an integer >= 0.
    """
    check_integer("slots", slots, 1)
    check_integer("seed", seed, 0)
    p, phi = _allocation_vectors(network, config, allocation)
    state = SystemState.from_configuration(network, config, allocation.scheme)
    assoc, rates_now = state.assoc, state._link_rates()
    rows, cols, starts = state._contention()
    own = rows == cols
    rng = np.random.default_rng(seed)
    # slots per draw, so a batch's entry masks stay near 8 MB; the uniforms
    # come in the same order however the slots are batched
    batch = max(1, 2**23 // len(cols))

    # transmitters are radios (server) or clients (client scheme); a
    # transmission clashes when another member of its contention set sends.
    # Slots run along the last axis, so each reduceat row is contiguous.
    wins = np.zeros(len(p), dtype=np.int64)
    done = 0
    while done < slots:
        n = min(batch, slots - done)
        tx = np.ascontiguousarray((rng.random((n, len(p))) < p[None, :]).T)
        heard = tx[cols]
        heard[own] = False
        clash = np.logical_or.reduceat(heard, starts, axis=0)
        wins += (tx & ~clash).sum(axis=1)
        done += n

    if allocation.scheme == SCHEME_SERVER:
        counts = np.zeros(len(assoc), dtype=np.int64)
        for v in np.flatnonzero(wins):
            members = np.flatnonzero(assoc == v)
            if members.size:
                share = phi[members]
                counts[members] += rng.multinomial(wins[v], share / share.sum())
        r = rates_now * counts / slots
    else:
        r = rates_now * wins / slots

    return dict(zip(network.client_ids, r.tolist()))
