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
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .checks import check_integer
from .model import Configuration, Network, _short_hash, _store

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
    scheme). A map that lacks an id is a ValueError naming both."""
    for key, p in alloc.access.items():
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"access probability out of range for {key!r}: {p}")
    clients, client_scheme = network.client_ids, alloc.scheme == SCHEME_CLIENT
    if not client_scheme and alloc.schedule is None:
        raise ValueError("server scheme requires a schedule")
    name = "access"
    try:
        p = [alloc.access[k] for k in (clients if client_scheme else network.vap_ids)]
        name = "schedule"
        phi = None if client_scheme else [alloc.schedule[c] for c in clients]
    except KeyError as exc:
        raise ValueError(f"{name}: no entry for {exc.args[0]!r}") from None
    if client_scheme:
        return np.array(p, dtype=float), None
    sums: dict[str, float] = {}
    for cid, share in zip(clients, phi):
        if share < 0:
            raise ValueError(f"schedule weight negative for {cid!r}")
        v = config.association[cid]
        sums[v] = sums.get(v, 0.0) + share
    for v, s in sums.items():
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"schedule for {v!r} sums to {s}, expected 1")
    return np.array(p, dtype=float), np.array(phi, dtype=float)


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
    every = np.arange(len(p))
    idle = _idle_products(every, state._contention_lists(every), p)
    r = _slot_rates(allocation.scheme, idle, state.assoc, state._b_clients, p, phi)

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
    return np.divmod(flat, mask.shape[1])


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[k], starts[k] + 1, ..., starts[k] + lengths[k] - 1 for every k
    in turn: the positions of a list of ranges, concatenated."""
    ends = lengths.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def _idle_products(rows: np.ndarray, lists, p: np.ndarray) -> np.ndarray:
    """Each given transmitter's idle probability: the product of (1 - p_m)
    over the others in its contention set, for access probabilities p (per
    radio under the server scheme, per client under the client scheme).

    lists holds each row's set, itself included, in ascending order, with
    where each row starts (SystemState._contention_lists of rows). The factor
    of a row's own entry is set to 1.0 and np.multiply.reduceat multiplies
    each row out from left to right; every row holds its own entry, so none
    is empty, and multiplying by 1.0 is exact, so the product equals a loop
    over the others in index order bit for bit, whatever other rows are
    multiplied in the same call.
    """
    at, cols, starts = lists
    factors = 1.0 - p[cols]
    factors[cols == rows[at]] = 1.0
    return np.multiply.reduceat(factors, starts)


def _slot_rates(
    scheme: str,
    idle: np.ndarray,
    assoc: np.ndarray,
    rates_now: np.ndarray,
    p: np.ndarray,
    phi: np.ndarray | None,
) -> np.ndarray:
    """Per-client expected rates from access probabilities p (per radio under
    the server scheme, per client under the client scheme), every
    transmitter's idle probability (_idle_products) and, under the server
    scheme, the schedule phi. A transmitter succeeds with p_k times its idle
    probability."""
    if scheme == SCHEME_SERVER:
        return rates_now * phi * (p * idle)[assoc]
    return rates_now * p * idle


def _index_array(name: str, a, n: int, bound: int) -> np.ndarray:
    """An int64 copy of a, which must be n integers in [0, bound)."""
    a = np.asarray(a)
    if a.shape != (n,):
        raise ValueError(f"{name} has the wrong shape")
    if a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= bound:
        raise ValueError(f"{name} has entries that are not integers in [0, {bound})")
    return a.astype(np.int64)


def _check_index(name: str, value, bound: int):
    """ValueError naming the argument unless value is an integer in [0, bound):
    an int or a numpy integer, not a bool. A chain's moves pass ints, so
    their test comes first."""
    integer = type(value) is int or (
        isinstance(value, (int, np.integer)) and not isinstance(value, bool))
    if not (integer and 0 <= value < bound):
        raise ValueError(f"{name}: must be an integer in [0, {bound}), got {value!r}")


class SystemState:
    """Mutable configuration with incremental energy and candidate evaluation.

    Neighbour lists: ``same_ch_adj`` (V x V bool, diagonal set) is the
    same-channel interference adjacency of the current channels, scattered
    from the network's pair lists. A sync rewrites a moved radio's row and
    column from its own pair list; both hold exact booleans, so it cannot
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
    pair that is not a link) and the rate ``_b_clients`` and log rate
    ``_log_b_clients`` of that link (0 and -inf for none), which a sync
    rewrites for the moved clients and the moved radios' clients.

    Cached per state and brought up to date by each sync: the loads
    ``w_ap`` (a bincount over the clients) and ``z`` (z_n sums w_ap over n's
    neighbour list); per transmitter (a radio under the server scheme, a
    client under the client scheme) psi(w) in ``_psi_w`` and the energy term
    ``_f`` = psi(w) + psi(z - w) - psi(z) of its load w and its radio's z;
    the scheduling term ``_sched`` (0 under the client scheme), the link term
    ``b_term`` and the energy ``_u``, summed from them in the order
    ``energy`` has always used, so ``energy()`` is a lookup.

    Kept for the trajectory records, so a record costs what moved since the
    last one: every transmitter's idle probability ``_idle`` (the product of
    (1 - p_m) over the others in its contention set), refreshed by ``rates``
    only on the transmitters of the radios marked in ``_stale`` since the
    last refresh (``_refresh_products``; ``_update`` marks the neighbours of
    the radios it touches); and, from the first ``digest()`` on, the JSON
    text it hashes, as ``_pieces`` (model.DigestParts), of which a sync
    rewrites the movers'.

    The state owns the candidate table of a network that numbers its
    configurations (Network._candidate_table; model._store clears it at
    model.TABLE_CAP entries): it keys, stores and decodes every entry. From
    the first ``config_index()`` on it keeps the configuration's index
    ``_index``, to which an applied move adds (new - old) * place of the one
    digit it changes. An entry's key is config_index() * 4 (I + V + 1) +
    code + s, s = 1 under the client scheme (``_table_key``). The codes:

    * 4 m + 2 a: the candidates of mover m (client m, or radio m - I; a = 1
      for a client's dp-approx scores), when there are two or more targets:
      the values as float64 bytes, then the targets as int64 (``candidates``);
    * 4 (I + V): the record, (weighted throughput, digest) (``record``);
    * 4 (I + V) + 2: the energy, which ``energy()`` reads while deferring.

    An entry holds the bits of a fresh state of its configuration, as the
    arrays do (see _sync). Only a feasible state reads or stores one: a
    client off its links has no digit, so its index may be another's.

    A move sets only its mover's digits (``assoc`` or ``chan``, a client's
    ``_link`` from the network's dict ``Network._link_at``, and ``_index``)
    and keeps in ``_moved`` the digit the arrays still hold. ``_sync``, the
    one code that updates the arrays after a move, brings them up to the
    digits in one ``_update`` for all the moves since the last sync, with a
    fresh state's arithmetic (see _sync), so their bits are a fresh state's
    after one move or many and no error builds up over a chain. A move
    syncs at once unless the state defers (``_defer``), as it does while
    annealing.Chain.advance runs on a numbered network: it then syncs at the
    first read that needs the arrays (a candidate evaluation past its
    one-target return, ``rates``, ``weighted_throughput``, ``allocation``,
    ``access_probabilities``, ``digest``, a miss of the energy entry) and at
    the end of advance. A deferred state is feasible, since advance checks
    it first and every move keeps it so, so ``feasible`` stays true while
    the arrays wait. All arrays are indexed in network order.
    """

    def __init__(self, network: Network, scheme: str, assoc: np.ndarray, chan: np.ndarray):
        _check_scheme(scheme)
        self.net = network
        self.scheme = scheme
        self.assoc = _index_array("association array", assoc, network.n_clients, network.n_vaps)
        self.chan = _index_array("channel array", chan, network.n_vaps, network.n_channels)
        # whether the moves wait for a read that needs the arrays, and the
        # digit the arrays hold of each mover since the last sync (_sync)
        self._defer, self._moved = False, {}
        self.same_ch_adj = _same_channel_adjacency(network, self.chan)
        # each client's link to its radio (-1 for none), and its rate and log
        # rate there on the radio's channel (0 and -inf for none)
        self._link = link = network.link_index(np.arange(network.n_clients), self.assoc)
        self._b_clients, self._log_b_clients = np.zeros(link.size), np.full(link.size, -np.inf)
        linked = (link >= 0).nonzero()[0]
        at = link[linked], self.chan[self.assoc[linked]]
        self._b_clients[linked] = network.rates[at]
        self._log_b_clients[linked] = network.log_rates[at]
        # the JSON text digest() hashes, as pieces, from the first digest() on
        self._pieces = None
        # the configuration's index, from the first config_index() on
        self._index = None
        self.z = np.zeros(network.n_vaps)
        if scheme == SCHEME_SERVER:
            self._psi_w = np.zeros(network.n_vaps)
        else:
            self._psi_w = xlogy(network.weights, network.weights)
            self._sched = 0.0
        self._f = np.zeros(len(self._psi_w))
        # every transmitter's idle probability, and the radios whose own
        # (server) or clients' (client scheme) products await a refresh
        self._idle = np.ones(len(self._psi_w))
        self._stale = np.zeros(network.n_vaps, dtype=bool)
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
        """Bring the state up to date after moves that changed z only on the
        radios marked in touched (a bool mask), and some clients' links
        (_log_b_clients is already up to date): z and the energy terms
        there, and the totals. loads: a client moved, which changed w_ap.
        The sums call np.add.reduce, the ufunc loop of ndarray.sum. The
        neighbours of the touched radios are marked for _refresh_products."""
        net = self.net
        radios = touched.nonzero()[0]
        if loads:
            self.w_ap = np.bincount(self.assoc, weights=net.weights, minlength=net.n_vaps)
        rows, nbrs = self._neighbours(radios)
        self._stale[nbrs] = True
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
        """Move the client to the target radio: set its digits, then sync
        unless the state defers. ValueError, before any write, unless both
        are integers in range."""
        net, n, V = self.net, self.assoc.size, self.chan.size
        _check_index("client", client, n)
        _check_index("target_vap", target_vap, V)
        old = self._link.item(client)
        self._moved.setdefault(client, self.assoc.item(client))
        self.assoc[client] = target_vap
        link = self._link[client] = net._link_at.get(client * V + target_vap, -1)
        if self._index is not None:  # the client's digit is its link's position
            self._index += (link - old) * net._config_places[client]
        if not self._defer:
            self._sync()

    def apply_channel(self, vap: int, target_channel: int):
        """Move the radio to the target channel: set its digit, then sync
        unless the state defers. ValueError, before any write, unless both
        are integers in range."""
        net, n, V, C = self.net, self.assoc.size, self.chan.size, self.net.n_channels
        _check_index("vap", vap, V)
        _check_index("target_channel", target_channel, C)
        old = self.chan.item(vap)
        self._moved.setdefault(n + vap, old)
        if self._index is not None:
            self._index += (int(target_channel) - old) * net._config_places[n + vap]
        self.chan[vap] = target_channel
        if not self._defer:
            self._sync()

    # -- energy -----------------------------------------------------------

    def energy(self) -> float:
        """sum_i w_i log r_i under the optimal allocation; -inf when some
        client sits on a zero-rate link. Cached: O(1). A deferred state reads
        its configuration's energy entry in the candidate table instead, and
        on a miss syncs (_sync) and stores the energy there."""
        if not self._defer:
            return self._u
        table = self.net._candidate_table
        key = self._table_key(4 * (self.assoc.size + self.chan.size) + 2)
        u = table.get(key)
        if u is None:
            self._sync()
            u = self._u
            _store(table, key, u)
        return u

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

    def _links(self, client: int):
        """The radios the client reaches on the current channels (ascending)
        and its log rate to each, read from the client's links."""
        net = self.net
        lo, hi = net.link_ptr[client:client + 2].tolist()
        radios = net.link_vap[lo:hi]
        # link k's log rate on its radio's channel: the diagonal of the links'
        # rows taken at every radio's channel, which needs no arange
        lb = net.log_rates[lo:hi].take(self.chan[radios], axis=1).diagonal()
        usable = np.isfinite(lb)
        return radios[usable], lb[usable]

    def _reach(self, reach: np.ndarray, lb: np.ndarray):
        """A client's frame: the radios it reaches and its log rate to each
        (_links), their neighbour lists (_neighbours) and the mask of each
        radio's own entry in them. Under the client scheme also the list
        entries sorted (_clients_at searches them), the position in that
        sorted list of every entry's first copy and that of each reachable
        radio."""
        rows, nbrs = self._neighbours(reach)
        own = nbrs == reach[rows]
        frame = (reach, lb, rows, nbrs, own)
        if self.scheme == SCHEME_CLIENT:
            hood = np.sort(nbrs)
            slot = hood.searchsorted(nbrs)
            frame += (hood, slot, slot[own])
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
        reach, lb = self._links(client)
        if reach.size == 1:
            return reach, np.array([self.energy()])
        self._sync()
        frame = self._reach(reach, lb)
        rows, own = frame[2], frame[4]
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
        feasible state (ValueError otherwise). A client that reaches one
        radio can only stay on its own: the scores are [U], as in
        association_candidates, read without evaluating anything.

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
        reach, lb = self._links(client)
        if reach.size == 1:
            return reach, np.array([self.energy()])
        self._sync()
        wi = net.weights[client]
        frame = self._reach(reach, lb)
        rows, own = frame[2], frame[4]
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
        takes the same path, where its load of 0.0 changes no term, so its
        targets are all channels and every value is the current energy;
        gibbs_step decides such a radio itself and never calls this for one.
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
        sit on the radio's old neighbours and the N_c, one bincount keyed by
        channel adds them up, and the cost is O(degree + C): no channel x
        radio array.
        """
        self._check_feasible()
        net = self.net
        C = net.n_channels
        members = (self.assoc == vap).nonzero()[0]
        wm = net.weights[members]
        links = wm @ net.log_rates[self._link[members]]  # -inf where a client loses its link
        targets = np.isfinite(links).nonzero()[0]
        if targets.size == 1:
            return targets, np.array([self.energy()])
        self._sync()
        here = self.chan[vap]
        load = self.w_ap[vap]
        # the radios whose z changes, in ascending order (_clients_at searches
        # them), from one nonzero on the rows of net.adjacency that hold the
        # radio's pairs: a partner on channel c within c's range is an old
        # neighbour (key C, sign -1) when c is the radio's channel and in N_c
        # (key c, sign +1) otherwise. A partner is on one channel, so it
        # appears once.
        lo, hi = net.pair_ptr[vap], net.pair_ptr[vap + 1]
        pairs, ch = net.adjacency[lo:hi].nonzero()
        radios = net.pair_vap[lo:hi][pairs]
        on = (self.chan[radios] == ch) & (radios != vap)
        radios, ch = radios[on], ch[on]
        joins = ch != here
        key = np.where(joins, ch, C)
        sign = np.where(joins, 1.0, -1.0)
        # the radio's own load z: on each channel, and (last) as it is now
        z_own = np.append(
            load + np.bincount(ch[joins], weights=self.w_ap[radios[joins]], minlength=C),
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

    # -- derived metrics ----------------------------------------------------

    def access_probabilities(self) -> np.ndarray:
        """Optimal p per radio (server) or per client (client scheme)."""
        self._sync()
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

    def _contention_lists(self, rows: np.ndarray):
        """The contention sets of the given transmitters (ascending; radios
        under the server scheme, clients under the client scheme): (position
        in rows, member) of every member of each set, the transmitter
        included, ascending within each set, and where each set starts.

        A radio's set is its neighbour list. A client's set is every client
        of its radio's neighbours: each radio's clients come from one sort of
        the association, those of a radio's neighbours are concatenated and
        sorted, and each client takes the list of its radio. The cost grows
        with the sets, not with I x I.
        """
        if self.scheme == SCHEME_SERVER:
            at, cols = self._neighbours(rows)
        else:
            assoc, I, V = self.assoc, self.net.n_clients, self.net.n_vaps
            homes = assoc[rows]
            radios = np.zeros(V, dtype=bool)
            radios[homes] = True
            radios = radios.nonzero()[0]  # the rows' radios, ascending
            near, nbrs = self._neighbours(radios)
            counts = np.bincount(assoc, minlength=V)
            n = counts[nbrs]
            # (radio position, client) of every client of every neighbour, as
            # one key per entry: the clients by radio come from one argsort,
            # and one sort of the keys orders each radio's list
            key = np.repeat(near * I, n) + assoc.argsort()[_spans(counts.cumsum()[nbrs] - n, n)]
            key.sort()
            bounds = key.searchsorted(np.arange(len(radios) + 1) * I)
            home = radios.searchsorted(homes)
            lengths = (bounds[1:] - bounds[:-1])[home]
            at = np.repeat(np.arange(len(rows)), lengths)
            cols = key[_spans(bounds[home], lengths)] % I
        return at, cols, at.searchsorted(np.arange(len(rows)))

    def _refresh_products(self, p: np.ndarray) -> np.ndarray:
        """Every transmitter's idle probability (_idle_products) under the
        state's access probabilities p, refreshing only the cached products
        of the transmitters at a radio marked in _stale since the last
        refresh: the radios themselves under the server scheme, their clients
        under the client scheme.

        A product changes only when a member of its set changes p, or the
        set gains or loses a member. Either way a move touched the member's
        radio (its z or w changed, or a client joined or left it) or the
        transmitter's own radio (its neighbour list changed), and that radio
        is a neighbour of the transmitter's radio. So _update marks N(touched)
        on every move, from the neighbour lists it reads anyway. A later
        channel move that changes a neighbour list touches the radio that
        owns it, so the marks made under the old lists still cover every
        changed product. A clientless radio's channel move marks nothing: its
        p is 0, so its factor is exactly 1.0 in every list it leaves or
        joins, and its own product is not read (p * idle is 0) until it gains
        a client, which marks it.
        """
        stale = self._stale
        if stale.any():
            rows = (stale if self.scheme == SCHEME_SERVER else stale[self.assoc]).nonzero()[0]
            stale[:] = False
            self._idle[rows] = _idle_products(rows, self._contention_lists(rows), p)
        return self._idle

    def rates(self) -> np.ndarray:
        """Per-client rates under the optimal allocation for this state.

        The server scheme multiplies over every radio's neighbour list, the
        client scheme over every client's list of the clients of its radio's
        neighbours (_contention_lists); only the products that changed since
        the last call are recomputed (_refresh_products).
        """
        p = self.access_probabilities()
        idle = self._refresh_products(p)
        phi = self.net.weights / self.w_ap[self.assoc] if self.scheme == SCHEME_SERVER else None
        return _slot_rates(self.scheme, idle, self.assoc, self._b_clients, p, phi)

    def weighted_throughput(self) -> float:
        return float((self.net.weights * self.rates()).sum())

    # -- the candidate table -------------------------------------------------

    def config_index(self) -> int:
        """The configuration's index, the sum of digit * place over the
        digits and places of net._config_places (ValueError on a network
        without them): built from the arrays by the first call, after which
        every applied move adds the change of its one digit. Distinct for
        distinct configurations in which every client sits on a link."""
        if self._index is None:
            places = self.net._config_places
            if places is None:
                raise ValueError("config_index: the network has more "
                                 "configurations than model.INDEX_LIMIT")
            digits = (self._link - self.net.link_ptr[:-1]).tolist() + self.chan.tolist()
            self._index = sum(d * place for d, place in zip(digits, places))
            # _table_key's stride and scheme offset, plain ints fixed here
            self._stride, self._offset = 4 * (len(places) + 1), int(self.scheme == SCHEME_CLIENT)
        return self._index

    def _table_key(self, code: int) -> int:
        """The candidate table's key of the configuration and a code below
        4 (I + V + 1) (the class docstring lists them)."""
        index = self._index
        if index is None:
            index = self.config_index()
        return index * self._stride + code + self._offset

    def candidates(self, pos: int, approx: bool = False) -> tuple[list[float], list[int]]:
        """The (values, targets) of the mover at position pos (client pos, or
        radio pos - I) as Python floats and ints: what its candidate method
        returns (association_scores_approx for a client when approx), read
        from the candidate table when it holds them. ValueError unless pos
        is an integer in [0, I + V) and the state is feasible."""
        table, n = self.net._candidate_table, self.assoc.size
        _check_index("pos", pos, n + self.chan.size)
        if table is not None:
            self._check_feasible()
            key = self._table_key(4 * pos + 2 * approx)
            entry = table.get(key)
            if entry is not None:
                k = len(entry) >> 4
                flat = struct.unpack("d" * k + "q" * k, entry)
                return flat[:k], flat[k:]
        if pos >= n:
            targets, values = self.channel_candidates(pos - n)
        elif approx:
            targets, values = self.association_scores_approx(pos)
        else:
            targets, values = self.association_candidates(pos)
        if table is not None and targets.size > 1:
            _store(table, key, values.tobytes() + targets.tobytes())
        return values.tolist(), targets.tolist()

    def record(self) -> tuple[float, str]:
        """(weighted_throughput(), digest()) for a trajectory record, read
        from the candidate table when it holds them."""
        table = self.net._candidate_table
        if table is None or not self.feasible:
            return self.weighted_throughput(), self.digest()
        key = self._table_key(4 * (self.assoc.size + self.chan.size))
        entry = table.get(key)
        if entry is None:
            entry = self.weighted_throughput(), self.digest()
            _store(table, key, entry)
        return entry

    # -- sync ---------------------------------------------------------------

    def _sync(self):
        """Bring the arrays up to the digits in one _update, after the moves
        since the last sync; a mover whose digit is back where the arrays
        hold it drops out. Each moved radio's row and column of same_ch_adj
        are rewritten from its pair list. A z changes only where a
        neighbourhood changes, by a moved radio, or a load, at radios a and
        b of a client moved from a to b. So the touched radios are the old
        and the new row of each moved radio with load, and N(a) | N(b) under
        the final rows. A radio without load changes no other z, as adding
        or removing its 0.0 leaves a sum as it is, and no energy term: its
        own is psi(0) + psi(z) - psi(z) = 0, and no client's reads its z. A
        moved one gets its own z from a bincount keyed by its new row, which
        adds the set entries in ascending order as _update does, and which
        _update repeats with the final loads if a load in the row changed,
        since the radio is then touched. The links of the moved clients and
        of the moved radios' clients, and the movers' digest pieces, are
        read anew. Every entry recomputed takes a fresh state's arithmetic
        on the final digits, and no other entry changed, so the bits are a
        fresh state's, infeasible configurations on the way included."""
        moved = self._moved
        if not moved:
            return
        self._moved = {}
        net, assoc, chan, n = self.net, self.assoc, self.chan, self.assoc.size
        adj, clients, linked, rows, parts = self.same_ch_adj, [], [], [], []
        for pos, digit in moved.items():
            if pos < n:
                if assoc.item(pos) != digit:
                    clients.append((pos, digit))
                    linked.append(pos)
                continue
            vap = pos - n
            ch = chan.item(vap)
            if ch == digit:
                continue
            # the radio's new row, from its pair list: the partners on its
            # channel that interfere with it there
            lo, hi = net.pair_ptr[vap], net.pair_ptr[vap + 1]
            partners = net.pair_vap[lo:hi]
            row = np.zeros(net.n_vaps, dtype=bool)
            row.put(partners, net.adjacency[lo:hi, ch] & (chan[partners] == ch))
            rows.append((vap, row))
            if self.w_ap[vap]:  # its load leaves the old row and joins the new
                parts.append(adj[vap] | row)
                linked += (assoc == vap).nonzero()[0].tolist()
            else:  # its z alone, over its new row, which a touch sums again
                self.z[vap] = np.bincount(row, weights=self.w_ap, minlength=2)[1]
        for vap, row in rows:
            adj[vap, :] = row
            adj[:, vap] = row
        for client, radio in clients:
            parts.append(adj[radio] | adj[assoc.item(client)])
        # each client's rate and log rate as __init__ reads them, as scalars
        for client in linked:
            link = self._link.item(client)
            if link >= 0:
                ch = chan.item(assoc.item(client))
                self._b_clients[client] = net.rates[link, ch]
                self._log_b_clients[client] = net.log_rates[link, ch]
            else:
                self._b_clients[client], self._log_b_clients[client] = 0.0, -np.inf
        if self._pieces is not None:
            heads, vap_json, channel_json, client_piece, vap_piece = net._digest_parts
            for client, _ in clients:
                k = client_piece[client]
                self._pieces[k] = heads[k] + vap_json[assoc.item(client)]
            for vap, _ in rows:
                k = vap_piece[vap]
                self._pieces[k] = heads[k] + channel_json[chan.item(vap)]
        if parts:
            touched = parts[0]
            for part in parts[1:]:
                touched |= part
            self._update(touched, loads=bool(clients))

    def digest(self) -> str:
        """to_configuration().digest(), hashed from the same JSON text as
        pieces (model.DigestParts): built from the arrays by the first call,
        after which each sync rewrites the movers' pieces."""
        self._sync()
        if self._pieces is None:
            heads, vap_json, channel_json, client_piece, vap_piece = self.net._digest_parts
            values = np.empty(len(heads), dtype=object)
            values[client_piece] = vap_json[self.assoc]
            values[vap_piece] = channel_json[self.chan]
            self._pieces = (heads + values).tolist() + ["]]]"]
        return _short_hash("".join(self._pieces))


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
    assoc, rates_now = state.assoc, state._b_clients
    rows, cols, starts = state._contention_lists(np.arange(len(p)))
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
