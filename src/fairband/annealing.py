"""Slow-timescale search over configurations by Gibbs sampling.

Each step selects one mover, either a client (association move) or a radio
(channel move), evaluates the energy of every feasible single move, and
only those (the radios the client reaches, the channels that keep every
client of the radio linked), and samples a target from the softmax of those
energies at the current temperature: one inverse-CDF pass over the values
in Python floats with math.exp (libm), whose probabilities
softmax_probabilities returns. With a temperature schedule that cools
slowly enough (the inverse-sqrt-log kind: T -> 0 while T log t ->
infinity) the sampled chain concentrates on globally optimal
configurations. At T = 0 the step takes the argmax instead, which is greedy
ascent (iterated conditional modes): a greedy policy is the Gibbs step at
T = 0, and every T = 0 step uses greedy's tie rule.

A run is a Chain: it owns the Generator, the SystemState, the best
configuration, the records and greedy's stop, and advance(n) steps it on,
so a caller can hold chains between steps. It works out the step's
constants once: feasibility per advance, the movers' targets and radios'
client counts as lists, and per block of at most BLOCK steps the
temperatures and, round-robin, the uniforms. gibbs_step is the one step,
of a chain or of a bare SystemState wrapped in a one-step view.

A network with at most model.INDEX_LIMIT configurations numbers them and
keeps a candidate table (model.Network._candidate_table, cleared at
model.TABLE_CAP entries), keyed by config_index() * 4 (I + V + 1) + code +
s, s = 1 under the client scheme (SystemState._table_key). The codes:

* 4 m + 2 a: mover m's candidate entry, its values then its targets (a = 1
  for dp-approx scores), when it has two or more targets (_candidates);
* 4 (I + V): the trajectory record, (weighted throughput, digest) (_record);
* 4 (I + V) + 2: the energy (SystemState.energy).

A move sets only its mover's digits, and one SystemState._sync brings the
arrays up to them with a fresh state's bits: after each move, or, while a
chain advances on such a network, for all the moves since the last sync
when something reads the arrays and at the end of advance. The chain
holds the current energy, and a step reads the energy entry only after a
move that changed the state. So a step that finds its candidate entry
evaluates nothing, and one that changes nothing reads no other entry: it
returns the held energy, and a one-target mover returns before its entry
is unpacked (its candidate method reads the energy entry itself).
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from math import exp
from typing import NamedTuple

import numpy as np

from .checks import check_integer, check_number
from .model import Configuration, Network, ScenarioError, _store
from .fairness import SCHEME_SERVER, SystemState, _check_scheme

POLICY_KINDS = ("dp-exact", "dp-approx", "greedy")
SELECTION_KINDS = ("round-robin", "random")
# channel draws initial_configuration tries before it falls back
MAX_REDRAWS = 100
# steps whose temperatures and uniforms a chain holds at once
BLOCK = 4096


@dataclass(frozen=True)
class Schedule:
    """Temperature schedule T(t) for t = 1, 2, ...

    Kinds: invsqrtlog T0/sqrt(log(t+2)), invlog T0/log(t+2), geometric
    T0*ratio^(t-1), const T0. Only invsqrtlog satisfies both convergence
    conditions (T -> 0 and T log t -> infinity). A constant schedule may be
    zero, which turns sampling into greedy's argmax with its tie margin (see
    gibbs_step); every other kind requires a positive temperature.
    """

    kind: str = "invsqrtlog"
    t0: float = 1.0
    ratio: float = 0.999

    def __post_init__(self):
        if self.kind not in ("invsqrtlog", "invlog", "geometric", "const"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        check_number("t0", self.t0, error=ValueError)
        check_number("ratio", self.ratio, error=ValueError)
        if self.kind == "const":
            if self.t0 < 0:
                raise ValueError("t0: a constant temperature must be >= 0")
        elif self.t0 <= 0:
            raise ValueError("t0: must be positive")
        if self.kind == "geometric" and not 0 < self.ratio < 1:
            raise ValueError("ratio: a geometric ratio must lie in (0, 1)")

    def temperature(self, t: int) -> float:
        if self.kind == "invsqrtlog":
            return self.t0 / math.sqrt(math.log(t + 2))
        if self.kind == "invlog":
            return self.t0 / math.log(t + 2)
        if self.kind == "geometric":
            return self.t0 * self.ratio ** (t - 1)
        return self.t0

    @classmethod
    def parse(cls, text: str, t0: float = 1.0) -> "Schedule":
        """Parse 'invsqrtlog', 'invlog', 'geometric:<ratio>' or 'const:<T>'."""
        if text in ("invsqrtlog", "invlog"):
            return cls(kind=text, t0=t0)
        kind, colon, number = text.partition(":")
        if kind in ("geometric", "const") and colon:
            try:
                value = float(number)
            except ValueError:
                name = "ratio" if kind == "geometric" else "temperature"
                msg = f"cannot parse schedule {text!r}: {name} must be a number"
                raise ValueError(msg) from None
            return cls(kind, t0, value) if kind == "geometric" else cls(kind, value)
        raise ValueError(f"cannot parse schedule {text!r}")


@dataclass(frozen=True)
class OptimizerPolicy:
    """What to optimize and how to move through configuration space."""

    kind: str = "dp-exact"
    scheme: str = SCHEME_SERVER
    selection: str = "round-robin"
    schedule: Schedule = field(default_factory=Schedule)
    iterations: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.selection not in SELECTION_KINDS:
            raise ValueError(f"unknown selection {self.selection!r}")
        if self.kind == "greedy" and self.selection != "round-robin":
            # a greedy run moves round-robin, and run() certifies a local
            # optimum by a whole unchanged sweep in that order
            raise ValueError("selection: greedy moves round-robin only")
        if not isinstance(self.schedule, Schedule):
            raise ValueError(f"schedule: expected a Schedule, got {self.schedule!r}")
        _check_scheme(self.scheme)
        check_integer("seed", self.seed, 0)
        check_integer("iterations", self.iterations, 0)


class Move(NamedTuple):
    """What one optimizer step did. kind is "association" (index is a client)
    or "channel" (index is a radio); chosen is the target index the step
    settled on (a radio or a channel), the current one when it stayed;
    temperature is T(t), None for a greedy policy (which steps at T = 0)."""

    kind: str
    index: int
    chosen: int
    changed: bool
    temperature: float | None


def softmax_probabilities(values: np.ndarray, temperature: float) -> np.ndarray:
    """Move probabilities proportional to exp(value / T) over a step's
    candidate values, for a temperature T > 0 (ValueError otherwise;
    gibbs_step takes the argmax at T = 0): the draw's own e_j over their
    total (_exponentials), so _draw picks index j with probability p_j.

    The candidate methods return only the feasible targets, so the values
    are finite on a feasible state. The max value is subtracted before
    exponentiating, so adding any constant to all values changes nothing;
    a -inf entry gets probability exactly 0, and so does every entry when
    there is no finite one. A NaN or +inf value has no such probability,
    and the values are refused (ValueError).
    """
    if not temperature > 0:
        raise ValueError(f"temperature: must be > 0, got {temperature!r}")
    values = np.asarray(values, dtype=float)
    if not (values < np.inf).all():  # false at NaN and +inf
        raise ValueError(f"values: must be finite or -inf, got {values.tolist()!r}")
    if not (values > -np.inf).any():
        return np.zeros_like(values)
    ex, total = _exponentials(values.tolist(), float(temperature))
    return np.array(ex) / total


# -- steps ------------------------------------------------------------------


def _exponentials(values, temperature: float) -> tuple[list[float], float]:
    """The softmax's terms e_j = exp(max(v_j - max(v), -1000 T) / T) of the
    values at T > 0, in Python floats with math.exp (libm), and their total,
    added left to right onto 0.0 in one plain loop (not sum(), which
    compensates its additions from Python 3.12 on). The largest gap is
    exactly 0.0, so every e_j is at most 1 and the total at least 1. exp is
    exactly 0 below about -745, so raising every gap to -1000 T changes no
    term; it keeps a tiny T from overflowing the quotient, and a -inf
    value's term is 0."""
    top = max(values)
    floor = temperature * -1000.0
    ex, total = [], 0.0
    for v in values:
        g = v - top
        e = exp((g if g > floor else floor) / temperature)
        ex.append(e)
        total += e
    return ex, total


@functools.cache
def _entry_reader(k: int):
    """The unpack that reads a candidate entry of k targets (_candidates)."""
    return struct.Struct(f"{k}d{k}q").unpack


def _draw(values, temperature: float, uniform: float) -> int:
    """The softmax draw at T > 0: the first index j whose running sum of the
    terms e_0 + ... + e_j (_exponentials) over their total exceeds the
    uniform in [0, 1). The running sums repeat the total's additions in its
    order, so the last one is the total itself, and total / total = 1.0:
    some index always does. Both loops are plain, with a counter and no
    enumerate, as a step draws over two or three targets."""
    ex, total = _exponentials(values, temperature)
    running, j = 0.0, 0
    for e in ex:
        running += e
        if uniform < running / total:
            return j
        j += 1


def gibbs_step(state: Chain | SystemState, t: int, policy: OptimizerPolicy,
               rng: np.random.Generator) -> tuple[Move, float]:
    """Step t of a chain, or one move of a feasible SystemState. Returns the
    Move and the state's energy() after it, under every policy.

    A run passes its Chain, which supplies the step's constants. A bare
    SystemState is wrapped in a one-step view (Chain._view), which raises
    ValueError on an infeasible state before any draw; the view's step reads
    T(t) from policy.schedule and draws its uniform with rng.random().

    The mover is at position (t - 1) mod m of the fixed order (clients by
    index, then radios by index), or at rng.integers(m) under random
    selection, and every step makes one uniform draw. Its candidate entry
    (_candidates) gives its feasible targets (ascending) and their values.
    At T(t) > 0 the step draws an index from their softmax with its uniform
    (_draw, whose probabilities softmax_probabilities returns). At T = 0,
    and under a greedy policy, it takes the argmax in Python floats instead:
    candidates within 1e-12 max(1, |u|) of the best, u the current target's
    value, count as tied and the lowest target wins, and the mover stays
    unless the best beats u by more than that margin, so float noise between
    equal energies never makes a move.

    A mover with one target stays: in a feasible state the current target is
    usable, so it is the one, and the step returns before it unpacks the
    entry. A clientless radio changes no one's energy on any channel: the
    step decides over C zeros and the targets range(C), whose softmax does
    not depend on U, and at T = 0 the margin keeps it.

    The step's uniform is drawn before its entry is read, and whatever the
    entry. The energy it returns is the chain's held one (Chain._u) unless
    the move changed the state, which alone reads state.energy() again.
    """
    chain = state if isinstance(state, Chain) else Chain._view(state, t, policy)
    current_of, n = chain._current, chain._n
    m = len(current_of)
    pos = int(rng.integers(m)) if chain._random else (t - 1) % m
    current = current_of[pos]
    i, uniforms = t - chain._base, chain._uniforms
    temperature = chain._temps[i]
    uniform = rng.random() if uniforms is None else uniforms[i]
    if pos < n:
        kind, idx = "association", pos
        entry = _candidates(chain.state, kind, idx, chain._approx)
    else:
        kind, idx = "channel", pos - n
        entry = _candidates(chain.state, kind, idx, False) if chain._counts[idx] else None
    k = chain._n_channels if entry is None else len(entry) >> 4  # 16 bytes per target
    if k == 1:
        return Move(kind, idx, current, False, temperature), chain._u
    if entry is None:  # a clientless radio: C equal values, none evaluated
        values, targets = (0.0,) * k, range(k)
    else:
        flat = _entry_reader(k)(entry)
        values, targets = flat[:k], flat[k:]
    if temperature:
        choice = targets[_draw(values, temperature, uniform)]
    else:
        best, u_cur = max(values), values[targets.index(current)]
        margin = 1e-12 * max(1.0, abs(u_cur))
        choice = current if best - u_cur <= margin \
            else next(c for c, v in zip(targets, values) if v >= best - margin)
    if choice == current:
        return Move(kind, idx, current, False, temperature), chain._u
    current_of[pos] = choice
    if kind == "association":
        counts = chain._counts
        counts[current] -= 1
        counts[choice] += 1
        chain.state.apply_association(idx, choice)
    else:
        chain.state.apply_channel(idx, choice)
    chain._u = u = chain.state.energy()
    return Move(kind, idx, choice, True, temperature), u


def _candidates(state: SystemState, kind: str, idx: int, approx: bool) -> bytes:
    """The bytes of the values, then the targets (int64), that the mover's
    candidate method returns (association_scores_approx when approx), read
    as k floats and k ints by _entry_reader(k). A numbered network keeps
    them in its candidate table when there are two or more targets, under
    the mover's code, so its chains evaluate a configuration's mover once.
    The maintained state equals a fresh one bit for bit, so an entry holds
    the bits the method returns."""
    table = state.net._candidate_table
    if table is not None:
        pos = idx if kind == "association" else state.assoc.size + idx
        key = state._table_key(4 * pos + 2 * approx)
        entry = table.get(key)
        if entry is not None:
            return entry
    if approx:
        targets, values = state.association_scores_approx(idx)
    elif kind == "association":
        targets, values = state.association_candidates(idx)
    else:
        targets, values = state.channel_candidates(idx)
    entry = values.tobytes() + targets.tobytes()
    if table is not None and targets.size > 1:
        _store(table, key, entry)
    return entry


def _record(state: SystemState) -> tuple[float, str]:
    """The state's (weighted_throughput(), digest()) for a trajectory record.

    Both depend on the configuration and the scheme alone, so a numbered
    network's candidate table holds them too, under the record code. A
    computed record refreshes what the moves since the last one left
    pending."""
    table = state.net._candidate_table
    if table is None:
        return state.weighted_throughput(), state.digest()
    key = state._table_key(4 * (state.assoc.size + state.chan.size))
    entry = table.get(key)
    if entry is None:
        entry = (state.weighted_throughput(), state.digest())
        _store(table, key, entry)
    return entry


# bench/tracing.py::targets() still patches this name
greedy_step = gibbs_step


# -- initialization -----------------------------------------------------------


def initial_configuration(
    net: Network, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random channels, then closest-radio association.

    Each radio draws a uniform channel. Each client then associates with the
    closest radio offering a positive rate under the drawn channels, breaking
    distance ties uniformly at random (co-located radios of one AP are always
    tied). If the particular channel draw strands a client, the channels are
    redrawn. After MAX_REDRAWS stranding draws every radio takes the channel
    that reaches farthest: all channels scale one tier table, so that channel
    reaches every link any channel reaches, and a client it strands is
    unreachable on every channel, which is a scenario error.
    """
    V, C = net.n_vaps, net.n_channels
    for attempt in range(MAX_REDRAWS + 1):
        if attempt < MAX_REDRAWS:
            chan = rng.integers(0, C, size=V)
        else:
            far = np.argmax([prof.max_range_m for prof in net.profiles])
            chan = np.full(V, far, dtype=np.int64)
        hits, counts = net.nearest_links(chan)
        if counts.all():
            break
    else:
        bad = net.client_ids[int(np.argmin(counts))]
        raise ScenarioError(f"client {bad!r} has no positive-rate AP on any channel")
    first = np.cumsum(counts) - counts
    assoc = net.link_vap[hits[first]]  # the lowest-index nearest radio
    tied = np.flatnonzero(counts > 1)
    if tied.size:
        # one draw per tied client, in client order, picks among its nearest
        # radios; the vector draw makes the values of a scalar draw per client
        picks = rng.integers(counts[tied])
        assoc[tied] = net.link_vap[hits[first[tied] + picks]]
    return assoc, chan


# -- full runs ---------------------------------------------------------------


@dataclass(slots=True)
class TrajectoryPoint:
    t: int
    temperature: float | None
    energy: float
    weighted_throughput: float
    config_hash: str


@dataclass
class RunResult:
    """Outcome of one optimizer run on one scenario draw."""

    run_id: str
    policy_kind: str
    scheme: str
    seed: int
    iterations: int
    trajectory: list[TrajectoryPoint]
    final_configuration: Configuration
    final_energy: float
    final_weighted_throughput: float
    rates: dict[str, float]
    schedule_phi: dict[str, float] | None
    access_p: dict[str, float]
    best_energy: float
    best_t: int
    best_configuration: Configuration


def potential_scale_reduction(chains) -> float | None:
    """Gelman and Rubin's (1992) potential scale reduction factor of m >= 2
    equally long chains (the rows of chains): sqrt(V / W), with W the mean
    of the within-chain variances, B / n the variance of the chain means
    (both with the m - 1 or n - 1 divisor) and V = (n - 1) / n W + B / n.
    Near 1 when the chains sample one distribution. None when it is not
    defined: fewer than 2 chains, chains of fewer than 2 draws, or W = 0."""
    x = np.asarray(chains, dtype=float)
    if len(x) < 2 or x.shape[1] < 2:
        return None
    n = x.shape[1]
    within = x.var(axis=1, ddof=1).mean()
    if within == 0:
        return None
    between = x.mean(axis=1).var(ddof=1)  # B / n
    return math.sqrt(((n - 1) / n * within + between) / within)


def _coerce_network(scenario_or_network) -> Network:
    if isinstance(scenario_or_network, Network):
        return scenario_or_network
    return scenario_or_network.to_network()


@functools.lru_cache(maxsize=4)
def _temperatures(schedule: Schedule, text: str, start: int, k: int) -> tuple:
    """schedule.temperature(t) for the k steps from t = start, shared by the
    chains of one schedule. text, repr(schedule), tells apart the t0 values
    that compare equal but print differently (1 and 1.0, 0.0 and -0.0)."""
    return tuple(map(schedule.temperature, range(start, start + k)))


class Chain:
    """One optimizer run from a fresh random initialization, advanced in
    parts: advance(a) then advance(b) does what advance(a + b) does, bit for
    bit, and result() gives the run so far. It owns the run's Generator
    (rng), SystemState (state), best configuration (best_energy, best_t),
    records and greedy stop. It records (t, T, U, weighted throughput, hash,
    the last two through _record) at t = 0, every record_every steps (by
    default iterations // 100, at least 1), at t = policy.iterations and at
    the greedy stop: a sweep without a change, so a local optimum.

    It keeps each mover's current target and each radio's client count as
    lists beside the state, which gibbs_step reads and updates, the current
    energy as a float (_u), which gibbs_step reads anew from the state only
    after a move that changed it, and per block of at most BLOCK steps the
    temperatures (_temperatures) and, round-robin, the uniforms from one
    rng.random(k). Feasibility is checked once per advance: a step keeps a
    feasible state feasible."""

    def __init__(self, scenario_or_network, policy: OptimizerPolicy,
                 record_every: int | None = None, run_id: str = "run0"):
        self.net = net = _coerce_network(scenario_or_network)
        if record_every is not None:
            check_integer("record_every", record_every, 1)
        self.policy, self.run_id, self.scheme = policy, run_id, policy.scheme
        self._cadence = record_every if record_every else max(1, policy.iterations // 100)
        self.rng = rng = np.random.default_rng(policy.seed)
        self.state = state = SystemState(net, policy.scheme, *initial_configuration(net, rng))
        self._set_constants(state, policy)
        self.t, self.stopped, self._streak, self._temperature = 0, False, 0, None
        self._u = self.best_energy = state.energy()
        self.best_t, self._best = 0, self._current[:]
        self.trajectory = [TrajectoryPoint(0, None, self._u, *_record(state))]

    def _set_constants(self, state: SystemState, policy: OptimizerPolicy):
        self._n, self._n_channels = state.assoc.size, state.net.n_channels
        self._current = state.assoc.tolist() + state.chan.tolist()
        self._counts = np.bincount(state.assoc, minlength=state.chan.size).tolist()
        self._random, self._approx = policy.selection == "random", policy.kind == "dp-approx"

    @classmethod
    def _view(cls, state: SystemState, t: int, policy: OptimizerPolicy) -> Chain:
        """A view of a bare state as a chain for step t alone (see gibbs_step),
        which holds the state's energy()."""
        state._check_feasible()
        view = cls.__new__(cls)
        view.state, view.scheme, view._u = state, state.scheme, state.energy()
        view._set_constants(state, policy)
        temperature = None if policy.kind == "greedy" else policy.schedule.temperature(t)
        view._uniforms, view._temps, view._base = None, (temperature,), t
        return view

    def advance(self, n: int) -> Chain:
        """Take up to n more steps, never past t = policy.iterations or
        greedy's stop; returns the chain."""
        check_integer("n", n, 0)
        policy, state, rng, trajectory = self.policy, self.state, self.rng, self.trajectory
        iters, cadence, greedy = policy.iterations, self._cadence, policy.kind == "greedy"
        end = min(self.t + n, iters)
        if self.stopped or self.t >= end:
            return self
        state._check_feasible()
        t, streak, stop = self.t, self._streak, False
        best_u, best_t = self.best_energy, self.best_t
        # on a numbered network the state defers its arrays until a read
        state._defer = state.net._candidate_table is not None
        try:
            while t < end and not stop:
                k = min(BLOCK, end - t)
                self._base = t + 1
                self._temps = (None,) * k if greedy else \
                    _temperatures(policy.schedule, repr(policy.schedule), t + 1, k)
                self._uniforms = None if self._random else rng.random(k).tolist()
                for t in range(t + 1, t + k + 1):
                    move, u = gibbs_step(self, t, policy, rng)
                    streak = 0 if move.changed else streak + 1
                    if u > best_u + 1e-12:
                        best_u, best_t, self._best = u, t, self._current[:]
                    stop = greedy and streak >= len(self._current)
                    if t % cadence == 0 or t == iters or stop:
                        trajectory.append(
                            TrajectoryPoint(t, move.temperature, u, *_record(state)))
                        if stop:
                            break
        finally:
            state._sync()
            state._defer = False
        self.t, self.stopped, self._streak = t, stop, streak
        self.best_energy, self.best_t, self._temperature = best_u, best_t, move.temperature
        return self

    def result(self) -> RunResult:
        """The run so far, with a last record of the current state."""
        net, state, n = self.net, self.state, self._n
        trajectory = list(self.trajectory)
        if trajectory[-1].t != self.t:
            trajectory.append(
                TrajectoryPoint(self.t, self._temperature, self._u, *_record(state)))
        final_cfg, alloc, rates = state.to_configuration(), state.allocation(), state.rates()
        return RunResult(
            run_id=self.run_id, policy_kind=self.policy.kind, scheme=self.scheme,
            seed=self.policy.seed, iterations=self.t, trajectory=trajectory,
            final_configuration=final_cfg, final_energy=trajectory[-1].energy,
            final_weighted_throughput=trajectory[-1].weighted_throughput,
            rates={net.client_ids[i]: float(rates[i]) for i in range(net.n_clients)},
            schedule_phi=alloc.schedule, access_p=alloc.access,
            best_energy=self.best_energy, best_t=self.best_t,
            best_configuration=net.configuration(self._best[:n], self._best[n:]),
        )


def run(scenario_or_network, policy: OptimizerPolicy, record_every: int | None = None,
        run_id: str = "run0") -> RunResult:
    """One policy run from a fresh random initialization to policy.iterations
    steps or greedy's stop (see Chain for the records and the best)."""
    chain = Chain(scenario_or_network, policy, record_every, run_id)
    return chain.advance(policy.iterations).result()
