"""Slow-timescale search over configurations by Gibbs sampling.

Each step selects one mover, either a client (association move) or a radio
(channel move), evaluates the energy of every feasible single move, and
only those (the radios the client reaches, the channels that keep every
client of the radio linked), and samples a target from the softmax of those
energies at the current temperature. With a temperature schedule that
cools slowly enough (the inverse-sqrt-log kind: T -> 0 while T log t ->
infinity) the sampled chain concentrates on globally optimal
configurations. At T = 0 the step takes the argmax instead, which is greedy
ascent (iterated conditional modes): a greedy policy is the Gibbs step at
T = 0, and every T = 0 step uses greedy's tie rule.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .checks import check_integer
from .model import Configuration, Network, ScenarioError
from .fairness import SCHEME_CLIENT, SCHEME_SERVER, SystemState, _check_scheme

POLICY_KINDS = ("dp-exact", "dp-approx", "greedy")
SELECTION_KINDS = ("round-robin", "random")
# channel draws initial_configuration tries before it falls back
MAX_REDRAWS = 100
# entries at which a network's candidate table is cleared
TABLE_CAP = 2**16
# distance from a cdf boundary within which the float draw defers to numpy's
GUARD = 1e-9


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
        if not (math.isfinite(self.t0) and math.isfinite(self.ratio)):
            raise ValueError("temperature and ratio must be finite")
        if self.kind == "const":
            if self.t0 < 0:
                raise ValueError("constant temperature must be >= 0")
        elif self.t0 <= 0:
            raise ValueError("t0 must be positive")
        if self.kind == "geometric" and not 0 < self.ratio < 1:
            raise ValueError("geometric ratio must lie in (0, 1)")

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
        if text.startswith("geometric:"):
            return cls(kind="geometric", t0=t0, ratio=float(text.split(":", 1)[1]))
        if text.startswith("const:"):
            return cls(kind="const", t0=float(text.split(":", 1)[1]))
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
    gibbs_step takes the argmax at T = 0).

    The candidate methods return only the feasible targets, so the values
    are finite on a feasible state. The max value is subtracted before
    exponentiating, so adding any constant to all values changes nothing;
    a -inf entry gets probability exactly 0, and so does every entry when
    there is no finite one.
    """
    if not temperature > 0:
        raise ValueError(f"temperature: must be > 0, got {temperature!r}")
    values = np.asarray(values, dtype=float)
    # the ufunc reductions ndarray.max and sum run, without their Python wrappers
    top = np.maximum.reduce(values, initial=-np.inf)
    if top == -np.inf:
        return np.zeros_like(values)
    # exp is exactly 0 below about -745, so raising every gap to -1000 T
    # changes no probability; it keeps a tiny T from overflowing the quotient
    # (float() keeps the product a Python float, which cannot warn)
    ex = np.exp(np.maximum(values - top, float(temperature) * -1000.0) / temperature)
    return ex / np.add.reduce(ex)


# -- steps ------------------------------------------------------------------


def _mover(state: SystemState, t: int, rng=None) -> tuple[str, int, int]:
    """The mover of step t, at position (t - 1) mod m of the fixed order
    (clients by index, then radios by index) or at one drawn from rng: its
    kind, its own index and its current target.

    An infeasible state raises ValueError before any draw. In a feasible
    state the current target is a usable candidate and every usable
    candidate keeps the state feasible, so a step always has a target.
    """
    state._check_feasible()
    n = state.assoc.size  # the network's clients, then its radios
    m = n + state.chan.size
    index = (t - 1) % m if rng is None else int(rng.integers(m))
    if index < n:
        return "association", index, int(state.assoc[index])
    return "channel", index - n, int(state.chan[index - n])


def _sample_index(probs: np.ndarray, uniform: float) -> int:
    """rng.choice(len(probs), p=probs / probs.sum()) without its argument
    checks, given the one uniform draw rng.choice would make: the same
    inverse-CDF arithmetic, so the same index. It searches the normalised
    cumulative sum, scaled to end at exactly 1 (np.add.reduce and
    np.add.accumulate are the ufunc loops of ndarray.sum and cumsum)."""
    cdf = np.add.accumulate(probs / np.add.reduce(probs))
    cdf /= cdf[-1]
    return int(cdf.searchsorted(uniform, side="right"))


@functools.cache
def _entry_reader(k: int):
    """The unpack that reads a candidate entry of k targets (see gibbs_step)
    as its k values, Python floats, followed by its k targets, Python ints."""
    return struct.Struct(f"{k}d{k}q").unpack


def _float_draw(values, temperature: float, uniform: float) -> int | None:
    """The index _sample_index(softmax_probabilities(values, T), uniform)
    returns, computed in Python floats, or None when uniform lies within
    GUARD of a cdf value, where the estimate cannot be sure of it (see
    gibbs_step)."""
    top = max(values)
    floor = temperature * -1000.0
    ex = [math.exp((g if (g := v - top) > floor else floor) / temperature) for v in values]
    total = 0.0
    for e in ex:
        total += e
    running = 0.0
    for j, e in enumerate(ex):
        running += e
        c = running / total
        if uniform < c - GUARD:
            return j
        if uniform <= c + GUARD:
            return None
    return None  # not reached: the last c_j is total / total = 1.0 > uniform


def _draw(values, temperature: float, uniform: float) -> int:
    """The index the softmax draw at T > 0 picks from the values: the float
    estimate, or the numpy draw where it is undecided."""
    j = _float_draw(values, temperature, uniform)
    if j is None:
        j = _sample_index(softmax_probabilities(np.array(values), temperature), uniform)
    return j


def gibbs_step(
    state: SystemState, t: int, policy: OptimizerPolicy, rng: np.random.Generator
) -> tuple[Move, float]:
    """One move from a feasible state (see _mover). Returns the Move and
    state.energy() after it, under every policy.

    The mover is chosen per the policy's selection order and every step makes
    one uniform draw. The candidate methods give the mover's feasible targets
    (ascending) and their values, which the step reads as Python ints and
    floats. At T(t) > 0 the draw samples an index into them from the
    softmax (_draw). At T = 0, and under a greedy policy, the step takes
    their argmax instead: candidates within 1e-12 max(1, |u|) of the best,
    u the current target's value, count as tied and the lowest target wins,
    and the mover stays unless the best beats u by more than that margin,
    so float noise between equal energies never makes a move. Python's float
    max, subtraction and comparisons give numpy's bits and answers, so no
    rule needs an array.

    A mover with one target stays: in a feasible state the current target is
    usable, so it is the one (the softmax of one value puts every uniform in
    [0, 1) on it, and at T = 0 the margin keeps it). A clientless radio
    changes no one's energy on any channel, so its values are C copies of U:
    the step is decided over C zeros and the targets range(C) without
    calling channel_candidates. The softmax of equal values does not depend
    on the value, and at T = 0 the margin keeps the current channel.

    The draw at T > 0 is computed in Python floats (_float_draw): with
    e_j = math.exp(max(g_j, -1000 T) / T) over the gaps g_j = v_j - max(v)
    and c_j the running sums of e over their total, it returns the first j
    with uniform < c_j - GUARD, and "undecided" (None) as soon as
    |uniform - c_j| <= GUARD. Where it is undecided the step draws as the
    reference does, _sample_index(softmax_probabilities(values, T), uniform).
    The estimate picks the reference's index everywhere else: each gap is
    the reference's IEEE subtraction and the largest is exactly 0.0, so the
    total is at least 1 and every term at most 1; math.exp and numpy's exp
    are each within about an ulp, and every sum and quotient adds one
    rounding, so c_j and the reference's cdf differ by less than 1e-13 for
    up to 100 targets, far inside GUARD = 1e-9. The guard sends a uniform to
    numpy with probability about 2e-9 per target.

    On a network with at most model.INDEX_LIMIT configurations, the step
    reads the candidates from the network's candidate table
    (Network._candidate_table) when it holds them, and stores them there
    when it evaluates them, so a chain that returns to a configuration, or
    another chain on the same network that reaches it, evaluates them once.
    The key is exact, _table_key(state, 4 m + 2 a + s), with m the mover's
    position among the clients and then the radios, a = 1 for a client's
    dp-approx scores and s = 1 under the client scheme. The maintained state
    equals a fresh state of its configuration bit for bit, so an entry holds
    the bits the candidate method returns. An entry (_candidates) is what
    that method returned, as one bytes object of 16 bytes per target: the
    values, then the targets (int64). One cached struct unpack per k
    (_entry_reader) reads it as k floats and k ints. An evaluated mover
    builds the same bytes, so a miss and a network without a table are read
    the same way. Only results with two or more targets are stored, since a
    one-target return costs little. run's records share the table (_record),
    and it is cleared when it holds TABLE_CAP entries. A larger network has
    no table (None), and its steps evaluate every mover.
    """
    kind, idx, current = _mover(state, t, rng if policy.selection == "random" else None)
    if kind == "channel" and not state.w_ap[idx]:
        k = state.net.n_channels  # a clientless radio: C equal values, none evaluated
        values, targets = (0.0,) * k, range(k)
    else:
        entry = _candidates(
            state, kind, idx, kind == "association" and policy.kind == "dp-approx")
        k = len(entry) // 16  # 16 bytes per target
        flat = _entry_reader(k)(entry)
        values, targets = flat[:k], flat[k:]
    temperature = None if policy.kind == "greedy" else policy.schedule.temperature(t)
    uniform = rng.random()
    if k == 1:
        choice = current
    elif temperature:
        choice = targets[_draw(values, temperature, uniform)]
    else:
        best, u_cur = max(values), values[targets.index(current)]
        margin = 1e-12 * max(1.0, abs(u_cur))
        choice = current if best - u_cur <= margin \
            else next(c for c, v in zip(targets, values) if v >= best - margin)
    changed = choice != current
    if changed and kind == "association":
        state.apply_association(idx, choice)
    elif changed:
        state.apply_channel(idx, choice)
    return Move(kind, idx, choice, changed, temperature), state.energy()


def _candidates(state: SystemState, kind: str, idx: int, approx: bool) -> bytes:
    """The mover's candidate entry, the bytes of its values and then its
    targets: read from the network's candidate table when it holds it (see
    gibbs_step), else built from the mover's candidate method,
    association_scores_approx when approx, else association_candidates or
    channel_candidates, and stored there."""
    table = state.net._candidate_table
    if table is not None:
        m = idx if kind == "association" else state.assoc.size + idx
        key = _table_key(state, 4 * m + 2 * approx + (state.scheme == SCHEME_CLIENT))
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


def _table_key(state: SystemState, code: int) -> int:
    """The exact key of the candidate-table entry of code 0 <= code <
    4 (I + V + 1) for the state's configuration:
    state.config_index() * 4 (I + V + 1) + code. The movers' codes
    (gibbs_step) lie below 4 (I + V), the records' (_record) above."""
    return state.config_index() * 4 * (state.assoc.size + state.chan.size + 1) + code


def _store(table: dict, key: int, entry):
    """Store an entry in a candidate table, clearing it first when it holds
    TABLE_CAP entries."""
    if len(table) >= TABLE_CAP:
        table.clear()
    table[key] = entry


def _record(state: SystemState) -> tuple[float, str]:
    """The state's (weighted_throughput(), digest()) for a trajectory record.

    Both are functions of the configuration and the scheme alone, so on a
    network with a candidate table they are read from it when it holds them
    and stored there when they are computed, under the key
    _table_key(state, 4 (I + V) + s), s = 1 under the client scheme. A
    computed record refreshes every success product and digest piece that
    the moves since the last computed one left pending, so the records read
    from the table leave the state as exact as ever.
    """
    table = state.net._candidate_table
    if table is None:
        return state.weighted_throughput(), state.digest()
    code = 4 * (state.assoc.size + state.chan.size) + (state.scheme == SCHEME_CLIENT)
    key = _table_key(state, code)
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
    defined: chains of fewer than 2 draws, or W = 0."""
    x = np.asarray(chains, dtype=float)
    n = x.shape[1]
    if n < 2:
        return None
    within = x.var(axis=1, ddof=1).mean()
    if within == 0:
        return None
    between = x.mean(axis=1).var(ddof=1)  # B / n
    return math.sqrt(((n - 1) / n * within + between) / within)


def _coerce_network(scenario_or_network) -> Network:
    if isinstance(scenario_or_network, Network):
        return scenario_or_network
    return scenario_or_network.to_network()


def run(
    scenario_or_network,
    policy: OptimizerPolicy,
    record_every: int | None = None,
    run_id: str = "run0",
) -> RunResult:
    """Run one optimizer policy from a fresh random initialization.

    Records (t, T, energy, weighted throughput, configuration hash) at the
    requested cadence plus the initial and final points, and tracks the best
    configuration seen anywhere along the trajectory. A record reads the
    weighted throughput and hash from the network's candidate table, or
    computes and stores them there (_record); the state keeps both up to
    date incrementally, so a record of a state that no move changed costs a
    table hit, or a refresh with nothing stale. A greedy run stops early
    once a whole sweep of movers produces no change, which certifies a local
    optimum under single moves.
    """
    net = _coerce_network(scenario_or_network)
    iters = policy.iterations
    if record_every is not None:
        check_integer("record_every", record_every, 1)
    cadence = record_every if record_every else max(1, iters // 100)
    rng = np.random.default_rng(policy.seed)

    assoc, chan = initial_configuration(net, rng)
    state = SystemState(net, policy.scheme, assoc, chan)
    u = state.energy()
    best_u, best_t = u, 0
    best_snapshot = (state.assoc.copy(), state.chan.copy())
    trajectory = [TrajectoryPoint(0, None, u, *_record(state))]

    sweep = net.n_clients + net.n_vaps
    unchanged_streak = 0
    for t in range(1, iters + 1):
        move, u = gibbs_step(state, t, policy, rng)
        unchanged_streak = 0 if move.changed else unchanged_streak + 1
        if u > best_u + 1e-12:
            best_u, best_t = u, t
            best_snapshot = (state.assoc.copy(), state.chan.copy())
        greedy_done = policy.kind == "greedy" and unchanged_streak >= sweep
        if t % cadence == 0 or t == iters or greedy_done:
            trajectory.append(TrajectoryPoint(t, move.temperature, u, *_record(state)))
        if greedy_done:
            break

    final_cfg = state.to_configuration()
    alloc = state.allocation()
    rates = state.rates()
    return RunResult(
        run_id=run_id,
        policy_kind=policy.kind,
        scheme=policy.scheme,
        seed=policy.seed,
        iterations=trajectory[-1].t,
        trajectory=trajectory,
        final_configuration=final_cfg,
        final_energy=trajectory[-1].energy,  # the last record is of the final state
        final_weighted_throughput=trajectory[-1].weighted_throughput,
        rates={net.client_ids[i]: float(rates[i]) for i in range(net.n_clients)},
        schedule_phi=alloc.schedule,
        access_p=alloc.access,
        best_energy=best_u,
        best_t=best_t,
        best_configuration=net.configuration(*best_snapshot),
    )
