"""Slow-timescale search over configurations by Gibbs sampling or greedy moves.

Each step selects one mover, either a client (association move) or a radio
(channel move), evaluates the energy of every feasible single move and
either samples a target from the softmax of those energies at the current
temperature or takes the argmax. With a temperature schedule that cools
slowly enough (the inverse-sqrt-log kind: T -> 0 while T log t -> infinity)
the sampled chain concentrates on globally optimal configurations.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import Configuration, Network, ScenarioError
from .fairness import SCHEME_SERVER, SystemState, _check_scheme

log = logging.getLogger(__name__)

POLICY_KINDS = ("dp-exact", "dp-approx", "greedy")
SELECTION_KINDS = ("round-robin", "random")
# channel draws initial_configuration tries before it falls back
MAX_REDRAWS = 100


@dataclass(frozen=True)
class Schedule:
    """Temperature schedule T(t) for t = 1, 2, ...

    Kinds: invsqrtlog T0/sqrt(log(t+2)), invlog T0/log(t+2), geometric
    T0*ratio^(t-1), const T0. Only invsqrtlog satisfies both convergence
    conditions (T -> 0 and T log t -> infinity). A constant schedule may be
    zero, which turns sampling into deterministic argmax; every other kind
    requires a positive temperature.
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
            # greedy_step moves round-robin, and run() certifies a local
            # optimum by a whole unchanged sweep in that order
            raise ValueError("selection: greedy moves round-robin only")
        _check_scheme(self.scheme)
        _check_integer("seed", self.seed, 0)
        _check_integer("iterations", self.iterations, 0)


def _check_integer(name: str, value, minimum: int):
    """Raise ValueError naming the field unless value is an integer (not a
    bool) no smaller than minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < minimum:
        raise ValueError(f"{name}: expected an integer >= {minimum}, got {value!r}")


class Move(NamedTuple):
    """What one optimizer step did. kind is "association" (index is a client)
    or "channel" (index is a radio); chosen is the target index the step
    settled on (a radio or a channel), or None when the mover had no feasible
    candidate; temperature is T(t), None for greedy steps."""

    kind: str
    index: int
    chosen: int | None
    changed: bool
    temperature: float | None


def softmax_probabilities(
    values: np.ndarray, temperature: float, feasible: np.ndarray
) -> np.ndarray:
    """Move probabilities proportional to exp(value / T) over feasible entries.

    The max feasible value is subtracted before exponentiating, so adding
    any constant to all values changes nothing. Infeasible entries are set
    to -inf before exp, so their probability is exactly 0. At T = 0 the
    distribution degenerates to the first exact argmax; greedy_step also
    counts near-equal values as ties.
    """
    values = np.asarray(values, dtype=float)
    usable = np.asarray(feasible, dtype=bool) & np.isfinite(values)
    masked = np.where(usable, values, -np.inf)
    top = masked.max(initial=-np.inf)
    if top == -np.inf:
        return np.zeros_like(values)
    if temperature == 0.0:
        probs = np.zeros_like(values)
        probs[np.argmax(masked >= top)] = 1.0
        return probs
    ex = np.exp((masked - top) / temperature)
    return ex / ex.sum()


# -- steps ------------------------------------------------------------------


def _mover(state: SystemState, index: int) -> tuple[str, int, int]:
    """The mover at position index of the fixed order (clients by index, then
    radios by index): its kind, its own index and its current target."""
    n = state.net.n_clients
    if index < n:
        return "association", index, int(state.assoc[index])
    return "channel", index - n, int(state.chan[index - n])


def _sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """rng.choice(len(probs), p=probs / probs.sum()) without its argument
    checks: the same inverse-CDF arithmetic on the same one uniform draw, so
    the same index and the same random stream afterwards."""
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def gibbs_step(
    state: SystemState, t: int, policy: OptimizerPolicy, rng: np.random.Generator
) -> tuple[Move, float]:
    """One sampled move. Returns the Move and state.energy() after it, under
    every policy and also after a no-op.

    The mover is chosen per the policy's selection order; its feasible
    candidates are sampled from the softmax at T(t). A mover with no
    feasible candidate leaves the state untouched.
    """
    m = state.net.n_clients + state.net.n_vaps
    index = (t - 1) % m if policy.selection == "round-robin" else int(rng.integers(m))
    kind, idx, current = _mover(state, index)
    if kind == "channel":
        values, feasible = state.channel_candidates(idx)
    elif policy.kind == "dp-approx":
        values, feasible = state.association_scores_approx(idx)
    else:
        values, feasible = state.association_candidates(idx)
    temperature = policy.schedule.temperature(t)
    probs = softmax_probabilities(values, temperature, feasible)
    if probs.sum() == 0.0:
        log.warning("no feasible candidate for %s move of index %d", kind, idx)
        return Move(kind, idx, None, False, temperature), state.energy()

    choice = _sample_index(probs, rng)
    changed = choice != current
    if changed and kind == "association":
        state.apply_association(idx, choice)
    elif changed:
        state.apply_channel(idx, choice)
    return Move(kind, idx, choice, changed, temperature), state.energy()


def greedy_step(
    state: SystemState, t: int, policy: OptimizerPolicy
) -> tuple[Move, float]:
    """One argmax move in round-robin order; ties go to the lowest target
    index. Returns the Move and state.energy() after it, also after a no-op.

    Candidates within 1e-12 max(1, |U|) of the best, U the current energy,
    count as tied, and the mover moves only when the best gains more than
    that margin over staying, so float noise between equal energies never
    makes a move.
    """
    kind, idx, current = _mover(state, (t - 1) % (state.net.n_clients + state.net.n_vaps))
    values, feasible = state.association_candidates(idx) if kind == "association" \
        else state.channel_candidates(idx)
    usable = feasible & np.isfinite(values)  # as softmax_probabilities counts them
    if not usable.any():
        return Move(kind, idx, None, False, None), state.energy()
    masked = np.where(usable, values, -np.inf)
    best = masked.max()
    u_cur = masked[current]
    margin = 1e-12 * max(1.0, abs(u_cur)) if usable[current] else 0.0
    choice = int(np.argmax(masked >= best - margin))
    changed = bool(choice != current and best - u_cur > margin)
    if not changed:
        choice = current
    elif kind == "association":
        state.apply_association(idx, choice)
    else:
        state.apply_channel(idx, choice)
    return Move(kind, idx, choice, changed, None), state.energy()


# -- initialization -----------------------------------------------------------


def initial_configuration(
    net: Network, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random channels, then closest-radio association.

    Each radio draws a uniform channel. Each client then associates with the
    closest radio offering a positive rate under the drawn channels, breaking
    distance ties uniformly at random (co-located radios of one AP are always
    tied). If some client is unreachable on every channel that is a scenario
    error; if the particular channel draw strands a client, the channels are
    redrawn. After MAX_REDRAWS stranding draws every radio takes the channel
    that reaches farthest: all channels scale one tier table, so that channel
    reaches every link any channel reaches.
    """
    V, C = net.n_vaps, net.n_channels
    starts = net.link_ptr[:-1]
    reachable_somewhere = net.link_ptr[1:] > starts
    if not reachable_somewhere.all():
        bad = net.client_ids[int(np.argmin(reachable_somewhere))]
        raise ScenarioError(f"client {bad!r} has no positive-rate AP on any channel")

    for _ in range(MAX_REDRAWS):
        chan = rng.integers(0, C, size=V)
        if np.logical_or.reduceat(_usable_links(net, chan), starts).all():
            break
    else:
        far = int(np.argmax([prof.max_range_m for prof in net.profiles]))
        chan = np.full(V, far, dtype=np.int64)
    hits, counts = _nearest(net, _usable_links(net, chan))
    first = np.cumsum(counts) - counts
    assoc = net.link_vap[hits[first]]  # the lowest-index nearest radio
    tied = np.flatnonzero(counts > 1)
    if tied.size:
        # one draw per tied client, in client order, picks among its nearest radios
        picks = [rng.integers(n) for n in counts[tied].tolist()]
        assoc[tied] = net.link_vap[hits[first[tied] + picks]]
    return assoc, chan


def _usable_links(net: Network, chan: np.ndarray) -> np.ndarray:
    """Mask of the links with a positive rate on their radio's channel."""
    return net.rates[np.arange(len(net.link_vap)), chan[net.link_vap]] > 0


def _nearest(net: Network, reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The links of every client at its smallest distance among the links
    marked in reach, client by client with radios ascending, and how many
    each client has. Every client must reach some radio."""
    d = np.where(reach, net.distances, np.inf)
    nearest = d == np.minimum.reduceat(d, net.link_ptr[:-1])[net.link_client]
    hits = nearest.nonzero()[0]
    return hits, np.bincount(net.link_client[hits], minlength=net.n_clients)


# -- full runs ---------------------------------------------------------------


@dataclass
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
    noop_steps: int = 0


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
    configuration seen anywhere along the trajectory. A greedy run stops
    early once a whole sweep of movers produces no change, which certifies
    a local optimum under single moves.
    """
    net = _coerce_network(scenario_or_network)
    iters = policy.iterations
    if record_every is not None:
        _check_integer("record_every", record_every, 1)
    cadence = record_every if record_every else max(1, iters // 100)
    rng = np.random.default_rng(policy.seed)

    assoc, chan = initial_configuration(net, rng)
    state = SystemState(net, policy.scheme, assoc, chan)
    u = state.energy()
    best_u, best_t = u, 0
    best_snapshot = (state.assoc.copy(), state.chan.copy())
    # (energy, weighted throughput, digest) of the state at the last record;
    # reused until a move changes the state
    recorded = (u, state.weighted_throughput(), net.digest(state.assoc, state.chan))
    trajectory = [TrajectoryPoint(0, None, *recorded)]
    dirty = False

    sweep = net.n_clients + net.n_vaps
    unchanged_streak = 0
    noops = 0
    last_t = 0
    for t in range(1, iters + 1):
        last_t = t
        if policy.kind == "greedy":
            move, u = greedy_step(state, t, policy)
        else:
            move, u = gibbs_step(state, t, policy, rng)
        if move.chosen is None:
            noops += 1
        dirty |= move.changed
        unchanged_streak = 0 if move.changed else unchanged_streak + 1
        if u > best_u + 1e-12:
            best_u, best_t = u, t
            best_snapshot = (state.assoc.copy(), state.chan.copy())
        greedy_done = policy.kind == "greedy" and unchanged_streak >= sweep
        if t % cadence == 0 or t == iters or greedy_done:
            if dirty:
                recorded = (
                    u, state.weighted_throughput(), net.digest(state.assoc, state.chan)
                )
                dirty = False
            trajectory.append(TrajectoryPoint(t, move.temperature, *recorded))
        if greedy_done:
            break

    final_energy, final_wthr, _ = recorded  # the last record is of the final state
    final_cfg = state.to_configuration()
    alloc = state.allocation()
    rates = state.rates()
    best_state = SystemState(net, policy.scheme, best_snapshot[0], best_snapshot[1])
    return RunResult(
        run_id=run_id,
        policy_kind=policy.kind,
        scheme=policy.scheme,
        seed=policy.seed,
        iterations=last_t,
        trajectory=trajectory,
        final_configuration=final_cfg,
        final_energy=final_energy,
        final_weighted_throughput=final_wthr,
        rates={net.client_ids[i]: float(rates[i]) for i in range(net.n_clients)},
        schedule_phi=alloc.schedule,
        access_p=alloc.access,
        best_energy=best_state.energy(),
        best_t=best_t,
        best_configuration=best_state.to_configuration(),
        noop_steps=noops,
    )
