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

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .checks import check_integer
from .model import Configuration, Network, ScenarioError
from .fairness import SCHEME_SERVER, SystemState, _check_scheme

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
    candidate values, for a temperature T > 0 (gibbs_step takes the argmax
    at T = 0).

    The candidate methods return only the feasible targets, so the values
    are finite on a feasible state. The max value is subtracted before
    exponentiating, so adding any constant to all values changes nothing;
    a -inf entry gets probability exactly 0, and so does every entry when
    there is no finite one.
    """
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


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The cdf rng.choice(len(probs), p=probs / probs.sum()) searches: the
    normalised cumulative sum, scaled to end at exactly 1 (np.add.reduce
    and np.add.accumulate are the ufunc loops of ndarray.sum and cumsum)."""
    cdf = np.add.accumulate(probs / np.add.reduce(probs))
    cdf /= cdf[-1]
    return cdf


def _sample_index(probs: np.ndarray, uniform: float) -> int:
    """rng.choice(len(probs), p=probs / probs.sum()) without its argument
    checks, given the one uniform draw rng.choice would make: the same
    inverse-CDF arithmetic, so the same index."""
    return int(_cdf(probs).searchsorted(uniform, side="right"))


# n -> the cdf _sample_index builds over n equal finite values
_EQUAL_CDFS: dict[int, np.ndarray] = {}


def _equal_cdf(n: int) -> np.ndarray:
    """The cdf of the softmax of n equal finite values. Every gap to the max
    is 0.0, so every exp is 1.0 at any T > 0: the cdf depends on neither the
    value nor T, and is computed once per n."""
    cdf = _EQUAL_CDFS.get(n)
    if cdf is None:
        cdf = _EQUAL_CDFS[n] = _cdf(softmax_probabilities(np.zeros(n), 1.0))
    return cdf


def gibbs_step(
    state: SystemState, t: int, policy: OptimizerPolicy, rng: np.random.Generator
) -> tuple[Move, float]:
    """One move from a feasible state (see _mover). Returns the Move and
    state.energy() after it, under every policy.

    The mover is chosen per the policy's selection order and every step makes
    one uniform draw. The candidate methods give the mover's feasible targets
    (ascending) and their values. At T(t) > 0 the draw samples an index into
    them from the softmax. At T = 0, and under a greedy policy, the step
    takes their argmax instead: candidates within 1e-12 max(1, |u|) of the
    best, u the current target's value, count as tied and the lowest target
    wins, and the mover stays unless the best beats u by more than that
    margin, so float noise between equal energies never makes a move.

    Two kinds of step are decided without that work, with the same outcome:

    * A mover with one target stays. In a feasible state the current target
      is usable, so it is the one; the softmax of one value is [1.0], whose
      cdf puts every uniform in [0, 1) on index 0, and at T = 0 the best is
      the current value, which the margin keeps.
    * A clientless radio changes no one's energy on any channel, so its
      values are C copies of U. At T > 0 it draws its channel from
      _equal_cdf(C), the cdf the draw would build from them; at T = 0 the
      margin keeps the current channel. channel_candidates is not called.
    """
    kind, idx, current = _mover(state, t, rng if policy.selection == "random" else None)
    if kind == "association" and policy.kind == "dp-approx":
        targets, values = state.association_scores_approx(idx)
    elif kind == "association":
        targets, values = state.association_candidates(idx)
    elif state.w_ap[idx]:
        targets, values = state.channel_candidates(idx)
    else:  # a clientless radio: C equal values, none evaluated
        targets = None
    temperature = None if policy.kind == "greedy" else policy.schedule.temperature(t)
    uniform = rng.random()
    if targets is None:
        choice = current if not temperature \
            else int(_equal_cdf(state.net.n_channels).searchsorted(uniform, side="right"))
    elif targets.size == 1:
        choice = current
    elif temperature:
        probs = softmax_probabilities(values, temperature)
        choice = int(targets[_sample_index(probs, uniform)])
    else:
        best, u_cur = np.maximum.reduce(values), values[targets.searchsorted(current)]
        margin = 1e-12 * max(1.0, abs(u_cur))
        choice = current if best - u_cur <= margin \
            else int(targets[np.argmax(values >= best - margin)])
    changed = choice != current
    if changed and kind == "association":
        state.apply_association(idx, choice)
    elif changed:
        state.apply_channel(idx, choice)
    return Move(kind, idx, choice, changed, temperature), state.energy()


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
        hits, counts = net.nearest_links(net.usable_links(chan))
        if counts.all():
            break
    else:
        bad = net.client_ids[int(np.argmin(counts))]
        raise ScenarioError(f"client {bad!r} has no positive-rate AP on any channel")
    first = np.cumsum(counts) - counts
    assoc = net.link_vap[hits[first]]  # the lowest-index nearest radio
    tied = np.flatnonzero(counts > 1)
    if tied.size:
        # one draw per tied client, in client order, picks among its nearest radios
        picks = [rng.integers(n) for n in counts[tied].tolist()]
        assoc[tied] = net.link_vap[hits[first[tied] + picks]]
    return assoc, chan


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
        check_integer("record_every", record_every, 1)
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
    for t in range(1, iters + 1):
        move, u = gibbs_step(state, t, policy, rng)
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
    return RunResult(
        run_id=run_id,
        policy_kind=policy.kind,
        scheme=policy.scheme,
        seed=policy.seed,
        iterations=trajectory[-1].t,
        trajectory=trajectory,
        final_configuration=final_cfg,
        final_energy=final_energy,
        final_weighted_throughput=final_wthr,
        rates={net.client_ids[i]: float(rates[i]) for i in range(net.n_clients)},
        schedule_phi=alloc.schedule,
        access_p=alloc.access,
        best_energy=best_u,
        best_t=best_t,
        best_configuration=net.configuration(*best_snapshot),
    )
