"""Span tracing from outside the program.

Tracer.installed() replaces each public callable of fairband's layers with a
wrapper that records a span (name, parent name, start, duration, self time)
and puts every original back on exit. Each callable is patched where its
caller looks it up: cli binds run, minint_wifi_run and save_result by name at
import, and annealing does the same with softmax_probabilities,
initial_configuration and the step functions, so those are patched in the
importing module; methods are patched on their class.

Spans are kept in per-thread arrays (the cli fans runs out to threads) and
written when the run ends. A span's self time is its duration minus the
durations of the spans it directly encloses.
"""
from __future__ import annotations

import functools
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

from fairband import annealing, baselines, cli, fairness, model, scenarios


class _Buffer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.dur = array("d")
        self.self_time = array("d")
        self.stack: list[list] = []
        self.counts: dict[str, int] = {}

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n


class _CountingRng:
    """Forwards to a Generator, counting the sized draws initial_configuration
    makes (one channel vector per attempt)."""

    def __init__(self, rng, buf: _Buffer):
        self._rng = rng
        self._buf = buf

    def integers(self, *args, **kwargs):
        if "size" in kwargs:
            self._buf.count("init.channel_draws")
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


def _step_name(args, kwargs) -> str:
    state = args[0]
    policy = args[2] if len(args) > 2 else kwargs["policy"]
    suffix = "-client" if state.scheme == fairness.SCHEME_CLIENT else ""
    return f"annealing.step.{policy.kind}{suffix}"


def _after_step(buf: _Buffer, result, args):
    prop = result[0]
    buf.count("steps")
    buf.count("steps.changed", bool(prop.changed))
    buf.count("steps.noop", prop.chosen is None)


def _after_assoc(buf: _Buffer, result, args):
    feasible = result[1]
    buf.count("assoc.entries", feasible.size)
    buf.count("assoc.feasible", int(feasible.sum()))


def _after_network(buf: _Buffer, result, args):
    net = args[0]
    nbytes = sum(a.nbytes for a in (net.rates, net.log_rates, net.adjacency, net.distances))
    buf.counts["network.max_bytes"] = max(buf.counts.get("network.max_bytes", 0), nbytes)


def _before_init(buf: _Buffer, args, kwargs):
    buf.count("init.calls")
    if len(args) > 1:
        args = (args[0], _CountingRng(args[1], buf), *args[2:])
    else:
        kwargs = dict(kwargs, rng=_CountingRng(kwargs["rng"], buf))
    return args, kwargs


def targets():
    """(owner, attribute, span name, hooks) for every traced callable."""
    state = fairness.SystemState
    step = {"name_of": _step_name, "after": _after_step}
    return [
        (cli, "main", "cli.main", {}),
        (cli, "run", "annealing.run", {}),
        (annealing, "run", "annealing.run", {}),
        (cli, "minint_wifi_run", "baselines.minint_wifi_run", {}),
        (cli, "save_result", "scenarios.save_result", {}),
        (scenarios, "save_result", "scenarios.save_result", {}),
        (model.Network, "__init__", "model.compile", {"after": _after_network}),
        (state, "to_configuration", "model.to_configuration", {}),
        (model.Configuration, "digest", "model.digest", {}),
        (annealing, "initial_configuration", "annealing.init", {"before": _before_init}),
        (annealing, "softmax_probabilities", "annealing.softmax", {}),
        (annealing, "gibbs_step", "annealing.step", step),
        (annealing, "greedy_step", "annealing.step", step),
        (state, "__init__", "fairness.state_init", {}),
        (state, "association_candidates", "fairness.assoc_cand", {"after": _after_assoc}),
        (state, "association_scores_approx", "fairness.assoc_approx", {}),
        (state, "channel_candidates", "fairness.chan_cand", {}),
        (state, "apply_association", "fairness.apply_assoc", {}),
        (state, "apply_channel", "fairness.apply_chan", {}),
        (state, "energy", "fairness.energy", {}),
        (state, "weighted_throughput", "fairness.wthr", {}),
        (baselines, "minint_channel_selection", "baselines.minint", {}),
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            return buf

    def wrap(self, fn, name, name_of=None, before=None, after=None):
        fixed_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            nid = self._id(name_of(args, kwargs)) if name_of else fixed_id
            if before:
                args, kwargs = before(buf, args, kwargs)
            stack = buf.stack
            parent = stack[-1][1] if stack else -1
            frame = [0.0, nid]  # time of enclosed spans, own name id
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                buf.name.append(nid)
                buf.parent.append(parent)
                buf.start.append(t0)
                buf.dur.append(dur)
                buf.self_time.append(dur - frame[0])
            if after:
                after(buf, result, args)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the block; restore the originals after."""
        saved = []
        try:
            for owner, attr, name, hooks in targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, **hooks))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        bufs = self._buffers
        return {
            "names": np.array(self.names),
            "name": np.concatenate([np.frombuffer(b.name, dtype=np.int32) for b in bufs]),
            "parent": np.concatenate([np.frombuffer(b.parent, dtype=np.int32) for b in bufs]),
            "start": np.concatenate([np.frombuffer(b.start) for b in bufs]),
            "dur": np.concatenate([np.frombuffer(b.dur) for b in bufs]),
            "self_time": np.concatenate([np.frombuffer(b.self_time) for b in bufs]),
            "thread": np.concatenate(
                [np.full(len(b.name), k, dtype=np.int32) for k, b in enumerate(bufs)]
            ),
        }

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for b in self._buffers:
            for k, v in b.counts.items():
                total[k] = max(total.get(k, 0), v) if k.endswith("max_bytes") \
                    else total.get(k, 0) + v
        return total

    def save(self, path):
        np.savez(path, **self.spans())


STEP_KINDS = ("dp-exact", "dp-approx", "greedy", "dp-exact-client")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from a traced pass. Times are medians per call; a
    layer the workload never calls reads 0."""
    sp = tracer.spans()
    counts = tracer.counts()
    ids = {n: k for k, n in enumerate(sp["names"])}

    def mask(name):
        return sp["name"] == ids.get(name, -1)

    def med(name):
        v = sp["dur"][mask(name)]
        return float(np.median(v)) if v.size else 0.0

    def calls(name):
        return int(mask(name).sum())

    steps = counts.get("steps", 0)
    step_ids = [k for n, k in ids.items() if n.startswith("annealing.step.")]
    step_self = sp["self_time"][np.isin(sp["name"], step_ids)]
    inits = counts.get("init.calls", 0)
    entries = counts.get("assoc.entries", 0)
    metrics = {
        "model.compile_s": med("model.compile"),
        "model.network_mb": counts.get("network.max_bytes", 0) / 2**20,
        "model.digest_us": (med("model.to_configuration") + med("model.digest")) * 1e6,
        "annealing.init_s": med("annealing.init"),
        "annealing.init_redraws":
            (counts.get("init.channel_draws", 0) - inits) / inits if inits else 0.0,
        "annealing.softmax_us": med("annealing.softmax") * 1e6,
        "annealing.step_self_us": float(np.median(step_self)) * 1e6 if step_self.size else 0.0,
        "annealing.changed_frac": counts.get("steps.changed", 0) / steps if steps else 0.0,
        "annealing.noop_frac": counts.get("steps.noop", 0) / steps if steps else 0.0,
        "fairness.assoc_cand_us": med("fairness.assoc_cand") * 1e6,
        "fairness.assoc_cand_calls": calls("fairness.assoc_cand"),
        "fairness.assoc_feasible_frac":
            counts.get("assoc.feasible", 0) / entries if entries else 0.0,
        "fairness.assoc_approx_us": med("fairness.assoc_approx") * 1e6,
        "fairness.chan_cand_us": med("fairness.chan_cand") * 1e6,
        "fairness.chan_cand_calls": calls("fairness.chan_cand"),
        "fairness.apply_assoc_us": med("fairness.apply_assoc") * 1e6,
        "fairness.apply_chan_us": med("fairness.apply_chan") * 1e6,
        "fairness.energy_us": med("fairness.energy") * 1e6,
        "fairness.energy_calls_per_step": calls("fairness.energy") / steps if steps else 0.0,
        "fairness.wthr_us": med("fairness.wthr") * 1e6,
        "fairness.state_init_s": med("fairness.state_init"),
        "baselines.minint_s": med("baselines.minint"),
        "scenarios.save_result_ms": med("scenarios.save_result") * 1e3,
    }
    for kind in STEP_KINDS:
        metrics[f"annealing.step_us.{kind}"] = med(f"annealing.step.{kind}") * 1e6
    return metrics
