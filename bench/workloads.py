"""The benchmark's workloads: inputs made from the seed, and the jobs that run them.

Each workload compiles its inputs from the seed alone and hands fairband only
those inputs, through its public API. A job is one unit a user would run and
wait for (a chain, or one cli invocation); it writes its outputs and returns
what the runner needs to time and check it. Workload descriptions, sizes and
provenance live in workloads.json.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fairband import annealing, cli, fairness, scenarios
from fairband import AccessPoint, ClientRegion, OptimizerPolicy, Scenario, builtin

SPEC = json.loads((Path(__file__).with_name("workloads.json")).read_text())


@dataclass
class Chain:
    """One optimizer run, kept for the correctness gate and the quality metrics."""

    scheme: str
    policy: str
    result: annealing.RunResult
    net: object = None  # the compiled Network, or None to rebuild from scenario
    scenario: Scenario | None = None

    def network(self):
        return self.net if self.net is not None else self.scenario.to_network()

    def network_key(self):
        return id(self.net) if self.net is not None else self.scenario.seed


@dataclass
class JobOutcome:
    steps: int
    run_intervals: list[tuple[float, float]]  # perf_counter spans of run() calls
    digest: str  # sha256 of every output file the job wrote
    chains: list[Chain] = field(default_factory=list)


def _seeds(seq: np.random.SeedSequence, n: int) -> list[int]:
    return [int(c.generate_state(1)[0]) for c in seq.spawn(n)]


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _save_chain(stem: Path, res) -> str:
    """Write the run's result file and its trajectory; return their digest."""
    json_path = stem.with_suffix(".json")
    csv_path = stem.with_suffix(".csv")
    scenarios.save_result(json_path, res)
    csv_path.write_text("".join(
        f"{p.t},{p.temperature!r},{p.energy!r},{p.weighted_throughput!r},{p.config_hash}\n"
        for p in res.trajectory
    ))
    return _digest([json_path, csv_path])


def _timed_run(net, policy, run_id):
    t0 = time.perf_counter()
    res = annealing.run(net, policy, run_id=run_id)
    return res, (t0, time.perf_counter())


class Workload:
    name = ""
    threaded = False  # jobs run fairband in threads other than the main one
    min_passes = 1

    def __init__(self, seed: int, out_dir: Path, **overrides):
        self.seed = seed
        self.out_dir = out_dir
        self.params = {**SPEC[self.name]["params"], **overrides}
        self.reference_u = SPEC[self.name].get("reference_u")
        # independent streams for the workload's own inputs and for set-up samples
        self.inputs_seq, setup_seq = np.random.SeedSequence(seed).spawn(2)
        self.setup_seeds = _seeds(setup_seq, self.params["setup_samples"] + 1)

    def hooks(self):
        return contextlib.nullcontext()

    def _setup(self, scenario: Scenario, k: int):
        """Scenario -> Network compile -> initial_configuration -> first SystemState."""
        net = scenario.to_network()
        rng = np.random.default_rng(self.setup_seeds[k])
        assoc, chan = annealing.initial_configuration(net, rng)
        fairness.SystemState(net, fairness.SCHEME_SERVER, assoc, chan)


class Line3Seeds(Workload):
    """Many short dp-exact chains on one compiled line3-2ch network."""

    name = "line3-2ch-seeds"

    def __init__(self, seed, out_dir, **overrides):
        super().__init__(seed, out_dir, **overrides)
        self.net = builtin("line3-2ch").to_network()
        self.chain_seeds = _seeds(self.inputs_seq, self.params["chains"])

    def setup_sample(self, k: int):
        self._setup(builtin("line3-2ch"), k)

    def jobs(self):
        return [functools.partial(self._chain, k) for k in range(len(self.chain_seeds))]

    def _chain(self, k: int) -> JobOutcome:
        policy = OptimizerPolicy(
            kind="dp-exact", iterations=self.params["steps"], seed=self.chain_seeds[k]
        )
        res, interval = _timed_run(self.net, policy, f"r{k:03d}")
        digest = _save_chain(self.out_dir / f"r{k:03d}", res)
        chain = Chain(policy.scheme, policy.kind, res, net=self.net)
        return JobOutcome(res.iterations, [interval], digest, [chain])


class Grid16Policies(Workload):
    """One `fairband run` per policy and scheme on grid16-weighted, in-process."""

    name = "grid16-policies"
    threaded = True
    min_passes = 2  # every cli job runs twice, and both outputs must match

    def __init__(self, seed, out_dir, **overrides):
        super().__init__(seed, out_dir, **overrides)
        self._calls: list = []
        self._lock = threading.Lock()

    def setup_sample(self, k: int):
        self._setup(builtin("grid16-weighted").reseeded(self.setup_seeds[k]), k)

    @contextlib.contextmanager
    def hooks(self):
        """Record every run cli starts: the scenario it drew, the result and
        when it ran. cli looks run and minint_wifi_run up in its own module."""
        saved = {attr: cli.__dict__[attr] for attr in ("run", "minint_wifi_run")}
        try:
            for attr, fn in saved.items():
                setattr(cli, attr, self._capture(fn))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(cli, attr, fn)

    def _capture(self, fn):
        @functools.wraps(fn)
        def wrapper(scenario, *args, **kwargs):
            t0 = time.perf_counter()
            res = fn(scenario, *args, **kwargs)
            with self._lock:
                self._calls.append((scenario, res, t0, time.perf_counter()))
            return res

        return wrapper

    def jobs(self):
        return [functools.partial(self._job, p, s) for p, s in self.params["jobs"]]

    def _job(self, policy: str, scheme: str) -> JobOutcome:
        out = self.out_dir / f"{policy}-{scheme}"
        argv = [
            "run", "--scenario", "grid16-weighted", "--policy", policy,
            "--scheme", scheme, "--iters", str(self.params["iters"]),
            "--runs", str(self.params["runs"]), "--seed", str(self.seed),
            "--out-dir", str(out),
        ]
        self._calls = []
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"fairband {' '.join(argv)} exited with {code}")
        runs = [c for c in self._calls if c[1].policy_kind != "minint-wifi"]
        files = [out / "trajectory.csv"] + sorted(out.glob("r*.json"))
        return JobOutcome(
            steps=sum(c[1].iterations for c in runs),
            run_intervals=[(c[2], c[3]) for c in runs],
            digest=_digest(files),
            chains=[Chain(scheme, policy, c[1], scenario=c[0]) for c in runs],
        )


class SynthV512(Workload):
    """One full-sweep dp-exact chain on a 16 x 16 grid of dual-radio APs."""

    name = "synth-v512"

    def __init__(self, seed, out_dir, **overrides):
        super().__init__(seed, out_dir, **overrides)
        self.region_seed, self.chain_seed = _seeds(self.inputs_seq, 2)

    def scenario(self) -> Scenario:
        n, spacing = self.params["grid"], self.params["spacing_m"]
        extent = spacing * (n - 1)
        aps = tuple(
            AccessPoint(f"ap{n * ix + iy:03d}", (spacing * ix, spacing * iy), radio_count=2)
            for ix in range(n)
            for iy in range(n)
        )
        region = ClientRegion(self.params["clients"], (0.0, 0.0, extent, extent), 1.0)
        return Scenario(
            name=self.name,
            channels=builtin("grid16-weighted").channels,
            aps=aps,
            regions=(region,),
            seed=self.region_seed,
        )

    def setup_sample(self, k: int):
        self._setup(self.scenario(), k)

    def jobs(self):
        return [self._chain]

    def _chain(self) -> JobOutcome:
        net = self.scenario().to_network()
        policy = OptimizerPolicy(
            kind="dp-exact", iterations=net.n_clients + net.n_vaps, seed=self.chain_seed
        )
        res, interval = _timed_run(net, policy, "r000")
        digest = _save_chain(self.out_dir / "r000", res)
        chain = Chain(policy.scheme, policy.kind, res, net=net)
        return JobOutcome(res.iterations, [interval], digest, [chain])


WORKLOADS = {w.name: w for w in (Line3Seeds, Grid16Policies, SynthV512)}
