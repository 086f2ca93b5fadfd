"""fairband benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload line3-2ch-seeds --seed 1 --seconds 30 --trace 0

Run from the repository root; fairband is imported from ./src. With
--trace 0 the run times set-up samples and then passes over the workload's
jobs while the time budget lasts, and prints the end-to-end metrics of
BENCHMARK.json. With --trace 1 it runs one untraced pass, then set-up samples
and a pass with every layer's public callables wrapped (tracing.py), checks
that both passes wrote byte-identical outputs, and prints the per-layer
metrics. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. Raw samples, probe ticks and
machine metadata go to .bench_out/. The exit code is 1 if any job failed,
and 2, before any output, if ./src holds no fairband.

Every job is checked: it must not raise, its outputs must match the first
pass byte for byte, and every chain's best energy must equal the energy
recomputed from its best configuration by SystemState and, on
line3-2ch-seeds and grid16-policies, by the independent oracle.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLE_WORKLOADS = ("line3-2ch-seeds", "grid16-policies")
TOLERANCE = 1e-9


@dataclass
class JobRun:
    outcome: object  # JobOutcome, or None when the job raised
    t0: float
    t1: float
    cpu_s: float


def _cpu_s() -> float:
    """User plus system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(workload, probe, keep_chains=False) -> list[JobRun]:
    """Run every job once. Chains are dropped after each job unless kept for
    the gate, so that peak memory does not grow with the number of passes."""
    runs = []
    for job in workload.jobs():
        with probe.around() if workload.threaded else nullcontext():
            cpu0, t0 = _cpu_s(), time.perf_counter()
            try:
                outcome = job()
            except Exception:
                traceback.print_exc()
                outcome = None
            runs.append(JobRun(outcome, t0, time.perf_counter(), _cpu_s() - cpu0))
        if outcome is not None and not keep_chains:
            outcome.chains = []
    return runs


def timed_setup(workload, probe) -> list[tuple[float, float]]:
    """Time each set-up sample between two probe ticks of its own."""
    workload.setup_sample(0)  # warm-up, not timed
    intervals = []
    for k in range(1, workload.params["setup_samples"] + 1):
        probe.tick()
        t0 = time.perf_counter()
        workload.setup_sample(k)
        intervals.append((t0, time.perf_counter()))
    probe.tick()
    return intervals


def _union(intervals):
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return merged


def steps_per_s(passes, time_of) -> float:
    """Median over passes of optimizer steps over the time at least one run()
    call was active."""
    rates = []
    for runs in passes:
        done = [r.outcome for r in runs if r.outcome is not None]
        busy = sum(time_of(a, b) for o in done for a, b in _union(o.run_intervals))
        rates.append(sum(o.steps for o in done) / busy if busy else 0.0)
    return statistics.median(rates)


def pass_wall(runs, time_of) -> float:
    return sum(time_of(r.t0, r.t1) for r in runs)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def check_and_score(workload, chains, use_oracle: bool):
    """The correctness gate over one pass's chains, plus the quality metrics.

    Returns (failed chain count, error lines, quality dict)."""
    from fairband import SystemState, oracle_energy

    errors = []
    scored = []
    for ch in chains:
        res = ch.result
        cfg = res.best_configuration
        try:
            net = ch.network()
            state = SystemState.from_configuration(net, cfg, ch.scheme)
            u = state.energy()
            bad = [] if _close(u, res.best_energy) else [f"SystemState gives {u!r}"]
            if use_oracle:
                uo = oracle_energy(net, cfg.association, cfg.channel, ch.scheme)
                if not _close(uo, res.best_energy):
                    bad.append(f"oracle gives {uo!r}")
            if not math.isfinite(u):
                bad.append("best configuration is infeasible")
        except Exception as exc:  # a chain the gate cannot evaluate has failed
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            errors.append(f"{ch.policy}/{ch.scheme} {res.run_id}: best_energy "
                          f"{res.best_energy!r} but {'; '.join(bad)}")
        elif ch.policy == "dp-exact":
            scored.append((ch, u, state.weighted_throughput()))

    best_known: dict = {}
    for ch, u, _ in scored:
        key = (ch.network_key(), ch.scheme)
        best_known[key] = max(best_known.get(key, -math.inf), u)
    ref = workload.reference_u
    hits = [
        _close(u, ref if ref is not None else best_known[(ch.network_key(), ch.scheme)])
        for ch, u, _ in scored
    ]
    if not scored:
        return len(errors), errors, dict.fromkeys(
            ("best_u", "best_u_gmean", "best_u_gain", "wthr_mbps", "hit_frac"), 0.0)
    mean_u = statistics.fmean(u for _, u, _ in scored)
    weight = float(scored[0][0].network().weights.sum())  # equal for all of a workload
    quality = {
        "best_u": mean_u,
        "best_u_gmean": math.exp(mean_u / weight),
        "best_u_gain": statistics.fmean(u - ch.result.trajectory[0].energy for ch, u, _ in scored),
        "wthr_mbps": statistics.fmean(w for _, _, w in scored),
        "hit_frac": sum(hits) / len(hits),
    }
    return len(errors), errors, quality


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine():
    import numpy
    import scipy

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fairband" / "__init__.py").is_file():
        print(f"error: no fairband sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import fairband

    if Path(fairband.__file__).resolve().parent != ROOT / "src" / "fairband":
        print(f"error: imported fairband from {fairband.__file__}", file=sys.stderr)
        return 2

    from probe import HostProbe
    from tracing import Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    out_root = ROOT / ".bench_out"
    scratch = out_root / f"jobs-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, WORKLOADS[args.workload](args.seed, scratch),
                         HostProbe(threads=2 if WORKLOADS[args.workload].threaded else 1),
                         Tracer(), out_root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = result["metrics"]
    missing = sorted({m["name"] for m in declared} - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    payload = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    result["machine"] = machine()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_root / name).write_text(json.dumps(result, indent=1, default=float))
    for m in declared:
        print(f"{args.workload:16s} {m['name']:32s} {metrics[m['name']]:14.6g} {m['unit']}")
    for line in result["errors"]:
        print(f"FAILED {line}")
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1


def measure(args, workload, probe, tracer, out_root) -> dict:
    traced_runs = None
    with workload.hooks(), probe.periodic():
        setup = [] if args.trace else timed_setup(workload, probe)
        start = time.perf_counter()
        first = run_pass(workload, probe, keep_chains=True)
        chains = [c for r in first if r.outcome is not None for c in r.outcome.chains]
        failed, errors, quality = check_and_score(
            workload, chains, args.workload in ORACLE_WORKLOADS
        )
        attempted = len(chains)
        del chains
        for r in first:
            if r.outcome is not None:
                r.outcome.chains = []
        passes = [first]
        if args.trace:
            with tracer.installed():
                timed_setup(workload, probe)
                traced_runs = run_pass(workload, probe)
        else:
            while len(passes) < workload.min_passes or (
                time.perf_counter() - start + (first[-1].t1 - first[0].t0) <= args.seconds
            ):
                passes.append(run_pass(workload, probe))

    for runs in passes + ([traced_runs] if traced_runs else []):
        for k, r in enumerate(runs):
            attempted += 1
            if r.outcome is None:
                failed += 1
                errors.append(f"job {k} raised")
            elif first[k].outcome is None or r.outcome.digest != first[k].outcome.digest:
                failed += 1
                errors.append(f"job {k} wrote outputs that differ from the first pass")

    norm = probe.normalized
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": failed, "errors": errors,
        "quality": quality, "passes": len(passes),
        "jobs": [[[r.t0, r.t1, r.outcome.steps if r.outcome else 0,
                   _union(r.outcome.run_intervals) if r.outcome else []] for r in runs]
                 for runs in passes + ([traced_runs] if traced_runs else [])],
        "probe": {"threads": probe.threads, "starts": probe.starts,
                  "durations": probe.durations},
    }
    if args.trace:
        from tracing import layer_metrics

        untraced = steps_per_s(passes, norm)
        traced = steps_per_s([traced_runs], norm)
        metrics = layer_metrics(tracer)
        metrics["cli.cpu_per_wall"] = sum(r.cpu_s for r in passes[0]) / sum(
            r.t1 - r.t0 for r in passes[0])
        metrics["trace.overhead_frac"] = untraced / traced - 1.0
        tracer.save(out_root / f"spans-{args.workload}.npz")
        result["raw"] = {"steps_per_s_untraced": untraced, "steps_per_s_traced": traced}
    else:
        metrics = {
            "setup_s": statistics.median(norm(a, b) for a, b in setup),
            "steps_per_s": steps_per_s(passes, norm),
            "wall_s": statistics.median(pass_wall(runs, norm) for runs in passes),
            "best_u_gmean": quality["best_u_gmean"],
            "wthr_mbps": quality["wthr_mbps"],
            "hit_frac": quality["hit_frac"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["raw"] = {
            "setup_s": statistics.median(probe.raw(a, b) for a, b in setup),
            "steps_per_s": steps_per_s(passes, probe.raw),
            "wall_s": statistics.median(pass_wall(runs, probe.raw) for runs in passes),
            "setup_samples_s": [norm(a, b) for a, b in setup],
            "pass_wall_s": [pass_wall(runs, norm) for runs in passes],
        }
    result["metrics"] = metrics
    return result


if __name__ == "__main__":
    sys.exit(main())
