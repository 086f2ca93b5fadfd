"""Command line front end.

fairband run --scenario line3-2ch --policy dp-exact --runs 3 --out-dir out/
fairband enumerate --scenario micro --scheme server

Per-run randomness is derived from the top-level seed with SeedSequence, so
the same flags always produce the same runs (and byte-identical CSV). The
scenario draw for run k depends only on the seed and k, never on the policy,
so different policies face identical client layouts. The runs execute one
after another in the calling thread: a chain is a series of small numpy
calls that hold the interpreter lock, so threads would only add switching.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .annealing import (POLICY_KINDS, SELECTION_KINDS, OptimizerPolicy, RunResult,
                        Schedule, potential_scale_reduction, run)
from .baselines import minint_wifi_run
from .fairness import SCHEME_SERVER, SCHEMES
from .model import ScenarioError
from .oracle import enumerate_optimum
from .scenarios import (
    BUILTIN_NAMES,
    Scenario,
    builtin,
    load_scenario,
    save_result,
)

POLICIES = (*POLICY_KINDS, "minint-wifi")


def _resolve_scenario(name_or_path: str) -> Scenario:
    if name_or_path in BUILTIN_NAMES:
        return builtin(name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise ScenarioError(
            f"{name_or_path!r} is neither a built-in scenario "
            f"({', '.join(BUILTIN_NAMES)}) nor a file"
        )
    return load_scenario(path)


def _at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


def _schedule_text(text: str) -> str:
    """argparse type: a schedule Schedule.parse accepts (checked with t0 = 1)."""
    try:
        Schedule.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _default_iterations(scenario: Scenario) -> int:
    return 200000 if scenario.regions is not None else 20000


def _run_one(scenario: Scenario, args, run_seed: tuple[int, int], k: int) -> RunResult:
    scenario_seed, policy_seed = run_seed
    drawn = scenario.reseeded(scenario_seed)
    run_id = f"r{k:03d}"
    if args.policy == "minint-wifi":
        return minint_wifi_run(drawn, seed=policy_seed, run_id=run_id)
    policy = OptimizerPolicy(
        kind=args.policy,
        scheme=args.scheme,
        selection=args.selection,
        schedule=Schedule.parse(args.schedule or "invsqrtlog", t0=args.t0 or 1.0),
        iterations=args.iters,
        seed=policy_seed,
    )
    return run(drawn, policy, record_every=args.record_every, run_id=run_id)


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def _write_csv(path: Path, results: list[RunResult], scheme: str):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["run_id", "policy", "scheme", "t", "T", "U", "weighted_throughput"]
        )
        for res in results:
            for pt in res.trajectory:
                writer.writerow(
                    [
                        res.run_id,
                        res.policy_kind,
                        scheme,
                        pt.t,
                        _fmt(pt.temperature),
                        _fmt(pt.energy),
                        _fmt(pt.weighted_throughput),
                    ]
                )


def _print_spread(results: list[RunResult], policy: str):
    """The spread of best U over the runs and, for the sampling policies,
    the Gelman-Rubin factor of the recorded U over each run's second half
    (every such run records at the same steps)."""
    best = np.array([r.best_energy for r in results])
    print(f"best U over {len(results)} runs: min {best.min():.6f} "
          f"median {np.median(best):.6f} max {best.max():.6f}")
    if policy in ("dp-exact", "dp-approx"):
        halves = [[p.energy for p in r.trajectory[len(r.trajectory) // 2:]] for r in results]
        factor = potential_scale_reduction(halves)
        print("Gelman-Rubin factor of U over the second half of each run: "
              + ("n/a" if factor is None else f"{factor:.4f}"))


def cmd_run(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    if args.iters is None:
        args.iters = _default_iterations(scenario)
    if args.policy == "minint-wifi" and args.scheme != SCHEME_SERVER:
        print("minint-wifi schedules at the AP, so it only supports --scheme server",
              file=sys.stderr)
        return 2
    if args.policy == "greedy" and args.selection != "round-robin":
        print("greedy moves round-robin, so it only supports --selection round-robin",
              file=sys.stderr)
        return 2
    if args.policy in ("greedy", "minint-wifi"):
        for flag, value in (("--t0", args.t0), ("--schedule", args.schedule)):
            if value is not None:
                print(f"{args.policy} uses no temperature, so it takes no {flag}",
                      file=sys.stderr)
                return 2
    if args.t0 is not None and args.schedule and args.schedule.startswith("const:"):
        print("--schedule const:<T> sets the temperature itself, so it takes no --t0",
              file=sys.stderr)
        return 2

    children = np.random.SeedSequence(args.seed).spawn(args.runs)
    seeds = [tuple(int(s) for s in c.generate_state(2, dtype=np.uint32)) for c in children]
    results = [_run_one(scenario, args, seeds[k], k) for k in range(args.runs)]

    for res in results:
        print(
            f"{res.run_id}: U={res.final_energy:.6f} "
            f"(best {res.best_energy:.6f} at t={res.best_t}) "
            f"weighted throughput {res.final_weighted_throughput:.4f} Mb/s"
        )
    finals = np.array([r.final_energy for r in results])
    rates = np.array([r.final_weighted_throughput for r in results])
    print(
        f"{args.policy} on {scenario.name} ({args.scheme} scheme, {args.runs} run"
        f"{'s' if args.runs != 1 else ''}): "
        f"U {finals.mean():.6f} +- {finals.std():.6f}, "
        f"weighted throughput {rates.mean():.4f} +- {rates.std():.4f} Mb/s"
    )
    if args.runs > 1:
        _print_spread(results, args.policy)

    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "trajectory.csv", results, args.scheme)
        for res in results:
            save_result(out / f"{res.run_id}.json", res)
        print(f"wrote {out / 'trajectory.csv'} and {len(results)} result files")
    return 0


def cmd_enumerate(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    if scenario.regions is not None:
        scenario = scenario.reseeded(args.seed)
    net = scenario.to_network()
    try:
        best = enumerate_optimum(net, scheme=args.scheme, limit=args.limit)
    except ScenarioError:
        raise  # main reports it and exits 2, as for run
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"evaluated {best.evaluated} configurations")
    print(f"optimal U = {best.energy:.6f}")
    for vid, ch in sorted(best.channel.items()):
        print(f"  {vid} -> {ch}")
    for cid, vid in sorted(best.association.items()):
        print(f"  {cid} @ {vid}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "scenario": scenario.name,
            "scheme": args.scheme,
            "evaluated": best.evaluated,
            "energy": None if not math.isfinite(best.energy) else best.energy,
            "association": best.association,
            "channel": best.channel,
        }
        (out / "enumeration.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {out / 'enumeration.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairband",
        description="Joint channel, association and access optimization for "
        "proportional fairness in multi-band wireless networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="optimize a scenario with one policy")
    p_run.add_argument("--scenario", required=True,
                       help=f"built-in name ({', '.join(BUILTIN_NAMES)}) or YAML file")
    p_run.add_argument("--policy", choices=POLICIES, default="dp-exact")
    p_run.add_argument("--scheme", choices=SCHEMES, default=SCHEME_SERVER)
    p_run.add_argument("--iters", type=_at_least(0), default=None,
                       help="optimizer steps (default: 20000, region scenarios 200000)")
    p_run.add_argument("--runs", type=_at_least(1), default=1)
    p_run.add_argument("--seed", type=_at_least(0), default=0)
    p_run.add_argument("--t0", type=_positive_float, default=None,
                       help="initial temperature; not with const:<T>, greedy or "
                       "minint-wifi (default: 1)")
    p_run.add_argument("--schedule", type=_schedule_text, default=None,
                       help="invsqrtlog | invlog | geometric:<ratio> | const:<T> "
                       "(default: invsqrtlog)")
    p_run.add_argument("--selection", choices=SELECTION_KINDS, default="round-robin")
    p_run.add_argument("--record-every", type=_at_least(1), default=None,
                       help="trajectory cadence (default: iters/100)")
    p_run.add_argument("--out-dir", default=None)
    p_run.set_defaults(func=cmd_run)

    p_enum = sub.add_parser("enumerate", help="exhaustively find the optimum")
    p_enum.add_argument("--scenario", required=True)
    p_enum.add_argument("--scheme", choices=SCHEMES, default=SCHEME_SERVER)
    p_enum.add_argument("--seed", type=_at_least(0), default=0)
    p_enum.add_argument("--limit", type=_at_least(1), default=10**6)
    p_enum.add_argument("--out-dir", default=None)
    p_enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
