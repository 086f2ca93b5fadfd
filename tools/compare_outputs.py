"""Check that two checkouts write byte-identical outputs.

    python3 tools/compare_outputs.py OTHER_ROOT
    python3 tools/compare_outputs.py OTHER_ROOT --workload synth-v512 --seed 1

OTHER_ROOT is the root of another checkout, such as the base commit of a
change checked out with `git worktree add /tmp/base <commit>`. Every output
below is written twice, once by this checkout and once by OTHER_ROOT, each
in a child process whose PYTHONPATH holds only that checkout's src/:

- the benchmark's workloads: one pass of each workload's jobs as
  bench/workloads.py defines them, for each --workload (default: every
  workload in BENCHMARK.json) and each --seed (default: 1 and 2), writing
  trajectory CSVs and r###.json result files;
- `fairband run` with each flag set in RUNS, and in LINE2_DUAL_RUNS on the
  scenario file LINE2_DUAL, each with --runs 2 --seed 1 and --out-dir;
- `fairband enumerate` on micro and on LINE2_DUAL under both schemes;
- the stdout of every demo in demos/ that OTHER_ROOT also has.

Then it compares the two sides' files byte for byte, group by group, prints
each file that differs or exists on one side only, and exits with 1 if there
is any. It exits with 2 if OTHER_ROOT holds no src/fairband.

Adding to the matrix: an entry says in its comment what it reaches that the
others do not. It must run on both checkouts, so an entry that uses a new
flag, policy or scenario joins the matrix one change after the one that
adds it.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# fairband run flag sets, each run with --runs 2 --seed 1
RUNS = (
    # the combinations of policy, scheme and selection that the workloads do
    # not run
    "--scenario grid16-weighted --iters 5000 --policy dp-approx --scheme client",
    "--scenario grid16-weighted --iters 5000 --policy greedy --scheme client",
    "--scenario grid16-weighted --iters 5000 --policy dp-exact --selection random",
    # runs that record after every move, so every cached success product and
    # digest piece is read after every single move
    "--scenario grid16-weighted --iters 2000 --record-every 1 --scheme server",
    "--scenario grid16-weighted --iters 2000 --record-every 1 --scheme client",
    # the invlog, geometric and const:0 (T = 0, argmax) schedules;
    # geometric:0.5, whose temperatures fall through subnormals to 0, so the
    # softmax draw's -1000 T floor binds, and const:1000, whose draws are
    # near uniform
    "--scenario grid16-weighted --iters 2000 --schedule const:0",
    "--scenario grid16-weighted --iters 2000 --schedule invlog",
    "--scenario grid16-weighted --iters 2000 --schedule geometric:0.999",
    "--scenario grid16-weighted --iters 2000 --schedule geometric:0.5",
    "--scenario grid16-weighted --iters 2000 --schedule const:1000",
    # runs on line3-2ch, small enough for the candidate table, whose chains
    # read it again and again, under both schemes and dp-approx too
    "--scenario line3-2ch --iters 20000 --scheme server",
    "--scenario line3-2ch --iters 20000 --scheme client",
    "--scenario line3-2ch --iters 20000 --policy dp-approx --scheme client",
    # geometric:0.5 and const:1000 on line3-2ch too, whose draws read the
    # table's entries
    "--scenario line3-2ch --iters 20000 --schedule geometric:0.5",
    "--scenario line3-2ch --iters 20000 --schedule const:1000",
    # the T = 0 rule (const:0, and greedy under the client scheme) on
    # line3-2ch too, whose steps decide it from table entries
    "--scenario line3-2ch --iters 20000 --schedule const:0",
    "--scenario line3-2ch --iters 20000 --policy greedy --scheme client",
    # line3-1ch under both schemes, whose one channel gives every channel
    # step the one-target return that reads the energy entry while the
    # chain's state defers its arrays
    "--scenario line3-1ch --iters 20000 --scheme server",
    "--scenario line3-1ch --iters 20000 --scheme client",
    # table runs whose records after every move read the table as well
    "--scenario line3-2ch --iters 5000 --record-every 1 --scheme server",
    "--scenario line3-2ch --iters 5000 --record-every 1 --scheme client",
    # runs on micro, small enough for the table, and dp-approx under the
    # client scheme on micro as well
    "--scenario micro --policy dp-approx",
    "--scenario micro --policy greedy",
    "--scenario micro --selection random",
    "--scenario micro --policy dp-approx --scheme client",
    # runs whose chains cross the 4096-step blocks of uniforms and
    # temperatures: random selection, whose table hits and held energies
    # interleave with rng.integers, under both schemes, dp-approx under the
    # server scheme, and a greedy run on grid16-weighted (no table) that
    # stops inside a block
    "--scenario line3-2ch --iters 10007 --selection random",
    "--scenario line3-2ch --iters 10007 --selection random --scheme client",
    "--scenario line3-2ch --iters 10007 --policy dp-approx --scheme server",
    "--scenario grid16-weighted --iters 9001 --policy greedy --scheme server",
)

# a scenario with non-dyadic weights and a two-radio AP, whose co-located
# radios interfere
LINE2_DUAL = """\
format: fairband-scenario/1
name: line2-dual
channels:
- {id: ch-2400, center_frequency_mhz: 2400.0, bandwidth_mhz: 22.0}
- {id: ch-4000, center_frequency_mhz: 4000.0, bandwidth_mhz: 44.0}
- {id: ch-16000, center_frequency_mhz: 16000.0, bandwidth_mhz: 50.0}
aps:
- {id: ap0, position: [0.0, 0.0], radios: 2}
- {id: ap1, position: [90.0, 0.0], radios: 1}
clients:
- {id: c1, position: [10.0, 0.0], weight: 0.7}
- {id: c2, position: [30.0, 0.0], weight: 1.05}
- {id: c3, position: [45.0, 0.0], weight: 1.4}
- {id: c4, position: [60.0, 0.0], weight: 1.75}
- {id: c5, position: [80.0, 0.0], weight: 2.1}
"""

# fairband run flag sets on LINE2_DUAL, each run with --runs 2 --seed 1:
# both schemes, random selection under the client scheme, and dp-approx
# recording after every move under both, as some of its syncs bring the
# channel moves of both co-located radios, or client and channel moves, up
# to date together
LINE2_DUAL_RUNS = (
    "--iters 20000 --scheme server",
    "--iters 20000 --scheme client",
    "--iters 20000 --selection random --scheme client",
    "--iters 5000 --policy dp-approx --record-every 1 --scheme server",
    "--iters 5000 --policy dp-approx --record-every 1 --scheme client",
)


def _name(flags: str) -> str:
    return "_".join(flags.replace("--", "").split())


def cli_matrix(line2_dual: Path) -> dict[str, list[tuple[str, list[str]]]]:
    """The fairband cli invocations by group, as (output directory name,
    arguments without --out-dir); line2_dual is a file holding LINE2_DUAL."""
    seeded = ["--runs", "2", "--seed", "1"]
    runs = [(_name(flags), ["run", *seeded, *flags.split()]) for flags in RUNS]
    runs += [(f"line2-dual_{_name(flags)}",
              ["run", "--scenario", str(line2_dual), *seeded, *flags.split()])
             for flags in LINE2_DUAL_RUNS]
    # fairband enumerate under both schemes, on micro and on LINE2_DUAL (3498
    # configurations)
    enumerations = [
        (f"{name}_{scheme}", ["enumerate", "--scenario", scenario, "--scheme", scheme])
        for name, scenario in (("micro", "micro"), ("line2-dual", str(line2_dual)))
        for scheme in ("server", "client")
    ]
    return {"fairband run": runs, "fairband enumerate": enumerations}


def _python(root: Path, args: list, **kwargs):
    """Run python with args in a child process that imports fairband from
    root's src/ only; exit with 1 if it fails."""
    args = [str(a) for a in args]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    if subprocess.run([sys.executable, *args], cwd=root, env=env, **kwargs).returncode:
        sys.exit(f"failed in {root}: python {' '.join(args)}")


def write_outputs(root: Path, workload: str, seed: int, out: Path):
    """Run one pass of the workload's jobs from root's sources into out."""
    sys.path.insert(0, str(root / "bench"))
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, out)
    with wl.hooks():
        for job in wl.jobs():
            job()


def _write_workload(workload: str, seed: int, root: Path, out: Path):
    _python(root, [__file__, root, "--workload", workload, "--seed", seed, "--write", out])


def _write_cli(entries: list[tuple[str, list[str]]], root: Path, out: Path):
    for name, argv in entries:
        _python(root, ["-m", "fairband.cli", *argv, "--out-dir", out / name],
                stdout=subprocess.DEVNULL)


def _write_demos(demos: list[str], root: Path, out: Path):
    for demo in demos:
        with (out / demo).with_suffix(".out").open("w") as stdout:
            _python(root, [root / "demos" / demo], stdout=stdout)


def differing(a: Path, b: Path) -> list[str]:
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    bad = []
    for name in sorted(names):
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            bad.append(f"{name} (on one side only)")
        elif not filecmp.cmp(pa, pb, shallow=False):
            bad.append(str(name))
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (default: every workload in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, action="append",
                        help="a seed to run each workload with (default: 1 and 2)")
    parser.add_argument("--write", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    other = args.other.resolve()
    if not (other / "src" / "fairband").is_dir():
        print(f"error: {other} holds no src/fairband", file=sys.stderr)
        return 2

    if args.write:  # child process: one workload, one seed, one checkout
        write_outputs(other, args.workload[0], args.seed[0], args.write)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = args.seed or [1, 2]
    demos = sorted(p.name for p in (ROOT / "demos").glob("*.py")
                   if (other / "demos" / p.name).is_file())
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        line2_dual = Path(tmp) / "line2-dual.yaml"
        line2_dual.write_text(LINE2_DUAL)
        # (group, write): write(root, out) writes root's outputs of the group into out
        groups = [(f"{w} seed {s}", partial(_write_workload, w, s))
                  for w in workloads for s in seeds]
        groups += [(group, partial(_write_cli, entries))
                   for group, entries in cli_matrix(line2_dual).items()]
        groups.append(("demos", partial(_write_demos, demos)))
        for k, (group, write) in enumerate(groups):
            dirs = []
            for side, root in enumerate((ROOT, other)):
                out = Path(tmp) / f"{k}-{side}"
                out.mkdir()
                write(root, out)
                dirs.append(out)
            bad = differing(*dirs)
            total = sum(1 for p in dirs[0].rglob("*") if p.is_file())
            print(f"{group}: {total - len(bad)}/{total} files identical", flush=True)
            for name in bad:
                print(f"  differs: {name}")
            failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
