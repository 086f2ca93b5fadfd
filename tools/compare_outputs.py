"""Check that two checkouts write byte-identical outputs on the benchmark's workloads.

    python3 tools/compare_outputs.py OTHER_ROOT --workload synth-v512 --seed 1 --seed 2

For each workload and seed, runs one pass of the workload's jobs as defined by
bench/workloads.py, once in this checkout and once in OTHER_ROOT, each in a
process of its own that imports fairband from that checkout's src/. Then it
compares every output file the jobs wrote (trajectory CSVs and r###.json
result files) byte for byte, prints each file that differs or exists on one
side only, and exits with 1 if there is any.
"""
from __future__ import annotations

import argparse
import filecmp
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def write_outputs(root: Path, workload: str, seed: int, out: Path):
    """Run one pass of the workload's jobs from root's sources into out."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, out)
    with wl.hooks():
        for job in wl.jobs():
            job()


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
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--write", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write:  # child process: one workload, one seed, one checkout
        write_outputs(args.other.resolve(), args.workload[0], args.seed[0], args.write)
        return 0

    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload:
            for seed in args.seed:
                dirs = []
                for k, root in enumerate((ROOT, args.other.resolve())):
                    out = Path(tmp) / f"{workload}-{seed}-{k}"
                    out.mkdir()
                    subprocess.run(
                        [sys.executable, __file__, str(root), "--workload", workload,
                         "--seed", str(seed), "--write", str(out)],
                        check=True, cwd=root,
                    )
                    dirs.append(out)
                bad = differing(*dirs)
                total = sum(1 for p in dirs[0].rglob("*") if p.is_file())
                print(f"{workload} seed {seed}: {total - len(bad)}/{total} files identical")
                for name in bad:
                    print(f"  differs: {name}")
                failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
