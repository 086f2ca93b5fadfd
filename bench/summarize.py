"""Summarize result files that bench/run.py left in .bench_out/.

    python3 bench/summarize.py [--out bench/results/<name>.json] [result files...]

For every workload and metric it prints the values of all runs found, their
median and the distance between the first and third quartile as a share of
the median (statistics.quantiles, n=4), against the metric's bound from
BENCHMARK.json. With --out it writes the same table as JSON.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(paths) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: dict = {}
    for p in sorted(paths):
        r = json.loads(Path(p).read_text())
        key = (r["workload"], "per_layer" if r["trace"] else "end_to_end")
        runs.setdefault(key, []).append(r)
    table: dict = {}
    for (workload, kind), rs in sorted(runs.items()):
        rows = table.setdefault(workload, {}).setdefault(kind, {})
        for name in rs[0]["metrics"]:
            values = [r["metrics"][name] for r in rs]
            med = statistics.median(values)
            spread = None
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med)
            rows[name] = {"median": med, "spread": spread, "bound": bounds.get(name),
                          "seeds": [r["seed"] for r in rs], "values": values}
        rows["_runs"] = len(rs)
        rows["_failed"] = sum(r["failed"] for r in rs)
        rows["_machine"] = rs[-1]["machine"]
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    files = args.files or sorted((ROOT / ".bench_out").glob("*-seed*-trace*.json"))
    table = summarize(files)
    for workload, kinds in table.items():
        for kind, rows in kinds.items():
            print(f"{workload} ({kind}, {rows['_runs']} runs, {rows['_failed']} failed)")
            for name, row in rows.items():
                if name.startswith("_"):
                    continue
                spread = "-" if row["spread"] is None else f"{row['spread']:.3f}"
                bound = "" if row["bound"] is None else f" bound {row['bound']}"
                print(f"  {name:34s} median {row['median']:<14.6g} spread {spread}{bound}")
    if args.out:
        text = json.dumps(table, indent=1)
        # one line per list of numbers
        text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]", text)
        Path(args.out).write_text(text + "\n")


if __name__ == "__main__":
    main()
