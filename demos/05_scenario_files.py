"""
Scenario files and reproducible results
=======================================

Scenarios round-trip through YAML, so an experiment can be pinned to a
file and rerun byte-identically later. Region-based scenarios store the
sampling rectangles plus a seed rather than materialized positions. The
demo exits with status 1 if a round trip changes a scenario's digest.
"""
import json
import sys
import tempfile
from pathlib import Path

from fairband import (
    OptimizerPolicy,
    builtin,
    load_scenario,
    run,
    save_result,
    save_scenario,
)

with tempfile.TemporaryDirectory(prefix="fairband-demo-") as tmp:
    workdir = Path(tmp)

    # write a built-in out, read it back, confirm nothing drifted
    scenario = builtin("line3-2ch")
    path = workdir / "line3-2ch.yaml"
    save_scenario(path, scenario)
    reloaded = load_scenario(path)
    print(f"wrote {path.name}")
    print(f"digest before {scenario.digest()}  after {reloaded.digest()}")

    # regions survive the round trip with their seed
    grid = builtin("grid16-unweighted", seed=99)
    grid_path = workdir / "grid16.yaml"
    save_scenario(grid_path, grid)
    grid_equal = load_scenario(grid_path).digest() == grid.digest()
    print(f"\nregion scenario reloads equal: {grid_equal}")
    if reloaded.digest() != scenario.digest() or not grid_equal:
        sys.exit("error: a scenario file round trip changed the digest")

    # run against the reloaded file and persist the result as JSON
    result = run(reloaded, OptimizerPolicy(kind="dp-exact", iterations=4000, seed=0))
    out = workdir / "result.json"
    save_result(out, result)
    payload = json.loads(out.read_text())
    print(f"\nsaved run {payload['run_id']}: best U = {payload['best_energy']:.4f} "
          f"at t = {payload['best_t']}")
    print(f"clients reported: {len(payload['rates_mbps'])}")
    print("\nsame thing from the command line, with the file in the current directory:")
    print(f"  fairband run --scenario {path.name} --policy dp-exact --iters 4000")
