"""The benchmark's own checks, on shrunken copies of its workloads.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
from probe import HostProbe  # noqa: E402
from tracing import Tracer, layer_metrics, targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "line3-2ch-seeds": {"chains": 3, "steps": 150, "setup_samples": 2},
    "grid16-policies": {"iters": 150, "setup_samples": 2},
    "synth-v512": {"grid": 4, "clients": 24, "setup_samples": 2},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_output_and_unpatches(name, tmp_path):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets()]
    workload = WORKLOADS[name](3, tmp_path, **SMALL[name])
    probe, tracer = HostProbe(), Tracer()
    with workload.hooks():
        plain = bench.run_pass(workload, probe, keep_chains=True)
        with tracer.installed():
            bench.timed_setup(workload, probe)
            traced = bench.run_pass(workload, probe)

    assert all(r.outcome is not None for r in plain + traced)
    assert [r.outcome.digest for r in traced] == [r.outcome.digest for r in plain]
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr} still wrapped"

    metrics = layer_metrics(tracer)
    assert metrics["annealing.step_us.dp-exact"] > 0
    assert metrics["model.compile_s"] > 0
    assert metrics["fairness.assoc_cand_calls"] > 0

    chains = [c for r in plain for c in r.outcome.chains]
    failed, errors, quality = bench.check_and_score(workload, chains, use_oracle=True)
    assert failed == 0, errors
    assert quality["best_u_gain"] > 0 and quality["best_u_gmean"] > 0


def test_gate_fails_a_wrong_best_energy(tmp_path):
    workload = WORKLOADS["line3-2ch-seeds"](3, tmp_path, **SMALL["line3-2ch-seeds"])
    chains = [c for job in workload.jobs() for c in job().chains]
    chains[1].result.best_energy += 1e-6
    failed, errors, _ = bench.check_and_score(workload, chains, use_oracle=False)
    assert failed == 1 and "r001" in errors[0]
