"""Command line behavior: flags, outputs, determinism."""
import csv
import json

import pytest

from fairband import builtin, save_scenario
from fairband.cli import main


def test_run_writes_csv_and_json(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run", "--scenario", "micro", "--policy", "dp-exact",
        "--iters", "300", "--seed", "5", "--out-dir", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "U=" in captured and "dp-exact on micro" in captured

    with (out / "trajectory.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run_id", "policy", "scheme", "t", "T", "U", "weighted_throughput"]
    assert rows[1][3] == "0" and rows[1][4] == ""  # t=0 row has no temperature
    assert all(r[0] == "r000" for r in rows[1:])

    payload = json.loads((out / "r000.json").read_text())
    assert payload["policy"] == "dp-exact"
    assert payload["iterations"] == 300


def test_csv_is_byte_identical_for_same_flags(tmp_path):
    args = ["run", "--scenario", "micro", "--policy", "dp-exact",
            "--iters", "400", "--runs", "3", "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    for k in range(3):
        assert (out1 / f"r{k:03d}.json").read_bytes() == (out2 / f"r{k:03d}.json").read_bytes()


def test_different_seed_changes_trajectory(tmp_path):
    base = ["run", "--scenario", "micro", "--policy", "dp-exact", "--iters", "400"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--seed", "1", "--out-dir", str(out1)]) == 0
    assert main(base + ["--seed", "2", "--out-dir", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()


def test_all_policies_run(tmp_path, capsys):
    for policy in ("dp-exact", "dp-approx", "greedy", "minint-wifi"):
        code = main([
            "run", "--scenario", "line3-1ch", "--policy", policy,
            "--iters", "200", "--seed", "1",
        ])
        assert code == 0, policy
    capsys.readouterr()


def test_client_scheme_flag(capsys):
    code = main([
        "run", "--scenario", "micro", "--policy", "dp-exact",
        "--scheme", "client", "--iters", "200",
    ])
    assert code == 0
    assert "client scheme" in capsys.readouterr().out


def test_minint_rejects_client_scheme(capsys):
    code = main([
        "run", "--scenario", "micro", "--policy", "minint-wifi",
        "--scheme", "client",
    ])
    assert code == 2
    assert "server" in capsys.readouterr().err


def test_unknown_scenario_is_an_error(capsys):
    code = main(["run", "--scenario", "line99"])
    assert code == 2
    assert "neither a built-in" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "non-utf-8"])
def test_unreadable_scenario_file_is_an_error(tmp_path, kind, capsys):
    path = tmp_path / "s.yaml"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe\x00name: x\n")
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_yaml_scenario_path(tmp_path, capsys):
    path = tmp_path / "my.yaml"
    save_scenario(path, builtin("micro"))
    code = main(["run", "--scenario", str(path), "--policy", "greedy", "--iters", "100"])
    assert code == 0
    assert "micro" in capsys.readouterr().out


def test_enumerate_micro(tmp_path, capsys):
    out = tmp_path / "enum"
    code = main(["enumerate", "--scenario", "micro", "--out-dir", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "evaluated 32 configurations" in captured
    assert "optimal U = 5.114244" in captured
    payload = json.loads((out / "enumeration.json").read_text())
    assert payload["evaluated"] == 32


def test_enumerate_rejects_oversized(capsys):
    code = main(["enumerate", "--scenario", "grid16-unweighted", "--limit", "1000"])
    assert code == 1
    capsys.readouterr()


def test_runs_fan_out_with_distinct_seeds(tmp_path):
    out = tmp_path / "o"
    assert main([
        "run", "--scenario", "grid16-unweighted", "--policy", "minint-wifi",
        "--runs", "3", "--seed", "0", "--out-dir", str(out),
    ]) == 0
    # different runs draw different client layouts, hence different results
    payloads = [json.loads((out / f"r{k:03d}.json").read_text()) for k in range(3)]
    finals = {p["final_energy"] for p in payloads}
    assert len(finals) == 3
    assert len({p["seed"] for p in payloads}) == 3


@pytest.mark.parametrize("flag, value", [
    ("--runs", "0"),
    ("--runs", "-1"),
    ("--seed", "-1"),
    ("--t0", "0"),
    ("--schedule", "bogus"),
    ("--schedule", "geometric:2"),
    ("--iters", "-5"),
    ("--record-every", "0"),
    ("--record-every", "-3"),
    ("--limit", "-1"),
    ("--selection", "random"),  # valid alone, refused for greedy
    ("--t0", "3"),  # valid alone, refused for a const schedule
    ("--t0", "2"),  # valid alone, refused for greedy
    ("--schedule", "invlog"),  # valid alone, refused for greedy
    ("--t0", "5"),  # valid alone, refused for minint-wifi
    ("--schedule", "const:0"),  # valid alone, refused for minint-wifi
])
def test_bad_flag_values_exit_2_naming_the_flag(flag, value, capsys):
    refused_with = {("--selection", "random"): ["--policy", "greedy"],
                    ("--t0", "3"): ["--schedule", "const:0.5"],
                    ("--t0", "2"): ["--policy", "greedy"],
                    ("--schedule", "invlog"): ["--policy", "greedy"],
                    ("--t0", "5"): ["--policy", "minint-wifi"],
                    ("--schedule", "const:0"): ["--policy", "minint-wifi"]}
    if (flag, value) in refused_with:
        assert main(["run", "--scenario", "micro", *refused_with[flag, value],
                     flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        return
    with pytest.raises(SystemExit) as exc:
        command = "enumerate" if flag == "--limit" else "run"
        main([command, "--scenario", "micro", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err
