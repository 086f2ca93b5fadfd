"""tools/compare_outputs.py: its matrix, its comparison and its errors, checked
without running any fairband job."""
import importlib.util
import sys
from pathlib import Path

import pytest

from fairband import load_scenario
from fairband.cli import build_parser

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in tools/
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_cli_entry_parses(tool, tmp_path):
    line2_dual = tmp_path / "line2-dual.yaml"
    line2_dual.write_text(tool.LINE2_DUAL)
    assert load_scenario(line2_dual).name == "line2-dual"
    matrix = tool.cli_matrix(line2_dual)
    assert {group: len(entries) for group, entries in matrix.items()} == {
        "fairband run": 29 + 5, "fairband enumerate": 4}
    names = [name for entries in matrix.values() for name, _ in entries]
    assert len(set(names)) == len(names)
    parser = build_parser()
    for group, entries in matrix.items():
        for name, argv in entries:
            args = parser.parse_args([*argv, "--out-dir", str(tmp_path / name)])
            assert group == f"fairband {args.command}"
            if args.command == "run":
                assert (args.runs, args.seed) == (2, 1)


def test_differing_names_changed_files_and_files_on_one_side(tool, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for side, u in ((a, "1.0"), (b, "1.5")):
        (side / "run").mkdir(parents=True)
        (side / "run" / "trajectory.csv").write_text("t,U\n0,1.0\n")
        (side / "run" / "r000.json").write_text(f'{{"U": {u}}}')
    (b / "demo.out").write_text("only here\n")
    assert tool.differing(a, b) == ["demo.out (on one side only)", "run/r000.json"]
    assert tool.differing(a, a) == []


def test_other_without_sources_exits_2_with_one_line(tool, tmp_path, capsys):
    assert tool.main([str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path.resolve()} holds no src/fairband\n"
