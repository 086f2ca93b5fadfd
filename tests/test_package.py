"""The package's public names and import footprint."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import fairband

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_public_name_resolves():
    missing = [name for name in fairband.__all__ if not hasattr(fairband, name)]
    assert missing == []
    assert len(set(fairband.__all__)) == len(fairband.__all__)


def test_runs_do_not_load_scipy_optimize(tmp_path):
    # scipy.optimize costs about 23 MB of RSS; only the numeric cross-check
    # uses it, so neither importing the package nor a run may load it
    script = textwrap.dedent(f"""
        import sys
        import fairband
        from fairband.cli import main
        assert main(["run", "--scenario", "micro", "--iters", "200",
                     "--out-dir", {str(tmp_path / "run")!r}]) == 0
        assert main(["enumerate", "--scenario", "micro"]) == 0
        assert "scipy.optimize" not in sys.modules

        net = fairband.builtin("micro").to_network()
        best = fairband.enumerate_optimum(net)
        fairband.numeric_allocation_optimum(net, best.association, best.channel,
                                            samples=16, refine=1)
        assert "scipy.optimize" in sys.modules
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
