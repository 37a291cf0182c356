"""``benchmarks/run_all.py`` refuses an experiment ID it does not know,
so a renamed or mistyped row in a CI step fails instead of passing with
nothing run."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def test_unknown_experiment_id_exits_nonzero_and_lists_the_known_ones():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run_all.py"), "A99"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert "all experiments completed" not in proc.stdout
    assert "A99" in proc.stderr
    assert "E7" in proc.stderr and "A12" in proc.stderr
