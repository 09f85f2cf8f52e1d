"""Smoke runs of the narrative demos that call the library end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# transversality_sweep is left out: it takes about 14 s and exercises only
# the segment sweep, which the diagnostics tests cover; CI runs it in its own
# step after Tier-1
DEMOS = ("axis_measure_extension", "monotonicity_audits",
         "metric_from_hyperplane_measure", "kernel_constant_calibration")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout
    if demo == "axis_measure_extension":
        # the grid lands in the working directory, not at a fixed path
        assert (tmp_path / "axis_extension_grid.csv").stat().st_size > 0
