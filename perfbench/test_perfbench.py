"""The benchmark measures the shipped command on the bundled configs, unchanged.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

import workloads
from tracer import Tracer

AUDIT_CONFIGS = [*workloads.AUDITS["audit_light"], *workloads.AUDITS["audit_heavy"]]
ALL_CONFIGS = sorted({*AUDIT_CONFIGS, *workloads.CHURN_FAMILIES.values()})


def test_in_process_run_writes_what_the_command_writes(tmp_path):
    name = "crofton2"  # has a grid output as well as the report
    env = dict(os.environ, PYTHONPATH=str(workloads.ROOT / "src"))
    cmd = subprocess.run([sys.executable, "-m", "busemetric.cli", "run",
                          str(workloads.config_path(name)), "--out", str(tmp_path / "cmd")],
                         env=env, cwd=workloads.ROOT, capture_output=True, timeout=300)
    rc = workloads.run_config(name, tmp_path / "inproc")
    assert (rc, cmd.returncode) == (0, 0)
    assert workloads.outputs(name, tmp_path / "inproc") == workloads.outputs(name, tmp_path / "cmd")


@pytest.mark.parametrize("name", AUDIT_CONFIGS)
def test_traced_backend_leaves_reports_byte_identical(tmp_path, name):
    rc = workloads.run_config(name, tmp_path / "plain")
    tracer = Tracer()
    with tracer.op(f"cli.run.{name}", "traced"):
        traced_rc = workloads.run_config(name, tmp_path / "traced", tracer)
    assert traced_rc == rc == 0
    report, grid = workloads.outputs(name, tmp_path / "plain")
    assert workloads.outputs(name, tmp_path / "traced") == (report, grid)
    names = {s[3] for s in tracer.spans}
    assert {"scenarios.build", "hyperplane_measures.validate", "diagnostics.run"} <= names
    assert names & {"evaluate.pair", "evaluate.pair_taus"}
    assert ("scenarios.grid_export" in names) == bool(grid)
    # the wrapped names are restored once the traced run is over
    assert workloads.evaluate.default_backend.__module__ == "busemetric.evaluate"
    # the plan the benchmark builds is the plan the command reports
    reported = json.loads(workloads.json_block(report))["report"]["plan"]
    assert reported == workloads.build(name).plan.to_dict()


@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_workloads_read_the_bundled_configs_unchanged(name):
    cfg = json.loads(workloads.config_path(name).read_text())
    pinned = workloads.REFERENCE["configs"][name]
    plan = workloads.build(name).plan
    assert plan.seed == cfg["seed"] == pinned["seed"]
    for key, count in pinned["plan"].items():
        assert getattr(plan, key) == cfg["plan"][key] == count
    assert [list(plan.region_lo), list(plan.region_hi)] == cfg["plan"]["region"]
    assert list(plan.scale_range) == cfg["plan"]["scale_range"]
