import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from busemetric.cli import (JSON_MARKER, ConfigError, _pick_backend, _plan_from_config,
                            build_scenario, load_config, main)
from busemetric.diagnostics import run_diagnostics
from busemetric.evaluate import calibrate_embedding_constant

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

BASE_CONFIG = {
    "seed": 77,
    "scenario": {"name": "crofton", "dimension": 2},
    "plan": {
        "region": [[-1.0, -1.0], [1.0, 1.0]],
        "pair_count": 60,
        "cycle_count": 20,
        "cube_count": 12,
        "triple_count": 40,
        "scale_range": [0.05, 0.5],
    },
    "outputs": {"report": "report.txt"},
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def json_block(report_path):
    text = report_path.read_text()
    assert JSON_MARKER in text
    return text.split(JSON_MARKER, 1)[1].strip()


def test_run_crofton_exit_zero(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["run", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads(json_block(tmp_path / "report.txt"))
    assert payload["report"]["kappa_hat"] == pytest.approx(math.pi / 4.0, abs=1e-3)
    assert payload["validation"]["ok"] is True
    assert all(a["passed"] for a in payload["report"]["audits"])


def test_run_rejects_unknown_key(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["plan"] = dict(cfg["plan"], tau_gridd=0.01)
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "tau_gridd" in err


def test_run_requires_seed(tmp_path, capsys):
    cfg = {k: v for k, v in BASE_CONFIG.items() if k != "seed"}
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    assert "seed" in capsys.readouterr().err


def test_run_audit_failure_exit_two(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["scenario"] = {"name": "degenerate_caps", "theta0": 0.05,
                       "window_half": 0.4, "levels": 4}
    cfg["plan"] = {"region": [[-0.3, -0.3], [0.3, 0.3]], "pair_count": 40,
                   "cycle_count": 8, "cube_count": 6, "triple_count": 10,
                   "scale_range": [0.02, 0.25]}
    cfg["expect"] = {"kappa_min": 0.75}
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    payload = json.loads(json_block(tmp_path / "report.txt"))
    failing = [a for a in payload["report"]["audits"] if not a["passed"]]
    assert failing and failing[0]["name"] == "expect.kappa_min"
    assert "witness" in failing[0]  # the offending segment is recorded


def test_run_degenerate_scenario_still_writes_report(tmp_path, capsys):
    # the scenario builds, but its basepoint collides with an atom: the run
    # errors out (exit 1) yet still leaves a report explaining why
    cfg = dict(BASE_CONFIG)
    cfg["scenario"] = {
        "name": "doubling_atoms",
        "atoms": [[0.1, 0.1, 1.0], [2.0, 0.3, 1.0], [-1.1, 1.7, 1.0]],
        "window": [[-1.0, -1.0], [1.0, 1.0]],
        "basepoint": [0.1, 0.1],
    }
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    assert "atom" in capsys.readouterr().err
    payload = json.loads(json_block(tmp_path / "report.txt"))
    assert "error" in payload


def test_run_rejects_region_outside_domain(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["plan"] = dict(cfg["plan"], region=[[-50.0, -50.0], [50.0, 50.0]])
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    assert "domain" in capsys.readouterr().err


def test_run_reports_are_byte_identical(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["outputs"] = {
        "report": "report.txt",
        "grid": {"path": "grid.csv", "resolution": 5,
                 "window": [[-1.0, -1.0], [1.0, 1.0]]},
    }
    p1 = tmp_path / "a"
    p2 = tmp_path / "b"
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(p1)]) == 0
    assert main(["run", path, "--out", str(p2)]) == 0
    assert (p1 / "report.txt").read_bytes() == (p2 / "report.txt").read_bytes()
    assert (p1 / "grid.csv").read_bytes() == (p2 / "grid.csv").read_bytes()


def test_run_json_block_report_is_the_reports_dict(tmp_path):
    # the JSON block's report object is DiagnosticsReport.to_dict() of the same run
    cfg = dict(BASE_CONFIG, expect={"kappa_min": 0.78, "c_high_max": 1.0})
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path)]) == 0
    loaded = load_config(path)
    sc = build_scenario(loaded["scenario"], loaded["seed"])
    rep = run_diagnostics(sc.measure, sc.basepoint, _plan_from_config(loaded),
                          backend=_pick_backend(sc.measure, loaded), name=sc.name,
                          expectations=loaded["expect"])
    assert json.loads(json_block(tmp_path / "report.txt"))["report"] == rep.to_dict()


def test_run_json_format_writes_bare_report(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["run", cfg, "--out", str(tmp_path), "--format", "json"]) == 0
    bare = json.loads((tmp_path / "report.json").read_text())
    assert bare == json.loads(json_block(tmp_path / "report.txt"))


def test_eval_pair_and_point(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["eval", cfg, "--pair", "0,0", "1,0", "--point", "0,0"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert lines[0]["d"] == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert lines[0]["d"] == pytest.approx(0.6366197723675814, abs=1e-15)
    assert lines[1]["f"] == [0.0, 0.0]  # the basepoint maps to the origin exactly


def test_eval_equal_pair_is_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["eval", cfg, "--pair", "0.3,0.4", "0.3,0.4"]) == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["d"] == 0.0


def test_eval_requires_query(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["eval", cfg]) == 1
    assert "pair or --point" in capsys.readouterr().err


def test_calibrate_writes_deterministic_file(tmp_path):
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    assert main(["calibrate", "--dim", "2", "--budget", "60000", "--seed", "5",
                 "--out", str(out1)]) == 0
    assert main(["calibrate", "--dim", "2", "--budget", "60000", "--seed", "5",
                 "--out", str(out2)]) == 0
    f1 = (out1 / "kernel_constant_dim2.json").read_bytes()
    f2 = (out2 / "kernel_constant_dim2.json").read_bytes()
    assert f1 == f2
    payload = json.loads(f1)
    assert abs(payload["value"] - 1.0 / math.pi) <= payload["half_width"]
    assert payload["provenance"] == "oracle"


def test_calibrate_tiny_budget_warns_but_succeeds(tmp_path):
    assert main(["calibrate", "--dim", "2", "--budget", "40", "--seed", "9",
                 "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "kernel_constant_dim2.json").read_text())
    assert payload["warning"] is True


def _hand_built_payload(result):
    """The calibration file's payload as the CLI once spelled it out, field by field."""
    return {
        "dim": result.dim,
        "value": result.value,
        "half_width": result.half_width,
        "provenance": result.provenance,
        "budget": result.budget,
        "seed": result.seed,
        "per_distance": [list(row) for row in result.per_distance],
        "warning": result.warning,
    }


@pytest.mark.parametrize("dim, budget, seed", [(2, 6000, 5), (3, 40, 9)])
def test_calibrate_file_keeps_the_hand_built_bytes(tmp_path, dim, budget, seed):
    # the file is now the result's fields as they stand; its bytes stay those of
    # the hand-built payload it replaced
    assert main(["calibrate", "--dim", str(dim), "--budget", str(budget), "--seed", str(seed),
                 "--out", str(tmp_path)]) == 0
    result = calibrate_embedding_constant(dim, budget, seed)
    want = json.dumps(_hand_built_payload(result), sort_keys=True, indent=2) + "\n"
    assert (tmp_path / f"kernel_constant_dim{dim}.json").read_bytes() == want.encode()


@pytest.mark.parametrize("budget", ["0", "-5", "2"])
def test_calibrate_refuses_budgets_without_a_standard_error(tmp_path, capsys, budget):
    # these once drew one sample per distance and failed the 4-sigma check at 0
    assert main(["calibrate", "--dim", "2", "--budget", budget, "--seed", "9",
                 "--out", str(tmp_path)]) == 1
    assert "budget must be an integer >= 6" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_load_config_strictness(tmp_path):
    bad = dict(BASE_CONFIG, extra=1)
    path = write_config(tmp_path, bad)
    with pytest.raises(ConfigError, match="extra"):
        load_config(path)
    bad2 = dict(BASE_CONFIG, scenario={"name": "unknown_thing"})
    path2 = write_config(tmp_path, bad2, "c2.json")
    with pytest.raises(ConfigError, match="unknown scenario"):
        load_config(path2)
    bad3 = dict(BASE_CONFIG, expect={"kappa_minn": 1.0})
    path3 = write_config(tmp_path, bad3, "c3.json")
    with pytest.raises(ConfigError, match="kappa_minn"):
        load_config(path3)


def test_scenario_param_strictness(tmp_path):
    bad = dict(BASE_CONFIG, scenario={"name": "crofton", "dimension": 2, "radius": 3})
    path = write_config(tmp_path, bad)
    with pytest.raises(ConfigError, match="radius"):
        load_config(path)


@pytest.mark.parametrize("counts", [
    {"cycle_count": 0, "cube_count": 0},
    {"cube_count": -3},
    {"pair_count": 0},
    {"triple_count": 2.5},
    {"pair_count": True},
])
def test_run_rejects_empty_or_non_integer_counts(tmp_path, capsys, counts):
    # an empty pool would pass its audit on an infinite extremum and write
    # Infinity into the JSON block; a fractional or boolean count would be
    # truncated into another plan
    cfg = dict(BASE_CONFIG, plan=dict(BASE_CONFIG["plan"], **counts))
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert next(iter(counts)) in err
    assert not (tmp_path / "report.txt").exists()


DEGENERATE_CAPS = {"name": "degenerate_caps", "theta0": 0.2, "window_half": 0.4}
MC = {"name": "monte_carlo"}
SMALL_PLAN = dict(BASE_CONFIG["plan"], region=[[-0.3, -0.3], [0.3, 0.3]])
ATOMS = {"name": "doubling_atoms", "atoms": [[2.0, 0.3, 1.0], [-1.1, 1.7, 2.0], [0.4, -2.2, 1.5]],
         "window": [[-0.35, -0.35], [0.35, 0.35]]}


@pytest.mark.parametrize("key, changes", [
    ("seed", {"seed": True}),
    ("scenario.dimension", {"scenario": {"name": "crofton", "dimension": 2.9}}),
    ("scenario.levels", {"scenario": dict(DEGENERATE_CAPS, levels=2.5)}),
    ("scenario.half_extent", {"scenario": {"name": "crofton", "dimension": 2,
                                           "half_extent": "5"}}),
    ("backend.budget", {"backend": dict(MC, budget=True)}),
    ("backend.budget", {"backend": dict(MC, budget=20000.7)}),
    ("plan.region", {"plan": dict(SMALL_PLAN, region=5)}),
    ("plan.region", {"plan": dict(SMALL_PLAN, region=[[-1.0, -1.0]])}),
    ("plan.scale_range", {"plan": dict(SMALL_PLAN, scale_range=5)}),
    ("scenario.atoms", {"scenario": dict(ATOMS, atoms=5)}),
    ("scenario.atoms", {"scenario": dict(ATOMS, atoms=[])}),
    ("scenario.window", {"scenario": dict(ATOMS, window=5)}),
    ("outputs.grid.window", {"outputs": {"report": "report.txt", "grid": {
        "path": "grid.csv", "resolution": 3, "window": 5}}}),
    # corners of another dimension than the scenario's, a window outside its
    # domain and a one-point grid, all refused before any audit runs
    ("plan.region", {"plan": dict(SMALL_PLAN, region=[[-0.3], [0.3]])}),
    ("plan.region", {"plan": dict(SMALL_PLAN, region=[[-0.3, -0.3, 0.0], [0.3, 0.3, 0.0]])}),
    ("outputs.grid.window", {"outputs": {"report": "report.txt", "grid": {
        "path": "grid.csv", "resolution": 3, "window": [[-0.3], [0.3]]}}}),
    ("outputs.grid.window", {"outputs": {"report": "report.txt", "grid": {
        "path": "grid.csv", "resolution": 3, "window": [[-0.3, -0.3, 0.0], [0.3, 0.3, 0.0]]}}}),
    ("outputs.grid.window", {"outputs": {"report": "report.txt", "grid": {
        "path": "grid.csv", "resolution": 3, "window": [[-50.0, -50.0], [50.0, 50.0]]}}}),
    ("outputs.grid.resolution", {"outputs": {"report": "report.txt", "grid": {
        "path": "grid.csv", "resolution": 1, "window": [[-0.3, -0.3], [0.3, 0.3]]}}}),
    # rows of two lengths once reached the measure, whose error named no key
    ("scenario.atoms", {"scenario": dict(ATOMS, atoms=[[2.0, 0.3, 1.0], [-1.1, 1.7, 0.5, 2.0]])}),
])
def test_run_rejects_config_values_of_the_wrong_type(tmp_path, capsys, key, changes):
    # each of these used to be coerced and run: a boolean seed as seed 1, a
    # fractional dimension, level count or budget truncated, a string parsed;
    # an array key of the wrong shape failed with a traceback instead, the
    # grid window only after the report was written
    cfg = {**BASE_CONFIG, "plan": SMALL_PLAN, **changes}
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


BAD_BUDGETS = {"unnamed": {"budget": -5}, "auto": {"name": "auto", "budget": 0},
               "closed_form": {"name": "closed_form", "budget": -5},
               "monte_carlo": {"name": "monte_carlo", "budget": -5}}


@pytest.mark.parametrize("case", list(BAD_BUDGETS))
def test_run_refuses_a_budget_below_one_whatever_the_backend(tmp_path, capsys, case):
    # auto and closed_form never read the budget on crofton2, which once ran and exited 0
    path = write_config(tmp_path, {**BASE_CONFIG, "backend": BAD_BUDGETS[case]})
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    assert "backend.budget must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


def test_run_names_a_monte_carlo_miss(tmp_path, capsys):
    # a 20000-sample batch draws no hyperplane across one short sampled
    # segment on ba_lebesgue, whose exact mass is positive: the error asks
    # for a larger budget instead of calling the measure degenerate
    cfg = json.loads((SRC_DIR.parent / "configs" / "ba_lebesgue.json").read_text())
    cfg["backend"] = dict(MC, budget=20000)
    cfg["outputs"] = {"report": "report.txt"}
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Monte Carlo" in err and "backend.budget" in err
    assert "backend.budget" in json.loads(json_block(tmp_path / "report.txt"))["error"]


def test_module_entry_point_help():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "busemetric", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "run" in done.stdout and "calibrate" in done.stdout


def test_bundled_runs_never_import_scipy(tmp_path):
    # scipy.special serves only dimensions and caps no bundled config uses, and
    # importing it costs about half of a light config's run; a fresh process,
    # because the test session itself has scipy loaded
    names = sorted(p.stem for p in (SRC_DIR.parent / "configs").glob("*.json"))
    script = "\n".join([
        "import sys",
        "from busemetric import cli",
        f"for path in {[str(SRC_DIR.parent / 'configs' / f'{n}.json') for n in names]!r}:",
        f"    assert cli.main(['run', path, '--out', {str(tmp_path)!r}]) == 0, path",
        "    assert 'scipy' not in sys.modules, path",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert len(names) == 7
    assert done.returncode == 0, done.stderr


# bundled config -> the backend `run` picks for it when the config names none
DEFAULT_BACKENDS = {"crofton2": "closed_form", "crofton3": "closed_form",
                    "doubling_atoms": "closed_form", "doubling_box": "closed_form",
                    "ba_lebesgue": "exact2d", "ba_inv_sqrt": "exact2d",
                    "degenerate_caps_02": "exact2d"}


def _built(name, backend=None):
    """The bundled config's scenario, plan and backend, as `run` builds them."""
    cfg = load_config(str(SRC_DIR.parent / "configs" / f"{name}.json"))
    if backend is not None:
        cfg["backend"] = backend
    scenario = build_scenario(cfg["scenario"], cfg["seed"])
    return scenario, _plan_from_config(cfg), _pick_backend(scenario.measure, cfg)


@pytest.mark.parametrize("name", list(DEFAULT_BACKENDS))
def test_bundled_configs_build_with_their_default_backend(name):
    scenario, plan, backend = _built(name)
    assert backend.name == DEFAULT_BACKENDS[name]
    assert plan.dim == scenario.dim


@pytest.mark.parametrize("name, backend", [("crofton2", "closed_form"),
                                           ("ba_lebesgue", "exact2d"),
                                           ("doubling_box", "monte_carlo")])
def test_run_takes_a_named_backend(name, backend):
    _, plan, picked = _built(name, {"name": backend, "budget": 1234})
    assert picked.name == backend
    if backend == "monte_carlo":
        assert (picked.budget, picked.seed) == (1234, plan.seed)


@pytest.mark.parametrize("name, backend", [("crofton2", "exact2d"),
                                           ("ba_lebesgue", "closed_form")])
def test_run_refuses_a_backend_that_does_not_support_the_measure(name, backend):
    with pytest.raises(ConfigError, match=f"backend '{backend}' does not support"):
        _built(name, {"name": backend})


def _bundled(name, **scenario):
    cfg = json.loads((SRC_DIR.parent / "configs" / f"{name}.json").read_text())
    cfg["scenario"].update(scenario)
    return cfg


@pytest.mark.parametrize("key, cfg", [
    ("cell", _bundled("doubling_box", cell=0)),
    ("inner_half", _bundled("doubling_box", inner_half=0)),
    ("window_half", _bundled("degenerate_caps_02", window_half=0)),
    ("window_half", _bundled("doubling_box", window_half=0)),
    ("support_half", _bundled("ba_lebesgue", support_half=0)),
    ("height", _bundled("ba_lebesgue", height=0)),
])
def test_run_refuses_a_zero_box_size_by_name(tmp_path, capsys, key, cfg):
    # the first three once divided by zero while building the box measure, and
    # the run ended in a traceback; the last three exited 1 naming no key
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert f"error: {key} must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, outputs, fmt", [
    ("--format json copy", {"report": "r.json"}, "json"),
    ("outputs.grid.path", {"report": "r.txt", "grid": {
        "path": "./r.txt", "resolution": 3, "window": [[-0.3, -0.3], [0.3, 0.3]]}}, "csv"),
])
def test_run_refuses_outputs_that_share_a_file(tmp_path, capsys, key, outputs, fmt):
    # the later write once replaced the report, and the run still exited 0
    path = write_config(tmp_path, {**BASE_CONFIG, "plan": SMALL_PLAN, "outputs": outputs})
    assert main(["run", path, "--out", str(tmp_path / "out"), "--format", fmt]) == 1
    assert f"'{key}' names the same file as 'outputs.report'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
