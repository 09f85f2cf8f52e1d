"""Command-line front end: seeded scenario runs, pointwise evaluation, calibration.

Configs are strict JSON: unknown keys are rejected by name and the seed is
mandatory, so a rerun of the same config is byte-identical.  ``run`` writes
a human-readable report followed by a machine-readable JSON block (the part
regression tooling should diff) and exits 0 when every audit passes, 2 on
audit failure (report still written), 1 on configuration or build errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

from . import evaluate, scenarios
from .diagnostics import EXPECTATIONS, PLAN_COUNTS, SamplingPlan, run_diagnostics
from .geometry import DegenerateConfigurationError, require_int, require_positive
from .measures import BaseMeasure1D, BaseMeasureND

JSON_MARKER = "=== JSON REPORT ==="


class ConfigError(ValueError):
    pass


# each table maps a key to (required, type): an int key takes an int that is
# not a bool, a float key any int or float that is not a bool, a list key a
# JSON array, and an object key leaves the value to the code that reads it
_TOP_KEYS = {"seed": (True, int), "scenario": (True, object), "plan": (True, object),
             "expect": (False, object), "outputs": (False, object), "backend": (False, object)}
_PLAN_KEYS = {"region": (True, list), **{key: (False, object) for key in PLAN_COUNTS},
              "scale_range": (False, list)}
_BACKEND_KEYS = {"name": (False, str), "budget": (False, int)}
_OUTPUT_KEYS = {"report": (False, str), "grid": (False, object)}
_GRID_KEYS = {"path": (True, str), "resolution": (True, int), "window": (True, list)}
_EXPECT_KEYS = {key: (False, float) for key in EXPECTATIONS}
_TYPE_NAMES = {float: "number", list: "array"}

_SCENARIO_KEYS = {
    "crofton": {"dimension": (True, int), "half_extent": (False, float)},
    "doubling_box": {"window_half": (False, float), "inner_half": (False, float),
                     "levels": (False, int), "cell": (False, float),
                     "gauss_order": (False, int)},
    "doubling_atoms": {"atoms": (True, list), "window": (True, list),
                       "basepoint": (False, object)},
    "beurling_ahlfors": {"density": (False, str), "support_half": (False, float),
                         "pieces": (False, int), "cap_half_angle": (False, float),
                         "window_half": (False, float), "height": (False, float)},
    "degenerate_caps": {"theta0": (True, float), "window_half": (False, float),
                        "levels": (False, int)},
}


def _has_type(value, kind) -> bool:
    if kind is not object and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_keys(obj: dict, spec: dict, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key in obj:
        if key not in spec:
            raise ConfigError(f"unknown key '{path}{key}'")
    for key, (required, kind) in spec.items():
        if required and key not in obj:
            raise ConfigError(f"missing required key '{path}{key}'")
        if key in obj and not _has_type(obj[key], kind):
            raise ConfigError(f"'{path}{key}' must be of type "
                              f"{_TYPE_NAMES.get(kind, kind.__name__)}, got {obj[key]!r}")


def _check_rows(rows: list, path: str, count: int = 0) -> None:
    """Refuse unless ``rows`` is ``count`` (one or more when 0) nonempty arrays of numbers."""
    if (len(rows) != count if count else not rows) or not all(
            isinstance(r, list) and r and all(_has_type(v, float) for v in r) for r in rows):
        raise ConfigError(f"'{path}' must hold {count or 'one or more'} nonempty arrays of "
                          f"numbers, got {rows!r}")


def _check_box(rows: list, path: str, scenario) -> None:
    """Refuse a box whose two corners do not have the scenario's dimension or leave its domain."""
    if any(len(row) != scenario.dim for row in rows):
        raise ConfigError(f"'{path}' corners must have {scenario.dim} coordinates, got {rows!r}")
    if np.any(np.asarray(rows[0]) < scenario.domain_lo) or \
            np.any(np.asarray(rows[1]) > scenario.domain_hi):
        raise ConfigError(f"'{path}' must lie inside the scenario domain "
                          f"[{scenario.domain_lo.tolist()}, {scenario.domain_hi.tolist()}]")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, "")
    sc = cfg["scenario"]
    if not isinstance(sc, dict) or "name" not in sc:
        raise ConfigError("'scenario' must be an object with a 'name'")
    if sc["name"] not in _SCENARIO_KEYS:
        raise ConfigError(f"unknown scenario '{sc['name']}'; "
                          f"choose from {sorted(_SCENARIO_KEYS)}")
    _check_keys(sc, {"name": (True, str), **_SCENARIO_KEYS[sc["name"]]}, "scenario.")
    plan = cfg["plan"]
    _check_keys(plan, _PLAN_KEYS, "plan.")
    _check_rows(plan["region"], "plan.region", 2)
    if not all(_has_type(v, float) for v in plan.get("scale_range", [])):
        raise ConfigError(f"'plan.scale_range' must hold numbers, got {plan['scale_range']!r}")
    if "backend" in cfg:
        _check_keys(cfg["backend"], _BACKEND_KEYS, "backend.")
    if "outputs" in cfg:
        _check_keys(cfg["outputs"], _OUTPUT_KEYS, "outputs.")
        if "grid" in cfg["outputs"]:
            _check_keys(cfg["outputs"]["grid"], _GRID_KEYS, "outputs.grid.")
            _check_rows(cfg["outputs"]["grid"]["window"], "outputs.grid.window", 2)
    if "expect" in cfg:
        _check_keys(cfg["expect"], _EXPECT_KEYS, "expect.")
    return cfg


def build_scenario(spec: dict, seed: int) -> scenarios.Scenario:
    # the builders are deterministic: no builder draws from the config's ``seed``
    name = spec["name"]

    def given(*keys):
        # the builders' own defaults stand for keys the config leaves out
        return {key: spec[key] for key in keys if key in spec}

    if name == "crofton":
        return scenarios.crofton(spec["dimension"], **given("half_extent"))
    if name == "doubling_box":
        w = require_positive("window_half", spec.get("window_half", 0.4))
        mu = scenarios.lebesgue_box_measure(2, inner_half=spec.get("inner_half", 0.8),
                                            **given("levels", "cell", "gauss_order"))
        return scenarios.doubling_pushforward(mu, window_lo=(-w, -w), window_hi=(w, w),
                                              name="doubling_box")
    if name == "doubling_atoms":
        _check_rows(spec["atoms"], "scenario.atoms")
        if len({len(row) for row in spec["atoms"]}) != 1:
            raise ConfigError(f"'scenario.atoms' rows must all have one length, the "
                              f"dimension plus one, got {spec['atoms']!r}")
        _check_rows(spec["window"], "scenario.window", 2)
        atoms = [(row[:-1], row[-1]) for row in spec["atoms"]]
        dim = len(spec["atoms"][0]) - 1
        mu = BaseMeasureND(dim, atoms=atoms)
        lo, hi = spec["window"]
        return scenarios.doubling_pushforward(mu, window_lo=lo, window_hi=hi,
                                              name="doubling_atoms",
                                              basepoint=spec.get("basepoint"))
    if name == "beurling_ahlfors":
        density = spec.get("density", "lebesgue")
        support = require_positive("support_half", spec.get("support_half", 30.0))
        if density == "lebesgue":
            mu1 = BaseMeasure1D.lebesgue(-support, support, 1.0)
        elif density == "inv_sqrt":
            mu1 = scenarios.inv_sqrt_density(support=support, **given("pieces"))
        else:
            raise ConfigError("scenario.density must be 'lebesgue' or 'inv_sqrt'")
        return scenarios.beurling_ahlfors(
            mu1, **given("cap_half_angle", "window_half", "height"))
    if name == "degenerate_caps":
        return scenarios.degenerate_caps(spec["theta0"], **given("window_half", "levels"))
    raise ConfigError(f"unknown scenario '{name}'")


def _pick_backend(nu, cfg: dict):
    spec = cfg.get("backend", {})
    name = spec.get("name", "auto")
    # checked whatever the name: auto may pick an exact backend that never reads it
    budget = require_int("backend.budget", spec.get("budget", evaluate.DEFAULT_BUDGET), 1)
    if name == "auto":
        return evaluate.default_backend(nu, budget=budget, seed=cfg["seed"])
    if name == "closed_form":
        backend = evaluate.ClosedForm()
    elif name == "exact2d":
        backend = evaluate.Exact2D()
    elif name == "monte_carlo":
        backend = evaluate.MonteCarlo(budget=budget, seed=cfg["seed"])
    else:
        raise ConfigError(f"unknown backend '{name}'")
    if not backend.supports(nu):
        raise ConfigError(f"backend '{name}' does not support this scenario's measure")
    return backend


def _plan_from_config(cfg: dict) -> SamplingPlan:
    plan = cfg["plan"]
    region = plan["region"]
    kwargs = {key: plan[key] for key in PLAN_COUNTS if key in plan}
    if "scale_range" in plan:
        kwargs["scale_range"] = tuple(float(v) for v in plan["scale_range"])
    return SamplingPlan(region_lo=tuple(region[0]), region_hi=tuple(region[1]),
                        seed=cfg["seed"], **kwargs)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_report_")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _out_path(args, path: str) -> str:
    """``path`` under the ``--out`` directory, when one is given."""
    return os.path.join(args.out, path) if args.out else path


def _output_paths(cfg: dict, args) -> dict:
    """The files ``run`` writes, by the key that names each; refused when two share a file."""
    outputs = cfg.get("outputs", {})
    report = _out_path(args, outputs.get("report", "report.txt"))
    paths = {"outputs.report": report}
    if args.format == "json":
        paths["--format json copy"] = os.path.splitext(report)[0] + ".json"
    if "grid" in outputs:
        paths["outputs.grid.path"] = _out_path(args, outputs["grid"]["path"])
    seen = {}
    for key, path in paths.items():
        other = seen.setdefault(os.path.realpath(path), key)
        if other != key:
            raise ConfigError(f"'{key}' names the same file as '{other}': {path}")
    return paths


def _write_error_report(cfg: dict, path: str, message: str) -> None:
    payload = {"scenario": cfg["scenario"], "seed": cfg["seed"], "error": message}
    text = "\n".join([f"error: {message}", JSON_MARKER,
                      json.dumps(payload, sort_keys=True, separators=(",", ":")), ""])
    _atomic_write(path, text)


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        paths = _output_paths(cfg, args)
        report_path = paths["outputs.report"]
        scenario = build_scenario(cfg["scenario"], cfg["seed"])
        _check_box(cfg["plan"]["region"], "plan.region", scenario)
        plan = _plan_from_config(cfg)
        grid = cfg.get("outputs", {}).get("grid")
        if grid is not None:
            # checked now, so a bad grid never follows a whole audit run
            _check_box(grid["window"], "outputs.grid.window", scenario)
            require_int("'outputs.grid.resolution'", grid["resolution"], 2)
        backend = _pick_backend(scenario.measure, cfg)
    except (ConfigError, ValueError, DegenerateConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        vreport = scenario.validate(seed=cfg["seed"])
        report = run_diagnostics(scenario.measure, scenario.basepoint, plan,
                                 backend=backend, name=scenario.name,
                                 expectations=cfg.get("expect"))
    except (ValueError, DegenerateConfigurationError) as exc:
        # the scenario did build, so a report is still owed to the caller
        _write_error_report(cfg, report_path, str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 1

    violations = vreport.violations()
    payload = {
        "scenario": cfg["scenario"],
        "seed": cfg["seed"],
        "validation": {
            "ok": vreport.ok,
            "violations": violations,
            "min_segment_mass": vreport.min_segment_mass,
            "region_mass": vreport.region_mass,
        },
        "report": report.to_dict(),
    }
    json_block = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    text = "\n".join([
        report.render_text(),
        f"validation: {'no violation found' if vreport.ok else 'VIOLATIONS: ' + '; '.join(violations)}",
        JSON_MARKER,
        json_block,
        "",
    ])

    _atomic_write(report_path, text)
    if args.format == "json":
        _atomic_write(paths["--format json copy"], json_block + "\n")

    if grid is not None:
        try:
            image = scenarios.grid_export(scenario, grid["resolution"],
                                          grid["window"][0], grid["window"][1], backend=backend)
        except (ValueError, DegenerateConfigurationError) as exc:
            print(f"error: grid export failed: {exc}", file=sys.stderr)
            return 1
        grid_path = paths["outputs.grid.path"]
        os.makedirs(os.path.dirname(os.path.abspath(grid_path)) or ".", exist_ok=True)
        image.to_csv(grid_path)

    ok = report.passed() and vreport.ok
    print(f"report written to {report_path}; audits {'passed' if ok else 'FAILED'}")
    return 0 if ok else 2


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"cannot parse point '{text}'") from exc


def cmd_eval(args) -> int:
    try:
        cfg = load_config(args.config)
        scenario = build_scenario(cfg["scenario"], cfg["seed"])
        backend = _pick_backend(scenario.measure, cfg)
        lines = []
        if args.pair:
            x, y = map(_parse_point, args.pair)
            res = evaluate.pair_integrals(scenario.measure, x, y, backend=backend)
            lines.append({
                "query": "pair", "x": x.tolist(), "y": y.tolist(),
                "d": res.mass, "transversal": res.transversal,
                "embed_gap": np.linalg.norm(res.embed).tolist(),
                "backend": res.backend,
                "d_stderr": res.mass_se,
            })
        if args.point is not None:
            x = _parse_point(args.point)
            f = scenario.embedding(backend=backend)
            val = f.eval(x)
            lines.append({
                "query": "point", "x": x.tolist(), "f": val.tolist(),
                "basepoint": scenario.basepoint.tolist(),
                "backend": getattr(backend, "name", "unknown"),
            })
        if not lines:
            raise ConfigError("eval needs --pair or --point")
    except (ConfigError, ValueError, DegenerateConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(json.dumps(line, sort_keys=True))
    return 0


def cmd_calibrate(args) -> int:
    try:
        result = evaluate.calibrate_embedding_constant(args.dim, args.budget, args.seed)
    except (evaluate.CalibrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, evaluate.CalibrationError) else 1
    path = os.path.join(args.out or ".", f"kernel_constant_dim{args.dim}.json")
    _atomic_write(path, json.dumps(dataclasses.asdict(result), sort_keys=True, indent=2) + "\n")
    print(f"calibration written to {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="busemetric",
        description="projective metrics from hyperplane measures: run audits, "
                    "evaluate metrics/embeddings, calibrate the kernel constant")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="build a scenario, validate, run all audits")
    p_run.add_argument("config", help="strict JSON config path")
    p_run.add_argument("--out", help="directory prefix for output files")
    p_run.add_argument("--format", choices=("json", "csv"), default="csv",
                       help="also write a bare-JSON report copy when 'json'")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate the metric or embedding pointwise")
    p_eval.add_argument("config")
    p_eval.add_argument("--pair", nargs=2, metavar=("X", "Y"),
                        help="two comma-separated points, e.g. --pair 0,0 1,0")
    p_eval.add_argument("--point", metavar="X", help="one comma-separated point")
    p_eval.set_defaults(func=cmd_eval)

    p_cal = sub.add_parser("calibrate", help="estimate the embedding kernel constant")
    p_cal.add_argument("--dim", type=int, required=True)
    p_cal.add_argument("--budget", type=int, required=True)
    p_cal.add_argument("--seed", type=int, required=True)
    p_cal.add_argument("--out", help="output directory")
    p_cal.set_defaults(func=cmd_calibrate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
