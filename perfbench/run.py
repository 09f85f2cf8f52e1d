"""End-to-end and per-layer benchmark of busemetric's audits and queries.

Run from the repository root:

    python3 perfbench/run.py --workload audit_light --seed 1 --seconds 30 --trace 0

Workloads: ``audit_light`` and ``audit_heavy`` run ``busemetric run`` on
bundled configs in-process; ``query_churn`` is a seeded stream of library
queries over fresh scaled measures.  One process and one thread drive the
public API in a closed loop.  ``--trace 0`` measures the end-to-end metrics
and ``--trace 1`` the per-layer ones, each from its own run.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, named and with units as in BENCHMARK.json.
NOTES.md says why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import special

import workloads  # first: it puts the checkout's src/ on the import path
import probes
import speed
import tracer as tracing
from busemetric import evaluate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_RUNS = 5
# speed-kernel runs before and after set-up in each set-up process; one
# sub-millisecond run is too noisy to scale a whole set-up by
SETUP_KERNEL_RUNS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for this long (a workload's minimum pass count still runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, parse configs, build scenarios and backends, then print the "
                        "median speed-kernel time over runs before and after, and the time "
                        "spent in them")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Tally:
    """Timed wall intervals and failure counts of one run.

    ``passes`` holds each pass's (start, end) intervals: its operations and,
    on query_churn, the building of each block's scaled measure.  ``ops``
    holds one interval per operation.  The benchmark's own output checks
    fall outside every interval.
    """

    def __init__(self):
        self.passes: list[list] = []
        self.ops: list[tuple] = []
        self.attempted = 0
        self.failed = 0

    def interval(self, start: float, end: float) -> None:
        self.passes[-1].append((start, end))

    def operation(self, start: float, end: float, ok: bool) -> None:
        self.interval(start, end)
        self.ops.append((start, end))
        self.attempted += 1
        self.failed += not ok


class Run:
    """One benchmark process's workload: set-up, passes and their tally."""

    def __init__(self, workload: str, seed: int, tracer):
        self.workload, self.seed = workload, seed
        with tracer.op("setup", "setup"):
            self.built = {}
            for name in workloads.config_names(workload):
                with tracer.span("scenarios.build"):
                    self.built[name] = workloads.build(name)
        if workload == "query_churn":
            self.blocks = workloads.churn_stream(self.built, seed)
            self.check = workloads.ChurnCheck(self.built)
        else:
            self.check = workloads.AuditCheck()
        self.out_dir = OUT / f"{workload}-{os.getpid()}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tally = Tally()

    def run_pass(self, tracer, phase: str) -> float:
        """One pass; returns its wall time."""
        self.tally.passes.append([])
        if self.workload == "query_churn":
            self._churn_pass(tracer, phase)
        else:
            self._audit_pass(tracer, phase)
        return sum(end - start for start, end in self.tally.passes[-1])

    def _audit_pass(self, tracer, phase: str) -> None:
        for name in workloads.audit_order(self.workload, self.seed):
            t0 = time.perf_counter()
            try:
                with tracer.op(f"cli.run.{name}", phase):
                    rc = workloads.run_config(name, self.out_dir,
                                              tracer if tracer.enabled else None)
            except Exception as exc:  # a crashing config is a failed operation
                rc = f"raised {exc!r}"
            t1 = time.perf_counter()
            try:
                output = workloads.outputs(name, self.out_dir)
            except OSError as exc:
                rc, output = f"{rc}; outputs unreadable: {exc!r}", (b"", b"")
            self.tally.operation(t0, t1, self.check(name, rc, output))
            if tracer.enabled:
                # right after the run they belong to, so both see the same machine load
                with tracer.op(f"stages.{name}", f"{phase}.stages"):
                    workloads.traced_stages(tracer, self.built[name])

    def _churn_pass(self, tracer, phase: str) -> None:
        mc = evaluate.MonteCarlo(budget=workloads.MC_BUDGET, seed=self.seed)
        for block in self.blocks:
            b = self.built[workloads.CHURN_FAMILIES[block.family]]
            t0 = time.perf_counter()
            nu = b.scenario.measure.scaled(block.factor)
            raw = b.backend if block.backend == "default" else mc
            backend = tracer.proxy(raw)
            f = evaluate.EmbeddingMap(nu, b.scenario.basepoint, backend=backend)
            self.tally.interval(t0, time.perf_counter())
            for q in block.queries:
                t0 = time.perf_counter()
                try:
                    with tracer.op(f"query.{q.kind}", phase):
                        answer = workloads.ask(q, nu, f, backend)
                except Exception as exc:  # a raising query is a failed operation
                    answer = exc
                t1 = time.perf_counter()
                self.tally.operation(t0, t1, self.check(block, q, nu, raw, answer))


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def setup_seconds(args) -> tuple[float, float]:
    """Median time of fresh processes that only set up (import, parse, build, choose),
    at reference speed and raw: each child times the speed kernel before and after
    its set-up."""
    times, raw = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                                args.workload, "--seed", str(args.seed), "--seconds", "0",
                                "--setup-only"], check=True, cwd=ROOT, capture_output=True,
                               text=True)
        wall = time.perf_counter() - t0
        speed_kernel, kernel = (float(v) for v in child.stdout.split())
        times.append((wall - kernel) * speed.REFERENCE_S / speed_kernel)
        raw.append(wall)
    return statistics.median(times), statistics.median(raw)


def end_to_end(args) -> tuple[dict, Run, dict]:
    """End-to-end metrics at reference speed, the run, and the same figures from raw wall
    times (printed, not reported), so the scaling can be audited run by run."""
    setup_s, raw_setup_s = setup_seconds(args)
    run = Run(args.workload, args.seed, tracing.NullTracer())
    start = time.perf_counter()
    with speed.SpeedSampler() as sampler:
        while (len(run.tally.passes) < workloads.MIN_PASSES[args.workload]
               or time.perf_counter() - start < args.seconds):
            run.run_pass(tracing.NullTracer(), "untraced")
    p50, p99 = latency_percentiles(1e3 * np.asarray(sampler.reference_seconds(run.tally.ops)))
    raw_p50, raw_p99 = latency_percentiles([1e3 * (end - start) for start, end in run.tally.ops])
    raw = {"setup_s": raw_setup_s,
           "pass_s": statistics.median(sum(e - s for s, e in p) for p in run.tally.passes),
           "query_ms.p50": raw_p50, "query_ms.p99": raw_p99,
           "speed_samples": len(sampler.rates),
           "speed_factor.median": statistics.median(sampler.rates)}
    metrics = {
        "setup_s": setup_s,
        "pass_s": statistics.median(sum(sampler.reference_seconds(p)) for p in run.tally.passes),
        "query_ms.p50": p50,
        "query_ms.p99": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, run, raw


def latency_percentiles(samples_ms) -> tuple[float, float]:
    """The 50th and 99th percentiles, as Harrell-Davis estimates.

    These weigh every order statistic, most near the percentile.  On the
    audits the 50th percentile falls between the runs of two different
    configs, so plain interpolation would read just the slowest run of one
    and the fastest of the other, the two noisiest samples.
    """
    x = np.sort(np.asarray(samples_ms, dtype=float))
    n = x.size
    out = []
    for p in (0.5, 0.99):
        weights = np.diff(special.betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
        out.append(float(weights @ x))
    return out[0], out[1]


def per_layer(args) -> tuple[dict, Run, dict]:
    tr = tracing.Tracer()
    run = Run(args.workload, args.seed, tr)
    everything = dict(run.built)
    for label in probes.TABLE.values():
        if label not in everything:
            everything[label] = workloads.build(label)
    metrics = probes.all_probes(everything, args.seed)

    null = tracing.NullTracer()
    untraced, traced, traced_phases = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(run.run_pass(null, "untraced"))
        phase = f"traced{len(traced)}"
        traced.append(run.run_pass(tr, phase))
        traced_phases.append(phase)

    by_phase = tr.by_phase()
    per_pass = [_pass_layers(by_phase[ph], by_phase[f"{ph}.stages"]) for ph in traced_phases]
    metrics.update({k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]})
    setup_busy, _ = tracing.totals(by_phase["setup"])
    metrics["scenarios.build_s"] = setup_busy["scenarios.build"]
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    # paired with the untraced pass just before it, so machine drift cancels
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    return metrics, run, {}


def _pass_layers(spans, stage_spans) -> dict:
    """Layer totals of one traced pass, and of the diagnostics stages run beside it."""
    busy, calls = tracing.totals(spans)
    out = {f"cli.run_s.{name}": busy.get(f"cli.run.{name}", 0.0)
           for names in workloads.AUDITS.values() for name in names}
    out["scenarios.grid_export_s"] = busy.get("scenarios.grid_export", 0.0)
    out["hyperplane_measures.validate_s"] = busy.get("hyperplane_measures.validate", 0.0)
    out["hyperplane_measures.validate.calls"] = calls.get("hyperplane_measures.validate", 0)
    out["diagnostics.run_s"] = busy.get("diagnostics.run", 0.0)
    out["diagnostics.self_s"] = out["diagnostics.run_s"] - tracing.child_time(spans,
                                                                              "diagnostics.run")
    stage_busy, _ = tracing.totals(stage_spans)
    for stage in workloads.STAGES:
        out[f"diagnostics.{stage}_s"] = stage_busy.get(f"diagnostics.{stage}", 0.0)
    out["diagnostics.rest_s"] = out["diagnostics.run_s"] - sum(
        out[f"diagnostics.{stage}_s"] for stage in workloads.STAGES)
    for kind in ("pair", "pair_taus", "cube_mass", "box_mass"):
        out[f"evaluate.{kind}.calls"] = calls.get(f"evaluate.{kind}", 0)
        out[f"evaluate.{kind}.busy_s"] = busy.get(f"evaluate.{kind}", 0.0)
    return out


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def environment() -> dict:
    """The numerical environment the figures depend on (numpy's SIMD kernels move the anchors)."""
    umath = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_cpu_baseline": list(umath.__cpu_baseline__),
        "numpy_cpu_dispatch": list(umath.__cpu_dispatch__),
        "numpy_cpu_features": sorted(k for k, v in umath.__cpu_features__.items() if v),
        "numpy_disabled_features": os.environ.get("NPY_DISABLE_CPU_FEATURES", ""),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "machine": platform.machine(),
    }


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None when it cannot be asked."""
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _git_commit():
    """HEAD's commit when the checkout is a git work tree; read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    """Digest of the library sources, which identifies the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        t0 = time.perf_counter()
        before = [speed.kernel_seconds() for _ in range(SETUP_KERNEL_RUNS)]
        t1 = time.perf_counter()
        workloads.setup(args.workload)
        t2 = time.perf_counter()
        after = [speed.kernel_seconds() for _ in range(SETUP_KERNEL_RUNS)]
        print(statistics.median(before + after), (t1 - t0) + (time.perf_counter() - t2))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        metrics, run, raw = (per_layer if args.trace else end_to_end)(args)
    finally:
        shutil.rmtree(OUT / f"{args.workload}-{os.getpid()}", ignore_errors=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    for line in run.check.errors[:20]:
        print(f"FAILED {line}")
    print(f"passes {len(run.tally.passes)}; operations attempted {run.tally.attempted}, "
          f"failed {run.tally.failed}; latency samples {len(run.tally.ops)}")
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:40s} {value:14.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"{'raw ' + name:40s} {value:14.6g}")
    print(json.dumps({"correct": run.tally.failed == 0 and run.tally.attempted > 0,
                      "attempted": run.tally.attempted, "failed": run.tally.failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
