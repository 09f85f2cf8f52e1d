"""The benchmark's workloads: what one pass runs, and how each answer is checked.

Two kinds of operation exist.  A config run is ``busemetric run <config>``
called in-process through ``cli.main``; a query is one call of the public
query API (``seg_mass``, ``pair_integrals``, ``cube_mass``,
``EmbeddingMap.eval``).  Every operation is checked; a failed check is
counted, never raised.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "busemetric").is_dir():
    # measure this checkout's sources, never an installed copy
    raise ImportError(f"no busemetric sources under {ROOT / 'src'}")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from busemetric import cli, diagnostics, evaluate, scenarios  # noqa: E402
from busemetric.diagnostics import TAU_GRID, SamplingPlan  # noqa: E402
from busemetric.geometry import Cube  # noqa: E402

CONFIG_DIR = ROOT / "configs"
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

AUDITS = {
    "audit_light": ("crofton2", "crofton3", "doubling_atoms", "ba_lebesgue"),
    "audit_heavy": ("ba_inv_sqrt", "degenerate_caps_02", "doubling_box"),
}
# query_churn family -> the bundled config its base measure is built from
CHURN_FAMILIES = {
    "crofton2": "crofton2",
    "doubling_box": "doubling_box",
    "ba_lebesgue": "ba_lebesgue",
    "degenerate_caps": "degenerate_caps_02",
}
WORKLOADS = (*AUDITS, "query_churn")
# passes always run, whatever --seconds says: two query_churn passes give
# 1536 latency samples, so p99 has at least 15 samples beyond it
MIN_PASSES = {"audit_light": 3, "audit_heavy": 2, "query_churn": 2}

MC_BUDGET = 100_000
# a query's Monte Carlo answer must lie within this many standard errors of
# the exact answer
MC_SIGMAS = 6.0
# exact answers computed two ways (closed form, second exact backend) must
# agree to this relative tolerance
EXACT_RTOL = 1e-9
# answers of one query in later passes of a run must repeat the first one
REPEAT_RTOL = 1e-12

BLOCKS_PER_COMBO = 12
QUERIES_PER_BLOCK = 8
QUERY_KINDS = ("seg_mass", "pair_taus", "cube_mass", "eval")


@dataclass(frozen=True)
class Built:
    """One bundled config with its scenario, plan and default backend."""

    name: str
    scenario: object
    plan: SamplingPlan
    backend: object


def config_path(name: str) -> Path:
    return CONFIG_DIR / f"{name}.json"


def build(name: str) -> Built:
    """Parse a bundled config, build its scenario and choose its backend as the CLI does."""
    cfg = cli.load_config(str(config_path(name)))
    scenario = cli.build_scenario(cfg["scenario"], cfg["seed"])
    return Built(name, scenario, cli._plan_from_config(cfg),
                 cli._pick_backend(scenario.measure, cfg))


def config_names(workload: str) -> tuple:
    return AUDITS.get(workload) or tuple(sorted(set(CHURN_FAMILIES.values())))


def setup(workload: str) -> dict:
    return {name: build(name) for name in config_names(workload)}


# ---------------------------------------------------------------------------
# audit workloads
# ---------------------------------------------------------------------------

def audit_order(workload: str, seed: int) -> list:
    """The pass's config order; the seed permutes it, the configs stay as committed."""
    names = list(AUDITS[workload])
    return [names[i] for i in np.random.default_rng(seed).permutation(len(names))]


def run_config(name: str, out_dir: Path, tracer=None) -> int:
    """``busemetric run <config> --out <out_dir>`` in-process; returns the exit code.

    With a tracer, the command runs with the library names it looks up
    wrapped by ``traced_library``.
    """
    traced = traced_library(tracer) if tracer is not None else contextlib.nullcontext()
    with traced, contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["run", str(config_path(name)), "--out", str(out_dir)])


def outputs(name: str, out_dir: Path) -> tuple:
    """The report bytes and, when the config exports one, the grid file's bytes."""
    spec = json.loads(config_path(name).read_text()).get("outputs", {})
    report = (out_dir / spec.get("report", "report.txt")).read_bytes()
    return report, (out_dir / spec["grid"]["path"]).read_bytes() if "grid" in spec else b""


def json_block(report: bytes) -> bytes:
    marker = cli.JSON_MARKER.encode() + b"\n"
    _, _, block = report.partition(marker)
    return block


@contextlib.contextmanager
def traced_library(tracer):
    """Wrap the library names ``cli.cmd_run`` reaches, for the ``with`` block.

    Every backend ``evaluate.default_backend`` hands out (the command's own,
    through ``_pick_backend``, and validation's) comes back as the tracer's
    proxy, which then reaches the library only through the public
    ``backend=`` parameters.  The scenario build, validation, diagnostics and
    grid export are timed under the names ``cli`` and ``scenarios`` look them
    up by, so the command that runs is the shipped one.
    """
    def spanned(span, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with tracer.span(span):
                return fn(*args, **kwargs)
        return call

    def default_backend(*args, **kwargs):
        return tracer.proxy(real_default_backend(*args, **kwargs))

    real_default_backend = evaluate.default_backend
    wrapped = [(evaluate, "default_backend", default_backend),
               (cli, "build_scenario", spanned("scenarios.build", cli.build_scenario)),
               (scenarios, "validate", spanned("hyperplane_measures.validate",
                                               scenarios.validate)),
               (cli, "run_diagnostics", spanned("diagnostics.run", cli.run_diagnostics)),
               (scenarios, "grid_export", spanned("scenarios.grid_export",
                                                  scenarios.grid_export))]
    with contextlib.ExitStack() as stack:
        for module, name, fn in wrapped:
            stack.enter_context(mock.patch.object(module, name, fn))
        yield


STAGES = ("sweep", "cyclic", "cube", "eta", "id_probe")


def traced_stages(tracer, built: Built) -> None:
    """Each public diagnostics stage on the config's plan and traced backend, in its span."""
    nu, plan = built.scenario.measure, built.plan
    backend = tracer.proxy(built.backend)
    f = evaluate.EmbeddingMap(nu, built.scenario.basepoint, backend=backend)
    calls = {
        "sweep": lambda: diagnostics.kappa_hat(nu, plan, backend=backend),
        "cyclic": lambda: diagnostics.cyclic_audit(f, plan),
        "cube": lambda: diagnostics.cube_audit(f, nu, plan),
        "eta": lambda: diagnostics.eta_hat(f, "euclidean", plan),
        "id_probe": lambda: diagnostics.id_qs_probe(nu, plan, backend=backend),
    }
    for stage in STAGES:
        with tracer.span(f"diagnostics.{stage}"):
            calls[stage]()


class AuditCheck:
    """Fails a config run on a nonzero exit code, a JSON block or any other
    output byte that changes between passes (traced ones too), or audit
    values off the stored reference."""

    def __init__(self):
        self.first: dict[str, tuple] = {}
        self.errors: list[str] = []

    def __call__(self, name: str, rc, output: tuple) -> bool:
        """``output`` is the run's (report bytes, grid bytes) from ``outputs``."""
        problem = self._problem(name, rc, output)
        if problem:
            self.errors.append(f"{name}: {problem}")
        return problem is None

    def _problem(self, name: str, rc, output: tuple):
        block = json_block(output[0])
        if rc != 0:
            return f"exit code {rc}" if isinstance(rc, int) else rc
        if not block:
            return "no JSON report block"
        first = self.first.setdefault(name, output)
        if json_block(first[0]) != block:
            return "JSON report block differs from the first pass"
        if first != output:
            return "report text or grid file differs from the first pass"
        return self._off_reference(name, json.loads(block)["report"])

    @staticmethod
    def _off_reference(name: str, report: dict):
        ref = REFERENCE["configs"][name]
        got = {"kappa_hat": report["kappa_hat"], "delta_hat": report["delta_hat"],
               "c_low": report["bilip"]["c_low"], "c_high": report["bilip"]["c_high"],
               "cube_worst": report["cube"]["worst"]}
        rtol = REFERENCE["rtol"]
        for key, value in got.items():
            if not math.isclose(value, ref[key], rel_tol=rtol, abs_tol=0.0):
                return f"{key} = {value!r}, reference {ref[key]!r} (rtol {rtol:g})"
        return None


# ---------------------------------------------------------------------------
# query_churn
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    index: int
    kind: str
    x: np.ndarray        # first point, or the cube center
    y: np.ndarray        # second point, or [edge] for a cube


@dataclass(frozen=True)
class Block:
    """A fresh ``.scaled(factor)`` copy of one family's measure and its queries."""

    family: str
    backend: str         # "default" or "monte_carlo"
    factor: float
    queries: tuple


def sample_pair(plan: SamplingPlan, rng) -> tuple:
    """Two points drawn uniformly from the plan's region."""
    lo, hi = np.asarray(plan.region_lo), np.asarray(plan.region_hi)
    return lo + rng.random(lo.size) * (hi - lo), lo + rng.random(lo.size) * (hi - lo)


def sample_cube(plan: SamplingPlan, rng) -> Cube:
    """A cube in the plan's region, edge and placement drawn as the cube audit draws them."""
    lo, hi = np.asarray(plan.region_lo), np.asarray(plan.region_hi)
    edge = min(math.exp(rng.uniform(*np.log(plan.scale_range))), 0.9 * float(np.min(hi - lo)))
    c_lo, c_hi = lo + 0.5 * edge, hi - 0.5 * edge
    return Cube(c_lo + rng.random(lo.size) * (c_hi - c_lo), edge)


def churn_stream(built: dict, seed: int) -> list:
    """Seeded query stream; its composition is fixed, the seed draws the inputs.

    Every (family, backend) pair gets the same number of blocks, every block
    the same mix of query kinds, and each kind opens the same number of a
    pair's blocks (the opening query pays for a Monte Carlo batch).  Seeds
    change points, cubes, scale factors and order, not how much work a pass
    holds.
    """
    rng = np.random.default_rng(seed)
    combos = [(fam, be) for fam in CHURN_FAMILIES for be in ("default", "monte_carlo")]
    per_kind = QUERIES_PER_BLOCK // len(QUERY_KINDS)
    openers = [list(rng.permutation(np.repeat(QUERY_KINDS, BLOCKS_PER_COMBO // len(QUERY_KINDS))))
               for _ in combos]
    blocks, index = [], 0
    for c in rng.permutation(np.repeat(np.arange(len(combos)), BLOCKS_PER_COMBO)):
        family, backend = combos[c]
        plan = built[CHURN_FAMILIES[family]].plan
        first = openers[c].pop()
        rest = [k for k in QUERY_KINDS for _ in range(per_kind)]
        rest.remove(first)
        queries = []
        for kind in [first, *rng.permutation(rest)]:
            if kind == "cube_mass":
                cube = sample_cube(plan, rng)
                x, y = cube.center, np.array([cube.edge])
            else:
                x, y = sample_pair(plan, rng)
            queries.append(Query(index, str(kind), x, y))
            index += 1
        factor = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        blocks.append(Block(family, backend, factor, tuple(queries)))
    return blocks


def ask(q: Query, nu, f, backend) -> np.ndarray:
    """One public-API query; the answer flattened to floats."""
    if q.kind == "seg_mass":
        return np.array([evaluate.seg_mass(nu, q.x, q.y, backend=backend)])
    if q.kind == "pair_taus":
        return _flat(evaluate.pair_integrals(nu, q.x, q.y, backend=backend, taus=TAU_GRID))
    if q.kind == "cube_mass":
        return np.array([evaluate.cube_mass(nu, Cube(q.x, float(q.y[0])), backend=backend)])
    return np.asarray(f.eval(q.x), dtype=float)


def _flat(p) -> np.ndarray:
    return np.concatenate([[p.mass, p.transversal], p.embed, p.angle])


class ChurnCheck:
    """Checks query answers; the reference is worked out on first sight of a query.

    Every answer is held to something computed independently of it.  A
    default-backend answer must match the closed form on crofton2 and
    ``Exact2D`` on doubling_box (``ClosedForm`` is its default); on
    ba_lebesgue and degenerate_caps, where ``Exact2D`` is the only exact
    backend, it must lie within ``MC_SIGMAS`` standard errors of a Monte
    Carlo answer on the same inputs.  A Monte Carlo answer must lie within
    ``MC_SIGMAS`` standard errors of the exact one.  Every angle profile must
    fall in tau and stay within the segment mass.  Later passes must repeat
    the first answer.
    """

    def __init__(self, built: dict):
        self.built = built
        self.first: dict[int, np.ndarray] = {}
        self.errors: list[str] = []
        self._checker = (None, None)   # (measure, Monte Carlo backend checking it)

    def __call__(self, block: Block, q: Query, nu, backend, answer) -> bool:
        if isinstance(answer, Exception):
            problem = f"raised {answer!r}"
        elif q.index in self.first:
            ref = self.first[q.index]
            ok = ref.shape == answer.shape and np.allclose(answer, ref, rtol=REPEAT_RTOL, atol=0.0)
            problem = None if ok else "answer differs from the first pass"
        else:
            problem = self._first_check(block, q, nu, backend, answer)
            self.first[q.index] = answer
        if problem:
            self.errors.append(f"query {q.index} ({block.family}/{block.backend}/{q.kind}): "
                               f"{problem}")
        return problem is None

    def _first_check(self, block, q, nu, backend, answer):
        built = self.built[CHURN_FAMILIES[block.family]]
        basepoint = built.scenario.basepoint
        if q.kind == "pair_taus":
            problem = _angle_profile_problem(answer)
            if problem:
                return problem
        if block.family == "crofton2":
            exact = _crofton2_closed_form(q, block.factor)
            if block.backend == "default":
                return _compare(answer, exact, "closed form")
        elif block.family == "doubling_box" and block.backend == "default":
            return _compare(answer, _ask_with(q, nu, basepoint, evaluate.Exact2D()), "Exact2D")
        elif block.backend == "default":
            mc = self._checker_for(nu, q.index)
            return _mc_problem(q, nu, mc, built, _ask_with(q, nu, basepoint, mc), answer)
        else:
            exact = _ask_with(q, nu, basepoint, built.backend)
        return _mc_problem(q, nu, backend, built, answer, exact)

    def _checker_for(self, nu, seed: int):
        """One Monte Carlo backend per block's measure, dropped with its batch at the next."""
        if self._checker[0] is not nu:
            self._checker = (nu, evaluate.MonteCarlo(budget=MC_BUDGET, seed=seed))
        return self._checker[1]


def _ask_with(q: Query, nu, basepoint, backend) -> np.ndarray:
    return ask(q, nu, evaluate.EmbeddingMap(nu, basepoint, backend=backend), backend)


def _mc_problem(q: Query, nu, mc, built: Built, estimate, exact):
    """Whether a Monte Carlo estimate lies within ``MC_SIGMAS`` standard errors of ``exact``.

    The angle profile is left out: its high-tau bins hold a handful of
    samples at this budget, and a bin that no sample reaches reports a
    standard error of 0.
    """
    se = _mc_standard_errors(q, nu, mc, built, exact)
    gap = np.abs(estimate[:se.size] - exact[:se.size])
    bad = gap > np.maximum(MC_SIGMAS * se, EXACT_RTOL * np.abs(exact[:se.size]))
    if not np.any(bad):
        return None
    i = int(np.argmax(bad))
    return (f"component {i}: Monte Carlo {estimate[i]!r} is {gap[i]:.3g} from the exact "
            f"{exact[i]!r}, standard error {se[i]:.3g}")


def _angle_profile_problem(answer):
    """Angle masses must fall as tau grows and never exceed the segment mass."""
    mass, angle = answer[0], answer[-len(TAU_GRID):]
    slack = EXACT_RTOL * mass
    if np.all(angle >= -slack) and angle[0] <= mass + slack \
            and np.all(np.diff(angle) <= slack):
        return None
    return f"angle profile not within [0, mass = {mass!r}] and falling in tau"


def _compare(got, want, label):
    if got.shape == want.shape and np.allclose(got, want, rtol=EXACT_RTOL,
                                               atol=EXACT_RTOL * float(np.max(np.abs(want)))):
        return None
    return f"answer {got[:4].tolist()} disagrees with the {label} {want[:4].tolist()}"


def _crofton2_closed_form(q: Query, factor: float) -> np.ndarray:
    """d = (2/pi)|x - y| and f(x) = x/2 (basepoint 0), times the scale factor.

    Angle masses come from the same closed form integrated over the normals
    at angle at least tau to the segment, (2/pi)|x - y| cos(tau).  A cube of
    edge e is hit by lines of measure (1/pi) * perimeter (Cauchy-Crofton).
    """
    if q.kind == "cube_mass":
        return factor * np.array([4.0 * float(q.y[0]) / math.pi])
    if q.kind == "eval":
        return factor * 0.5 * q.x
    r = float(np.linalg.norm(q.x - q.y))
    if q.kind == "seg_mass":
        return factor * np.array([2.0 / math.pi * r])
    return factor * np.concatenate([[2.0 / math.pi * r, 0.5 * r], 0.5 * (q.x - q.y),
                                    2.0 / math.pi * r * np.cos(TAU_GRID)])


def _mc_standard_errors(q: Query, nu, mc, built: Built, exact) -> np.ndarray:
    """Standard errors of a Monte Carlo answer, from the same cached batch.

    Each integrand is the mass integrand times a factor of size at most 1,
    so, up to the small hit fraction, the mass's standard error bounds every
    component's.  Estimated from the samples, either can come out far too
    small when few samples hit a short segment, and is 0 when none does: a
    segment of exact mass m that an expected 3.7 samples hit is missed by
    all of them about once in 40 queries.  So the standard error at the
    exact mass, sqrt(weight * m) for samples of one weight, is a floor too.
    """
    basepoint = built.scenario.basepoint
    if q.kind == "cube_mass":
        own = np.array([mc.cube_mass(nu, Cube(q.x, float(q.y[0])))[1]])
        mass = exact[0]
    elif q.kind == "eval":
        p = mc.pair(nu, q.x, basepoint)
        own = np.maximum(p.embed_se, p.mass_se)
        mass = built.backend.pair(nu, q.x, basepoint).mass
    else:
        p = mc.pair(nu, q.x, q.y)
        own = np.maximum(np.concatenate([[p.mass_se, p.transversal_se], p.embed_se]), p.mass_se)
        own = own[:1] if q.kind == "seg_mass" else own
        mass = exact[0]
    return np.maximum(own, math.sqrt(_sample_weight(mc, nu, built.plan) * max(mass, 0.0)))


def _sample_weight(mc, nu, plan: SamplingPlan) -> float:
    """One Monte Carlo sample's weight: across the plan region many samples hit the
    segment, and there the squared standard error is about weight times mass."""
    p = mc.pair(nu, np.asarray(plan.region_lo, float), np.asarray(plan.region_hi, float))
    return p.mass_se ** 2 / p.mass
