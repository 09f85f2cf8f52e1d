"""Estimators and audits for transversality, monotonicity and bi-Lipschitz bounds.

All estimators report empirical extrema over seeded samples together with
the witness achieving them; they never claim certified global bounds.  One
sampling plan drives every audit, and the segment pool is shared between
the transversality ratio, the angle-threshold profile, the monotonicity
ratio and the bi-Lipschitz ratios, so the chain inequalities relating them
are checked on identical data.

Segments are sampled jointly over positions, directions and log-spaced
lengths: the transversality and quasisymmetry statements are multi-scale,
so short segments must be represented explicitly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from . import evaluate
from .geometry import Cube, cube_vertices, require_int

TAU_GRID = np.round(np.arange(1, 101) * 0.01, 2)
ETA_BUCKET_EDGES = np.logspace(-2.0, 2.0, 33)
CHAIN_SLACK = 1e-10
LIP_SLACK = 1e-12
IDENTITY_REL = 1e-8
# widening of the converse check's bracket, relative to max(mass, 1): a sum
# of n nonnegative terms rounds by at most about n * 1.1e-16 of its value in
# any order, so this covers queries summing over millions of terms
BRACKET_REL = 1e-9
# a config's ``expect`` keys: each bounds one estimate from below (ge) or above (le)
EXPECTATIONS = {"kappa_min": ("kappa", operator.ge), "kappa_max": ("kappa", operator.le),
                "delta_min": ("delta", operator.ge), "c_low_min": ("c_low", operator.ge),
                "c_high_max": ("c_high", operator.le), "tau_min": ("tau", operator.ge)}
# a plan's sample counts, each an integer >= 1 that a config may set
PLAN_COUNTS = ("pair_count", "cycle_count", "cube_count", "triple_count")


@dataclass(frozen=True)
class SamplingPlan:
    """Region, sample counts, length scales and the seed driving all audits."""

    region_lo: tuple
    region_hi: tuple
    pair_count: int = 256
    cycle_count: int = 128
    cube_count: int = 64
    triple_count: int = 256
    scale_range: tuple = (0.05, 0.5)
    seed: int = 0

    def __post_init__(self):
        for key in PLAN_COUNTS:
            object.__setattr__(self, key, require_int(key, getattr(self, key), 1))
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0))
        lo = np.asarray(self.region_lo, dtype=float)
        hi = np.asarray(self.region_hi, dtype=float)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("plan region corners must be finite")
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise ValueError("plan region must be a nonempty box")
        sr = self.scale_range
        if not (np.ndim(sr) == 1 and len(sr) == 2 and np.asarray(sr).dtype.kind in "iuf"
                and 0.0 < sr[0] <= sr[1] < math.inf):
            raise ValueError(f"scale_range must be two finite numbers with 0 < lo <= hi, got {sr}")
        object.__setattr__(self, "region_lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "region_hi", tuple(float(v) for v in hi))

    @property
    def dim(self) -> int:
        return len(self.region_lo)

    def to_dict(self) -> dict:
        # tuples as lists, so the dict equals its JSON round trip
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def _streams(plan: SamplingPlan, count: int = 5):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(plan.seed).spawn(count)]


SCALE_STRATA = 8


def _sample_segments(plan: SamplingPlan, rng: np.random.Generator):
    """Segments with uniform positions/directions and scale-stratified lengths.

    Transversality and quasisymmetry are multi-scale statements, so the
    log-length axis is stratified to guarantee short segments appear in
    every pool rather than only in expectation.
    """
    lo = np.asarray(plan.region_lo)
    hi = np.asarray(plan.region_hi)
    n = lo.size
    centers = lo + rng.random((plan.pair_count, n)) * (hi - lo)
    dirs = rng.standard_normal((plan.pair_count, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    lmin, lmax = plan.scale_range
    strata = np.arange(plan.pair_count) % SCALE_STRATA
    u = (strata + rng.random(plan.pair_count)) / SCALE_STRATA
    lengths = np.exp(math.log(lmin) + u * (math.log(lmax) - math.log(lmin)))
    # shrink each segment so both endpoints stay inside the region
    with np.errstate(divide="ignore"):
        room = np.minimum((hi - centers) / np.abs(dirs), (centers - lo) / np.abs(dirs))
    room = np.where(np.isfinite(room), room, np.inf).min(axis=1)
    half = np.minimum(0.5 * lengths, 0.999 * room)
    half = np.maximum(half, 1e-9)
    return centers - half[:, None] * dirs, centers + half[:, None] * dirs


def _sample_points(plan, rng, count):
    lo = np.asarray(plan.region_lo)
    hi = np.asarray(plan.region_hi)
    return lo + rng.random((count, lo.size)) * (hi - lo)


def _sample_cubes(plan: SamplingPlan, rng: np.random.Generator):
    lo = np.asarray(plan.region_lo)
    hi = np.asarray(plan.region_hi)
    lmin, lmax = plan.scale_range
    cubes = []
    for _ in range(plan.cube_count):
        edge = math.exp(rng.uniform(math.log(lmin), math.log(lmax)))
        edge = min(edge, 0.9 * float(np.min(hi - lo)))
        c_lo = lo + 0.5 * edge
        c_hi = hi - 0.5 * edge
        center = c_lo + rng.random(lo.size) * (c_hi - c_lo)
        cubes.append(Cube(center, edge))
    return cubes


# ---------------------------------------------------------------------------
# the shared per-segment sweep
# ---------------------------------------------------------------------------

@dataclass
class _SegmentSweep:
    xs: np.ndarray
    ys: np.ndarray
    mass: np.ndarray
    trans: np.ndarray
    emb: np.ndarray
    angle: np.ndarray  # (pairs, len(TAU_GRID))
    mass_se: np.ndarray | None = None  # (pairs,), nan where the answer is exact

    @property
    def emb_norm(self) -> np.ndarray:
        return np.linalg.norm(self.emb, axis=1)

    @property
    def seg_len(self) -> np.ndarray:
        return np.linalg.norm(self.xs - self.ys, axis=1)


def _segment_sweep(nu, plan: SamplingPlan, backend) -> _SegmentSweep:
    rng = _streams(plan)[0]
    xs, ys = _sample_segments(plan, rng)
    mass = np.empty(len(xs))
    trans = np.empty(len(xs))
    emb = np.empty((len(xs), plan.dim))
    angle = np.empty((len(xs), len(TAU_GRID)))
    mass_se = np.empty(len(xs))
    for i, p in enumerate(evaluate.pair_many(backend, nu, xs, ys, taus=TAU_GRID)):
        mass[i], trans[i], emb[i], angle[i] = p.mass, p.transversal, p.embed, p.angle
        mass_se[i] = math.nan if p.mass_se is None else p.mass_se
    return _SegmentSweep(xs, ys, mass, trans, emb, angle, mass_se)


def _witness_pair(sweep: _SegmentSweep, i: int) -> dict:
    return {
        "x": sweep.xs[i].tolist(),
        "y": sweep.ys[i].tolist(),
        "mass": float(sweep.mass[i]),
        "transversal": float(sweep.trans[i]),
        "embed_gap": float(sweep.emb_norm[i]),
    }


# ---------------------------------------------------------------------------
# estimators and audits (each redraws its pool from the plan seed; run_diagnostics
# draws each pool once, shares it between its audits, and alone reports tau and delta)
# ---------------------------------------------------------------------------

def kappa_hat(nu, plan: SamplingPlan, *, backend=None):
    """Worst sampled ratio (sin-alpha integral) / (segment mass), with witness."""
    backend = backend or evaluate.default_backend(nu, seed=plan.seed)
    return _kappa_from_sweep(_segment_sweep(nu, plan, backend))


def _kappa_from_sweep(sweep: _SegmentSweep):
    """Smallest ratio (sin-alpha integral) / (segment mass), with witness.

    A sampled segment without mass is an error: the measure is degenerate,
    or, when its answer carries a standard error, the Monte Carlo batch drew
    no hyperplane across it.
    """
    if not np.all(sweep.mass > 0.0):
        i = int(np.argmin(sweep.mass))
        estimated = sweep.mass_se is not None and not math.isnan(sweep.mass_se[i])
        what = ("sampled segment has zero estimated hyperplane mass: the Monte Carlo batch "
                "drew no hyperplane across it, so a larger backend.budget is needed"
                if estimated else "sampled segment has zero hyperplane mass")
        raise evaluate.DegenerateConfigurationError(f"{what}: {_witness_pair(sweep, i)}")
    ratios = sweep.trans / sweep.mass
    i = int(np.argmin(ratios))
    return float(ratios[i]), _witness_pair(sweep, i)


def _tau_from_sweep(sweep: _SegmentSweep):
    ok = np.all(sweep.angle >= TAU_GRID[None, :] * sweep.mass[:, None], axis=0)
    idx = np.nonzero(ok)[0]
    tau = float(TAU_GRID[idx[-1]]) if idx.size else 0.0
    # witness: the segment blocking the next grid step (absent when saturated)
    nxt = idx[-1] + 1 if idx.size else 0
    if nxt >= len(TAU_GRID):
        return tau, None
    margins = sweep.angle[:, nxt] - TAU_GRID[nxt] * sweep.mass
    i = int(np.argmin(margins))
    witness = _witness_pair(sweep, i)
    witness["blocked_tau"] = float(TAU_GRID[nxt])
    witness["margin"] = float(margins[i])
    return tau, witness


def _delta_from_sweep(sweep: _SegmentSweep):
    gaps = sweep.emb_norm
    if np.any(gaps == 0.0):
        i = int(np.argmin(gaps))
        raise evaluate.DegenerateConfigurationError(
            f"embedding is not injective on a sampled pair: {_witness_pair(sweep, i)}")
    inner = np.einsum("ij,ij->i", sweep.emb, sweep.xs - sweep.ys)
    ratios = inner / (gaps * sweep.seg_len)
    i = int(np.argmin(ratios))
    return float(ratios[i]), _witness_pair(sweep, i)


def bilip_bounds(f: evaluate.EmbeddingMap, nu, plan: SamplingPlan):
    """Extremal sampled ratios |f(x)-f(y)| / d(x, y) with witnesses."""
    sweep = _segment_sweep(nu, plan, f.backend)
    return _bilip_from_sweep(sweep)


def _bilip_from_sweep(sweep: _SegmentSweep):
    ratios = sweep.emb_norm / sweep.mass
    i_lo = int(np.argmin(ratios))
    i_hi = int(np.argmax(ratios))
    return (float(ratios[i_lo]), float(ratios[i_hi]),
            {"low": _witness_pair(sweep, i_lo), "high": _witness_pair(sweep, i_hi)})


def cyclic_audit(f: evaluate.EmbeddingMap, plan: SamplingPlan):
    """Worst cyclic sum, normalized by the cycle's natural magnitude."""
    rng = _streams(plan)[1]
    cycles = [_sample_points(plan, rng, int(rng.integers(2, 9))) for _ in range(plan.cycle_count)]
    images = np.split(f.eval_many(np.concatenate(cycles)),
                      np.cumsum([len(pts) for pts in cycles[:-1]]))
    worst = -math.inf
    witness = None
    for pts, vals in zip(cycles, images):
        nxt = np.roll(pts, -1, axis=0)
        total = float(np.einsum("ij,ij->", vals, nxt - pts))
        scale = float(np.sum(np.linalg.norm(vals, axis=1) * np.linalg.norm(nxt - pts, axis=1)))
        scaled = total / max(scale, 1e-300)
        if scaled > worst:
            worst = scaled
            witness = {"points": pts.tolist(), "cycle_sum": total, "scale": scale}
    return worst, witness


def cube_audit(f: evaluate.EmbeddingMap, nu, plan: SamplingPlan):
    """Worst ratio (diameter of the embedded vertex set) / (cube hyperplane mass)."""
    rng = _streams(plan)[2]
    cubes = _sample_cubes(plan, rng)
    # taken in query order: a cube without mass ends the audit, and no later answer is read
    masses = evaluate.fan_out(nu, ((f.backend.cube_mass, nu, q) for q in cubes))
    vertices = [v for q in cubes for v in cube_vertices(q)]
    images = evaluate.pair_many(f.backend, f.measure, vertices, [f.basepoint] * len(vertices))
    worst = math.inf
    witness = None
    for q in cubes:
        mass = next(masses).mass
        if mass <= 0.0:
            return 0.0, {"center": q.center.tolist(), "edge": q.edge, "mass": mass}
        imgs = np.stack([next(images).embed for _ in range(2 ** q.dim)])
        diam = float(np.max(np.linalg.norm(imgs[:, None, :] - imgs[None, :, :], axis=2)))
        ratio = diam / mass
        if ratio < worst:
            worst = ratio
            witness = {"center": q.center.tolist(), "edge": q.edge,
                       "mass": mass, "vertex_diameter": diam}
    return worst, witness


def cube_bound(n: int) -> float:
    """The vertex-pair pigeonhole constant 4^-n / sqrt(n)."""
    return 4.0 ** (-n) / math.sqrt(n)


def eta_hat(f: evaluate.EmbeddingMap, metric: str, plan: SamplingPlan):
    """Empirical quasisymmetry envelope of f over sampled triples.

    ``metric`` picks the domain distance defining t = d(x,a)/d(x,b):
    "euclidean" or "projective" (the hyperplane-measure metric).  Returns
    per-bucket maxima of |f(x)-f(a)| / |f(x)-f(b)| plus the skipped-triple
    count; empty buckets are omitted, never interpolated.
    """
    if metric not in ("euclidean", "projective"):
        raise ValueError("metric must be 'euclidean' or 'projective'")
    return _envelope(_sample_triples(f.measure, f.backend, plan), metric, image="embed")


def id_qs_probe(nu, plan: SamplingPlan, *, backend=None):
    """Envelope of the identity map from the projective metric to the Euclidean one."""
    backend = backend or evaluate.default_backend(nu, seed=plan.seed)
    return _envelope(_sample_triples(nu, backend, plan), "projective", image="euclidean")


def _sample_triples(nu, backend, plan):
    """The plan's triples (x, a, b) with the answers to pair(x, a) and pair(x, b).

    Returns the answered triples and the count of triples skipped because x
    coincides with a or b; both envelopes are built from these answers.
    """
    rng = _streams(plan)[3]
    triples = [_sample_points(plan, rng, 3) for _ in range(plan.triple_count)]
    kept = [(x, a, b) for x, a, b in triples if not (np.all(x == a) or np.all(x == b))]
    answers = evaluate.pair_many(backend, nu, [x for x, _, _ in kept for _ in (0, 1)],
                                 [p for _, a, b in kept for p in (a, b)])
    # zip takes pair(x, a), then pair(x, b), from the one stream of answers
    answered = [(*t, pa, pb) for t, pa, pb in zip(kept, answers, answers)]
    return answered, len(triples) - len(kept)


def _envelope(triples, metric: str, image: str):
    """Per-bucket maxima for one (metric, image) choice over answered triples; asks nothing."""
    answered, skipped = triples
    if not answered:
        return [], skipped
    xs, as_, bs, pas, pbs = zip(*answered)

    def sizes(kind):
        # the (numerator, denominator) of every triple, norms taken in one array pass
        if kind == "projective":
            return [p.mass for p in pas], [p.mass for p in pbs]
        if kind == "embed":
            rows = np.array([p.embed for p in pas + pbs])
        else:
            rows = np.concatenate([np.subtract(xs, as_), np.subtract(xs, bs)])
        return evaluate._norms(rows).reshape(2, -1).tolist()

    buckets: dict[int, dict] = {}
    for t_num, t_den, r_num, r_den in zip(*sizes(metric), *sizes(image)):
        if t_den == 0.0 or r_den == 0.0:
            skipped += 1
            continue
        t = t_num / t_den
        ratio = r_num / r_den
        idx = int(np.searchsorted(ETA_BUCKET_EDGES, t, side="right")) - 1
        if idx < 0 or idx >= len(ETA_BUCKET_EDGES) - 1:
            skipped += 1
            continue
        cur = buckets.get(idx)
        if cur is None or ratio > cur["max_ratio"]:
            buckets[idx] = {"bucket_lo": float(ETA_BUCKET_EDGES[idx]),
                            "bucket_hi": float(ETA_BUCKET_EDGES[idx + 1]),
                            "t": t, "max_ratio": ratio,
                            "count": (cur["count"] + 1) if cur else 1}
        else:
            cur["count"] += 1
    curve = [buckets[k] for k in sorted(buckets)]
    return curve, skipped


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsReport:
    """The ``report`` object of ``busemetric run``'s JSON block, one field per key;
    ``run_diagnostics`` names each section's keys."""

    scenario: str
    backend: str
    plan: dict
    kappa_hat: float
    kappa_witness: dict
    tau_hat: float
    tau_witness: dict | None
    delta_hat: float
    delta_witness: dict
    bilip: dict
    cyclic: dict
    cube: dict
    eta: dict
    id_probe: dict
    audits: list = field(default_factory=list)

    def passed(self) -> bool:
        return all(a["passed"] for a in self.audits)

    def to_dict(self) -> dict:
        return asdict(self)

    def render_text(self) -> str:
        lines = [
            f"scenario  : {self.scenario}",
            f"backend   : {self.backend}",
            f"kappa_hat : {self.kappa_hat:.12g}",
            f"tau_hat   : {self.tau_hat:.12g}",
            f"delta_hat : {self.delta_hat:.12g}",
            f"bilip     : c_low={self.bilip['c_low']:.12g} c_high={self.bilip['c_high']:.12g}",
            f"cyclic    : worst normalized sum {self.cyclic['worst']:.3e}",
            f"cube      : worst ratio {self.cube['worst']:.6g} (bound {self.cube['bound']:.6g})",
            "audits    :",
        ]
        for a in self.audits:
            flag = "PASS" if a["passed"] else "FAIL"
            lines.append(f"  [{flag}] {a['name']}: value={a['value']:.6g} bound={a['bound']:.6g}")
        return "\n".join(lines)


def _converse_check(nu, backend, sweep: _SegmentSweep, tau_star: float):
    """Smallest margin angle(tau*) - tau* mass over the pool, and whether none fails.

    The angle mass does not rise with tau, so the sweep's column at the first
    grid threshold >= tau*, less ``BRACKET_REL * max(mass, 1)`` for summation
    order, bounds each margin from below.  In ascending order of that bound a
    pair is asked unless its bound exceeds the smallest margin so far and
    cannot fail; an asked pair gets the full pass's query, so the bits hold.
    """
    scale = np.maximum(sweep.mass, 1.0)
    g = int(np.searchsorted(TAU_GRID, tau_star))  # tau* <= 0.5 since kappa <= 1
    floor = sweep.angle[:, g] - tau_star * sweep.mass - BRACKET_REL * scale
    margin = math.inf
    ok = True
    for i in np.argsort(floor, kind="stable"):
        if floor[i] > margin and floor[i] >= -CHAIN_SLACK * scale[i]:
            continue
        p = backend.pair(nu, sweep.xs[i], sweep.ys[i], taus=[tau_star])
        m = float(p.angle[0]) - tau_star * sweep.mass[i]
        margin = min(margin, m)
        if m < -CHAIN_SLACK * scale[i]:
            ok = False
    return margin, ok


def run_diagnostics(nu, basepoint, plan: SamplingPlan, *, backend=None,
                    name: str = "", expectations: dict | None = None) -> DiagnosticsReport:
    """Run every estimator off one plan and check the built-in consistency chain.

    Each pool is drawn and asked once: the segment sweep feeds every
    pairwise estimator and audit, one triple pass feeds both the eta and the
    id-probe envelopes, and the converse check at tau* = kappa/2 re-asks only
    the pairs the sweep's angle profile cannot settle.
    """
    backend = backend or evaluate.default_backend(nu, seed=plan.seed)
    f = evaluate.EmbeddingMap(nu, basepoint, backend=backend)
    sweep = _segment_sweep(nu, plan, backend)

    audits: list[dict] = []

    def audit(name_, value, bound, passed, witness=None):
        entry = {"name": name_, "value": float(value), "bound": float(bound),
                 "passed": bool(passed)}
        if witness is not None:
            entry["witness"] = witness
        audits.append(entry)

    kappa, kappa_witness = _kappa_from_sweep(sweep)
    audit("segment_mass_positive", float(np.min(sweep.mass)), 0.0, True)
    tau, tau_witness = _tau_from_sweep(sweep)
    delta, delta_witness = _delta_from_sweep(sweep)
    c_low, c_high, bilip_wit = _bilip_from_sweep(sweep)

    # identity and two-sided bounds on the shared pool
    inner = np.einsum("ij,ij->i", sweep.emb, sweep.xs - sweep.ys)
    target = sweep.seg_len * sweep.trans
    rel = np.abs(inner - target) / np.maximum(np.abs(target), 1e-300)
    i_r = int(np.argmax(rel))
    audit("identity_residual", float(rel[i_r]), IDENTITY_REL, bool(rel[i_r] <= IDENTITY_REL),
          _witness_pair(sweep, i_r))
    upper_gap = sweep.emb_norm - sweep.mass
    i_u = int(np.argmax(upper_gap))
    audit("lipschitz_upper", float(upper_gap[i_u]), LIP_SLACK,
          bool(upper_gap[i_u] <= LIP_SLACK), _witness_pair(sweep, i_u))
    lower_gap = sweep.trans - sweep.emb_norm
    i_l = int(np.argmax(lower_gap))
    audit("transversal_lower", float(lower_gap[i_l]), LIP_SLACK,
          bool(lower_gap[i_l] <= LIP_SLACK), _witness_pair(sweep, i_l))

    # chain: per-pair monotonicity dominates per-pair transversality
    gaps = sweep.emb_norm
    delta_pairs = inner / np.maximum(gaps * sweep.seg_len, 1e-300)
    margin = delta_pairs - sweep.trans / sweep.mass
    i_m = int(np.argmin(margin))
    audit("delta_vs_kappa_pairwise", float(margin[i_m]), -CHAIN_SLACK,
          bool(margin[i_m] >= -CHAIN_SLACK), _witness_pair(sweep, i_m))
    audit("kappa_vs_tau", kappa - tau * math.sin(tau), -CHAIN_SLACK,
          kappa >= tau * math.sin(tau) - CHAIN_SLACK)
    audit("bilip_low_vs_kappa", c_low - kappa, -CHAIN_SLACK, c_low >= kappa - CHAIN_SLACK)
    audit("bilip_high", c_high, 1.0 + LIP_SLACK, c_high <= 1.0 + LIP_SLACK)

    # converse threshold test at tau* = kappa/2 on the same segments
    conv_margin, conv_ok = _converse_check(nu, backend, sweep, 0.5 * kappa)
    audit("tau_converse_at_half_kappa", conv_margin, -CHAIN_SLACK, conv_ok)

    cyc_worst, cyc_witness = cyclic_audit(f, plan)
    audit("cyclic_monotonicity", cyc_worst, CHAIN_SLACK, cyc_worst <= CHAIN_SLACK, cyc_witness)

    cube_worst, cube_witness = cube_audit(f, nu, plan)
    bound = cube_bound(plan.dim)
    audit("cube_noncollapsing", cube_worst, bound - CHAIN_SLACK,
          cube_worst >= bound - CHAIN_SLACK, cube_witness)

    triples = _sample_triples(nu, backend, plan)
    eta_curve, eta_skipped = _envelope(triples, "euclidean", image="embed")
    id_curve, id_skipped = _envelope(triples, "projective", image="euclidean")

    estimates = {"kappa": kappa, "delta": delta, "c_low": c_low, "c_high": c_high, "tau": tau}
    for key, val in (expectations or {}).items():
        if key not in EXPECTATIONS:
            raise ValueError(f"unknown expectation {key!r}")
        estimate, cmp = EXPECTATIONS[key]
        value = estimates[estimate]
        audit(f"expect.{key}", value, val, cmp(value, val),
              kappa_witness if estimate == "kappa" else None)

    return DiagnosticsReport(
        scenario=name,
        backend=getattr(backend, "name", "unknown"),
        plan=plan.to_dict(),
        kappa_hat=kappa,
        kappa_witness=kappa_witness,
        tau_hat=tau,
        tau_witness=tau_witness,
        delta_hat=delta,
        delta_witness=delta_witness,
        bilip={"c_low": c_low, "c_high": c_high, "witnesses": bilip_wit},
        cyclic={"worst": cyc_worst, "witness": cyc_witness},
        cube={"worst": cube_worst, "bound": bound, "witness": cube_witness},
        eta={"curve": eta_curve, "skipped": eta_skipped},
        id_probe={"curve": id_curve, "skipped": id_skipped},
        audits=audits,
    )
