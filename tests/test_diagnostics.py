import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from busemetric import (BaseMeasure1D, EmbeddingMap, MonteCarlo, OffsetDirection,
                        SymmetricCap, UniformDirections, cli, crofton, degenerate_caps,
                        diagnostics, run_diagnostics)
from busemetric.diagnostics import (TAU_GRID, SamplingPlan, _SegmentSweep, bilip_bounds,
                                    cube_bound, cyclic_audit, eta_hat, id_qs_probe,
                                    kappa_hat)


def crofton_plan(seed=11, **kw):
    base = dict(region_lo=(-1.0, -1.0), region_hi=(1.0, 1.0), pair_count=80,
                cycle_count=40, cube_count=20, triple_count=80,
                scale_range=(0.02, 0.5), seed=seed)
    base.update(kw)
    return SamplingPlan(**base)


@pytest.fixture(scope="module")
def crofton_report():
    sc = crofton(2)
    return run_diagnostics(sc.measure, sc.basepoint, crofton_plan(), name=sc.name)


def test_crofton_closed_form_anchors(crofton_report):
    rep = crofton_report
    assert rep.kappa_hat == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert rep.delta_hat == pytest.approx(1.0, abs=1e-9)
    assert rep.bilip["c_low"] == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert rep.bilip["c_high"] == pytest.approx(math.pi / 4.0, abs=1e-12)
    # largest grid threshold with cos(tau) >= tau: the fixed point of cosine
    # lies in (0.73, 0.74)
    assert rep.tau_hat == 0.73
    assert rep.cube["worst"] == pytest.approx(math.pi * math.sqrt(2.0) / 8.0, abs=1e-9)
    assert rep.passed()


def test_crofton_eta_envelope_is_linear(crofton_report):
    for bucket in crofton_report.eta["curve"]:
        assert bucket["max_ratio"] == pytest.approx(bucket["t"], abs=1e-9)
    for bucket in crofton_report.id_probe["curve"]:
        # identity from the projective metric to the Euclidean one rescales
        # both legs by the same factor, so the envelope is linear as well
        assert bucket["max_ratio"] == pytest.approx(bucket["t"], abs=1e-9)
    ratios = [b["max_ratio"] for b in crofton_report.eta["curve"]]
    assert ratios == sorted(ratios)


def test_witnesses_reproduce_reported_extrema(crofton_report):
    rep = crofton_report
    w = rep.kappa_witness
    assert w["transversal"] / w["mass"] == pytest.approx(rep.kappa_hat, rel=1e-12)
    lo = rep.bilip["witnesses"]["low"]
    assert lo["embed_gap"] / lo["mass"] == pytest.approx(rep.bilip["c_low"], rel=1e-12)


def test_report_deterministic_and_serializable(crofton_report):
    sc = crofton(2)
    again = run_diagnostics(sc.measure, sc.basepoint, crofton_plan(), name=sc.name)
    assert json.dumps(crofton_report.to_dict(), sort_keys=True) == \
        json.dumps(again.to_dict(), sort_keys=True)
    text = crofton_report.render_text()
    assert "kappa_hat" in text and "[PASS]" in text


def test_kappa_is_one_on_orthogonal_concentration():
    # directions concentrated on normals parallel to the probed segments
    nu = OffsetDirection(SymmetricCap((1.0, 0.0), 0.01),
                         BaseMeasure1D.lebesgue(-20, 20, 1.0))
    from busemetric.evaluate import pair_integrals
    p = pair_integrals(nu, np.array([-0.5, 0.0]), np.array([0.5, 0.0]))
    assert p.transversal / p.mass >= 0.9999


def test_kappa_cap_bound_on_parallel_segments():
    # a single cap leaves segments parallel to its hyperplanes nearly
    # invisible: their transversality ratio is at most sin(theta0)
    theta0 = 0.3
    nu = OffsetDirection(SymmetricCap((1.0, 0.0), theta0),
                         BaseMeasure1D.lebesgue(-20, 20, 1.0))
    from busemetric.evaluate import pair_integrals
    p = pair_integrals(nu, np.array([0.0, -0.5]), np.array([0.0, 0.5]))
    assert p.transversal / p.mass <= math.sin(theta0) + 1e-12


def test_individual_estimators_share_the_pool():
    sc = crofton(2)
    plan = crofton_plan(seed=23)
    k, kw = kappa_hat(sc.measure, plan)
    f = EmbeddingMap(sc.measure, sc.basepoint)
    lo, hi, _ = bilip_bounds(f, sc.measure, plan)
    rep = run_diagnostics(sc.measure, sc.basepoint, plan)
    t, d = rep.tau_hat, rep.delta_hat
    assert (k, kw) == (rep.kappa_hat, rep.kappa_witness)
    assert (lo, hi) == (rep.bilip["c_low"], rep.bilip["c_high"])
    assert k == pytest.approx(math.pi / 4, abs=1e-12)
    assert d == pytest.approx(1.0, abs=1e-9)
    assert lo <= hi <= 1.0
    assert k >= t * math.sin(t) - 1e-10
    assert lo >= k - 1e-10


def test_cyclic_audit_pair_case_and_symmetries():
    sc = crofton(2)
    f = EmbeddingMap(sc.measure, sc.basepoint)
    # m = 2: the cyclic sum collapses to -<f(x)-f(y), x-y>, plain monotonicity
    x, y = np.array([0.3, -0.2]), np.array([-0.5, 0.6])
    s = float(f.eval(x) @ (y - x)) + float(f.eval(y) @ (x - y))
    assert s == pytest.approx(-float((f.eval(x) - f.eval(y)) @ (x - y)), abs=1e-14)
    assert s <= 0.0
    # linear map: the cycle sum is -(1/2n) * sum of squared steps
    rng = np.random.default_rng(31)
    pts = rng.uniform(-1, 1, (5, 2))
    vals = np.stack([f.eval(p) for p in pts])
    nxt = np.roll(pts, -1, axis=0)
    total = float(np.einsum("ij,ij->", vals, nxt - pts))
    expected = -0.25 * float(np.sum(np.linalg.norm(nxt - pts, axis=1) ** 2))
    assert total == pytest.approx(expected, abs=1e-12)
    # cyclic permutation preserves the sum; reversal stays within tolerance
    perm = np.roll(pts, 2, axis=0)
    vals_p = np.stack([f.eval(p) for p in perm])
    total_p = float(np.einsum("ij,ij->", vals_p, np.roll(perm, -1, axis=0) - perm))
    assert total_p == pytest.approx(total, abs=1e-12)
    rev = pts[::-1]
    vals_r = np.stack([f.eval(p) for p in rev])
    total_r = float(np.einsum("ij,ij->", vals_r, np.roll(rev, -1, axis=0) - rev))
    assert total_r <= 1e-10


def test_cyclic_audit_runs(crofton_report):
    sc = crofton(2)
    f = EmbeddingMap(sc.measure, sc.basepoint)
    worst, witness = cyclic_audit(f, crofton_plan())
    assert worst <= 1e-10
    assert "points" in witness


def test_cube_bound_constants():
    assert cube_bound(2) == pytest.approx(4.0 ** -2 / math.sqrt(2.0), rel=1e-14)
    assert cube_bound(2) == pytest.approx(0.0441941738, abs=1e-9)
    assert cube_bound(3) == pytest.approx(4.0 ** -3 / math.sqrt(3.0), rel=1e-14)
    assert cube_bound(3) == pytest.approx(0.00902, abs=1e-5)


def test_degenerate_family_bilip_contrast():
    plan = SamplingPlan(region_lo=(-0.3, -0.3), region_hi=(0.3, 0.3), pair_count=60,
                        cycle_count=10, cube_count=8, triple_count=20,
                        scale_range=(0.02, 0.25), seed=17)
    reports = {}
    for theta in (0.4, 0.05):
        sc = degenerate_caps(theta, levels=5)
        reports[theta] = run_diagnostics(sc.measure, sc.basepoint, plan, name=sc.name)
    assert reports[0.05].kappa_hat < reports[0.4].kappa_hat
    assert reports[0.05].bilip["c_low"] < reports[0.4].bilip["c_low"]
    for rep in reports.values():
        assert rep.bilip["c_high"] <= 1.0 + 1e-12
        assert rep.passed()
    # the identity-map envelope spreads as the caps narrow
    def spread(rep):
        return max(b["max_ratio"] / b["t"] for b in rep.id_probe["curve"])
    assert spread(reports[0.05]) > spread(reports[0.4])


def test_eta_hat_projective_metric_choice():
    sc = crofton(2)
    f = EmbeddingMap(sc.measure, sc.basepoint)
    curve, skipped = eta_hat(f, "projective", crofton_plan(seed=41))
    for bucket in curve:
        # projective t rescales Euclidean t by 1 for this isotropic measure
        assert bucket["max_ratio"] == pytest.approx(bucket["t"], abs=1e-9)
    with pytest.raises(ValueError):
        eta_hat(f, "hyperbolic", crofton_plan())


def test_id_probe_matches_eta_of_identity():
    sc = crofton(2)
    curve, skipped = id_qs_probe(sc.measure, crofton_plan(seed=43))
    assert curve, "identity probe produced no buckets"
    for bucket in curve:
        assert bucket["max_ratio"] == pytest.approx(bucket["t"], abs=1e-9)


def test_expectations_audit():
    sc = crofton(2)
    rep = run_diagnostics(sc.measure, sc.basepoint, crofton_plan(),
                          name=sc.name, expectations={"kappa_min": 0.9})
    assert not rep.passed()
    failing = [a for a in rep.audits if not a["passed"]]
    assert failing[0]["name"] == "expect.kappa_min"
    assert "witness" in failing[0]
    with pytest.raises(ValueError):
        run_diagnostics(sc.measure, sc.basepoint, crofton_plan(),
                        expectations={"bogus": 1.0})


def test_ba_envelope_anchors():
    # seed-fixed regression anchors from the first run: the axis-extension
    # embedding keeps a bounded quasisymmetry envelope on the sampled window.
    # Across numpy/BLAS builds and CPUs the anchors hold to a few ulps, not
    # bit for bit: numpy's runtime SIMD dispatch for float64 sin/cos/arctan2
    # (NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR X86_V4" moves the eta
    # maximum by -4 ulp) and OpenBLAS's runtime ddot kernel
    # (OPENBLAS_CORETYPE=Sandybridge moves it by -3 ulp and the id-probe
    # maximum by -1) each shift them. 16 ulp is 4x the largest measured
    # spread and at most 3.6e-15 relative, far below what a change to nodes,
    # cuts or sampling would move.
    from busemetric import BaseMeasure1D, beurling_ahlfors
    sc = beurling_ahlfors(BaseMeasure1D.lebesgue(-30.0, 30.0, 1.0), window_half=3.0)
    plan = SamplingPlan(region_lo=(-2.0, 0.1), region_hi=(2.0, 1.5),
                        pair_count=60, triple_count=200, scale_range=(0.05, 0.8),
                        seed=555)
    curve, skipped = eta_hat(sc.embedding(), "euclidean", plan)
    window = [b["max_ratio"] for b in curve if 0.1 <= b["t"] <= 10.0]
    assert skipped == 0
    assert max(window) < 40.0
    assert abs(max(window) - 38.774750431528204) <= 16 * np.spacing(38.774750431528204)
    id_curve, _ = id_qs_probe(sc.measure, plan)
    id_window = [b["max_ratio"] for b in id_curve if 0.1 <= b["t"] <= 10.0]
    assert abs(max(id_window) - 7.195182560381117) <= 16 * np.spacing(7.195182560381117)


def test_sampler_measure_full_diagnostics():
    # the MC backend shares one batch across every query, so even an opaque
    # sampler measure passes the structural audit chain
    import math as _math
    from busemetric import MonteCarlo, SamplerMeasure
    span = 12.0

    def sample(rng, m):
        phi = rng.random(m) * _math.pi
        normals = np.column_stack([np.cos(phi), np.sin(phi)])
        offsets = rng.uniform(-span, span, m)
        return normals, offsets, np.full(m, 2.0 * span)

    nu = SamplerMeasure(2, sample, bounding_lo=(-1.0, -1.0), bounding_hi=(1.0, 1.0))
    plan = SamplingPlan(region_lo=(-1.0, -1.0), region_hi=(1.0, 1.0), pair_count=60,
                        cycle_count=20, cube_count=12, triple_count=30,
                        scale_range=(0.05, 0.5), seed=888)
    rep = run_diagnostics(nu, np.zeros(2), plan,
                          backend=MonteCarlo(budget=60_000, seed=777), name="sampler")
    assert rep.passed(), [a["name"] for a in rep.audits if not a["passed"]]
    # the sampler wraps the isotropic measure, so kappa sits near pi/4
    assert rep.kappa_hat == pytest.approx(_math.pi / 4.0, abs=0.08)
    assert rep.bilip["c_high"] <= 1.0 + 1e-12
    assert rep.cyclic["worst"] <= 1e-10


def test_report_scale_equivariance():
    # scaling the measure's weights rescales distances and the embedding but
    # leaves every ratio-valued report entry unchanged
    from busemetric import BaseMeasureND, PositionDirection
    mu = BaseMeasureND(2, atoms=[((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0), ((0.4, -2.2), 1.5)])
    nu = PositionDirection(mu, UniformDirections(2))
    plan = SamplingPlan(region_lo=(-0.4, -0.4), region_hi=(0.4, 0.4), pair_count=50,
                        cycle_count=16, cube_count=10, triple_count=30,
                        scale_range=(0.02, 0.3), seed=37)
    o = np.zeros(2)
    a = run_diagnostics(nu, o, plan, name="base")
    b = run_diagnostics(nu.scaled(7.3), o, plan, name="scaled")
    assert b.kappa_hat == pytest.approx(a.kappa_hat, abs=1e-10)
    assert b.tau_hat == a.tau_hat
    assert b.delta_hat == pytest.approx(a.delta_hat, abs=1e-10)
    assert b.bilip["c_low"] == pytest.approx(a.bilip["c_low"], abs=1e-10)
    assert b.bilip["c_high"] == pytest.approx(a.bilip["c_high"], abs=1e-10)
    assert b.cube["worst"] == pytest.approx(a.cube["worst"], abs=1e-10)
    for ba, bb in zip(a.eta["curve"], b.eta["curve"]):
        assert bb["max_ratio"] == pytest.approx(ba["max_ratio"], abs=1e-10)


def test_report_translation_equivariance():
    from busemetric import BaseMeasureND, PositionDirection
    atoms = [((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0), ((0.4, -2.2), 1.5)]
    nu = PositionDirection(BaseMeasureND(2, atoms=atoms), UniformDirections(2))
    shift = np.array([11.0, -6.0])
    moved = PositionDirection(BaseMeasureND(2, atoms=[(np.add(p, shift), w) for p, w in atoms]),
                              UniformDirections(2))
    plan = SamplingPlan(region_lo=(-0.4, -0.4), region_hi=(0.4, 0.4), pair_count=50,
                        cycle_count=16, cube_count=10, triple_count=30,
                        scale_range=(0.02, 0.3), seed=39)
    plan_shifted = SamplingPlan(region_lo=tuple(np.asarray(plan.region_lo) + shift),
                                region_hi=tuple(np.asarray(plan.region_hi) + shift),
                                pair_count=50, cycle_count=16, cube_count=10,
                                triple_count=30, scale_range=(0.02, 0.3), seed=39)
    a = run_diagnostics(nu, np.zeros(2), plan, name="base")
    b = run_diagnostics(moved, shift, plan_shifted, name="moved")
    assert b.kappa_hat == pytest.approx(a.kappa_hat, abs=1e-10)
    assert b.tau_hat == a.tau_hat
    assert b.delta_hat == pytest.approx(a.delta_hat, abs=1e-10)
    assert b.bilip["c_low"] == pytest.approx(a.bilip["c_low"], abs=1e-10)
    assert b.bilip["c_high"] == pytest.approx(a.bilip["c_high"], abs=1e-10)
    assert b.cyclic["worst"] == pytest.approx(a.cyclic["worst"], abs=1e-10)
    assert b.cube["worst"] == pytest.approx(a.cube["worst"], abs=1e-10)


def test_degenerate_segment_is_surfaced():
    # a direction support disjoint from the wedges subtended at the only atom
    # leaves sampled segments with exactly zero mass; the witness is surfaced
    from busemetric import ArcDensity2D, BaseMeasureND, PositionDirection
    from busemetric.geometry import DegenerateConfigurationError
    mu = BaseMeasureND(2, atoms=[((5.0, 0.0), 1.0)])
    nu = PositionDirection(mu, ArcDensity2D([(2.6, 2.8, 1.0)]))
    plan = SamplingPlan(region_lo=(-0.2, -0.2), region_hi=(0.2, 0.2), pair_count=30,
                        scale_range=(0.02, 0.1), seed=41)
    with pytest.raises(DegenerateConfigurationError, match="mass"):
        kappa_hat(nu, plan)


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(region_lo=(0.0, 0.0), region_hi=(0.0, 1.0))
    # (0.05, inf) once overflowed the length sampler mid-run, a third or a
    # missing entry broke its unpacking, and a bare number or an entry that is
    # not a number raised a TypeError
    for bad in ((0.0, 1.0), (0.05, math.inf), (0.05, 0.5, 0.7), (0.1,), 5, (0.05, "a"),
                (None, 0.5)):
        with pytest.raises(ValueError, match="scale_range"):
            SamplingPlan(region_lo=(0.0, 0.0), region_hi=(1.0, 1.0), scale_range=bad)
    # an empty pool makes its audit pass on an infinite extremum, and a
    # silently truncated count runs another plan than the one asked for
    for key in ("pair_count", "cycle_count", "cube_count", "triple_count"):
        for bad in (0, -3, 2.5, 3.0, True, "3", None, np.int64(0)):
            with pytest.raises(ValueError, match=key):
                SamplingPlan(region_lo=(0.0, 0.0), region_hi=(1.0, 1.0), **{key: bad})
    plan = SamplingPlan(region_lo=(0.0, 0.0), region_hi=(1.0, 1.0), pair_count=1,
                        cycle_count=1, cube_count=1, triple_count=1)
    assert plan.to_dict()["pair_count"] == 1
    # numpy integer counts are taken, as the seed is, and stored as Python ints
    counts = ("pair_count", "cycle_count", "cube_count", "triple_count")
    plan = SamplingPlan(region_lo=(0.0, 0.0), region_hi=(1.0, 1.0),
                        **{key: np.int64(3) for key in counts})
    d = plan.to_dict()
    assert all(type(getattr(plan, key)) is int and d[key] == 3 for key in counts)
    assert json.loads(json.dumps(d)) == d


BAD_PLANS = {
    "nan corner": ({"region_lo": (math.nan, 0.0)}, "region corners must be finite"),
    "inf corner": ({"region_hi": (math.inf, 1.0)}, "region corners must be finite"),
    "-inf corner": ({"region_lo": (0.0, -math.inf)}, "region corners must be finite"),
    "fractional seed": ({"seed": 1.5}, "seed must be an integer >= 0"),
    "negative seed": ({"seed": -1}, "seed must be an integer >= 0"),
    "bool seed": ({"seed": True}, "seed must be an integer >= 0"),
    "string seed": ({"seed": "3"}, "seed must be an integer >= 0"),
}


@pytest.mark.parametrize("case", list(BAD_PLANS))
def test_plan_refuses_non_finite_regions_and_bad_seeds(case):
    # a NaN region failed only at the first query, the seed 1.5 with a
    # TypeError inside np.random.SeedSequence
    fields, message = BAD_PLANS[case]
    with pytest.raises(ValueError, match=message):
        SamplingPlan(**{"region_lo": (0.0, 0.0), "region_hi": (1.0, 1.0), **fields})


def test_plan_takes_numpy_integer_seeds_as_int():
    plan = SamplingPlan(region_lo=(0.0, 0.0), region_hi=(1.0, 1.0), seed=np.int64(3))
    assert json.loads(json.dumps(plan.to_dict()))["seed"] == 3


# ---------------------------------------------------------------------------
# each distinct audit query is asked once

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _config(name):
    cfg = cli.load_config(str(CONFIG_DIR / f"{name}.json"))
    sc = cli.build_scenario(cfg["scenario"], cfg["seed"])
    return sc, cli._plan_from_config(cfg), cli._pick_backend(sc.measure, cfg)


class _Recording:
    """Forwards to a backend and records every ``pair`` call's points and taus."""

    def __init__(self, inner):
        self.inner = inner
        self.pairs = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def pair(self, nu, x, y, taus=None):
        self.pairs.append((np.array(x), np.array(y), None if taus is None else list(taus)))
        return self.inner.pair(nu, x, y, taus=taus)


def test_run_diagnostics_asks_each_query_once():
    sc, plan, backend = _config("ba_lebesgue")
    assert (plan.pair_count, plan.cycle_count, plan.cube_count,
            plan.triple_count) == (120, 40, 20, 60)
    rec = _Recording(backend)
    rep = run_diagnostics(sc.measure, sc.basepoint, plan, backend=rec, name=sc.name)
    # a full converse pass and a second triple pass made 777 calls
    assert len(rec.pairs) <= 583
    tau_star = 0.5 * rep.kappa_hat
    assert sum(taus == [tau_star] for _, _, taus in rec.pairs) < 10
    rng = diagnostics._streams(plan)[3]
    # continuous draws never coincide, so no triple is skipped
    assert rep.eta["skipped"] == rep.id_probe["skipped"] == 0
    for _ in range(plan.triple_count):
        x, a, b = diagnostics._sample_points(plan, rng, 3)
        for y in (a, b):
            assert sum(taus is None and np.array_equal(px, x) and np.array_equal(py, y)
                       for px, py, taus in rec.pairs) == 1


# the ``report`` object of ``busemetric run``'s JSON block, and the keys of each section
REPORT_KEYS = {"scenario", "backend", "plan", "kappa_hat", "kappa_witness", "tau_hat",
               "tau_witness", "delta_hat", "delta_witness", "bilip", "cyclic", "cube", "eta",
               "id_probe", "audits"}
SECTION_KEYS = {"bilip": {"c_low", "c_high", "witnesses"}, "cyclic": {"worst", "witness"},
                "cube": {"worst", "bound", "witness"}, "eta": {"curve", "skipped"},
                "id_probe": {"curve", "skipped"}}


def test_report_fields_are_the_json_blocks_report_keys():
    sc, plan, backend = _config("crofton2")
    rep = run_diagnostics(sc.measure, sc.basepoint, plan, backend=backend, name=sc.name)
    got = rep.to_dict()
    assert set(got) == REPORT_KEYS
    assert {key: set(got[key]) for key in SECTION_KEYS} == SECTION_KEYS
    assert set(got["bilip"]["witnesses"]) == {"low", "high"}


def _ref_converse(nu, backend, sweep, tau_star):
    """The converse check as a full pass: every pair asked at tau*."""
    ok = True
    margin = math.inf
    for i, (x, y) in enumerate(zip(sweep.xs, sweep.ys)):
        p = backend.pair(nu, x, y, taus=[tau_star])
        m = float(p.angle[0]) - tau_star * sweep.mass[i]
        margin = min(margin, m)
        if m < -diagnostics.CHAIN_SLACK * max(sweep.mass[i], 1.0):
            ok = False
    return margin, ok


@pytest.mark.parametrize("name,backend_kind", [
    ("crofton2", "closed_form"), ("crofton3", "closed_form"),
    ("doubling_atoms", "closed_form"), ("ba_lebesgue", "exact2d"),
    ("crofton2", "monte_carlo")])
def test_shared_queries_keep_the_full_pass_results(name, backend_kind):
    sc, plan, backend = _config(name)
    if backend_kind == "monte_carlo":
        backend = MonteCarlo(budget=20000, seed=7)
    assert backend.name == backend_kind
    nu = sc.measure
    rep = run_diagnostics(nu, sc.basepoint, plan, backend=backend, name=sc.name)
    audit = next(a for a in rep.audits if a["name"] == "tau_converse_at_half_kappa")
    margin, ok = _ref_converse(nu, backend, diagnostics._segment_sweep(nu, plan, backend),
                               0.5 * rep.kappa_hat)
    assert audit["value"].hex() == float(margin).hex()
    assert audit["passed"] is ok
    f = EmbeddingMap(nu, sc.basepoint, backend=backend)
    assert (rep.eta["curve"], rep.eta["skipped"]) == eta_hat(f, "euclidean", plan)
    assert ((rep.id_probe["curve"], rep.id_probe["skipped"])
            == id_qs_probe(nu, plan, backend=backend))


class _StubProfiles:
    """Pair i (x = (i, 0)) has angle mass ``profiles[i](tau)``; a one-threshold
    query adds ``single[i]`` to it, as a different summation order might."""

    def __init__(self, profiles, single=None):
        self.profiles = profiles
        self.single = single or {}
        self.asked = []

    def pair(self, nu, x, y, taus=None):
        i = int(x[0])
        self.asked.append(i)
        angle = np.array([self.profiles[i](t) for t in taus])
        if len(taus) == 1:
            angle = angle + self.single.get(i, 0.0)
        return SimpleNamespace(angle=angle)


def _stub_sweep(masses, profiles):
    n = len(masses)
    xs = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    angle = np.array([[p(t) for t in TAU_GRID] for p in profiles])
    return _SegmentSweep(xs, xs + [0.0, 1.0], np.asarray(masses, dtype=float),
                         np.zeros(n), np.zeros((n, 2)), angle)


def _check_against_reference(masses, profiles, tau_star, single=None):
    sweep = _stub_sweep(masses, profiles)
    stub = _StubProfiles(profiles, single)
    got = diagnostics._converse_check(None, stub, sweep, tau_star)
    asked = list(stub.asked)
    want = _ref_converse(None, _StubProfiles(profiles, single), sweep, tau_star)
    assert float(got[0]).hex() == float(want[0]).hex()
    assert got[1] is want[1]
    return got, asked


def _step(hi, lo, at):
    return lambda t: hi if t <= at else lo


def test_converse_check_reports_a_failing_pair():
    (margin, ok), asked = _check_against_reference(
        [1.0, 1.0, 3.0], [_step(0.5, 0.5, 1.0), _step(0.1, 0.1, 1.0), _step(2.0, 2.0, 1.0)],
        0.2)
    assert not ok and margin == pytest.approx(-0.1)
    assert asked[0] == 1
    # the heavy pair 0 holds the minimum inside its own slack; pair 1's bound
    # lies above that minimum, but it fails the test and must be asked
    (margin, ok), asked = _check_against_reference(
        [100.0, 1.0], [_step(20.0 - 6e-9, 0.0, 1.0), _step(0.2 - 3e-9, 0.0, 1.0)], 0.2)
    assert not ok and margin == pytest.approx(-6e-9, rel=1e-6)
    assert asked == [0, 1]


def test_converse_minimum_away_from_the_smallest_bound():
    # pair 0's angle mass drops between tau* and the next grid point, so it
    # holds the smallest bound but not the smallest margin; pair 1 does
    tau_star = 0.205
    profiles = [_step(0.9, 0.3, 0.206), _step(0.4, 0.4, 1.0), _step(0.8, 0.8, 1.0)]
    (margin, ok), asked = _check_against_reference([1.0, 1.0, 1.0], profiles, tau_star)
    assert ok and margin == pytest.approx(0.4 - tau_star)
    assert asked == [0, 1]  # pair 2's bound lies above pair 1's margin


def test_converse_at_a_grid_point_widens_the_bound():
    # kappa/2 lands on the grid, where the sweep's column and the
    # one-threshold query agree but for their summation order
    kappa = 0.6
    tau_star = 0.5 * kappa
    assert tau_star in TAU_GRID
    c0 = 0.7
    c1 = np.nextafter(c0, 1.0)
    profiles = [_step(c0, c0, 1.0), _step(c1, c1, 1.0)]
    assert c1 - tau_star > c0 - tau_star
    low = c1
    for _ in range(4):
        low = np.nextafter(low, 0.0)
    (margin, ok), asked = _check_against_reference(
        [1.0, 1.0], profiles, tau_star, single={1: low - c1})
    assert ok and margin == low - tau_star < c0 - tau_star
    assert asked == [0, 1]


def test_fanned_and_serial_runs_give_the_same_report(monkeypatch):
    # the audits' batches run on every core or in a loop with the same bits
    from busemetric import evaluate
    from busemetric.cli import _plan_from_config, build_scenario, load_config
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "doubling_box.json"))
    sc = build_scenario(cfg["scenario"], cfg["seed"])
    assert evaluate._support_size(sc.measure) >= evaluate.FAN_OUT_NODES
    plan = SamplingPlan(**{**_plan_from_config(cfg).to_dict(), "pair_count": 24,
                           "cycle_count": 6, "cube_count": 4, "triple_count": 10})

    def report(workers):
        monkeypatch.setattr(evaluate, "_worker_count", lambda: workers)
        return json.dumps(run_diagnostics(sc.measure, sc.basepoint, plan, name=sc.name,
                                          backend=sc.backend()).to_dict(), sort_keys=True)

    assert report(2) == report(1)
