"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the PASS
lines inline).  Every tolerance is pinned here; the scenario roster covers
the isotropic closed-form family, atom and box pushforwards, both axis
families, and the two-cap degenerate family, in dimensions 2 and 3.
"""

import json
import math
import time

import numpy as np
import pytest

from busemetric import (BaseMeasure1D, BaseMeasureND, Cube, MonteCarlo, beurling_ahlfors,
                        calibrate_embedding_constant, crofton, cube_mass, degenerate_caps,
                        doubling_pushforward, seg_mass)
from busemetric.cli import JSON_MARKER, main as cli_main
from busemetric.diagnostics import SamplingPlan, bilip_bounds, cube_bound, kappa_hat, run_diagnostics
from busemetric.scenarios import inv_sqrt_density, lebesgue_box_measure

SEED = 20250801


def report_line(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


# ---------------------------------------------------------------------------
# scenario roster
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def roster():
    scenarios = {}
    plans = {}

    sc = crofton(2)
    scenarios["crofton2"] = sc
    plans["crofton2"] = SamplingPlan(region_lo=(-1.0, -1.0), region_hi=(1.0, 1.0),
                                     scale_range=(0.02, 0.5), seed=SEED)

    sc3 = crofton(3)
    scenarios["crofton3"] = sc3
    plans["crofton3"] = SamplingPlan(region_lo=(-1.0,) * 3, region_hi=(1.0,) * 3,
                                     scale_range=(0.02, 0.5), seed=SEED)

    atoms = BaseMeasureND(2, atoms=[((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0),
                                    ((0.4, -2.2), 1.5)])
    scenarios["atoms"] = doubling_pushforward(atoms, window_lo=(-0.35, -0.35),
                                              window_hi=(0.35, 0.35), name="atoms")
    plans["atoms"] = SamplingPlan(region_lo=(-0.35, -0.35), region_hi=(0.35, 0.35),
                                  scale_range=(0.02, 0.3), seed=SEED)

    box = lebesgue_box_measure(2, inner_half=0.8, levels=6)
    scenarios["box"] = doubling_pushforward(box, window_lo=(-0.35, -0.35),
                                            window_hi=(0.35, 0.35), name="box")
    plans["box"] = plans["atoms"]

    scenarios["ba_lebesgue"] = beurling_ahlfors(
        BaseMeasure1D.lebesgue(-30.0, 30.0, 1.0), window_half=3.0, name="ba_lebesgue")
    plans["ba_lebesgue"] = SamplingPlan(region_lo=(-2.0, 0.1), region_hi=(2.0, 1.5),
                                        scale_range=(0.05, 0.8), seed=SEED)

    scenarios["ba_sqrt"] = beurling_ahlfors(
        inv_sqrt_density(pieces=1024, support=1.0), window_half=1.0, height=0.8,
        name="ba_sqrt")
    plans["ba_sqrt"] = SamplingPlan(region_lo=(0.1, 0.05), region_hi=(0.9, 0.45),
                                    scale_range=(0.02, 0.3), seed=SEED)

    scenarios["degenerate"] = degenerate_caps(0.2, levels=6, name="degenerate")
    plans["degenerate"] = plans["atoms"]

    backends = {name: sc.backend() for name, sc in scenarios.items()}
    return scenarios, plans, backends


@pytest.fixture(scope="module")
def pair_sweeps(roster):
    """1000 seeded pairs per scenario, evaluated once on the exact backend."""
    scenarios, plans, backends = roster
    sweeps = {}
    rng = np.random.default_rng(SEED)
    for name, sc in scenarios.items():
        plan = plans[name]
        lo = np.asarray(plan.region_lo)
        hi = np.asarray(plan.region_hi)
        xs = lo + rng.random((1000, lo.size)) * (hi - lo)
        ys = lo + rng.random((1000, lo.size)) * (hi - lo)
        keep = np.linalg.norm(xs - ys, axis=1) > 1e-9
        xs, ys = xs[keep], ys[keep]
        res = [backends[name].pair(sc.measure, x, y) for x, y in zip(xs, ys)]
        sweeps[name] = (xs, ys, res)
    return sweeps


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_crofton_recovery():
    start = time.perf_counter()
    sc = crofton(2)
    rng = np.random.default_rng(SEED)
    xs = rng.uniform(-2.0, 2.0, (1000, 2))
    ys = rng.uniform(-2.0, 2.0, (1000, 2))
    keep = np.linalg.norm(xs - ys, axis=1) > 1e-9
    xs, ys = xs[keep], ys[keep]
    lengths = np.linalg.norm(xs - ys, axis=1)

    for x, y, r in zip(xs, ys, lengths):
        assert abs(seg_mass(sc.measure, x, y) / r - 2.0 / math.pi) <= 1e-9

    f = sc.embedding()
    for x in xs:
        assert np.all(np.abs(f.eval(x) - x / 2.0) <= 1e-9)

    mc = MonteCarlo(budget=1_000_000, seed=SEED)
    vals, ses = mc.seg_mass_many(sc.measure, xs, ys)
    truth = (2.0 / math.pi) * lengths
    z = np.abs(vals - truth) / ses
    assert float(z.max()) <= 4.0

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report_line(1, f"crofton n=2 over {len(xs)} pairs: closed form 1e-9, "
                   f"MC(1e6) max |z| = {z.max():.2f}, runtime {elapsed:.1f}s")


def test_criterion_02_identity_audit(pair_sweeps):
    worst = {}
    for name, (xs, ys, res) in pair_sweeps.items():
        rel = []
        for x, y, p in zip(xs, ys, res):
            inner = float(p.embed @ (x - y))
            target = float(np.linalg.norm(x - y)) * p.transversal
            rel.append(abs(inner - target) / max(abs(target), 1e-300))
        worst[name] = max(rel)
        assert worst[name] <= 1e-8, f"{name}: identity residual {worst[name]:.2e}"
    report_line(2, "inner-product identity on all scenarios; worst relative "
                   f"residual {max(worst.values()):.2e}")


def test_criterion_03_two_sided_bounds(pair_sweeps):
    for name, (xs, ys, res) in pair_sweeps.items():
        for p in res:
            gap = float(np.linalg.norm(p.embed))
            assert gap <= p.mass + 1e-12, name
            assert gap >= p.transversal - 1e-12, name
    report_line(3, "sin-alpha lower and mass upper bounds hold on every "
                   "sampled pair of every scenario (1e-12 slack)")


def test_criterion_04_cyclic_monotonicity(roster):
    scenarios, plans, backends = roster
    worst_overall = -math.inf
    for name, sc in scenarios.items():
        plan = plans[name]
        f = sc.embedding(backend=backends[name])
        rng = np.random.default_rng(SEED + 4)
        lo = np.asarray(plan.region_lo)
        hi = np.asarray(plan.region_hi)
        worst = -math.inf
        for _ in range(1000):
            m = int(rng.integers(2, 9))
            pts = lo + rng.random((m, lo.size)) * (hi - lo)
            vals = f.eval_many(pts)
            nxt = np.roll(pts, -1, axis=0)
            total = float(np.einsum("ij,ij->", vals, nxt - pts))
            scale = float(np.sum(np.linalg.norm(vals, axis=1)
                                 * np.linalg.norm(nxt - pts, axis=1)))
            worst = max(worst, total / max(scale, 1e-300))
        assert worst <= 1e-10, f"{name}: worst normalized cycle sum {worst:.2e}"
        worst_overall = max(worst_overall, worst)
    report_line(4, f"1000 cycles (m in [2,8]) per scenario; worst normalized "
                   f"sum {worst_overall:.2e} <= 1e-10")


def test_criterion_05_cube_lemma(roster):
    scenarios, plans, backends = roster
    dims_seen = set()
    worst_margin = math.inf
    for name, sc in scenarios.items():
        plan = plans[name]
        f = sc.embedding(backend=backends[name])
        rng = np.random.default_rng(SEED + 5)
        lo = np.asarray(plan.region_lo)
        hi = np.asarray(plan.region_hi)
        bound = cube_bound(sc.dim)
        dims_seen.add(sc.dim)
        for _ in range(200):
            edge = math.exp(rng.uniform(math.log(plan.scale_range[0]),
                                        math.log(plan.scale_range[1])))
            edge = min(edge, 0.9 * float(np.min(hi - lo)))
            center = lo + 0.5 * edge + rng.random(lo.size) * (hi - lo - edge)
            q = Cube(center, edge)
            mass = cube_mass(sc.measure, q, backend=backends[name])
            verts = f.eval_many(np.asarray(
                q.center + 0.5 * q.edge * (((np.arange(2 ** sc.dim)[:, None]
                                             >> np.arange(sc.dim)[::-1]) & 1) * 2 - 1)))
            diam = float(np.max(np.linalg.norm(verts[:, None] - verts[None, :], axis=2)))
            ratio = diam / mass
            assert ratio >= bound - 1e-10, f"{name}: cube ratio {ratio:.4g} < {bound:.4g}"
            worst_margin = min(worst_margin, ratio - bound)
    assert dims_seen >= {2, 3}
    report_line(5, f"200 cubes per scenario, n in {sorted(dims_seen)}; worst "
                   f"margin over the 4^-n/sqrt(n) bound {worst_margin:.3g}")


@pytest.fixture(scope="module")
def chain_reports(roster):
    scenarios, plans, backends = roster
    reports = {}
    for name, sc in scenarios.items():
        plan = plans[name]
        full = SamplingPlan(region_lo=plan.region_lo, region_hi=plan.region_hi,
                            pair_count=300, cycle_count=150, cube_count=60,
                            triple_count=150, scale_range=plan.scale_range, seed=SEED)
        reports[name] = run_diagnostics(sc.measure, sc.basepoint, full,
                                        backend=backends[name], name=name)
    return reports


def test_criterion_06_transversality_chain(chain_reports):
    for name, rep in chain_reports.items():
        failed = [a["name"] for a in rep.audits if not a["passed"]]
        assert not failed, f"{name}: failed audits {failed}"
        assert rep.kappa_hat >= rep.tau_hat * math.sin(rep.tau_hat) - 1e-10
        assert rep.bilip["c_low"] >= rep.kappa_hat - 1e-10
        assert rep.bilip["c_high"] <= 1.0 + 1e-12
    rep = chain_reports["crofton2"]
    assert rep.kappa_hat == pytest.approx(math.pi / 4.0, abs=1e-3)
    assert rep.delta_hat == pytest.approx(1.0, abs=1e-9)
    assert rep.bilip["c_low"] == pytest.approx(math.pi / 4.0, abs=1e-3)
    assert rep.bilip["c_high"] == pytest.approx(math.pi / 4.0, abs=1e-3)
    report_line(6, "chain kappa >= tau sin tau, per-pair delta >= kappa, "
                   "c_low >= kappa, c_high <= 1 on every scenario; crofton "
                   "anchors pi/4 and delta = 1 reproduced")


def test_criterion_07_axis_extension(roster, chain_reports):
    scenarios, _, backends = roster
    for name, lo_t, hi_t in (("ba_lebesgue", -2.9, 2.9), ("ba_sqrt", 0.02, 0.98)):
        sc = scenarios[name]
        f = sc.embedding(backend=backends[name])
        mu1 = sc.measure.mu  # axis measure in the plane
        rng = np.random.default_rng(SEED + 7)
        for _ in range(200):
            s, t = np.sort(rng.uniform(lo_t, hi_t, 2))
            if t - s < 1e-6:
                continue
            gap = f.eval([t, 0.0]) - f.eval([s, 0.0])
            interval = mu1.ball_mass([0.5 * (s + t), 0.0], 0.5 * (t - s))
            assert abs(gap[0] - interval) <= 1e-6, name
            assert abs(gap[1]) <= 1e-8, name
        omega = sc.measure.omega
        normals = omega.sample_normals(np.random.default_rng(SEED + 8), 2000)
        assert np.all(np.abs(normals @ np.array([1.0, 0.0]))
                      >= math.sin(math.pi / 3.0) - 1e-12)
        for v in normals[:100]:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert math.asin(min(1.0, abs(float(np.array([1.0, 0.0]) @ v)))) \
                >= math.pi / 3.0 - 1e-12
        assert chain_reports[name].delta_hat > 0.0
    report_line(7, "axis extension reproduces interval masses to 1e-6 with "
                   "vanishing second coordinate (1e-8); support lines cross "
                   "at >= pi/3; delta > 0 off-axis")


def test_criterion_08_backend_agreement(roster):
    scenarios, plans, backends = roster
    failures = []
    for name, sc in scenarios.items():
        plan = plans[name]
        rng = np.random.default_rng(SEED + 8)
        mc = MonteCarlo(budget=100_000, seed=SEED + 8)
        lo = np.asarray(plan.region_lo)
        hi = np.asarray(plan.region_hi)
        for _ in range(100):
            x = lo + rng.random(lo.size) * (hi - lo)
            y = lo + rng.random(lo.size) * (hi - lo)
            if np.linalg.norm(x - y) < 1e-6:
                continue
            p = backends[name].pair(sc.measure, x, y)
            q = mc.pair(sc.measure, x, y)
            checks = [
                ("mass", p.mass, q.mass, q.mass_se),
                ("transversal", p.transversal, q.transversal, q.transversal_se),
            ]
            for k in range(sc.dim):
                checks.append((f"embed[{k}]", p.embed[k], q.embed[k], q.embed_se[k]))
            for label, exact, est, se in checks:
                if abs(exact - est) > max(4.0 * se, 1e-8 * abs(exact)):
                    failures.append({"scenario": name, "query": label,
                                     "x": x.tolist(), "y": y.tolist(),
                                     "exact": exact, "mc": est, "se": se})
    assert not failures, f"backend disagreements: {failures}"
    report_line(8, "closed-form/exact backends agree with the MC backend "
                   "within 4 standard errors on 100 queries per scenario")


def test_criterion_09_degeneracy_sweep():
    thetas = [math.pi / 2.0, 0.4, 0.2, 0.1, 0.05]
    plan = SamplingPlan(region_lo=(-0.35, -0.35), region_hi=(0.35, 0.35),
                        pair_count=150, scale_range=(0.02, 0.3), seed=SEED)
    kappas, lows = [], []
    for theta in thetas:
        sc = degenerate_caps(theta, levels=6)
        backend = sc.backend()
        k, _ = kappa_hat(sc.measure, plan, backend=backend)
        lo, hi, _ = bilip_bounds(sc.embedding(backend=backend), sc.measure, plan)
        kappas.append(k)
        lows.append(lo)
        assert hi <= 1.0 + 1e-12
    assert all(a > b for a, b in zip(kappas, kappas[1:])), kappas
    assert all(a > b for a, b in zip(lows, lows[1:])), lows
    report_line(9, "kappa and c_low strictly decrease over theta0 = "
                   f"{thetas}: kappa {['%.6f' % k for k in kappas]}")


def test_criterion_10_calibration():
    res = calibrate_embedding_constant(2, 10_000_000, SEED)
    assert res.half_width <= 0.02 * res.value
    assert abs(res.value - 1.0 / math.pi) <= res.half_width
    again = calibrate_embedding_constant(2, 10_000_000, SEED)
    assert res == again
    report_line(10, f"kernel constant C(2) = {res.value:.6f} +- {res.half_width:.6f} "
                    "(<= 2% half width), distance-independent, bit-identical rerun")


def test_criterion_11_cli_determinism(tmp_path):
    configs = {
        "crofton": {
            "seed": SEED,
            "scenario": {"name": "crofton", "dimension": 2},
            "plan": {"region": [[-1.0, -1.0], [1.0, 1.0]], "pair_count": 80,
                     "cycle_count": 30, "cube_count": 16, "triple_count": 50,
                     "scale_range": [0.05, 0.5]},
            "outputs": {"report": "report.txt",
                        "grid": {"path": "grid.csv", "resolution": 5,
                                 "window": [[-1.0, -1.0], [1.0, 1.0]]}},
        },
        "degenerate": {
            "seed": SEED,
            "scenario": {"name": "degenerate_caps", "theta0": 0.2, "levels": 5},
            "plan": {"region": [[-0.3, -0.3], [0.3, 0.3]], "pair_count": 50,
                     "cycle_count": 16, "cube_count": 10, "triple_count": 30,
                     "scale_range": [0.02, 0.25]},
            "outputs": {"report": "report.txt"},
        },
    }
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out1 = tmp_path / f"{name}_1"
        out2 = tmp_path / f"{name}_2"
        assert cli_main(["run", str(cfg_path), "--out", str(out1)]) == 0
        assert cli_main(["run", str(cfg_path), "--out", str(out2)]) == 0
        b1 = (out1 / "report.txt").read_text().split(JSON_MARKER, 1)[1]
        b2 = (out2 / "report.txt").read_text().split(JSON_MARKER, 1)[1]
        assert b1 == b2
        if (out1 / "grid.csv").exists():
            assert (out1 / "grid.csv").read_bytes() == (out2 / "grid.csv").read_bytes()
    report_line(11, "cmd_run twice on bundled configs produced byte-identical "
                    "JSON report blocks and grid files")
