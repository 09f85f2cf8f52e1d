import math

import numpy as np
import pytest

from busemetric import (BaseMeasure1D, BaseMeasureND, ClosedForm, Cube,
                        DegenerateConfigurationError, EmbeddingConstant, EmbeddingMap,
                        Exact2D, MonteCarlo, OffsetDirection, PositionDirection,
                        SymmetricCap, UniformDirections, UnsupportedBackendError,
                        calibrate_embedding_constant, cube_mass, embed_unit_kernel,
                        mc_estimate, pair_integrals, seg_mass, transversal_integral)
from busemetric.directions import unit_kernel_constant
from busemetric.scenarios import lebesgue_box_measure

CF = ClosedForm()
E2 = Exact2D()


def crofton2(span=40.0):
    return OffsetDirection(UniformDirections(2), BaseMeasure1D.lebesgue(-span, span, 1.0))


def atom_measure(atoms):
    return PositionDirection(BaseMeasureND(2, atoms=atoms), UniformDirections(2))


# ---------------------------------------------------------------------------
# oracles: direct Monte Carlo of the defining integrals, independent of the
# backends under test
# ---------------------------------------------------------------------------

def oracle_sign_test_mass(atom, x, y, m=400_000, seed=100):
    """P(v separates x, y seen from the atom) via raw direction sampling."""
    rng = np.random.default_rng(seed)
    phi = rng.random(m) * 2.0 * math.pi
    v = np.column_stack([np.cos(phi), np.sin(phi)])
    gx = v @ (np.asarray(x) - atom)
    gy = v @ (np.asarray(y) - atom)
    hits = (gx * gy <= 0.0).astype(float)
    return hits.mean(), hits.std() / math.sqrt(m)


def oracle_embedding_atom(atom, o, x, m=400_000, seed=101):
    """Direct sampling of the oriented-normal integral for a unit point mass."""
    rng = np.random.default_rng(seed)
    phi = rng.random(m) * 2.0 * math.pi
    v = np.column_stack([np.cos(phi), np.sin(phi)])
    go = v @ (np.asarray(o) - atom)
    gx = v @ (np.asarray(x) - atom)
    hit = (go * gx <= 0.0) & (go != 0.0)
    vals = np.where(hit, -np.sign(go), 0.0)[:, None] * v
    return vals.mean(axis=0), vals.std(axis=0) / math.sqrt(m)


def oracle_offset_uniform(x, y, weight_fn, m=400_000, seed=102):
    """E over directions of weight(v) * |<x - y, v>| (unit offset density)."""
    rng = np.random.default_rng(seed)
    phi = rng.random(m) * math.pi
    v = np.column_stack([np.cos(phi), np.sin(phi)])
    proj = v @ (np.asarray(x) - np.asarray(y))
    vals = weight_fn(v, proj) * np.abs(proj)
    return vals.mean(), vals.std() / math.sqrt(m)


# ---------------------------------------------------------------------------
# segment mass
# ---------------------------------------------------------------------------

def test_seg_mass_zero_for_equal_points():
    nu = crofton2()
    assert seg_mass(nu, [0.3, 0.4], [0.3, 0.4]) == 0.0
    # a one-point set has zero mass only off the position atoms
    nup = atom_measure([((0.3, 0.4), 1.0)])
    assert seg_mass(nup, [0.0, 0.0], [0.0, 0.0]) == 0.0
    with pytest.raises(DegenerateConfigurationError):
        seg_mass(nup, [0.3, 0.4], [0.3, 0.4])


def test_seg_mass_atom_quarter_circle():
    nu = atom_measure([((0.0, 0.0), 1.0)])
    x, y = [1.0, 0.0], [0.0, 1.0]
    val = seg_mass(nu, x, y, backend=CF)
    est, se = oracle_sign_test_mass(np.zeros(2), x, y)
    assert abs(val - est) <= 4.0 * se
    assert val == pytest.approx(0.5, abs=1e-12)
    assert seg_mass(nu, x, y, backend=E2) == pytest.approx(val, abs=1e-12)


def test_seg_mass_crofton_length():
    nu = crofton2()
    L = 3.7
    val = seg_mass(nu, [0.0, 0.0], [L, 0.0], backend=CF)
    est, se = oracle_offset_uniform([0.0, 0.0], [L, 0.0], lambda v, p: np.ones(len(v)))
    assert abs(val - est) <= 4.0 * se
    assert val == pytest.approx((2.0 / math.pi) * L, abs=1e-12)


def test_seg_mass_atom_on_segment_rejected():
    nu = atom_measure([((0.5, 0.5), 1.0)])
    with pytest.raises(DegenerateConfigurationError):
        seg_mass(nu, [0.0, 0.0], [1.0, 1.0], backend=CF)
    with pytest.raises(DegenerateConfigurationError):
        seg_mass(nu, [0.0, 0.0], [1.0, 1.0], backend=E2)
    mc = MonteCarlo(budget=1000, seed=0)
    with pytest.raises(DegenerateConfigurationError):
        mc.pair(nu, np.array([0.0, 0.0]), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embedding_zero_at_basepoint():
    f = EmbeddingMap(crofton2(), [0.7, -0.2], backend=CF)
    assert np.array_equal(f.eval([0.7, -0.2]), np.zeros(2))


def test_embedding_crofton_similarity():
    f = EmbeddingMap(crofton2(), [0.0, 0.0], backend=CF)
    val = f.eval([3.0, 4.0])
    assert val == pytest.approx([1.5, 2.0], abs=1e-12)
    mc = MonteCarlo(budget=400_000, seed=6)
    q = mc.pair(crofton2(), np.array([3.0, 4.0]), np.array([0.0, 0.0]))
    assert np.all(np.abs(q.embed - val) <= 4.0 * q.embed_se)


def test_embedding_single_atom_unit_kernel():
    atom = np.zeros(2)
    o = np.array([1.0, 0.0])
    x = np.array([0.0, 1.0])
    nu = atom_measure([((0.0, 0.0), 1.0)])
    val = EmbeddingMap(nu, o, backend=CF).eval(x)
    # the direct sampling oracle of the defining integral is authoritative
    est, se = oracle_embedding_atom(atom, o, x)
    assert np.all(np.abs(val - est) <= 4.0 * se)
    expected = (1.0 / math.pi) * np.array([-1.0, 1.0])
    assert val == pytest.approx(expected, abs=1e-12)
    # explicit unit-difference kernel route with the analytic constant
    alt = embed_unit_kernel(nu, o, x)
    assert alt == pytest.approx(val, abs=1e-12)
    assert EmbeddingMap(nu, o, backend=E2).eval(x) == pytest.approx(val, abs=1e-12)


def test_embedding_degenerate_atom_collisions():
    nu = atom_measure([((0.0, 0.0), 1.0)])
    with pytest.raises(DegenerateConfigurationError):
        EmbeddingMap(nu, [0.0, 0.0], backend=CF)
    f = EmbeddingMap(nu, [1.0, 0.0], backend=CF)
    with pytest.raises(DegenerateConfigurationError):
        f.eval([0.0, 0.0])


def test_basepoint_change_is_additive_constant():
    nu = atom_measure([((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0), ((0.4, -2.2), 1.5)])
    fa = EmbeddingMap(nu, [0.0, 0.0], backend=E2)
    fb = EmbeddingMap(nu, [0.3, -0.2], backend=E2)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.8, 0.8, (20, 2))
    shift0 = fa.eval(pts[0]) - fb.eval(pts[0])
    for p in pts[1:]:
        shift = fa.eval(p) - fb.eval(p)
        assert np.linalg.norm(shift - shift0) <= 1e-10


# ---------------------------------------------------------------------------
# transversal integral
# ---------------------------------------------------------------------------

def test_transversal_crofton():
    nu = crofton2()
    L = 2.5
    val = transversal_integral(nu, [0.0, 0.0], [L, 0.0], backend=CF)
    est, se = oracle_offset_uniform([0.0, 0.0], [L, 0.0],
                                    lambda v, p: np.abs(v @ np.array([1.0, 0.0])))
    assert abs(val - est) <= 4.0 * se
    assert val == pytest.approx(L / 2.0, abs=1e-12)


def test_transversal_bounded_by_mass():
    rng = np.random.default_rng(9)
    nus = [crofton2(), atom_measure([((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0)])]
    for nu in nus:
        for _ in range(40):
            x, y = rng.uniform(-1, 1, (2, 2))
            p = pair_integrals(nu, x, y)
            assert p.transversal <= p.mass + 1e-12


def test_transversal_far_atom_nearly_radial():
    # fixed configuration: a far atom, a segment nearly orthogonal to the
    # sight line; the worst crossing angle controls the ratio
    nu = atom_measure([((10.0, 0.0), 1.0)])
    x = np.array([0.0, -0.5])
    y = np.array([0.0, 0.5])
    p = pair_integrals(nu, x, y, backend=E2)
    mc = MonteCarlo(budget=400_000, seed=10)
    q = mc.pair(nu, x, y)
    assert abs(p.transversal - q.transversal) <= 4.0 * q.transversal_se
    # crossing angles stay within atan(0.05) of a right angle
    assert p.transversal / p.mass >= math.cos(math.atan(0.05)) - 1e-12


# ---------------------------------------------------------------------------
# cube and box masses
# ---------------------------------------------------------------------------

def test_cube_mass_degenerate_limit():
    nu = atom_measure([((2.0, 0.3), 1.0)])
    masses = [cube_mass(nu, Cube([0.2, -0.1], e), backend=E2) for e in (0.5, 0.1, 1e-3)]
    assert masses[0] > masses[1] > masses[2]
    assert masses[2] < 1e-3


def test_cube_mass_unit_square_crofton():
    nu = crofton2()
    val = cube_mass(nu, Cube([0.0, 0.0], 1.0), backend=CF)
    assert val == pytest.approx(4.0 / math.pi, abs=1e-12)
    mc = MonteCarlo(budget=300_000, seed=11)
    est, se = mc.cube_mass(nu, Cube([0.0, 0.0], 1.0))
    assert abs(val - est) <= 4.0 * se


def test_cube_mass_dominates_inner_segments():
    rng = np.random.default_rng(12)
    q = Cube([0.1, -0.2], 1.2)
    for nu, backend in ((crofton2(), CF), (atom_measure([((3.0, 1.0), 1.0)]), E2)):
        qm = cube_mass(nu, q, backend=backend)
        for _ in range(25):
            x, y = q.center + (rng.random((2, 2)) - 0.5) * q.edge
            if np.all(x == y):
                continue
            assert qm >= seg_mass(nu, x, y, backend=backend) - 1e-12


def test_cube_mass_position_3d_quadrature_vs_mc():
    mu = BaseMeasureND(3, atoms=[((1.0, 0.5, -0.4), 1.0), ((-0.8, 1.2, 0.6), 2.0)])
    nu = PositionDirection(mu, UniformDirections(3))
    val = cube_mass(nu, Cube([0.0, 0.0, 0.0], 0.8), backend=CF)
    mc = MonteCarlo(budget=400_000, seed=13)
    est, se = mc.cube_mass(nu, Cube([0.0, 0.0, 0.0], 0.8))
    assert abs(val - est) <= max(4.0 * se, 2e-3)


# ---------------------------------------------------------------------------
# invariants across backends
# ---------------------------------------------------------------------------

def sample_measures():
    yield "crofton", crofton2(), (CF,)
    yield "atoms", atom_measure([((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0),
                                 ((0.4, -2.2), 1.5)]), (CF, E2)
    box = PositionDirection(lebesgue_box_measure(2, inner_half=0.8, levels=4),
                            UniformDirections(2))
    yield "box", box, (CF, E2)
    mu1 = BaseMeasure1D.lebesgue(-20.0, 20.0, 1.0)
    ba = PositionDirection(BaseMeasureND.from_axis_measure(mu1),
                           SymmetricCap((1.0, 0.0), math.pi / 6))
    yield "axis_cap", ba, (E2,)


@pytest.mark.parametrize("name,nu,backends", list(sample_measures()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_identity_and_bounds_all_backends(name, nu, backends):
    rng = np.random.default_rng(14)
    pairs = rng.uniform(-0.9, 0.9, (30, 2, 2))
    for backend in backends:
        for x, y in pairs:
            p = backend.pair(nu, x, y)
            r = np.linalg.norm(x - y)
            gap = np.linalg.norm(p.embed)
            inner = float(p.embed @ (x - y))
            assert abs(inner - r * p.transversal) <= 1e-8 * max(abs(inner), 1e-12)
            assert gap <= p.mass + 1e-12
            assert gap >= p.transversal - 1e-12


@pytest.mark.parametrize("name,nu,backends", list(sample_measures()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_segment_additivity_collinear(name, nu, backends):
    rng = np.random.default_rng(15)
    for backend in backends:
        for _ in range(20):
            x = rng.uniform(-0.9, 0.9, 2)
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            t1, t2 = np.sort(rng.uniform(0.05, 0.8, 2))
            z = x + t1 * d
            y = x + t2 * d
            lhs = seg_mass(nu, x, z, backend=backend) + seg_mass(nu, z, y, backend=backend)
            rhs = seg_mass(nu, x, y, backend=backend)
            assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1.0)


@pytest.mark.parametrize("name,nu,backends", list(sample_measures()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_backend_agreement(name, nu, backends):
    rng = np.random.default_rng(16)
    mc = MonteCarlo(budget=120_000, seed=17)
    taus = [0.2, 0.6]
    for _ in range(12):
        x, y = rng.uniform(-0.9, 0.9, (2, 2))
        exact = [b.pair(nu, x, y, taus=taus) for b in backends]
        for p, q in zip(exact[:-1], exact[1:]):
            assert abs(p.mass - q.mass) <= 1e-8 * max(p.mass, 1e-12)
            assert abs(p.transversal - q.transversal) <= 1e-8 * max(p.transversal, 1e-12)
            assert np.all(np.abs(p.embed - q.embed) <= 1e-8 * max(1.0, np.abs(p.embed).max()))
            assert np.all(np.abs(p.angle - q.angle) <= 1e-8 * max(1.0, p.angle.max()))
        m = mc.pair(nu, x, y, taus=taus)
        p = exact[0]
        assert abs(p.mass - m.mass) <= max(4.0 * m.mass_se, 1e-8 * p.mass)
        assert abs(p.transversal - m.transversal) <= max(4.0 * m.transversal_se,
                                                         1e-8 * p.transversal)
        assert np.all(np.abs(p.embed - m.embed) <= np.maximum(4.0 * m.embed_se, 1e-8))
        assert np.all(np.abs(p.angle - m.angle) <= np.maximum(4.0 * m.angle_se, 1e-8))


def test_scale_equivariance():
    nu = atom_measure([((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0)])
    lam = 3.7
    scaled = nu.scaled(lam)
    rng = np.random.default_rng(18)
    for _ in range(20):
        x, y = rng.uniform(-0.8, 0.8, (2, 2))
        p = pair_integrals(nu, x, y, backend=E2)
        q = pair_integrals(scaled, x, y, backend=E2)
        assert q.mass == pytest.approx(lam * p.mass, rel=1e-12)
        assert q.transversal == pytest.approx(lam * p.transversal, rel=1e-12)
        assert np.allclose(q.embed, lam * p.embed, rtol=1e-12, atol=1e-15)


def test_translation_equivariance():
    nu = atom_measure([((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0)])
    shift = np.array([13.0, -7.0])
    moved = nu.translated(shift)
    rng = np.random.default_rng(19)
    for _ in range(20):
        x, y = rng.uniform(-0.8, 0.8, (2, 2))
        p = pair_integrals(nu, x, y, backend=E2)
        q = pair_integrals(moved, x + shift, y + shift, backend=E2)
        assert q.mass == pytest.approx(p.mass, abs=1e-10)
        assert q.transversal == pytest.approx(p.transversal, abs=1e-10)
        assert np.allclose(q.embed, p.embed, atol=1e-10)


def test_thin_wedge_from_extremely_far_atom():
    # the hit arc subtends ~1e-8 radians here; picking the complementary arc
    # by mistake would inflate the mass by ~pi
    nu = atom_measure([((1.0e7, 0.0), 1.0)])
    x = np.array([0.0, -0.05])
    y = np.array([0.0, 0.05])
    p_cf = CF.pair(nu, x, y)
    p_e2 = E2.pair(nu, x, y)
    assert p_cf.mass == pytest.approx(0.1 / 1.0e7 / math.pi, rel=1e-4)
    assert p_e2.mass == pytest.approx(p_cf.mass, rel=1e-6)
    assert np.allclose(p_e2.embed, p_cf.embed, rtol=1e-6, atol=1e-20)


def test_angle_kernel_certified_in_3d():
    # the subtended-angle kernel is adopted in every dimension; certify the
    # full pair integrals against raw (position, direction) sampling in 3-D
    mu = BaseMeasureND(3, atoms=[((2.0, 0.5, -1.0), 1.0), ((-1.5, 1.0, 2.0), 2.0)])
    nu = PositionDirection(mu, UniformDirections(3))
    x = np.array([0.3, -0.2, 0.1])
    y = np.array([-0.5, 0.4, 0.6])
    p = CF.pair(nu, x, y, taus=[0.15, 0.5])
    mc = MonteCarlo(budget=500_000, seed=30)
    q = mc.pair(nu, x, y, taus=[0.15, 0.5])
    assert abs(p.mass - q.mass) <= 4.0 * q.mass_se
    assert abs(p.transversal - q.transversal) <= 4.0 * q.transversal_se
    assert np.all(np.abs(p.embed - q.embed) <= 4.0 * q.embed_se)
    assert np.all(np.abs(p.angle - q.angle) <= 4.0 * q.angle_se)
    inner = float(p.embed @ (x - y))
    assert inner == pytest.approx(np.linalg.norm(x - y) * p.transversal, rel=1e-12)


def test_mc_pair_is_structurally_consistent():
    # all three estimates share one batch, so the integrand relations carry
    # over to the estimates up to rounding, not up to noise
    nus = [crofton2(), atom_measure([((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0)])]
    rng = np.random.default_rng(32)
    mc = MonteCarlo(budget=20_000, seed=33)
    for nu in nus:
        for _ in range(10):
            x, y = rng.uniform(-1, 1, (2, 2))
            q = mc.pair(nu, x, y)
            r = np.linalg.norm(x - y)
            assert float(q.embed @ (x - y)) == pytest.approx(r * q.transversal, rel=1e-12)
            assert np.linalg.norm(q.embed) <= q.mass + 1e-12
            assert np.linalg.norm(q.embed) >= q.transversal - 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo estimator contracts
# ---------------------------------------------------------------------------

def test_mc_estimate_quarter_circle():
    nu = atom_measure([((0.0, 0.0), 1.0)])
    val, se = mc_estimate(nu, ("seg_mass", np.array([1.0, 0.0]), np.array([0.0, 1.0])),
                          budget=200_000, seed=20)
    assert abs(val - 0.5) <= 3.0 * se


def test_mc_estimate_determinism():
    nu = crofton2()
    q = ("seg_mass", np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    a = mc_estimate(nu, q, budget=50_000, seed=21)
    b = mc_estimate(nu, q, budget=50_000, seed=21)
    assert a == b
    c = mc_estimate(nu, q, budget=50_000, seed=22)
    assert a != c


def test_mc_error_scaling_with_budget():
    nu = crofton2()
    q = ("seg_mass", np.array([0.0, 0.0]), np.array([1.0, 0.3]))
    ratios = []
    for seed in range(30):
        _, se1 = mc_estimate(nu, q, budget=4_000, seed=seed)
        _, se2 = mc_estimate(nu, q, budget=8_000, seed=seed)
        ratios.append(se2 / se1)
    mean_ratio = float(np.mean(ratios))
    assert abs(mean_ratio - 1.0 / math.sqrt(2.0)) <= 0.2 * (1.0 / math.sqrt(2.0))


def test_mc_embed_and_cube_queries():
    nu = crofton2()
    val, se = mc_estimate(nu, ("embed", np.array([0.0, 0.0]), np.array([2.0, 0.0])),
                          budget=200_000, seed=23)
    assert np.all(np.abs(val - np.array([1.0, 0.0])) <= 4.0 * se)
    vc, sec = mc_estimate(nu, ("cube_mass", Cube([0.0, 0.0], 1.0)), budget=200_000, seed=24)
    assert abs(vc - 4.0 / math.pi) <= 4.0 * sec


def test_mc_seg_mass_many_matches_pairwise():
    nu = crofton2()
    mc = MonteCarlo(budget=30_000, seed=25)
    rng = np.random.default_rng(26)
    xs = rng.uniform(-1, 1, (5, 2))
    ys = rng.uniform(-1, 1, (5, 2))
    vals, ses = mc.seg_mass_many(nu, xs, ys)
    for k in range(5):
        p = mc.pair(nu, xs[k], ys[k])
        assert vals[k] == pytest.approx(p.mass, rel=1e-12)
        assert ses[k] == pytest.approx(p.mass_se, rel=1e-9)


# ---------------------------------------------------------------------------
# kernel-constant calibration
# ---------------------------------------------------------------------------

def test_calibration_brackets_analytic_constant():
    for n in (2, 3):
        res = calibrate_embedding_constant(n, 400_000, seed=27)
        assert res.provenance == "oracle"
        assert abs(res.value - unit_kernel_constant(n)) <= res.half_width
        # fitted constant is distance-independent within the combined band
        for _, v, se in res.per_distance:
            assert abs(v - res.value) <= 4.0 * math.hypot(se, res.half_width / 4.0)


def test_calibration_determinism_and_warning():
    a = calibrate_embedding_constant(2, 60_000, seed=28)
    b = calibrate_embedding_constant(2, 60_000, seed=28)
    assert a == b
    tiny = calibrate_embedding_constant(2, 60, seed=29)
    assert tiny.warning


def test_unit_kernel_rejects_wrong_measures():
    nu = crofton2()
    with pytest.raises(UnsupportedBackendError):
        embed_unit_kernel(nu, [0.0, 0.0], [1.0, 0.0])
    analytic = EmbeddingConstant.analytic(2)
    assert analytic.value == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_default_backend_dispatch():
    from busemetric import SamplerMeasure, default_backend
    assert default_backend(crofton2()).name == "closed_form"
    mu1 = BaseMeasure1D.lebesgue(-5.0, 5.0, 1.0)
    ba = PositionDirection(BaseMeasureND.from_axis_measure(mu1),
                           SymmetricCap((1.0, 0.0), 0.4))
    assert default_backend(ba).name == "exact2d"
    sampler = SamplerMeasure(2, lambda rng, m: None, bounding_lo=(-1, -1),
                             bounding_hi=(1, 1))
    assert default_backend(sampler, budget=10, seed=1).name == "monte_carlo"


def test_unsupported_backend_pairings():
    mu1 = BaseMeasure1D.lebesgue(-5.0, 5.0, 1.0)
    ba = PositionDirection(BaseMeasureND.from_axis_measure(mu1),
                           SymmetricCap((1.0, 0.0), 0.4))
    with pytest.raises(UnsupportedBackendError):
        CF.pair(ba, np.array([0.0, 0.5]), np.array([1.0, 0.5]))  # cap needs exact2d
    nu3 = PositionDirection(BaseMeasureND(3, atoms=[((1.0, 0.0, 0.0), 1.0)]),
                            UniformDirections(3))
    with pytest.raises(UnsupportedBackendError):
        E2.pair(nu3, np.zeros(3), np.ones(3))  # planar backend only
    narrow = OffsetDirection(UniformDirections(2), BaseMeasure1D.lebesgue(-1.0, 1.0, 1.0))
    with pytest.raises(UnsupportedBackendError):
        CF.pair(narrow, np.array([5.0, 0.0]), np.array([6.0, 0.0]))  # span not covered


def _axis_cap():
    mu1 = BaseMeasure1D.lebesgue(-5.0, 5.0, 1.0)
    return PositionDirection(BaseMeasureND.from_axis_measure(mu1),
                             SymmetricCap((1.0, 0.0), 0.4))


NON_FINITE_CASES = {
    "closed_form-crofton": (CF, crofton2),
    "closed_form-atoms": (CF, lambda: atom_measure([((2.0, 0.3), 1.0)])),
    "exact2d-axis_cap": (E2, _axis_cap),
    "exact2d-atoms": (E2, lambda: atom_measure([((2.0, 0.3), 1.0)])),
    "monte_carlo-axis_cap": (MonteCarlo(budget=2_000, seed=5), _axis_cap),
}
NON_FINITE_QUERIES = {
    "pair": lambda b, nu, p: b.pair(nu, p, [0.2, 0.3]),
    "eval": lambda b, nu, p: EmbeddingMap(nu, [0.1, 0.4], backend=b).eval(p),
    "box_mass": lambda b, nu, p: b.box_mass(nu, p, [0.5, 0.6]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("query", list(NON_FINITE_QUERIES))
@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_non_finite_points_rejected(case, query, bad):
    # a non-finite coordinate is refused at the backend boundary; it used to
    # come back as a finite wrong answer (mass 0.0 for NaN on exact2d)
    backend, make = NON_FINITE_CASES[case]
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_QUERIES[query](backend, make(), [bad, 0.5])
