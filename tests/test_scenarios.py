import math

import numpy as np
import pytest

from busemetric import (BaseMeasure1D, BaseMeasureND, MonteCarlo, beurling_ahlfors, crofton,
                        degenerate_caps, doubling_pushforward, doubling_ratio, grid_export,
                        pair_integrals, seg_mass, tail1_check)
from busemetric.geometry import DimensionMismatchError
from busemetric.scenarios import GridImage, Scenario, inv_sqrt_density, lebesgue_box_measure


def rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_crofton_metric_proportional_to_length():
    sc = crofton(2)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y = rng.uniform(-2, 2, (2, 2))
        if np.all(x == y):
            continue
        d = seg_mass(sc.measure, x, y)
        assert d / np.linalg.norm(x - y) == pytest.approx(2.0 / math.pi, abs=1e-9)


def test_crofton_isotropy():
    sc = crofton(2)
    rng = np.random.default_rng(2)
    x, y = rng.uniform(-1, 1, (2, 2))
    base = seg_mass(sc.measure, x, y)
    for theta in rng.uniform(0, 2 * math.pi, 10):
        r = rot(theta)
        assert seg_mass(sc.measure, r @ x, r @ y) == pytest.approx(base, abs=1e-10)


def test_crofton_embedding_similarity():
    sc = crofton(2)
    f = sc.embedding()
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = rng.uniform(-2, 2, 2)
        assert f.eval(x) == pytest.approx(x / 2.0, abs=1e-12)


def test_doubling_box_scenario_marked_transverse():
    mu = lebesgue_box_measure(2, inner_half=0.8, levels=5)
    sc = doubling_pushforward(mu, window_lo=(-0.4, -0.4), window_hi=(0.4, 0.4), name="box")
    assert math.isfinite(doubling_ratio(mu, (-0.4, -0.4), (0.4, 0.4), seed=7))
    assert 0.0 < tail1_check(mu) < math.inf
    report = sc.validate(seed=7, point_count=8, segment_count=16)
    assert report.ok
    assert report.ok is (not report.violations())


def test_doubling_atoms_scenario():
    mu = BaseMeasureND(2, atoms=[((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0), ((0.4, -2.2), 1.5)])
    sc = doubling_pushforward(mu, window_lo=(-0.5, -0.5), window_hi=(0.5, 0.5),
                              name="atoms")
    report = sc.validate(seed=3, point_count=8, segment_count=24)
    assert report.ok
    assert report.ok is (not report.violations())
    assert report.min_segment_mass > 0.0
    rng = np.random.default_rng(4)
    for _ in range(10):
        x, y = rng.uniform(-0.5, 0.5, (2, 2))
        assert seg_mass(sc.measure, x, y) > 0.0


def test_doubling_rejects_collinear_support():
    mu = BaseMeasureND(2, atoms=[((0.0, 1.0), 1.0), ((1.0, 2.0), 1.0), ((2.0, 3.0), 1.0)])
    with pytest.raises(ValueError, match="line"):
        doubling_pushforward(mu, window_lo=(-1, -1), window_hi=(1, 1))


def test_doubling_rejects_atom_at_origin():
    mu = BaseMeasureND(2, atoms=[((0.0, 0.0), 1.0), ((1.0, 0.5), 1.0)])
    with pytest.raises(Exception):
        doubling_pushforward(mu, window_lo=(-1, -1), window_hi=(1, 1))


@pytest.fixture(scope="module")
def ba_lebesgue():
    return beurling_ahlfors(BaseMeasure1D.lebesgue(-30.0, 30.0, 1.0), window_half=3.0)


def test_ba_axis_values_match_interval_masses(ba_lebesgue):
    f = ba_lebesgue.embedding()
    rng = np.random.default_rng(5)
    for _ in range(40):
        s, t = np.sort(rng.uniform(-3, 3, 2))
        gap = f.eval([t, 0.0]) - f.eval([s, 0.0])
        assert abs(gap[0] - (t - s)) <= 1e-8
        assert abs(gap[1]) <= 1e-10


def test_ba_axis_symmetry(ba_lebesgue):
    # reflecting across the axis conjugates the map with itself, so the
    # second coordinate vanishes on the axis
    f = ba_lebesgue.embedding()
    for t in (-2.5, -0.3, 0.7, 1.9):
        assert abs(f.eval([t, 0.0])[1]) <= 1e-10


def test_ba_support_lines_cross_steeply(ba_lebesgue):
    omega = ba_lebesgue.measure.omega
    rng = np.random.default_rng(6)
    normals = omega.sample_normals(rng, 2000)
    for v in normals[:200]:
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert math.asin(min(1.0, abs(float(np.array([1.0, 0.0]) @ v)))) \
            >= math.pi / 3.0 - 1e-12
    assert np.all(np.abs(normals @ np.array([1.0, 0.0])) >= math.cos(math.pi / 6) - 1e-12)


def test_ba_rejects_atoms_in_window():
    mu = BaseMeasure1D(atoms=[(0.5, 1.0)], pieces=[(-5.0, 5.0, 1.0)])
    with pytest.raises(ValueError, match="atom"):
        beurling_ahlfors(mu, window_half=1.0)


def test_ba_inv_sqrt_identity():
    mu = inv_sqrt_density(pieces=512, support=1.0)
    sc = beurling_ahlfors(mu, window_half=1.0, height=0.8, name="ba_sqrt")
    f = sc.embedding()
    rng = np.random.default_rng(7)
    for _ in range(20):
        s, t = np.sort(rng.uniform(0.02, 0.98, 2))
        gap = f.eval([t, 0.0]) - f.eval([s, 0.0])
        assert abs(gap[0] - mu.mass(s, t)) <= 1e-6
        assert abs(gap[1]) <= 1e-8


def test_degenerate_family_full_caps_match_uniform():
    full = degenerate_caps(math.pi / 2, levels=4)
    mu = lebesgue_box_measure(2, inner_half=0.8, levels=4)
    ref = doubling_pushforward(mu, window_lo=(-0.4, -0.4), window_hi=(0.4, 0.4))
    rng = np.random.default_rng(8)
    for _ in range(10):
        x, y = rng.uniform(-0.4, 0.4, (2, 2))
        a = pair_integrals(full.measure, x, y)
        b = pair_integrals(ref.measure, x, y)
        # the two-cap union at theta0 = pi/2 is the uniform measure scaled by
        # 2 pi, so the transversality ratios coincide
        assert a.transversal / a.mass == pytest.approx(b.transversal / b.mass, abs=1e-12)
        assert a.mass == pytest.approx(2.0 * math.pi * b.mass, rel=1e-12)


def test_degenerate_oblique_segment_bound():
    theta0 = 0.05
    sc = degenerate_caps(theta0, levels=5)
    mc = MonteCarlo(budget=150_000, seed=9)
    rng = np.random.default_rng(10)
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    for _ in range(5):
        c = rng.uniform(-0.2, 0.2, 2)
        x, y = c + 0.15 * u, c - 0.15 * u
        p = pair_integrals(sc.measure, x, y)
        ratio = p.transversal / p.mass
        # cap geometry bounds the attainable angle against oblique segments
        assert ratio <= math.sin(math.pi / 4.0 + theta0) + 1e-12
        q = mc.pair(sc.measure, x, y)
        assert abs(p.mass - q.mass) <= 4.0 * q.mass_se
        assert abs(p.transversal - q.transversal) <= 4.0 * q.transversal_se


def test_transverse_scenarios_reproduce_kappa_anchors():
    # seed-fixed anchors, frozen from the first run: transverse scenarios
    # keep kappa > 0 and reproduce the value exactly run to run in one
    # process. Across numpy/BLAS builds and CPUs the anchors hold to a few
    # ulps, not bit for bit: numpy's runtime SIMD dispatch for float64
    # sin/cos/arctan2 (NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR X86_V4"
    # moves degenerate_caps by -3 ulp, beurling_ahlfors by +2) and OpenBLAS's
    # runtime ddot kernel (OPENBLAS_CORETYPE=Prescott moves box -3,
    # beurling_ahlfors +3, degenerate_caps +1) each shift them. 16 ulp is 4x
    # the largest measured spread and at most 3.6e-15 relative, far below
    # what a change to nodes, cuts or sampling would move.
    from busemetric.diagnostics import SamplingPlan, kappa_hat

    plan = SamplingPlan(region_lo=(-0.35, -0.35), region_hi=(0.35, 0.35),
                        pair_count=120, scale_range=(0.02, 0.3), seed=4242)
    plan_ba = SamplingPlan(region_lo=(-2.0, 0.1), region_hi=(2.0, 1.5),
                           pair_count=120, scale_range=(0.05, 0.8), seed=4242)
    mu_box = lebesgue_box_measure(2, inner_half=0.8, levels=6)
    assert math.isfinite(doubling_ratio(mu_box, (-0.35, -0.35), (0.35, 0.35)))
    cases = [
        (doubling_pushforward(mu_box, window_lo=(-0.35, -0.35),
                              window_hi=(0.35, 0.35), name="box"),
         plan, 0.7785434265600497),
        (beurling_ahlfors(BaseMeasure1D.lebesgue(-30.0, 30.0, 1.0), window_half=3.0),
         plan_ba, 0.34281433706604963),
        (degenerate_caps(0.2, levels=6), plan, 0.7112775963783409),
    ]
    for sc, p, anchor in cases:
        k1, _ = kappa_hat(sc.measure, p, backend=sc.backend())
        k2, _ = kappa_hat(sc.measure, p, backend=sc.backend())
        assert k1 > 0.0
        assert k1 == k2
        assert abs(k1 - anchor) <= 16 * np.spacing(anchor), \
            f"{sc.name}: anchor drifted to {k1!r}"


def test_grid_export_crofton_exact(tmp_path):
    sc = crofton(2)
    img = grid_export(sc, 9, (-1.0, -1.0), (1.0, 1.0))
    assert np.array_equal(img.values, img.points / 2.0)
    path = tmp_path / "grid.csv"
    img.to_csv(path)
    back = GridImage.from_csv(path)
    assert np.array_equal(back.points, img.points)
    assert np.array_equal(back.values, img.values)
    assert back.resolution == img.resolution
    # serialization is lossless even for awkward doubles
    img2 = grid_export(sc, 3, (-1 / 3, -1 / 3), (2 / 3, 2 / 3))
    img2.to_csv(path)
    back2 = GridImage.from_csv(path)
    assert np.array_equal(back2.points, img2.points)
    assert np.array_equal(back2.values, img2.values)


def test_grid_export_ba_axis_row(ba_lebesgue):
    img = grid_export(ba_lebesgue, 5, (-2.0, -1.0), (2.0, 1.0))
    on_axis = img.points[:, 1] == 0.0
    assert np.any(on_axis)
    assert np.all(np.abs(img.values[on_axis][:, 1]) <= 1e-10)
    assert np.all(np.abs(img.values[on_axis][:, 0] - img.points[on_axis][:, 0]) <= 1e-8)


def test_grid_export_rejects_degenerate_nodes():
    mu = BaseMeasureND(2, atoms=[((0.0, 1.0), 1.0), ((2.0, 2.0), 1.0), ((2.0, -1.0), 1.0)])
    sc = doubling_pushforward(mu, window_lo=(-1.0, -1.0), window_hi=(1.0, 1.0),
                              basepoint=(0.5, 0.3))
    with pytest.raises(Exception):
        # the 3x3 lattice over [-1, 1]^2 contains the atom at (0, 1)
        grid_export(sc, 3, (-1.0, -1.0), (1.0, 1.0))


def test_grid_export_window_check():
    sc = crofton(2)
    with pytest.raises(ValueError):
        grid_export(sc, 5, (-10.0, -10.0), (10.0, 10.0))
    with pytest.raises(ValueError):
        grid_export(sc, 1, (-1.0, -1.0), (1.0, 1.0))
    # a float resolution once failed inside numpy with a TypeError
    with pytest.raises(ValueError, match="resolution must be an integer"):
        grid_export(sc, 3.0, (-1.0, -1.0), (1.0, 1.0))
    # a corner short of the scenario dimension once failed with an IndexError
    with pytest.raises(ValueError, match="dimension 2"):
        grid_export(sc, 5, (-1.0,), (1.0,))


# ---------------------------------------------------------------------------
# one home for each fact, and builder inputs refused by name
# ---------------------------------------------------------------------------

BUILDERS = {
    "crofton2": lambda: crofton(2),
    "crofton3": lambda: crofton(3),
    "doubling_pushforward": lambda: doubling_pushforward(
        lebesgue_box_measure(2, inner_half=0.8, levels=2),
        window_lo=(-0.4, -0.4), window_hi=(0.4, 0.4)),
    "beurling_ahlfors": lambda: beurling_ahlfors(BaseMeasure1D.lebesgue(-30.0, 30.0, 1.0)),
    "degenerate_caps": lambda: degenerate_caps(0.2, levels=2),
}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_scenario_dimension_is_the_measures(name):
    # a scenario takes its dimension from its measure, so the two cannot disagree
    sc = BUILDERS[name]()
    assert sc.dim == sc.measure.dim


BAD_BUILDER_INPUTS = {
    "zero inner_half": ("inner_half", lambda: lebesgue_box_measure(2, inner_half=0.0)),
    "NaN inner_half": ("inner_half", lambda: lebesgue_box_measure(2, inner_half=math.nan)),
    "zero cell": ("cell", lambda: lebesgue_box_measure(2, inner_half=0.8, cell=0.0)),
    "infinite cell": ("cell", lambda: lebesgue_box_measure(2, inner_half=0.8, cell=math.inf)),
    "fractional levels": ("levels", lambda: lebesgue_box_measure(2, inner_half=0.8, levels=1.5)),
    "zero window_half": ("window_half", lambda: degenerate_caps(0.2, window_half=0.0)),
    "zero pieces": ("pieces", lambda: inv_sqrt_density(pieces=0)),
    "fractional pieces": ("pieces", lambda: inv_sqrt_density(pieces=2.5)),
    "negative support": ("support", lambda: inv_sqrt_density(support=-1.0)),
    "zero half_extent": ("half_extent", lambda: crofton(2, half_extent=0.0)),
    "fractional dimension": ("dimension", lambda: crofton(2.5)),
}


@pytest.mark.parametrize("angle", [0.0, 2.0, math.nan])
def test_beurling_ahlfors_refuses_a_cap_past_a_quarter_turn(angle):
    # the cap owns the rule; the builder refuses through it, before any other check
    with pytest.raises(ValueError, match=r"cap half angle must lie in \(0, pi/2\]"):
        beurling_ahlfors(BaseMeasure1D.lebesgue(-30.0, 30.0, 1.0), cap_half_angle=angle,
                         height=-1.0)


@pytest.mark.parametrize("case", list(BAD_BUILDER_INPUTS))
def test_builders_refuse_bad_inputs_by_name(case):
    # a zero inner_half or cell once divided by zero; a zero pieces or
    # half_extent failed with a message about density pieces
    key, build = BAD_BUILDER_INPUTS[case]
    with pytest.raises(ValueError, match=rf"^{key} must be"):
        build()


BAD_SCENARIO_POINTS = {
    "NaN corner": (ValueError, [math.nan, -1.0], [1.0, 1.0], [0.0, 0.0]),
    "infinite corner": (ValueError, [-math.inf, -1.0], [1.0, 1.0], [0.0, 0.0]),
    "3-D domain": (DimensionMismatchError, [-1.0] * 3, [1.0] * 3, [0.0] * 3),
    "NaN basepoint": (ValueError, [-1.0, -1.0], [1.0, 1.0], [math.nan, 0.0]),
}


@pytest.mark.parametrize("case", list(BAD_SCENARIO_POINTS))
def test_scenario_refuses_corners_and_basepoints_that_are_not_points_of_its_measure(case):
    # each of these once built: numpy coerced the corners and the basepoint, and a
    # NaN fails every comparison with the domain
    error, lo, hi, basepoint = BAD_SCENARIO_POINTS[case]
    with pytest.raises(error, match="point"):
        Scenario("x", lo, hi, crofton(2).measure, basepoint)
