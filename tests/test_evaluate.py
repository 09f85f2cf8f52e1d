import math
from pathlib import Path

import numpy as np
import pytest

from busemetric import (BaseMeasure1D, BaseMeasureND, ClosedForm, Cube,
                        DegenerateConfigurationError, DimensionMismatchError,
                        EmbeddingMap, Exact2D, MonteCarlo,
                        OffsetDirection, PositionDirection, SamplerMeasure,
                        SymmetricCap, UniformDirections, UnsupportedBackendError,
                        box_mass, calibrate_embedding_constant, cube_mass, pair_integrals,
                        seg_mass)
from busemetric import arcs, evaluate
from busemetric.directions import ArcDensity2D, unit_kernel_constant
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


def test_equal_points_answer_carries_the_backend():
    # x == y is answered at the query boundary, but under the serving
    # backend's name; Monte Carlo reports zero standard errors, not None
    nu = crofton2()
    x = [0.3, 0.4]
    for taus in (None, [0.1, 0.5]):
        p = CF.pair(nu, x, x, taus=taus)
        assert p.backend == "closed_form" and p.mass_se is None
        q = MonteCarlo(budget=2_000, seed=3).pair(nu, x, x, taus=taus)
        assert q.backend == "monte_carlo"
        assert (q.mass, q.transversal, q.mass_se, q.transversal_se) == (0.0, 0.0, 0.0, 0.0)
        assert q.embed.tolist() == q.embed_se.tolist() == [0.0, 0.0]
        if taus is None:
            assert q.angle is None and q.angle_se is None
        else:
            assert q.angle.tolist() == q.angle_se.tolist() == [0.0, 0.0]
    ba = PositionDirection(BaseMeasureND(2, segments=[((-1.0, 0.0), (1.0, 0.0), 1.0)]),
                           SymmetricCap((1.0, 0.0), math.pi / 6))
    assert E2.pair(ba, x, x).backend == "exact2d"


def test_embedding_map_copies_caller_basepoint():
    o = np.zeros(2)
    f = EmbeddingMap(crofton2(), o)
    o[0] = 1.0
    assert f.basepoint.tolist() == [0.0, 0.0]
    assert f.eval([0.0, 0.0]).tolist() == [0.0, 0.0]


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


def _atoms_with_far_one(*points):
    return atom_measure([(p, 1.0) for p in points] + [((5.0, 5.0), 1.0)])


_XA, _YA = np.array([-1.66, -1.05]), np.array([1.21, 0.33])
_XB, _YB = np.array([-0.3, 1.3]), np.array([-0.4, 0.2])
# (measure, x, y): an atom at y, which x + 1.0 * (y - x) misses in floating
# point; one at x + 0.07 (y - x), not exactly collinear with x and y in floating
# point but on the segment by the projection test; one at x; one inside
# (0, 0)-(1, 1); and x == y at an atom
ATOM_ON_SEGMENT_CASES = {
    "at_y": lambda: (_atoms_with_far_one(_YA), _XA, _YA),
    "t_0.07": lambda: (_atoms_with_far_one(_XB + 0.07 * (_YB - _XB)), _XB, _YB),
    "at_x": lambda: (_atoms_with_far_one(_XA), _XA, _YA),
    "inside": lambda: (_atoms_with_far_one((0.5, 0.5)), np.zeros(2), np.ones(2)),
    "point": lambda: (_atoms_with_far_one((0.5, 0.5)), np.full(2, 0.5), np.full(2, 0.5)),
}
ATOM_ON_SEGMENT_ROUTES = {
    "closed_form": lambda nu, x, y: CF.pair(nu, x, y),
    "exact2d": lambda nu, x, y: E2.pair(nu, x, y, taus=[0.2]),
    "monte_carlo": lambda nu, x, y: MonteCarlo(budget=2_000, seed=5).pair(nu, x, y),
    "seg_mass_many": lambda nu, x, y: MonteCarlo(budget=2_000, seed=5).seg_mass_many(
        nu, [[0.1, 0.2], x], [[0.3, 0.1], y]),
}


@pytest.mark.parametrize("route", list(ATOM_ON_SEGMENT_ROUTES))
@pytest.mark.parametrize("case", list(ATOM_ON_SEGMENT_CASES))
def test_atom_on_closed_segment_rejected_by_every_backend(case, route):
    # one rule at the query boundary: at y, Monte Carlo once answered mass
    # 0.94, and at t = 0.07 exact2d answered 1.0373 while the others refused
    nu, x, y = ATOM_ON_SEGMENT_CASES[case]()
    with pytest.raises(DegenerateConfigurationError, match="mu-atom"):
        ATOM_ON_SEGMENT_ROUTES[route](nu, x, y)


def test_atom_on_closed_segment_rejected_in_3d():
    nu = PositionDirection(BaseMeasureND(3, atoms=[((0.5, 1.0, 1.5), 1.0), ((1.0, 2.0, 3.0), 2.0),
                                                   ((4.0, 0.0, 0.0), 1.0)]),
                           UniformDirections(3))
    x = np.zeros(3)
    for y in ([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 1.5]):
        for backend in (CF, MonteCarlo(budget=2_000, seed=5)):
            with pytest.raises(DegenerateConfigurationError, match="mu-atom"):
                backend.pair(nu, x, y)
    assert CF.pair(nu, x, [0.5, 1.0, 1.4]).mass > 0.0


def test_backends_agree_on_atoms_near_the_segment():
    # atoms at x + t (y - x) on a grid: each backend refuses exactly the
    # atoms the boundary rule puts on the segment and answers the rest
    rng = np.random.default_rng(91)
    mc = MonteCarlo(budget=2_000, seed=5)
    outcomes = set()
    for _ in range(2_000):
        x, y = rng.integers(-20, 21, (2, 2)) / 10.0
        if np.all(x == y):
            continue
        atom = x + rng.integers(-10, 111) / 100.0 * (y - x)
        nu = _atoms_with_far_one(atom)
        raised = []
        for backend in (CF, E2, mc):
            try:
                backend.pair(nu, x, y)
                raised.append(False)
            except DegenerateConfigurationError:
                raised.append(True)
        assert len(set(raised)) == 1, (x, y, atom, raised)
        assert raised[0] == bool(nu.mu.atoms_on_segment(x, y).size)
        outcomes.add(raised[0])
    assert outcomes == {True, False}


def _ref_exact2d_pair(nu, x, y, taus):
    """Exact2D's pair as one kernel call per support kind: atoms refusing
    positions on the segment, then cell nodes, then segment nodes."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    pieces = nu.omega.arc_pieces()
    mass, trans = 0.0, 0.0
    emb = np.zeros(2)
    angle = np.zeros(len(taus)) if taus is not None else None
    mu = nu.mu
    for points, weights, on_segment in (
            (mu.atom_points, mu.atom_weights, "error"),
            (mu.node_points, mu.node_weights, "full"),
            (*arcs.segment_pair_nodes(mu.segment_table, pieces, x, y)[:2], "full")):
        if len(points):
            m, t, e, a = arcs.pair_cloud_integrals(points, weights, pieces, x, y,
                                                   taus=taus, on_segment=on_segment)
            mass += m
            trans += t
            emb += e
            if angle is not None:
                angle += a
    return [mass, trans, emb] + ([] if angle is None else [angle])


def _ref_exact2d_box(nu, lo, hi):
    """Exact2D's box mass with atoms and cell nodes in separate kernel calls."""
    pieces = nu.omega.arc_pieces()
    total = 0.0
    for pts, w in ((nu.mu.atom_points, nu.mu.atom_weights),
                   (nu.mu.node_points, nu.mu.node_weights)):
        if pts.size:
            total += arcs.box_cloud_mass(pts, w, pieces, lo, hi)
    for mass in arcs.segment_box_masses(nu.mu.segment_table, pieces, lo, hi):
        total += mass
    return float(total)


def test_exact2d_point_cloud_matches_per_kind_reference_bits():
    from busemetric.directions import ArcDensity2D
    from busemetric.scenarios import degenerate_caps
    atoms = PositionDirection(
        BaseMeasureND(2, atoms=[((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0), ((0.4, -2.2), 1.5)],
                      segments=[((-1.0, -0.5), (1.5, -0.4), 1.3)]),
        SymmetricCap((0.6, 0.8), 0.5))
    cells = degenerate_caps(0.2, levels=2).measure
    plain = atom_measure([((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0)])
    plain = PositionDirection(plain.mu, ArcDensity2D([(0.1, 1.2, 1.0), (2.0, 2.9, 0.5)]))
    rng = np.random.default_rng(92)
    for nu in (atoms, cells, plain):
        for _ in range(8):
            x, y = rng.uniform(-0.6, 0.6, (2, 2))
            for taus in (None, [0.3], [0.1, 0.7], np.linspace(0.0, 1.5, 100)):
                p = E2.pair(nu, x, y, taus=taus)
                got = [p.mass, p.transversal, p.embed] + ([] if taus is None else [p.angle])
                ref = _ref_exact2d_pair(nu, x, y, taus)
                assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                           for a, b in zip(got, ref))
            lo, hi = np.minimum(x, y), np.maximum(x, y)
            assert E2.box_mass(nu, lo, hi).mass == _ref_exact2d_box(nu, lo, hi)


BOX_ORDER_CASES = {
    "closed_form": (CF, crofton2),
    "exact2d": (E2, lambda: atom_measure([((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0)])),
    "monte_carlo": (MonteCarlo(budget=2_000, seed=5),
                    lambda: atom_measure([((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0)])),
}


@pytest.mark.parametrize("case", list(BOX_ORDER_CASES))
def test_box_corners_out_of_order_rejected(case):
    # box (1, 1)-(0, 0) once had mass -1.2732 on closed_form-crofton, and
    # 0.7167 on the exact backends against 0.0 on Monte Carlo for the atoms
    backend, make = BOX_ORDER_CASES[case]
    nu = make()
    for lo, hi in (([1.0, 1.0], [0.0, 0.0]), ([0.0, 1.0], [1.0, 0.0])):
        with pytest.raises(ValueError, match="out of order"):
            backend.box_mass(nu, lo, hi)
        with pytest.raises(ValueError, match="out of order"):
            box_mass(nu, lo, hi, backend=backend)
    # a flat box, lo == hi on one axis, is still a box
    assert backend.box_mass(nu, [0.0, 0.5], [1.0, 0.5]).mass >= 0.0


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
    val = CF.pair(nu, [0.0, 0.0], [L, 0.0]).transversal
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
# closed forms on 3-D position measures: the n = 3 angle profile and the box
# mass, against references that share no code with them
# ---------------------------------------------------------------------------

def _band_integral(tau, lo, hi):
    """Integral of sqrt(1 - (sin tau / sin xi)^2) over [lo, hi] within [tau, pi - tau],
    by scipy's QAWS rule with the square-root zeros at tau and pi - tau as weights:
    sin^2 xi - sin^2 tau = sin(xi - tau) sin(pi - tau - xi)."""
    from scipy import integrate
    a, b = max(lo, tau), min(hi, math.pi - tau)
    if b <= a:
        return 0.0
    alpha = 0.5 if a == tau else 0.0
    beta = 0.5 if b == math.pi - tau else 0.0

    def smooth(xi):
        d1, d2 = xi - tau, math.pi - tau - xi
        return (math.sqrt(np.sinc(d1 / math.pi) * np.sinc(d2 / math.pi)) / math.sin(xi)
                * d1 ** (0.5 - alpha) * d2 ** (0.5 - beta))

    return integrate.quad(smooth, a, b, weight="alg", wvar=(alpha, beta),
                          epsabs=1e-14, epsrel=1e-13, limit=200)[0]


def test_angle_profile_3d_matches_quad():
    # a unit atom at the origin sees [x, y] on the line y = 1 over directions
    # xi in [lo, hi] measured from x - y, which points along the first axis;
    # a plane through it with in-plane normal at xi has |<v, u>| = rho sin xi,
    # rho the in-plane radius, and P(rho >= s) = sqrt(1 - s^2) on the sphere
    nu = PositionDirection(BaseMeasureND(3, atoms=[((0.0, 0.0, 0.0), 1.0)]), UniformDirections(3))
    rng = np.random.default_rng(2024)
    for _ in range(60):
        lo, hi = np.sort(rng.uniform(0.02, math.pi - 0.02, 2))
        if hi - lo < 1e-3:
            continue
        taus = np.concatenate([[0.0], rng.uniform(0.0, 1.55, 9)])
        x = np.array([1.0 / math.tan(lo), 1.0, 0.0])
        y = np.array([1.0 / math.tan(hi), 1.0, 0.0])
        inner = math.pi * CF.pair(nu, x, y, taus=taus).angle
        assert abs(inner[0] - (hi - lo)) <= 1e-12
        for tau, got in zip(taus, inner):
            assert abs(got - _band_integral(tau, lo, hi)) <= 1e-12
    # the arc covering both endpoints tau and pi - tau
    x, y = np.array([50.0, 1.0, 0.0]), np.array([-50.0, 1.0, 0.0])
    taus = np.array([0.1, 0.5, 1.0, 1.5])
    inner = math.pi * CF.pair(nu, x, y, taus=taus).angle
    for tau, got in zip(taus, inner):
        assert abs(got - _band_integral(tau, 0.0, math.pi)) <= 1e-12


def _single_atom_3d(p):
    return PositionDirection(BaseMeasureND(3, atoms=[(p, 1.0)]), UniformDirections(3))


def _hull_share(p, lo, hi):
    """Perimeter over 2 pi of the spherical convex hull of the box corners seen
    from p, an outside node: the corners are projected gnomonically about the
    direction to the box's nearest point, which every corner lies ahead of."""
    from scipy.spatial import ConvexHull
    corners = np.array([[(hi if c >> d & 1 else lo)[d] for d in range(3)] for c in range(8)])
    u = corners - p
    u /= np.linalg.norm(u, axis=1)[:, None]
    z = np.clip(p, lo, hi) - p
    z /= np.linalg.norm(z)
    frame = np.linalg.svd(z[None, :])[2][1:]         # two unit vectors orthogonal to z
    ring = u[ConvexHull((u @ frame.T) / (u @ z)[:, None]).vertices]
    nxt = np.roll(ring, -1, axis=0)
    sides = np.arctan2(np.linalg.norm(np.cross(ring, nxt), axis=1), np.sum(ring * nxt, axis=1))
    return float(np.sum(sides)) / (2.0 * math.pi)


def test_box_share_3d_is_the_outline_perimeter():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 400:
        lo = rng.uniform(-1.0, 1.0, 3)
        hi = lo + rng.uniform(0.01, 1.0, 3)
        p = rng.uniform(-2.0, 2.0, 3)
        if np.all((lo <= p) & (p <= hi)):
            continue
        got = CF.box_mass(_single_atom_3d(p), lo, hi).mass
        assert got == pytest.approx(_hull_share(p, lo, hi), rel=1e-12, abs=0.0)
        checked += 1


def test_box_mass_3d_matches_monte_carlo_on_small_boxes():
    # the old 96 x 192 direction grid read the edge-0.031 box 8.6 standard errors off
    nu = _single_atom_3d((1.0, 0.5, -0.4))
    rng = np.random.default_rng(31)
    boxes = [(np.array([-0.413, 0.567, 0.496]), 0.031)]
    boxes += [(rng.uniform(-1.0, 1.0, 3), e) for e in np.geomspace(0.025, 0.48, 7)]
    mc = MonteCarlo(budget=1_000_000, seed=5)
    for center, edge in boxes:
        q = Cube(center, edge)
        est, se = mc.cube_mass(nu, q)
        assert abs(CF.cube_mass(nu, q).mass - est) <= 4.0 * se


def test_box_share_3d_inside_on_and_flat():
    box_lo, box_hi = np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 3.0])
    for p in ([0.5, 0.0, 2.5], [0.0, 0.0, 2.5], [0.0, 1.0, 2.5], [1.0, 1.0, 3.0]):
        assert CF.box_mass(_single_atom_3d(p), box_lo, box_hi).mass == 1.0
    # a flat box in the node's plane z = 0 subtends pi/2 there: half of all planes hit it
    flat = CF.box_mass(_single_atom_3d((0.0, 0.0, 0.0)), [1.0, -1.0, 0.0], [2.0, 1.0, 0.0])
    assert flat.mass == pytest.approx(0.5, rel=1e-15)
    rng = np.random.default_rng(8)
    for _ in range(50):
        lo = np.append(rng.uniform(-1.0, 1.0, 2), 0.0)
        hi = lo + np.append(rng.uniform(0.01, 1.0, 2), 0.0)
        p = np.append(rng.uniform(-2.0, 2.0, 2), 0.0)
        if np.all((lo <= p) & (p <= hi)):
            continue
        c = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [lo[0], hi[1]], [hi[0], hi[1]]]) - p[:2]
        ang = np.arctan2(c[:, 1], c[:, 0])
        ref = max(abs(ang[i] - ang[j]) if abs(ang[i] - ang[j]) <= math.pi
                  else 2.0 * math.pi - abs(ang[i] - ang[j]) for i in range(4) for j in range(4))
        got = CF.box_mass(_single_atom_3d(p), lo, hi).mass
        assert got == pytest.approx(ref / math.pi, rel=1e-12)


def _cloud_3d():
    edges = np.linspace(-1.0, 1.0, 6)
    cells = [(a, b, c, a + 0.4, b + 0.4, c + 0.4, 1.0)
             for a in edges[:-1] for b in edges[:-1] for c in edges[:-1]]
    return PositionDirection(BaseMeasureND(3, cells=cells, gauss_order=2), UniformDirections(3))


def _peak_bytes(query):
    import tracemalloc
    tracemalloc.start()
    try:
        query()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_closed_form_3d_cloud_memory_is_bounded():
    # the direction grid held a 1000-node x 18432-direction gap matrix (about
    # 314 MB at peak) and the Gauss rule a node x tau x 24 array (about 80 MB)
    from busemetric.diagnostics import TAU_GRID
    nu = _cloud_3d()
    assert _peak_bytes(lambda: CF.box_mass(nu, [1.1, -0.2, 0.1], [1.4, 0.3, 0.2])) < 5e6
    x, y = np.array([-0.9, 0.13, 0.21]), np.array([0.7, -0.31, 0.45])
    assert _peak_bytes(lambda: CF.pair(nu, x, y, taus=TAU_GRID)) < 20e6


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
    atoms = [((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0)]
    nu = atom_measure(atoms)
    shift = np.array([13.0, -7.0])
    moved = atom_measure([(np.add(p, shift), w) for p, w in atoms])
    rng = np.random.default_rng(19)
    for _ in range(20):
        x, y = rng.uniform(-0.8, 0.8, (2, 2))
        p = pair_integrals(nu, x, y, backend=E2)
        q = pair_integrals(moved, x + shift, y + shift, backend=E2)
        assert q.mass == pytest.approx(p.mass, abs=1e-10)
        assert q.transversal == pytest.approx(p.transversal, abs=1e-10)
        assert np.allclose(q.embed, p.embed, atol=1e-10)


def test_translation_equivariance_with_cells():
    mu = lebesgue_box_measure(2, inner_half=0.4, levels=2)
    nu = PositionDirection(mu, UniformDirections(2))
    shift = np.array([13.0, -7.0])
    moved = PositionDirection(BaseMeasureND(2, cells=mu.cells + np.r_[shift, shift, 0.0],
                                            gauss_order=mu.gauss_order), UniformDirections(2))
    rng = np.random.default_rng(20)
    for backend in (CF, E2):
        for _ in range(10):
            x, y = rng.uniform(-0.8, 0.8, (2, 2))
            p = backend.pair(nu, x, y)
            q = backend.pair(moved, x + shift, y + shift)
            assert q.mass == pytest.approx(p.mass, rel=1e-12)


# the families the query_churn benchmark scales, by the bundled config each is built from
@pytest.mark.parametrize("config", ["crofton2", "doubling_box", "ba_lebesgue",
                                    "degenerate_caps_02"])
def test_scaled_families_scale_pair_and_box_masses(config):
    from busemetric.cli import build_scenario, load_config
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs" / f"{config}.json"))
    sc = build_scenario(cfg["scenario"], cfg["seed"])
    lo, hi = (np.array(c) for c in cfg["plan"]["region"])
    nu, c, backend = sc.measure, 1.7, sc.backend()
    scaled = nu.scaled(c)
    pairs = np.random.default_rng(21).uniform(lo, hi, (4, 2, len(lo)))
    for x, y in pairs:
        assert backend.pair(scaled, x, y).mass == pytest.approx(
            c * backend.pair(nu, x, y).mass, rel=1e-12)
    assert backend.box_mass(scaled, lo, hi).mass == pytest.approx(
        c * backend.box_mass(nu, lo, hi).mass, rel=1e-12)


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

def test_mc_quarter_circle():
    nu = atom_measure([((0.0, 0.0), 1.0)])
    res = MonteCarlo(budget=200_000, seed=20).pair(nu, [1.0, 0.0], [0.0, 1.0])
    assert abs(res.mass - 0.5) <= 3.0 * res.mass_se


def test_mc_determinism():
    nu = crofton2()

    def estimate(seed):
        res = MonteCarlo(budget=50_000, seed=seed).pair(nu, [0.0, 0.0], [1.0, 0.0])
        return res.mass, res.mass_se

    assert estimate(21) == estimate(21)
    assert estimate(21) != estimate(22)


def test_mc_error_scaling_with_budget():
    nu = crofton2()
    ratios = []
    for seed in range(30):
        se1, se2 = (MonteCarlo(budget=budget, seed=seed).pair(nu, [0.0, 0.0], [1.0, 0.3]).mass_se
                    for budget in (4_000, 8_000))
        ratios.append(se2 / se1)
    mean_ratio = float(np.mean(ratios))
    assert abs(mean_ratio - 1.0 / math.sqrt(2.0)) <= 0.2 * (1.0 / math.sqrt(2.0))


def test_mc_embed_and_cube_queries():
    nu = crofton2()
    res = MonteCarlo(budget=200_000, seed=23).pair(nu, [2.0, 0.0], [0.0, 0.0])
    assert np.all(np.abs(res.embed - np.array([1.0, 0.0])) <= 4.0 * res.embed_se)
    vc, sec = MonteCarlo(budget=200_000, seed=24).cube_mass(nu, Cube([0.0, 0.0], 1.0))
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


# the bulk path, a row past the offset span, and an offset measure that is
# not one constant piece: the last two fall back to pair row by row
SEG_MASS_MANY_ROUTES = {
    "bulk": (crofton2, [[0.1, 0.2], [-0.5, 0.3]], [[0.4, -0.2], [0.2, 0.9]]),
    "uncovered": (lambda: OffsetDirection(UniformDirections(2),
                                          BaseMeasure1D.lebesgue(-1.0, 1.0, 1.0)),
                  [[0.5, 0.5], [0.1, 0.2]], [[1.5, 0.0], [0.3, -0.1]]),
    "not_constant": (lambda: OffsetDirection(UniformDirections(2), BaseMeasure1D(
        pieces=[(-2.0, 0.0, 1.0), (0.0, 2.0, 2.0)])),
                     [[0.1, 0.2], [-0.5, 0.3]], [[0.4, -0.2], [0.2, 0.9]]),
}


@pytest.mark.parametrize("route", list(SEG_MASS_MANY_ROUTES))
def test_mc_seg_mass_many_checks_each_row_once(monkeypatch, route):
    # the bulk path checks its rows in one batched check; a row that falls back
    # to pair is checked there alone, never once before the fallback as well
    make, xs, ys = SEG_MASS_MANY_ROUTES[route]
    nu = make()
    mc = MonteCarlo(budget=2_000, seed=5)
    checked = []
    segments = mc._segments
    monkeypatch.setattr(mc, "_segments",
                        lambda nu, xs, ys: checked.append(len(xs)) or segments(nu, xs, ys))
    mc.seg_mass_many(nu, xs, ys)
    assert sum(checked) == len(xs)
    assert len(checked) == 1


@pytest.mark.parametrize("make", [crofton2, lambda: atom_measure([((2.0, 0.3), 1.0)])],
                         ids=["bulk", "position"])
@pytest.mark.parametrize("rows", [[], np.zeros((0, 2))], ids=["list", "array"])
def test_mc_seg_mass_many_answers_zero_rows_with_empty_arrays(make, rows):
    # no rows once raised ValueError on the bulk route and IndexError on the
    # other (DimensionMismatchError on both for an empty list)
    vals, ses = MonteCarlo(budget=2_000, seed=5).seg_mass_many(make(), rows, rows)
    assert vals.shape == ses.shape == (0,)


def test_mc_seg_mass_many_sends_uncovered_rows_through_pair():
    # the bulk formula needs the constant offset density to cover every row;
    # the first row reaches norm 1.5 past the span [-1, 1], which pair
    # answers (mass 0.53437) and seg_mass_many once refused
    narrow = OffsetDirection(UniformDirections(2), BaseMeasure1D.lebesgue(-1.0, 1.0, 1.0))
    mc = MonteCarlo(budget=20_000, seed=1)
    xs = [[0.5, 0.5], [0.1, 0.2], [-0.3, 0.4]]
    ys = [[1.5, 0.0], [0.3, -0.1], [0.2, 0.2]]
    vals, ses = mc.seg_mass_many(narrow, xs, ys)
    pairs = [mc.pair(narrow, x, y) for x, y in zip(xs, ys)]
    assert vals.tobytes() == np.array([p.mass for p in pairs]).tobytes()
    assert ses.tobytes() == np.array([p.mass_se for p in pairs]).tobytes()
    assert vals[0] == pytest.approx(0.53437, abs=1e-5)


def _bits(p):
    return [np.asarray(v, dtype=float).tobytes() if v is not None else None
            for v in (p.mass, p.transversal, p.embed, p.angle, p.mass_se, p.transversal_se,
                      p.embed_se, p.angle_se)]


def _slab_cases():
    """A hit batch and an offset batch, each with the slab formula written out from
    the batch's own samples, redrawn from the seed."""
    mu = BaseMeasureND(2, atoms=[((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0)],
                       segments=[((-1.0, -1.0), (1.5, 0.5), 0.7)])
    hits = PositionDirection(mu, UniformDirections(2))

    def hit_slab(rng, m, lo, hi):
        pts = evaluate._sample_positions(mu, rng, m)
        normals = hits.omega.sample_normals(rng, m)
        offsets = np.einsum("ij,ij->i", pts, normals)
        weight = mu.total_mass() * hits.omega.total_mass() / m
        return normals, weight * ((offsets >= lo) & (offsets <= hi))

    offset = OffsetDirection(UniformDirections(3), BaseMeasure1D(
        atoms=[(0.25, 0.5)], pieces=[(-2.0, 0.0, 1.5), (0.0, 3.0, 0.25)]))

    def offset_slab(rng, m, lo, hi):
        normals = offset.omega.sample_normals(rng, m)
        return normals, offset.omega.total_mass() / m * offset.offsets.mass_many(lo, hi)

    return {"hits": (hits, hit_slab), "offset": (offset, offset_slab)}


@pytest.mark.parametrize("kind", ["hits", "offset"])
def test_mc_batch_slab_matches_the_written_out_formula_bits(kind):
    # a batch is its normals and a slab function; the slab's per-sample masses
    # are the bits of the formula each batch kind has always used
    nu, reference = _slab_cases()[kind]
    mc = MonteCarlo(budget=4_000, seed=11)
    normals, slab = mc._batch(nu)
    rng = np.random.default_rng(3)
    lo = rng.normal(size=len(normals))
    hi = lo + rng.exponential(size=len(normals))
    ref_normals, ref = reference(np.random.default_rng(11), 4_000, lo, hi)
    assert normals.tobytes() == ref_normals.tobytes()
    assert slab(lo, hi).tobytes() == ref.tobytes()
    assert mc._batch(nu)[1] is slab     # built once per batch


def test_mc_batch_cache_is_bounded():
    # a long-lived backend keeps the batches of a few recent measures only; a
    # measure queried again after eviction gets the same batch from the seed
    mc = MonteCarlo(budget=5_000, seed=30)
    base = atom_measure([((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0)])
    measures = [base.scaled(1.0 + 0.25 * k) for k in range(6)]
    x, y = [0.1, 0.2], [0.5, -0.3]
    first = mc.pair(measures[0], x, y, taus=[0.2, 0.9])
    for nu in measures[1:]:
        mc.pair(nu, x, y)
        assert len(mc._batches) <= evaluate.BATCH_CACHE_SIZE
    assert id(measures[0]) not in mc._batches
    assert _bits(mc.pair(measures[0], x, y, taus=[0.2, 0.9])) == _bits(first)


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


@pytest.mark.parametrize("key,args", [
    ("dim", (1, 600, 0)), ("dim", (2.5, 600, 0)), ("seed", (2, 600, -1)),
    ("seed", (2, 600, 1.0)), ("budget", (2, 5, 0)), ("budget", (2, 600.0, 0)),
])
def test_calibration_refuses_inputs_by_name(key, args):
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        calibrate_embedding_constant(*args)


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


def _cap3_offsets():
    return OffsetDirection(SymmetricCap((0.3, 0.5, 0.8), 0.6), BaseMeasure1D.lebesgue(-20, 20, 1.0))


def _atoms_4d():
    return PositionDirection(BaseMeasureND(4, atoms=[((1.0, 0.5, -0.4, 0.2), 1.0),
                                                     ((-0.8, 1.2, 0.6, -1.0), 2.0),
                                                     ((0.3, -1.1, 0.9, 0.7), 1.5)]),
                             UniformDirections(4))


def test_unsupported_backend_pairings():
    mu1 = BaseMeasure1D.lebesgue(-5.0, 5.0, 1.0)
    ba = PositionDirection(BaseMeasureND.from_axis_measure(mu1),
                           SymmetricCap((1.0, 0.0), 0.4))
    nu3 = PositionDirection(BaseMeasureND(3, atoms=[((1.0, 0.0, 0.0), 1.0)]),
                            UniformDirections(3))
    # position measures whose directions are not uniform have no closed form:
    # the uniform kernel would give a finite wrong mass
    caps2 = atom_measure([((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0)])
    caps2 = PositionDirection(caps2.mu, SymmetricCap([0.0, 1.0], 0.3))
    caps3 = PositionDirection(BaseMeasureND(3, atoms=[((2.0, 0.3, 0.1), 1.0)]),
                              SymmetricCap([0.0, 0.0, 1.0], 0.4))
    cases = [(CF, ba, [0.0, 0.5], [1.0, 0.5]),        # cap needs exact2d
             (E2, nu3, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),  # planar backend only
             (CF, caps2, [0.0, 0.0], [0.5, 0.2]),
             (CF, caps3, [0.0, 0.0, 0.0], [0.3, 0.2, 0.1]),
             # closed_form once claimed these and failed on angle profiles
             # (the cap) or box masses (the 4-D atoms)
             (CF, _cap3_offsets(), [0.1, 0.1, 0.1], [0.3, 0.3, 0.3]),
             (CF, _atoms_4d(), [0.1, 0.1, 0.1, 0.1], [0.3, 0.3, 0.3, 0.3])]
    for backend, nu, x, y in cases:
        with pytest.raises(UnsupportedBackendError):
            backend.pair(nu, x, y)
        with pytest.raises(UnsupportedBackendError):
            backend.pair(nu, x, y, taus=[0.2])
        with pytest.raises(UnsupportedBackendError):
            backend.pair(nu, x, x)
        with pytest.raises(UnsupportedBackendError):
            backend.box_mass(nu, x, y)
        with pytest.raises(UnsupportedBackendError):
            backend.cube_mass(nu, Cube(x, 0.5))
    narrow = OffsetDirection(UniformDirections(2), BaseMeasure1D.lebesgue(-1.0, 1.0, 1.0))
    with pytest.raises(UnsupportedBackendError):
        CF.pair(narrow, np.array([5.0, 0.0]), np.array([6.0, 0.0]))  # span not covered


# ---------------------------------------------------------------------------
# ClosedForm's contract: it claims a measure only where every query kind the
# audits ask answers
# ---------------------------------------------------------------------------

UNCLAIMED = {"cap3_offsets": _cap3_offsets, "atoms_4d": _atoms_4d}


@pytest.mark.parametrize("case", list(UNCLAIMED))
def test_default_backend_skips_closed_form_where_a_query_kind_fails(case):
    from busemetric import default_backend
    from busemetric.diagnostics import SamplingPlan, run_diagnostics
    nu = UNCLAIMED[case]()
    assert not CF.supports(nu)
    assert default_backend(nu).name == "monte_carlo"
    n = nu.dim
    plan = SamplingPlan(region_lo=(-0.5,) * n, region_hi=(0.5,) * n, pair_count=8,
                        cycle_count=4, cube_count=4, triple_count=4, seed=3)
    assert run_diagnostics(nu, np.zeros(n), plan).passed()


OFFSET_2D = {
    "cap": lambda: SymmetricCap((0.6, 0.8), 0.5),
    "arcs": lambda: ArcDensity2D([(0.1, 1.2, 1.0), (2.0, 2.9, 0.5)]),
}


def _within(exact, est, se, k=4.0):
    # components Monte Carlo estimates with zero spread are not compared
    exact, est, se = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (exact, est, se))
    live = se > 0.0
    return bool(np.all(np.abs(exact - est)[live] <= k * se[live]))


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("case", list(OFFSET_2D))
def test_closed_form_planar_offsets_against_monte_carlo(case, seed):
    # the arc-density offset pair (its angle block included) and box width
    # integral, which no bundled config reaches
    nu = OffsetDirection(OFFSET_2D[case](), BaseMeasure1D.lebesgue(-20.0, 20.0, 1.5))
    mc = MonteCarlo(budget=200_000, seed=seed)
    x, y, taus = [0.3, -0.2], [-0.5, 0.6], [0.1, 0.4, 0.8, 1.2]
    p = CF.pair(nu, x, y, taus=taus)
    q = mc.pair(nu, x, y, taus=taus)
    assert _within(p.mass, q.mass, q.mass_se)
    assert _within(p.transversal, q.transversal, q.transversal_se)
    assert _within(p.embed, q.embed, q.embed_se)
    assert _within(p.angle, q.angle, q.angle_se)
    lo, hi = [-0.3, -0.1], [0.4, 0.5]
    assert _within(CF.box_mass(nu, lo, hi).mass, *mc.box_mass(nu, lo, hi))


def test_atoms_and_cells_sum_on_both_exact_backends():
    atoms = [((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0), ((0.4, -2.2), 1.5)]
    cells = [(-0.5, -0.5, 0.0, 0.5, 1.0), (0.0, -0.5, 0.5, 0.5, 2.0)]
    both, only_atoms, only_cells = (
        PositionDirection(BaseMeasureND(2, **kw), UniformDirections(2))
        for kw in ({"atoms": atoms, "cells": cells}, {"atoms": atoms}, {"cells": cells}))
    rng = np.random.default_rng(93)
    for backend in (CF, E2):
        for _ in range(6):
            x, y = rng.uniform(-0.8, 0.8, (2, 2))
            taus = [0.2, 0.9]
            got = backend.pair(both, x, y, taus=taus)
            a, c = (backend.pair(nu, x, y, taus=taus) for nu in (only_atoms, only_cells))
            for g, u, v in ((got.mass, a.mass, c.mass), (got.transversal, a.transversal,
                                                         c.transversal),
                            (got.embed, a.embed, c.embed), (got.angle, a.angle, c.angle)):
                assert np.allclose(g, np.asarray(u) + v, rtol=1e-12, atol=0.0)
            lo, hi = np.minimum(x, y), np.maximum(x, y)
            box = [backend.box_mass(nu, lo, hi).mass for nu in (both, only_atoms, only_cells)]
            assert box[0] == pytest.approx(box[1] + box[2], rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# support points at a query endpoint: on the closed segment, hit by every
# hyperplane through them, oriented as for a point just inside
# ---------------------------------------------------------------------------

def _box_node_endpoint():
    nu = PositionDirection(lebesgue_box_measure(2, inner_half=0.8, levels=6), UniformDirections(2))
    pts = nu.mu.node_points
    x = pts[np.argmin(np.linalg.norm(pts, axis=1))]
    return nu, x, x + np.array([0.1, 0.05])


def test_backends_agree_with_a_cell_node_at_a_query_endpoint():
    # closed_form and exact2d once raised "support point coincides with a
    # query endpoint" here while Monte Carlo answered
    nu, x, y = _box_node_endpoint()
    taus = [0.2, 0.7]
    cf, e2 = CF.pair(nu, x, y, taus=taus), E2.pair(nu, x, y, taus=taus)
    assert cf.mass == pytest.approx(8.163557, abs=1e-6)
    for a, b in ((cf.mass, e2.mass), (cf.transversal, e2.transversal), (cf.embed, e2.embed),
                 (cf.angle, e2.angle)):
        assert np.allclose(a, b, rtol=1e-12, atol=0.0)
    for backend in (CF, E2):
        assert np.allclose(backend.pair(nu, y, x).embed, -backend.pair(nu, x, y).embed,
                           rtol=1e-12, atol=0.0)
    mc = MonteCarlo(budget=400_000, seed=1).pair(nu, x, y, taus=taus)
    assert abs(mc.mass - cf.mass) <= 4.0 * mc.mass_se
    assert _within(cf.embed, mc.embed, mc.embed_se)
    assert _within(cf.angle, mc.angle, mc.angle_se)


def test_node_at_an_endpoint_answers_as_one_just_inside():
    pieces = UniformDirections(2).arc_pieces()
    x, y = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    inside = arcs.pair_cloud_integrals([[1e-9, 0.0]], [1.0], pieces, x, y, taus=[0.3],
                                       on_segment="full")
    for node in (x, y):
        at = arcs.pair_cloud_integrals([node], [1.0], pieces, x, y, taus=[0.3],
                                       on_segment="full")
        assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(at, inside))
    assert inside[0] == pytest.approx(1.0, rel=1e-15)
    nu = PositionDirection(BaseMeasureND(2, cells=[(-0.5, -0.5, 0.5, 0.5, 1.0)]),
                           UniformDirections(2))
    node = nu.mu.node_points[0]
    assert np.all(np.isfinite(CF.pair(nu, node + 0.3, node).embed))


def test_cloud_error_mode_refuses_an_atom_at_an_endpoint():
    pieces = UniformDirections(2).arc_pieces()
    for atom in (_XA, _YA):
        with pytest.raises(DegenerateConfigurationError, match="closed query segment"):
            arcs.pair_cloud_integrals([atom], [1.0], pieces, _XA, _YA, on_segment="error")


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
    # Monte Carlo only, whatever the case's backend
    "seg_mass_many": lambda b, nu, p: MonteCarlo(budget=2_000, seed=5).seg_mass_many(
        nu, [p], [[0.2, 0.3]]),
}


# +-1e200 is finite, but its square overflows float64 and the kernels would
# give finite wrong answers (mass 0.5 instead of 0.9578 at (1e200, 0))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200, -1e200])
@pytest.mark.parametrize("query", list(NON_FINITE_QUERIES))
@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_non_finite_points_rejected(case, query, bad):
    # a non-finite coordinate is refused at the backend boundary; it used to
    # come back as a finite wrong answer (mass 0.0 for NaN on exact2d)
    backend, make = NON_FINITE_CASES[case]
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_QUERIES[query](backend, make(), [bad, 0.5])


WRONG_DIMENSION_ROUTES = {
    "closed_form-pair": lambda: CF.pair(crofton2(), [0.0, 0.0, 0.0], [0.5, 0.2, 0.1]),
    "closed_form-box_mass": lambda: CF.box_mass(crofton2(), [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
    "exact2d-pair": lambda: E2.pair(_axis_cap(), [0.1, 0.2], [0.3, 0.4, 0.5]),
    "monte_carlo-cube_mass": lambda: MonteCarlo(budget=2_000, seed=5).cube_mass(
        crofton2(), Cube([0.0, 0.0, 0.0], 1.0)),
    "seg_mass_many": lambda: MonteCarlo(budget=2_000, seed=5).seg_mass_many(
        crofton2(), [[0.1, 0.0]], [[0.5]]),
    # a ragged batch once raised numpy's inhomogeneous-shape error
    "seg_mass_many-ragged": lambda: MonteCarlo(budget=2_000, seed=5).seg_mass_many(
        crofton2(), [[0.1, 0.0], [0.2]], [[0.5, 0.1], [0.3, 0.2]]),
    "eval": lambda: EmbeddingMap(crofton2(), [0.0, 0.0]).eval([0.0]),
    "eval_many": lambda: EmbeddingMap(crofton2(), [0.0, 0.0]).eval_many(np.zeros((2, 1))),
    "basepoint": lambda: EmbeddingMap(crofton2(), [0.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("route", list(WRONG_DIMENSION_ROUTES))
def test_wrong_dimension_points_rejected(route):
    # without the check these answer (a 3-vector embed on crofton2,
    # f([0.0]) = [0, 0]) or fail deep inside numpy broadcasting
    with pytest.raises(DimensionMismatchError):
        WRONG_DIMENSION_ROUTES[route]()


# distinct points 1e-170 apart: their squared distance underflows to 0, so
# the backends lost the segment (mass 0.0 on closed_form-crofton and
# exact2d) or divided by zero (closed_form-atoms, monte_carlo)
UNDERFLOW_ROUTES = {
    "closed_form-crofton": lambda x, y: CF.pair(crofton2(), x, y),
    "closed_form-atoms": lambda x, y: CF.pair(atom_measure([((2.0, 0.3), 1.0)]), x, y),
    "exact2d-axis_cap": lambda x, y: E2.pair(_axis_cap(), x, y),
    "monte_carlo": lambda x, y: MonteCarlo(budget=2_000, seed=5).pair(crofton2(), x, y),
    "seg_mass_many": lambda x, y: MonteCarlo(budget=2_000, seed=5).seg_mass_many(
        crofton2(), [x], [y]),
}


@pytest.mark.parametrize("route", list(UNDERFLOW_ROUTES))
def test_underflowing_separation_rejected(route):
    with pytest.raises(ValueError, match="too close"):
        UNDERFLOW_ROUTES[route]([1e-170, 0.3], [2e-170, 0.3])


def test_mc_pair_and_box_share_the_slab_test():
    # every sampled hyperplane is the line x = 0; the segment below lies
    # right of it, but its offset gaps 1e-170 and 2e-170 multiply to an
    # underflowed 0, which the pair path once counted as a hit
    def on_axis(rng, m):
        return np.tile([1.0, 0.0], (m, 1)), np.zeros(m), np.ones(m)

    nu = SamplerMeasure(2, on_axis, bounding_lo=(-1.0, -1.0), bounding_hi=(1.0, 1.0))
    mc = MonteCarlo(budget=1_000, seed=3)
    for x, y, hit in (([1e-170, 0.5], [2e-170, 0.0], False),
                      ([-1e-170, 0.5], [2e-170, 0.0], True)):
        # the closed segment meets x = 0 iff an endpoint lies on it or the
        # endpoints' signs differ; signs, unlike the product, cannot underflow
        assert (x[0] == 0.0 or y[0] == 0.0 or (x[0] > 0.0) != (y[0] > 0.0)) is hit
        box = mc.box_mass(nu, np.minimum(x, y), np.maximum(x, y)).mass
        assert mc.pair(nu, x, y).mass == box == pytest.approx(float(hit))


# ---------------------------------------------------------------------------
# Monte Carlo angle profiles: the hit-rows path against the dense reference
# ---------------------------------------------------------------------------

def _slab_mass_of(mc, nu, x, y):
    """Each sample's mass on the segment [x, y], from the backend's batch for nu."""
    normals, slab = mc._batch(nu)
    px, py = normals @ np.asarray(x), normals @ np.asarray(y)
    return slab(np.minimum(px, py), np.maximum(px, py))


def _ref_mc_angle(mc, nu, x, y, taus):
    """The dense angle profile and its standard error: one row per sample,
    hit or not, summed over all rows whatever the number of thresholds."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    mass_i = _slab_mass_of(mc, nu, x, y)
    delta = x - y
    normals, _ = mc._batch(nu)
    vd = normals @ (delta / float(np.linalg.norm(delta)))
    sel = np.abs(vd)[:, None] >= np.sin(np.asarray(taus))[None, :]
    vals = mass_i[:, None] * sel
    angle = np.sum(vals, axis=0)
    m = len(mass_i)
    return angle, evaluate._standard_error(angle, np.einsum("it,it->t", vals, vals), m, m)


def _ba_lebesgue():
    from busemetric.scenarios import beurling_ahlfors
    return beurling_ahlfors(BaseMeasure1D.lebesgue(-30.0, 30.0, 1.0), window_half=3.0).measure


def _weighted_sampler():
    # lines within 0.3 rad of vertical, crossing the x axis in [-1.05, 1.05]
    def sample(rng, m):
        phi = rng.uniform(-0.3, 0.3, m)
        normals = np.column_stack([np.cos(phi), np.sin(phi)])
        return normals, rng.uniform(-1.0, 1.0, m), 1.0 + rng.random(m)

    return SamplerMeasure(2, sample, bounding_lo=(-1.0, -1.0), bounding_hi=(1.0, 1.0))


def _cap_offsets():
    return OffsetDirection(SymmetricCap((1.0, 0.0), 0.3), BaseMeasure1D.lebesgue(-2.0, 2.0, 1.0))


# hit batches with one weight and with per-sample weights, and offset
# batches; crofton2's carries mass on every sample, and the last pair of
# each other case is hit by no sample
ANGLE_CASES = {
    "position": (_ba_lebesgue, [([-2.0, 0.1], [2.0, 1.5]), ([0.3, 0.5], [0.3, 0.52]),
                                ([-0.4, 1.4], [0.9, 0.2]), ([40.0, 0.5], [40.001, 0.5])]),
    "sampler": (_weighted_sampler, [([-0.8, 0.1], [0.7, 0.6]), ([0.2, 0.2], [0.21, 0.2]),
                                    ([-0.5, -0.5], [0.5, 0.4]), ([5.0, 0.0], [5.5, 0.0])]),
    "crofton2": (crofton2, [([-0.9, 0.1], [0.7, 0.6]), ([0.2, 0.2], [0.2, 0.21])]),
    "offset_cap": (_cap_offsets, [([-0.9, 0.1], [0.7, 0.6]), ([1.0, -1.0], [-1.0, 1.2]),
                                  ([5.0, 0.0], [5.5, 0.0])]),
}
ANGLE_TAUS = {
    "one": [0.3],
    "one_obtuse": [2.0],
    "two_unsorted": [1.2, 0.4],
    "grid": np.round(np.arange(1, 101) * 0.01, 2),
    "unsorted_past_half_pi": [2.5, 0.1, 1.9, 0.0, 1.5707963267948966, 3.0],
}


@pytest.mark.parametrize("taus", list(ANGLE_TAUS))
@pytest.mark.parametrize("case", list(ANGLE_CASES))
def test_mc_angle_profile_matches_dense_reference_bits(case, taus):
    make, pairs = ANGLE_CASES[case]
    nu = make()
    t = ANGLE_TAUS[taus]
    for seed in (7, 8):
        mc = MonteCarlo(budget=20_000, seed=seed)
        for x, y in pairs:
            got = mc.pair(nu, x, y, taus=t)
            angle, angle_se = _ref_mc_angle(mc, nu, x, y, t)
            assert got.angle.tobytes() == angle.tobytes()
            assert got.angle_se.tobytes() == angle_se.tobytes()
    if case != "crofton2":
        # the last pair is hit by no sample: exact zeros
        assert got.mass == 0.0 and not np.any(got.angle) and not np.any(got.angle_se)


def _tau_grid_peak(nu, x, y):
    """Traced peak memory of one MonteCarlo(100_000) TAU_GRID pair, with the
    batch built outside the traced call."""
    import tracemalloc
    from busemetric.diagnostics import TAU_GRID
    mc = MonteCarlo(budget=100_000, seed=7)
    mc.pair(nu, x, y)
    tracemalloc.start()
    try:
        mc.pair(nu, x, y, taus=TAU_GRID)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_angle_profile_memory_is_bounded():
    # the dense profile held a 100k x 100 float matrix and a boolean one,
    # about 96 MB at peak; over hit rows only this pair, the plan region's
    # diagonal, peaks near 12 MB
    assert _tau_grid_peak(_ba_lebesgue(), [-2.0, 0.1], [2.0, 1.5]) < 20e6


def test_mc_angle_profile_memory_is_bounded_on_an_offset_batch():
    # every sample of an offset batch carries slab mass, so summing hit rows
    # alone kept the dense 100k x 100 matrix (about 97 MB at peak); in bounded
    # row blocks this pair peaks near 13 MB
    assert _tau_grid_peak(crofton2(), [-0.9, 0.1], [0.7, 0.6]) < 20e6


_HIT_Y = np.array([1.0, 0.5])


def _sampler_with_hits(k):
    """Weighted lines at random angles, ``k`` of each batch's samples (at random
    rows) crossing the segment [0, _HIT_Y] and the rest passing beyond it."""
    def sample(rng, m):
        phi = rng.uniform(0.0, 2.0 * math.pi, m)
        normals = np.column_stack([np.cos(phi), np.sin(phi)])
        hit = np.zeros(m, dtype=bool)
        hit[rng.choice(m, k, replace=False)] = True
        u = rng.uniform(0.05, 0.95, m)
        return normals, np.where(hit, u * (normals @ _HIT_Y), 3.0 + u), 1.0 + rng.random(m)

    return SamplerMeasure(2, sample, bounding_lo=(-4.0, -4.0), bounding_hi=(4.0, 4.0))


# a hundred unsorted thresholds with repeats
_BLOCK_TAUS = np.random.default_rng(12).permutation(np.r_[np.linspace(0.0, 3.0, 90),
                                                          [0.3] * 5, [1.2] * 5])


# hit counts over several blocks of rows (655 rows of these 100 thresholds),
# each ending inside a block; the block boundaries themselves are covered by
# test_threshold_sums_match_the_one_shot_forms_bits
@pytest.mark.parametrize("hits", [0, 1, 2621, 2622, 7870])
def test_mc_angle_blocks_match_dense_reference_bits(hits):
    # the rows are summed a bounded block at a time behind the running sums;
    # whatever the number of blocks, the bits are those of one sum over all samples
    nu = _sampler_with_hits(hits)
    mc = MonteCarlo(budget=10_484, seed=3)
    got = mc.pair(nu, [0.0, 0.0], _HIT_Y, taus=_BLOCK_TAUS)
    angle, angle_se = _ref_mc_angle(mc, nu, [0.0, 0.0], _HIT_Y, _BLOCK_TAUS)
    assert np.count_nonzero(_slab_mass_of(mc, nu, [0.0, 0.0], _HIT_Y)) == hits
    assert got.angle.tobytes() == angle.tobytes()
    assert got.angle_se.tobytes() == angle_se.tobytes()
    assert (got.mass > 0.0) == (hits > 0)
    # the answer owns its memory: it keeps no block buffer alive
    assert got.angle.base is None


def _ref_mc_embed(mc, nu, x, y):
    """The dense embed sums and their standard errors: one row per sample, hit
    or not, summed over all rows with ``np.sum(axis=0)``."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    mass_i = _slab_mass_of(mc, nu, x, y)
    delta = x - y
    normals, _ = mc._batch(nu)
    vd = normals @ (delta / float(np.linalg.norm(delta)))
    emb_i = (mass_i * np.sign(vd))[:, None] * normals
    emb = np.sum(emb_i, axis=0)
    m = len(mass_i)
    return emb, evaluate._standard_error(emb, np.einsum("ij,ij->j", emb_i, emb_i), m, m)


def _doubling_box():
    return _config_scenario("doubling_box")[0].measure


# (measure, budget, pairs, hit samples of the first pair: None for "some")
MC_EMBED_CASES = {
    "sampler_no_hits": (lambda: _sampler_with_hits(0), 3000, [([0.0, 0.0], _HIT_Y)], 0),
    "sampler_some_hits": (lambda: _sampler_with_hits(417), 3000, [([0.0, 0.0], _HIT_Y)], 417),
    "sampler_all_hits": (lambda: _sampler_with_hits(3000), 3000, [([0.0, 0.0], _HIT_Y)], 3000),
    "doubling_box": (_doubling_box, 100_000, [([-0.21, 0.13], [0.17, -0.08]),
                                             ([0.3, 0.3], [0.31, 0.29]),
                                             ([-0.3, -0.1], [0.2, 0.33])], None),
    "crofton2": (crofton2, 100_000, [([-0.9, 0.1], [0.7, 0.6]), ([0.2, 0.2], [0.2, 0.21])],
                 100_000),
    "cells_3d": (_cloud_3d, 20_000, [([-0.5, 0.1, 0.2], [0.4, -0.3, 0.6])], None),
}


@pytest.mark.parametrize("case", list(MC_EMBED_CASES))
def test_mc_embed_matches_dense_reference_bits(case):
    # the embed sums take only the rows of samples that carry mass: rows are added
    # in order from +0.0 and a missed sample's row is an exact +-0.0, so the bits
    # are those of the sum over every sample
    make, budget, pairs, hits = MC_EMBED_CASES[case]
    nu = make()
    mc = MonteCarlo(budget=budget, seed=5)
    for k, (x, y) in enumerate(pairs):
        got = mc.pair(nu, x, y)
        emb, emb_se = _ref_mc_embed(mc, nu, x, y)
        assert got.embed.tobytes() == emb.tobytes()
        assert got.embed_se.tobytes() == emb_se.tobytes()
        count = np.count_nonzero(_slab_mass_of(mc, nu, x, y))
        if k == 0 and hits is not None:
            assert count == hits
        elif k == 0:
            assert 0 < count < budget


# ---------------------------------------------------------------------------
# constructor and angle-threshold checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"budget": 0.5}, {"budget": 2.7}, {"budget": True}, {"budget": 0}, {"budget": -3},
    {"budget": "100"}, {"budget": None}, {"budget": np.float64(100.0)},
    {"seed": 1.5}, {"seed": True}, {"seed": -1}, {"seed": "7"},
])
def test_mc_constructor_rejects_non_integral_budget_and_seed(kwargs):
    # these used to be truncated (2.7 -> 2, True -> 1, seed 1.5 -> 1) or, for
    # budget 0.5, to construct and divide by zero on the first query
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        MonteCarlo(**kwargs)


def test_mc_constructor_accepts_numpy_integers():
    mc = MonteCarlo(budget=np.int64(2_000), seed=np.int32(5))
    assert (mc.budget, mc.seed) == (2_000, 5)
    assert type(mc.budget) is int and type(mc.seed) is int
    x, y = [0.1, 0.2], [0.5, -0.3]
    assert _bits(mc.pair(crofton2(), x, y)) == _bits(MonteCarlo(2_000, 5).pair(crofton2(), x, y))


TAU_BACKENDS = {
    "closed_form": (CF, crofton2),
    "exact2d": (E2, _axis_cap),
    "monte_carlo": (MonteCarlo(budget=2_000, seed=5), _axis_cap),
}


@pytest.mark.parametrize("bad", [[math.nan], [0.1, math.inf], [-math.inf], [[0.1, 0.2]],
                                 0.3, ["a"], [None]])
@pytest.mark.parametrize("backend", list(TAU_BACKENDS))
def test_non_finite_or_misshapen_taus_rejected(backend, bad):
    # Monte Carlo answered angle 0.0 for tau = nan, a finite wrong answer,
    # where closed_form answered nan; the check also runs for x == y
    b, make = TAU_BACKENDS[backend]
    nu = make()
    for y in ([0.5, 0.6], [0.1, 0.4]):
        with pytest.raises(ValueError, match="taus"):
            b.pair(nu, [0.1, 0.4], y, taus=bad)


@pytest.mark.parametrize("backend", list(TAU_BACKENDS))
def test_empty_taus_give_an_empty_profile(backend):
    b, make = TAU_BACKENDS[backend]
    for y in ([0.5, 0.6], [0.1, 0.4]):
        p = b.pair(make(), [0.1, 0.4], y, taus=[])
        assert p.angle.shape == (0,)


def test_closed_form_tau_profile_keeps_the_bits_and_stays_bounded():
    from busemetric.diagnostics import TAU_GRID
    from busemetric.directions import partial_abs_moment
    evaluate._tau_profile.cache_clear()
    for n in (2, 3, 5):
        want = np.array([partial_abs_moment(n, math.sin(t)) for t in TAU_GRID])
        got = evaluate._tau_profile(n, TAU_GRID.tobytes())
        assert got.tobytes() == want.tobytes() and not got.flags.writeable
    # a pair built on the cached profile answers the bits of the first, uncached one
    evaluate._tau_profile.cache_clear()
    nu = crofton2()
    first, again = (CF.pair(nu, [0.1, 0.4], [0.5, 0.6], taus=list(TAU_GRID)) for _ in range(2))
    assert first.angle.tobytes() == again.angle.tobytes()
    assert evaluate._tau_profile.cache_info().hits == 1
    for k in range(40):
        CF.pair(nu, [0.1, 0.4], [0.5, 0.6], taus=TAU_GRID * (1.0 - k / 100.0))
    info = evaluate._tau_profile.cache_info()
    assert info.currsize == info.maxsize == 8


# ---------------------------------------------------------------------------
# angle profiles summed in row blocks: the one-shot forms they replace
# ---------------------------------------------------------------------------

def _ref_arc_sums(w, lo, hi, taus):
    """The one-shot angle sum of ``arcs.pair_cloud_integrals`` and of the n = 2 position profile."""
    t = np.asarray(taus, dtype=float)
    blo = np.maximum(lo[:, None], t[None, :])
    bhi = np.minimum(hi[:, None], math.pi - t[None, :])
    return np.einsum("k,kt->t", w, np.clip(bhi - blo, 0.0, None))


def _ref_offset_sums(dens, a, b, taus):
    """The one-shot angle sum of ``ClosedForm``'s n = 2 offset profile, before its factor."""
    t = np.asarray(taus, dtype=float)
    blo = np.maximum(a[:, None], t[None, :])
    bhi = np.minimum(b[:, None], math.pi - t[None, :])
    seg = np.where(bhi > blo, np.cos(blo) - np.cos(np.maximum(bhi, blo)), 0.0)
    return np.einsum("j,jt->t", dens, seg)


def _ref_position_profile(n, w, rx, ry, dot_u, sin_psi, psi, taus):
    """``ClosedForm._position_angle_profiles`` with every row at once."""
    dxr = np.stack([rx, np.zeros_like(rx)], axis=1)
    dyr = np.stack([ry * dot_u, ry * sin_psi], axis=1)
    dr = dxr - dyr
    p_d = (np.arctan2(dr[:, 1], dr[:, 0]) + 0.5 * math.pi) % math.pi
    xi_lo = np.where(psi >= math.pi, 0.0, (0.5 * math.pi - p_d) % math.pi)
    xi_hi = np.minimum(xi_lo + psi, math.pi)
    t = np.asarray(taus, dtype=float)
    lo = np.maximum(xi_lo[:, None], t[None, :])
    hi = np.minimum(xi_hi[:, None], math.pi - t[None, :])
    if n == 2:
        return np.einsum("i,it->t", w, np.clip(hi - lo, 0.0, None)) / math.pi
    sin_t, cos2_t = np.sin(t), np.cos(t) ** 2

    def anti(c):
        r = np.sqrt(np.maximum(cos2_t - c * c, 0.0))
        return np.arctan2(c, r) - sin_t * np.arctan2(c * sin_t, r)

    inner = np.where(hi > lo, anti(np.cos(lo)) - anti(np.cos(hi)), 0.0)
    return np.einsum("i,it->t", w, inner) / math.pi


def _ref_mc_sums(mass_i, avd, sin_t):
    """The Monte Carlo sums and sums of squares over all hit rows at once."""
    hit = np.flatnonzero(mass_i)
    vals = mass_i[hit, None] * (avd[hit, None] >= sin_t[None, :])
    return np.sum(vals, axis=0), np.sum(vals * vals, axis=0)


def _block_row_counts(width):
    block = arcs.ANGLE_BLOCK_ELEMENTS // width
    return [0, 1, block - 1, block, block + 1, 3 * block + 7]


_SUM_WIDTHS = [1, 2, 3, 100, 300]


@pytest.mark.parametrize("width", _SUM_WIDTHS)
def test_threshold_sums_match_the_one_shot_forms_bits(width):
    # rows summed a cache-sized block at a time behind the running sums keep the
    # bits of one sum over all rows, at and around every block boundary
    rng = np.random.default_rng(width)
    taus = rng.permutation(np.r_[np.linspace(0.0, 1.5, width - width // 3),
                                 rng.choice([0.2, 0.7], width // 3)])
    sin_t = np.sin(taus)
    for rows in _block_row_counts(width):
        w = rng.uniform(0.1, 2.0, rows)
        lo = rng.uniform(0.0, math.pi, rows)
        hi = lo + rng.uniform(0.0, math.pi, rows) * (rng.random(rows) < 0.9)
        assert (arcs.arc_threshold_sums(w, lo, hi, taus).tobytes()
                == _ref_arc_sums(w, lo, hi, taus).tobytes())
        assert (arcs.arc_threshold_sums(w, lo, hi, taus, np.cos).tobytes()
                == _ref_offset_sums(w, lo, hi, taus).tobytes())
        psi = rng.uniform(0.0, math.pi, rows)
        psi[rng.random(rows) < 0.05] = math.pi
        geometry = (rng.uniform(0.1, 3.0, rows), rng.uniform(0.1, 3.0, rows),
                    np.cos(psi), np.sin(psi), psi)
        for n in (2, 3):
            got = ClosedForm._position_angle_profiles(n, w, *(g[None] for g in geometry), taus)[0]
            assert got.tobytes() == _ref_position_profile(n, w, *geometry, taus).tobytes()
        if width >= 2:
            # Monte Carlo rows: a tenth of the samples miss and add nothing
            mass_i = w * (rng.random(rows) < 0.9)
            pad = rng.uniform(0.1, 2.0, max(rows - np.count_nonzero(mass_i), 0))
            mass_i = np.concatenate([mass_i, pad]) if pad.size else mass_i
            avd = rng.random(len(mass_i))
            hit = np.flatnonzero(mass_i)
            got = evaluate._angle_sums(mass_i[hit], avd[hit], sin_t)
            ref = _ref_mc_sums(mass_i, avd, sin_t)
            assert np.count_nonzero(mass_i) == rows
            assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]


def _ref_angle_sums(w, a, sin_t):
    """The broadcast-compare fill the step table replaces: each block compares its
    samples with every threshold, in the same blocks and in-order sums."""

    def fill(start, stop, out, tmp):
        np.greater_equal(a[start:stop, None], sin_t, out=out)

    return arcs.threshold_sums([w, w * w], sin_t, fill)


def _step_thresholds(width, rng):
    """``width`` sines of unsorted, repeated and negative angles, some past pi / 2
    (where sin is not monotone in the angle), with +0.0 and -0.0 among them."""
    repeats = (width - 2) // 4
    taus = np.r_[rng.uniform(-0.5, math.pi + 0.5, width - 2 - repeats),
                 rng.choice([0.3, 1.2, math.pi - 0.3, 2.0], repeats)]
    sin_t = np.r_[np.sin(taus), 0.0, -0.0]
    return rng.permutation(sin_t)


def _step_samples(rows, sin_t, rng):
    """|vd| values in [0, 1], a third of them exactly at a threshold, with 0.0 and
    1 + 2**-52 (past every threshold) among them."""
    a = rng.random(rows)
    at = rng.random(rows) < 1 / 3
    a[at] = np.abs(rng.choice(sin_t, np.count_nonzero(at)))
    a[:min(rows, 4)] = [0.0, 1.0 + 2.0 ** -52, 1.0, sin_t.max()][:min(rows, 4)]
    return a


@pytest.mark.parametrize("width", [2, 3, 100, 255, 256, 300, 1000])
def test_angle_sums_match_the_broadcast_compare_bits(width):
    # the 0/1 step table gives each sample the row the compare gave it, so each
    # column's in-order sums keep their bits; 256 thresholds and more go in column
    # groups, each with its own table
    rng = np.random.default_rng(width)
    sin_t = _step_thresholds(width, rng)
    assert len(sin_t) == width
    # 3000 rows run past a block boundary of every column group as well
    for rows in _block_row_counts(width) + [3_000]:
        w = rng.uniform(0.1, 2.0, rows)
        a = _step_samples(rows, sin_t, rng)
        got = evaluate._angle_sums(w, a, sin_t)
        ref = _ref_angle_sums(w, a, sin_t)
        assert [g.shape for g in got] == [(width,), (width,)]
        assert [g.tobytes() for g in got] == [r.tobytes() for r in ref]


def test_angle_sums_count_a_sample_at_its_threshold():
    # a sample exactly at a threshold crosses it (a >= sin t); repeated and equal
    # thresholds, +0.0 against -0.0 among them, count alike
    sin_t = np.array([0.5, -0.0, 0.25, 0.5, 0.0, 1.0])
    a = np.array([0.5, 0.0, 0.25, 1.0, 1.0 + 2.0 ** -52])
    w = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    angle, angle_sq = evaluate._angle_sums(w, a, sin_t)
    assert angle.tolist() == [25.0, 31.0, 29.0, 25.0, 31.0, 24.0]
    assert angle_sq.tolist() == [321.0, 341.0, 337.0, 321.0, 341.0, 320.0]


def test_angle_sums_hold_wide_threshold_sets_in_bounded_memory():
    # 1000 thresholds never build the (rows, 1000) matrix: the working set is the
    # two block buffers of threshold_sums and one step table, plus the counts and
    # the squared weights
    rng = np.random.default_rng(4)
    rows = 5_000
    sin_t = _step_thresholds(1000, rng)
    w = rng.uniform(0.1, 2.0, rows)
    a = _step_samples(rows, sin_t, rng)
    peak = _peak_bytes(lambda: evaluate._angle_sums(w, a, sin_t))
    block = arcs.ANGLE_BLOCK_ELEMENTS * 8
    assert peak < 3.1 * block + 2 * 8 * rows < rows * len(sin_t) * 8 / 10


# ---------------------------------------------------------------------------
# the closed-form position pair on coordinate columns: the row forms it replaces
# ---------------------------------------------------------------------------

def _ref_unit_frames(pts, x, y):
    """``evaluate._unit_frames`` on (points, dim) rows."""
    dx, dy = x - pts, y - pts
    rx, ry = np.linalg.norm(dx, axis=1), np.linalg.norm(dy, axis=1)
    at_x, at_y = rx == 0.0, ry == 0.0
    ux = dx / np.where(at_x, 1.0, rx)[:, None]
    uy = dy / np.where(at_y, 1.0, ry)[:, None]
    ux[at_x] = -uy[at_x]
    uy[at_y] = -ux[at_y]
    return rx, ry, ux, uy


def _ref_position_pair(nu, x, y, taus):
    """``ClosedForm._position_pairs`` on rows, as (mass, transversal, embed, angle)."""
    pts, w = evaluate._point_support(nu.mu)
    rx, ry, ux, uy = _ref_unit_frames(pts, x, y)
    diff = np.linalg.norm(ux - uy, axis=1)
    summ = np.linalg.norm(ux + uy, axis=1)
    psi = 2.0 * np.arctan2(diff, summ)
    c_n = unit_kernel_constant(nu.dim)
    kern = ux - uy
    angle = None
    if taus is not None:
        angle = _ref_position_profile(nu.dim, w, rx, ry, np.einsum("ij,ij->i", ux, uy),
                                      0.5 * diff * summ, psi, taus)
    return (float(w @ psi) / math.pi, c_n * float(w @ (kern @ ((x - y) / np.linalg.norm(x - y)))),
            c_n * np.einsum("i,ij->j", w, kern), angle)


def _atoms_3d():
    return PositionDirection(BaseMeasureND(3, atoms=[((1.0, 0.5, -0.4), 1.0),
                                                     ((-0.8, 1.2, 0.6), 2.0),
                                                     ((0.3, -1.1, 0.9), 1.5)]),
                             UniformDirections(3))


def _ref_sample_positions(mu, rng, size):
    """``evaluate._sample_positions`` with its inverse-cdf draw written out, as the
    reference for the bits of the shared ``sample_pieces``."""
    pts, w = evaluate._point_support(mu)
    table = mu.segment_table
    weights = np.concatenate([w, table.denss * table.lengths])
    cum = np.cumsum(weights)
    u = rng.random(size) * cum[-1]
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    frac = (u - (cum[idx] - weights[idx])) / weights[idx]
    out = np.empty((size, mu.dim))
    point = idx < len(w)
    out[point] = pts[idx[point]]
    seg = ~point
    p0s, p1s = table.p0s[idx[seg] - len(w)], table.p1s[idx[seg] - len(w)]
    out[seg] = p0s + frac[seg, None] * (p1s - p0s)
    return out


SAMPLED_SUPPORTS = {
    # the -0.0 coordinate is copied as -0.0 into every sample of its atom
    "atoms": {"atoms": [((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0), ((0.4, -2.2), 1.5),
                        ((-0.0, 0.8), 1.2)]},
    "cells": {"cells": [(-1.0, -1.0, 0.0, 0.5, 2.0), (0.0, -1.0, 1.5, 0.5, 0.7)]},
    "segments": {"segments": [((-1.0, 0.0), (1.0, 0.0), 1.0), ((0.0, -2.0), (0.5, 1.0), 3.0)]},
}
SAMPLED_SUPPORTS["all"] = {k: v for d in SAMPLED_SUPPORTS.values() for k, v in d.items()}
# supports of more pieces than directions.SEARCH_MAX_PIECES, whose draws find
# their pieces by sorting: a 5632-node cell cloud and 1024 density segments
SAMPLED_CONFIGS = {"cell_cloud": "doubling_box", "density_segments": "ba_inv_sqrt"}


@pytest.mark.parametrize("support", [*SAMPLED_SUPPORTS, *SAMPLED_CONFIGS])
def test_sampled_positions_keep_the_reference_bits(support):
    if support in SAMPLED_CONFIGS:
        mu = _config_scenario(SAMPLED_CONFIGS[support])[0].measure.mu
        assert len(mu.node_points) == 5632 or len(mu.segments) == 1024
    else:
        mu = BaseMeasureND(2, **SAMPLED_SUPPORTS[support])
    for seed in (0, 1, 2):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = evaluate._sample_positions(mu, rng, 3000)
        assert got.tobytes() == _ref_sample_positions(mu, ref_rng, 3000).tobytes()
        # and the stream is left where the reference leaves it
        assert rng.random() == ref_rng.random()
        if "atoms" in SAMPLED_SUPPORTS.get(support, {}):
            assert np.signbit(got[got[:, 0] == 0.0, 0]).any()


@pytest.mark.parametrize("case", ["doubling_box", "atoms_3d", "cloud_3d"])
def test_position_pair_on_columns_matches_the_row_forms_bits(case):
    from busemetric.diagnostics import TAU_GRID
    nu = {"doubling_box": _doubling_box, "atoms_3d": _atoms_3d, "cloud_3d": _cloud_3d}[case]()
    pts, _ = evaluate._point_support(nu.mu)
    n = nu.dim
    rng = np.random.default_rng(41)
    # random pairs, then a support point at x and one at y
    pairs = [tuple(rng.uniform(-0.35, 0.35, (2, n))) for _ in range(3)]
    pairs += [(pts[0], rng.uniform(-0.35, 0.35, n)), (rng.uniform(-0.35, 0.35, n), pts[-1]),
              (pts[1], pts[2])]
    for x, y in pairs:
        for taus in (None, TAU_GRID):
            got = next(CF._position_pairs(nu, np.array([x]), np.array([y]), taus))
            ref = _ref_position_pair(nu, x, y, taus)
            assert _bits(got)[:4] == [None if v is None else np.asarray(v).tobytes() for v in ref]


def _config_scenario(name):
    from busemetric.cli import build_scenario, load_config
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"))
    return build_scenario(cfg["scenario"], cfg["seed"]), cfg


@pytest.mark.parametrize("config,x,y,limit", [
    ("doubling_box", [-0.21, 0.13], [0.17, -0.08], 5e6),
    ("ba_inv_sqrt", [0.2, 0.1], [0.75, 0.4], 6e6),
], ids=["doubling_box", "ba_inv_sqrt"])
def test_tau_grid_pair_memory_is_bounded(config, x, y, limit):
    # the one-shot profiles held several node x threshold arrays: about 19 MB
    # at peak on doubling_box's 5632-node cloud, 40 MB on ba_inv_sqrt's nodes
    from busemetric.diagnostics import TAU_GRID
    sc, _ = _config_scenario(config)
    backend = sc.backend()
    backend.pair(sc.measure, x, y, taus=TAU_GRID)
    assert _peak_bytes(lambda: backend.pair(sc.measure, x, y, taus=TAU_GRID)) < limit


# ---------------------------------------------------------------------------
# batched queries on every core
# ---------------------------------------------------------------------------

@pytest.fixture
def fanned(monkeypatch):
    """Every batch fans out on two workers, whatever the measure and the machine."""
    monkeypatch.setattr(evaluate, "FAN_OUT_NODES", 0)
    monkeypatch.setattr(evaluate, "_worker_count", lambda: 2)


class _StubBackend:
    """Records the thread of each query; raises where ``fail`` says, after ``delay[k]``."""

    name = "stub"

    def __init__(self, fail=(), delay=None, inner=None):
        self.fail, self.delay, self.inner = set(fail), delay or {}, inner
        self.threads = []

    def pair(self, nu, x, y, taus=None):
        import threading
        import time
        k = int(x[0])
        self.threads.append(threading.get_ident())
        time.sleep(self.delay.get(k, 0.0))
        if k in self.fail:
            raise ValueError(f"query {k} failed")
        mass = float(k)
        if self.inner is not None:
            mass = sum(p.mass for p in evaluate.pair_many(self.inner, nu, [x] * 4, [y] * 4))
        return evaluate.PairIntegrals(mass, 0.0, np.zeros(2))


def _queries(count):
    xs = np.column_stack([np.arange(count, dtype=float), np.zeros(count)])
    return xs, np.zeros((count, 2))


HEAVY_CONFIGS = ["ba_inv_sqrt", "degenerate_caps_02", "doubling_box"]


@pytest.mark.parametrize("config", HEAVY_CONFIGS + ["crofton2", "crofton3", "doubling_atoms",
                                                    "ba_lebesgue"])
def test_pair_many_matches_a_serial_loop_bits(config, monkeypatch):
    # the heavy configs fan out on the pool, the light ones answer in batches
    from busemetric.diagnostics import TAU_GRID
    monkeypatch.setattr(evaluate, "_worker_count", lambda: 2)
    sc, cfg = _config_scenario(config)
    nu, backend = sc.measure, sc.backend()
    assert (evaluate._support_size(nu) >= evaluate.FAN_OUT_NODES) == (config in HEAVY_CONFIGS)
    lo, hi = (np.array(c) for c in cfg["plan"]["region"])
    xs, ys = np.random.default_rng(4).uniform(lo, hi, (2, 6, len(lo)))
    for taus in (None, TAU_GRID):
        got = evaluate.pair_many(backend, nu, xs, ys, taus=taus)
        assert [_bits(p) for p in got] == [_bits(backend.pair(nu, x, y, taus=taus))
                                           for x, y in zip(xs, ys)]


def test_pair_many_refuses_unequal_starts_and_ends():
    # zipping them answered only as many pairs as the shorter side holds
    xs, ys = _queries(3)
    with pytest.raises(ValueError, match="3 segment starts but 1 segment ends"):
        evaluate.pair_many(CF, crofton2(), xs, ys[:1])


def _batched_cases():
    """(backend, measure, region half-width) for each batched pair kernel."""
    arc = ArcDensity2D([(0.0, 0.4, 1.0), (0.9, 1.7, 0.5), (2.5, math.pi, 2.0)])
    offsets = BaseMeasure1D.lebesgue(-40.0, 40.0, 1.0)
    atoms = [((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0)]
    segments = [((-3.0, -0.5), (3.0, -0.4), 1.0), ((-0.2, -2.0), (0.3, 2.0), 0.7)]
    cells = lebesgue_box_measure(2, inner_half=0.5, levels=1)
    return {
        "offset_uniform_2d": (CF, crofton2(), 1.0),
        "offset_uniform_3d": (CF, OffsetDirection(UniformDirections(3), offsets), 1.0),
        "offset_arc_2d": (CF, OffsetDirection(arc, offsets), 1.0),
        "position_atoms_2d": (CF, atom_measure(atoms), 1.0),
        "position_cells_3d": (CF, _cloud_3d(), 0.5),
        "exact_cloud": (E2, PositionDirection(cells, arc), 0.5),
        "exact_segments": (E2, PositionDirection(BaseMeasureND(2, segments=segments),
                                                 SymmetricCap([0.2, 1.0], 0.6)), 1.0),
        "exact_atoms_segments": (E2, PositionDirection(
            BaseMeasureND(2, atoms=atoms, segments=segments), arc), 1.0),
        "monte_carlo": (MonteCarlo(2_000, 3), atom_measure(atoms), 1.0),
    }


def _in_chunks_of(monkeypatch, backend, nu, rows):
    """Batch ``pair_many`` in chunks of ``rows`` in the caller's thread; returns the
    list that records each chunk's length."""
    monkeypatch.setattr(evaluate, "_worker_count", lambda: 1)
    monkeypatch.setattr(evaluate, "FAN_OUT_NODES",
                        rows * arcs.SEGMENT_ORDER * max(evaluate._support_size(nu), 1))
    chunks, pairs = [], type(backend)._pairs

    def recorded(self, nu, xs, ys, taus=None):
        chunks.append(len(xs))
        return pairs(self, nu, xs, ys, taus)

    monkeypatch.setattr(type(backend), "_pairs", recorded)
    return chunks


@pytest.mark.parametrize("case", list(_batched_cases()))
def test_batched_pairs_match_scalar_pairs_bits(case, monkeypatch):
    # rows answered in batches keep the bits of one pair call each: x == y rows
    # on both sides of a chunk boundary, for every threshold kind
    from busemetric.diagnostics import TAU_GRID
    backend, nu, half = _batched_cases()[case]
    n = nu.dim
    xs, ys = np.random.default_rng(12).uniform(-half, half, (2, 8, n))
    ys[2], ys[3] = xs[2], xs[3]
    want = {}
    for taus in (None, [], [0.4], TAU_GRID):
        want[str(taus)] = [_bits(backend.pair(nu, x, y, taus=taus)) for x, y in zip(xs, ys)]
    chunks = _in_chunks_of(monkeypatch, backend, nu, 3)
    for taus in (None, [], [0.4], TAU_GRID):
        got = [_bits(p) for p in evaluate.pair_many(backend, nu, xs, ys, taus=taus)]
        assert got == want[str(taus)]
    assert chunks == [3, 3, 2] * 4


@pytest.mark.parametrize("case, bad_y, error", [
    ("position_atoms_2d", [2.0, 0.3], DegenerateConfigurationError),    # an atom at y
    ("exact_atoms_segments", [2.0, 0.3], DegenerateConfigurationError),
    ("offset_uniform_2d", [0.1, 60.0], UnsupportedBackendError),        # past the density's span
    ("offset_arc_2d", [0.1, 60.0], UnsupportedBackendError),
    ("monte_carlo", [0.1, 0.2, 0.3], DimensionMismatchError),
])
def test_batched_pairs_answer_the_rows_before_a_refused_one(case, bad_y, error, monkeypatch):
    backend, nu, _ = _batched_cases()[case]
    xs, ys = np.random.default_rng(13).uniform(-1.0, 1.0, (2, 5, 2))
    ys = list(ys)
    ys[3] = np.array(bad_y)
    with pytest.raises(error) as want:
        backend.pair(nu, xs[3], ys[3])
    want = [_bits(backend.pair(nu, x, y)) for x, y in zip(xs[:3], ys[:3])], str(want.value)
    chunks = _in_chunks_of(monkeypatch, backend, nu, 8)
    answers = evaluate.pair_many(backend, nu, xs, ys)
    got = [_bits(next(answers)) for _ in range(3)]
    with pytest.raises(error) as raised:
        next(answers)
    assert (got, str(raised.value)) == want
    assert chunks == [5]


# the per-row checks a pair query ran before rows were checked in one array pass,
# kept as the reference for the batched check: the point rule, the underflow
# rule, the mu-atom rule and, on ClosedForm's offset forms, the density's span

def _ref_point(x, dim):
    p = np.asarray(x, dtype=float)
    if p.shape != (dim,):
        raise DimensionMismatchError(f"point of shape {p.shape} in dimension {dim}")
    if not all(-1e150 <= c <= 1e150 for c in p.tolist()):
        raise ValueError("point coordinates must be finite and at most 1e+150 in magnitude")
    return p


def _ref_atoms_on_segment(a, x, y):
    d = y - x
    dd = float(d @ d)
    t = np.clip((a - x) @ d / dd, 0.0, 1.0) if dd > 0.0 else np.zeros(len(a))
    near, at_y = a - (x + t[:, None] * d), a - y
    return np.flatnonzero(np.minimum(np.sum(near * near, axis=1),
                                     np.sum(at_y * at_y, axis=1)) == 0.0)


def _ref_row_check(backend, nu, x, y):
    if not backend.supports(nu):
        raise UnsupportedBackendError(
            f"backend {backend.name} does not serve this {type(nu).__name__} measure")
    x, y = _ref_point(x, nu.dim), _ref_point(y, nu.dim)
    d = x - y
    moves = float(d @ d) >= np.finfo(float).tiny
    if not moves and np.any(d != 0.0):
        raise ValueError(f"points {x.tolist()} and {y.tolist()} are distinct but too close: "
                         "their squared distance underflows")
    if isinstance(nu, PositionDirection) and _ref_atoms_on_segment(nu.mu.atom_points, x, y).size:
        raise DegenerateConfigurationError("mu-atom lies on the closed query segment")
    if moves and isinstance(backend, ClosedForm) and isinstance(nu, OffsetDirection):
        _, lo, hi = nu.constant_offset_density()
        reach = max(float(np.linalg.norm(x)), float(np.linalg.norm(y)))
        if reach > min(hi, -lo):
            raise UnsupportedBackendError(
                f"offset density span [{lo:g}, {hi:g}] does not cover queries of norm {reach:g}")


def _ref_answers(backend, nu, xs, ys):
    """The bits of each row's lone ``pair`` up to the first row the per-row rule
    refuses, and that row's index and (error type, message)."""
    got = []
    for k, (x, y) in enumerate(zip(xs, ys)):
        try:
            _ref_row_check(backend, nu, x, y)
        except (TypeError, ValueError) as exc:
            return got, (k, type(exc), str(exc))
        got.append(_bits(backend.pair(nu, x, y)))
    return got, None


def _batched_answers(backend, nu, xs, ys):
    got = []
    try:
        for p in evaluate.pair_many(backend, nu, xs, ys):
            got.append(_bits(p))
    except (TypeError, ValueError) as exc:
        return got, (len(got), type(exc), str(exc))
    return got, None


_ATOM = (0.5, 0.25)
_GRID_ATOMS = [(_ATOM, 1.0), ((0.0, 0.0), 2.0), ((-1.25, 1.5), 1.0)]
# a bad row: (x, y); the atom rows need a measure with an atom at _ATOM and at 0
_BAD_ROWS = {
    "atom_inside": ((0.25, -0.25), (0.75, 0.75)),
    "atom_at_x": (_ATOM, (1.5, -0.5)),
    "atom_at_y": ((1.5, -0.5), _ATOM),
    "atom_at_x_eq_y": (_ATOM, _ATOM),
    "underflow": ((2.0 ** -600, 0.5), (0.0, 0.5)),
    "underflow_at_atom": ((0.0, 0.0), (2.0 ** -600, 0.0)),    # the underflow rule first
    "nan": ((math.nan, 0.5), (0.25, 0.5)),
    "big": ((0.25, 0.5), (1e151, 0.5)),
    "wrong_dim": ((0.25, 0.5), (0.25, 0.5, 0.0)),
    "ragged": ([0.25, [0.5, 0.75]], (0.25, 0.5)),
    "x_before_y": ((0.25, 0.5, 0.0), (math.nan, 0.5)),        # x's error first
    "span": ((0.25, 0.5), (4.5, 0.0)),                         # past [-4, 4]
    "span_far": ((0.0, -5.0), (0.25, 0.5)),
}
_ATOM_ROWS = {"atom_inside", "atom_at_x", "atom_at_y", "atom_at_x_eq_y", "underflow_at_atom"}


def _refusal_cases():
    arc = ArcDensity2D([(0.0, 0.4, 1.0), (0.9, 1.7, 0.5), (2.5, math.pi, 2.0)])
    segments = [((-3.0, -0.5), (3.0, -0.375), 1.0)]
    return {
        "closed_form_atoms": (CF, atom_measure(_GRID_ATOMS)),
        "closed_form_offset": (CF, crofton2(span=4.0)),
        "closed_form_offset_arc": (CF, OffsetDirection(arc, crofton2(span=4.0).offsets)),
        "exact2d": (E2, PositionDirection(BaseMeasureND(2, atoms=_GRID_ATOMS, segments=segments),
                                          arc)),
        "monte_carlo": (MonteCarlo(2_000, 3), atom_measure(_GRID_ATOMS)),
    }


def _good_rows(backend, nu, rng, count):
    """``count`` rows on a 1/8 grid the per-row rule accepts, some with x == y."""
    xs, ys = [], []
    while len(xs) < count:
        x, y = rng.integers(-16, 17, (2, 2)) / 8.0
        if rng.random() < 0.2:
            y = x
        try:
            _ref_row_check(backend, nu, x, y)
        except ValueError:
            continue
        xs.append(x)
        ys.append(y)
    return xs, ys


@pytest.mark.parametrize("case", list(_refusal_cases()))
def test_batched_refusals_match_the_per_row_rule(case, monkeypatch):
    # ten rows in chunks of five: each bad row first, in the middle and last in
    # its chunk, with a bad row after it (ragged, NaN or farther past the span)
    # that must not raise first
    backend, nu = _refusal_cases()[case]
    offset = isinstance(nu, OffsetDirection)
    kinds = [k for k in _BAD_ROWS
             if (k in _ATOM_ROWS) != offset and (not k.startswith("span") or offset)]
    rng = np.random.default_rng(17)
    chunks = _in_chunks_of(monkeypatch, backend, nu, 5)
    for kind in kinds:
        for at in (0, 2, 4, 5, 7, 9):
            xs, ys = (list(rows) for rows in _good_rows(backend, nu, rng, 10))
            xs[at], ys[at] = _BAD_ROWS[kind]
            if at < 9:
                xs[9], ys[9] = _BAD_ROWS[{"ragged": "nan", "span": "span_far"}.get(kind, "ragged")]
            want = _ref_answers(backend, nu, xs, ys)
            assert want[1][0] == at, (kind, at, want[1])
            chunks.clear()
            assert _batched_answers(backend, nu, xs, ys) == want, (kind, at)
            assert chunks == [5] * (1 + at // 5)


@pytest.mark.parametrize("case", ["closed_form_atoms", "exact2d", "monte_carlo"])
def test_batched_atom_refusals_match_the_per_row_rule_near_the_segment(case, monkeypatch):
    # atoms at x + t (y - x) of some rows on a 0.1 grid, t in hundredths: the
    # clip parameter's bits decide these, as in the lone-pair agreement test
    backend, _ = _refusal_cases()[case]
    rng = np.random.default_rng(23)
    outcomes = set()
    for _ in range(60):
        xs, ys = rng.integers(-20, 21, (2, 10, 2)) / 10.0
        picks = rng.choice(10, 3, replace=False)
        atoms = xs[picks] + rng.integers(-10, 111, (3, 1)) / 100.0 * (ys[picks] - xs[picks])
        nu = _atoms_with_far_one(*atoms)
        _in_chunks_of(monkeypatch, backend, nu, 5)
        want = _ref_answers(backend, nu, xs, ys)
        assert _batched_answers(backend, nu, xs, ys) == want
        outcomes.add(want[1] is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("points", [[], np.zeros((0, 2))], ids=["list", "array"])
def test_eval_many_on_no_points_is_empty(points):
    f = EmbeddingMap(crofton2(), [0.1, 0.2])
    out = f.eval_many(points)
    assert out.shape == (0, 2) and out.dtype == np.float64
    assert f.eval_many([[0.5, 0.5]]).tobytes() == f.eval([0.5, 0.5]).tobytes()


def test_fan_out_raises_the_first_error_in_query_order(fanned):
    # query 5 fails first in time, query 3 first in query order
    stub = _StubBackend(fail={3, 5}, delay={3: 0.2})
    with pytest.raises(ValueError, match="query 3 failed"):
        list(evaluate.pair_many(stub, atom_measure([((2.0, 0.3), 1.0)]), *_queries(8)))


def test_a_fanned_batch_closed_early_cancels_its_unstarted_calls(fanned):
    # the cube audit stops reading at a cube without mass; the queries behind it
    # must not run on.  Run to the end, the 12 calls take 0.6 s on two workers.
    import time
    stub = _StubBackend(delay=dict.fromkeys(range(12), 0.1))
    answers = evaluate.pair_many(stub, atom_measure([((2.0, 0.3), 1.0)]), *_queries(12))
    assert next(answers).mass == 0.0
    answers.close()
    time.sleep(1.5)
    assert len(stub.threads) < 12


def test_small_measures_are_asked_in_the_callers_thread(monkeypatch):
    import threading
    monkeypatch.setattr(evaluate, "_worker_count", lambda: 2)
    small = atom_measure([((2.0, 0.3), 1.0)])
    assert evaluate._support_size(small) < evaluate.FAN_OUT_NODES
    stub = _StubBackend()
    got = [p.mass for p in evaluate.pair_many(stub, small, *_queries(6))]
    assert got == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert set(stub.threads) == {threading.get_ident()}
    monkeypatch.setattr(evaluate, "FAN_OUT_NODES", 0)
    list(evaluate.pair_many(stub, small, *_queries(6)))
    assert len(stub.threads) == 12 and threading.get_ident() not in stub.threads[6:]


def test_a_fan_out_inside_a_worker_runs_serially(fanned):
    # each worker's query fans out again; waiting on the pool it runs on
    # would deadlock both workers
    import threading
    stub = _StubBackend(inner=_StubBackend())
    out = []
    runner = threading.Thread(target=lambda: out.append(
        list(evaluate.pair_many(stub, atom_measure([((2.0, 0.3), 1.0)]), *_queries(6)))))
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "nested fan-out deadlocked"
    assert [p.mass for p in out[0]] == [0.0, 4.0, 8.0, 12.0, 16.0, 20.0]


def test_a_forked_child_fans_out_on_its_own_pool(fanned):
    import multiprocessing
    nu = atom_measure([((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0)])
    xs, ys = np.array([[0.1, 0.2], [0.5, -0.3], [-0.4, 0.9]]), np.zeros((3, 2))
    want = [p.mass for p in evaluate.pair_many(CF, nu, xs, ys)]   # the parent's pool
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=lambda: queue.put(
        [p.mass for p in evaluate.pair_many(CF, nu, xs, ys)]))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert got == want
    assert child.exitcode == 0


# ---------------------------------------------------------------------------
# Monte Carlo batches shared between threads
# ---------------------------------------------------------------------------

def _counting_sampler(builds, pause=0.0):
    """A sampler measure that counts its batch builds, each taking ``pause`` seconds."""
    import threading
    import time
    lock = threading.Lock()

    def sample(rng, m):
        with lock:
            builds.append(1)
        time.sleep(pause)
        phi = rng.uniform(-0.3, 0.3, m)
        return np.column_stack([np.cos(phi), np.sin(phi)]), rng.uniform(-1.0, 1.0, m), \
            1.0 + rng.random(m)

    return SamplerMeasure(2, sample, bounding_lo=(-1.0, -1.0), bounding_hi=(1.0, 1.0))


def test_mc_first_queries_from_several_threads_build_one_batch():
    import threading
    builds = []
    nu = _counting_sampler(builds, pause=0.1)
    mc = MonteCarlo(budget=4_000, seed=9)
    x, y = [-0.5, 0.1], [0.6, 0.3]
    start = threading.Barrier(4)
    answers = []

    def first_query():
        start.wait(timeout=30)
        answers.append(mc.pair(nu, x, y, taus=[0.2, 0.9]))

    threads = [threading.Thread(target=first_query) for _ in range(4)]
    [t.start() for t in threads]
    [t.join(timeout=30) for t in threads]
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    want = _bits(MonteCarlo(budget=4_000, seed=9).pair(nu, x, y, taus=[0.2, 0.9]))
    assert [_bits(p) for p in answers] == [want] * 4


def test_mc_batch_cache_shared_between_threads_raises_nothing():
    # with 6 measures over a cache of 4, lookups, builds and evictions interleave;
    # an eviction between one thread's lookup and its move_to_end would raise KeyError
    import sys
    import threading
    builds = []
    measures = [_counting_sampler(builds) for _ in range(6)]
    mc = MonteCarlo(budget=500, seed=2)
    assert evaluate.BATCH_CACHE_SIZE == 4
    errors, masses = [], {}

    def churn(seed):
        order = np.random.default_rng(seed).integers(0, 6, 60)
        try:
            for k in order:
                masses.setdefault(k, set()).add(mc.pair(measures[k], [-0.5, 0.1], [0.6, 0.3]).mass)
        except Exception as exc:   # noqa: BLE001 - any error fails the test below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(s,)) for s in range(8)]
        [t.start() for t in threads]
        [t.join(timeout=60) for t in threads]
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # a rebuilt batch draws the same samples: one answer per measure
    assert all(len(v) == 1 for v in masses.values()) and len(masses) == 6
