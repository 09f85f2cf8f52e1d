import math

import numpy as np
import pytest

from busemetric import (BaseMeasure1D, BaseMeasureND, DegenerateConfigurationError,
                        DimensionMismatchError, doubling_ratio, tail1_check)
from busemetric.arcs import ANGLE_BLOCK_ELEMENTS
from busemetric.scenarios import inv_sqrt_density, lebesgue_box_measure


def test_interval_mass_examples():
    leb = BaseMeasure1D.lebesgue(-10, 10, 1.0)
    assert leb.mass(0.0, 2.0) == pytest.approx(2.0, abs=1e-15)
    atom = BaseMeasure1D(atoms=[(0.0, 3.0)])
    assert atom.mass(-1.0, 1.0) == 3.0
    with pytest.raises(ValueError):
        leb.mass(1.0, 0.0)
    # the array form once answered the reversed row with mass -0.3
    with pytest.raises(ValueError, match="s <= t"):
        leb.mass_many([0.1, 0.5], [0.2, 0.2])


def test_inv_sqrt_staircase_total():
    # analytic oracle: integral of |x|^(-1/2) over (0, 1] is 2; the staircase
    # stores exact per-piece averages so the total is preserved
    mu = inv_sqrt_density(pieces=1024, support=1.0)
    assert mu.mass(0.0, 1.0) == pytest.approx(2.0, abs=1e-9)
    # and per-piece masses match the analytic primitive 2*sqrt(x)
    for s, t in [(0.25, 0.5), (0.015625, 0.5)]:
        assert mu.mass(s, t) == pytest.approx(2 * (math.sqrt(t) - math.sqrt(s)), abs=1e-12)


def test_cdf_additivity_with_atom_at_cut():
    mu = BaseMeasure1D(atoms=[(0.5, 2.0), (1.0, 1.0)], pieces=[(0.0, 2.0, 0.7)])
    rng = np.random.default_rng(1)
    for _ in range(200):
        s, t, u = np.sort(rng.uniform(-1, 3, 3))
        assert mu.mass(s, t) + mu.mass(t, u) == pytest.approx(mu.mass(s, u), abs=1e-13)
    # atom exactly at the shared endpoint is counted once, on the left
    assert mu.mass(0.0, 1.0) + mu.mass(1.0, 2.0) == pytest.approx(mu.mass(0.0, 2.0), abs=1e-13)
    assert mu.mass(0.0, 1.0) == pytest.approx(0.7 + 2.0 + 1.0, abs=1e-13)
    assert mu.mass(1.0, 2.0) == pytest.approx(0.7, abs=1e-13)


def test_mass_many_matches_scalar():
    mu = BaseMeasure1D(atoms=[(0.5, 2.0)], pieces=[(0.0, 1.0, 0.7), (2.0, 3.0, 1.2)])
    rng = np.random.default_rng(2)
    s = rng.uniform(-1, 4, 100)
    t = s + rng.uniform(0, 2, 100)
    many = mu.mass_many(s, t)
    for k in range(100):
        assert many[k] == pytest.approx(mu.mass(s[k], t[k]), abs=1e-14)


def _ref_mass_many(mu, s, t):
    """The per-piece loop the block form replaces: each row's sum from +0.0, the
    atoms' mass and then each piece's density integral added in turn."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(s.shape)
    if mu.atom_positions.size:
        order = np.argsort(mu.atom_positions, kind="stable")
        pos = np.sort(mu.atom_positions)
        wcum = np.concatenate([[0.0], np.cumsum(mu.atom_weights[order])])
        out += (wcum[np.searchsorted(pos, t, side="right")]
                - wcum[np.searchsorted(pos, s, side="right")])
    for lo, hi, dens in mu.pieces:
        out += dens * (np.clip(np.minimum(t, hi) - lo, 0.0, None)
                       - np.clip(np.minimum(s, hi) - lo, 0.0, None))
    return out


_MASS_MEASURES = {
    "one piece": lambda: BaseMeasure1D.lebesgue(-1.5, 1.5, 0.5),
    "three pieces, two atoms": lambda: BaseMeasure1D(
        atoms=[(0.5, 2.0), (1.0, 1.0)],
        pieces=[(0.0, 1.0, 0.7), (1.0, 2.0, 0.2), (2.5, 3.0, 1.2)]),
    "1024 pieces": lambda: inv_sqrt_density(pieces=1024, support=1.0),
    "atoms only": lambda: BaseMeasure1D(atoms=[(-0.0, 1.5), (0.25, 0.5)]),
}


def _mass_rows(mu, rows, rng):
    """Intervals over and past the support: a tenth empty (s == t), some wholly
    outside it, and ends at +0.0 and -0.0."""
    lo, hi = mu.support_bounds()
    pad = 0.5 * (hi - lo)
    s = rng.uniform(lo - pad, hi + pad, rows)
    t = s + rng.uniform(0.0, hi - lo, rows) * (rng.random(rows) < 0.9)
    if rows >= 6:
        s[:6] = [0.0, -0.0, -0.0, lo - 2 * pad, hi + pad, lo]
        t[:6] = [0.0, 0.0, -0.0, lo - pad, hi + 2 * pad, hi]
    return s, t


@pytest.mark.parametrize("name", _MASS_MEASURES)
@pytest.mark.parametrize("rows", [0, 1, 7, 200_000])
def test_mass_many_matches_the_piece_loop_bits(name, rows):
    # the rows go a bounded block at a time into one (1 + pieces, rows) array and
    # are added in order; 200 000 rows cross several block boundaries, and 50
    # blocks of the 1024 pieces' 63 rows do too
    mu = _MASS_MEASURES[name]()
    rng = np.random.default_rng(rows)
    s, t = _mass_rows(mu, min(rows, 50 * (ANGLE_BLOCK_ELEMENTS // (len(mu.pieces) + 1))), rng)
    got = mu.mass_many(s, t)
    assert got.shape == s.shape
    assert got.tobytes() == _ref_mass_many(mu, s, t).tobytes()


def test_one_row_mass_adds_many_pieces_in_order():
    # a one-row block summed pairwise (np.add.reduce) differs from the loop in
    # the last bit on about one interval in five of the 1024-piece staircase
    mu = _MASS_MEASURES["1024 pieces"]()
    rng = np.random.default_rng(7)
    for _ in range(60):
        s = rng.uniform(0.0, 0.5)
        t = s + rng.uniform(0.0, 0.5)
        assert mu.mass(s, t) == _ref_mass_many(mu, [s], [t])[0]
    # the shape of the query is kept, a 0-d one included
    assert mu.mass_many(0.25, 0.5).shape == ()
    assert mu.mass_many([[0.0, 0.25]], [[0.5, 0.5]]).shape == (1, 2)


def test_measure_validation_errors():
    with pytest.raises(ValueError):
        BaseMeasure1D(atoms=[(0.0, -1.0)])
    with pytest.raises(ValueError):
        BaseMeasure1D(pieces=[(0.0, 1.0, 1.0), (0.5, 2.0, 1.0)])  # overlap
    with pytest.raises(ValueError):
        BaseMeasureND(2, atoms=[((0.0, 0.0), 0.0)])
    with pytest.raises(ValueError):
        BaseMeasureND(2)
    with pytest.raises(ValueError, match="overlap"):
        BaseMeasureND(2, cells=[(0.0, 0.0, 1.0, 1.0, 1.0), (0.5, 0.5, 2.0, 2.0, 1.0)])
    # seam-width slivers from float tilings are tolerated
    BaseMeasureND(2, cells=[(0.0, 0.0, 1.0, 1.0, 1.0),
                            (1.0 - 1e-15, 0.0, 2.0, 1.0, 1.0)])


def test_measure_copies_caller_segment_endpoints():
    # the measure freezes its own copies, never the caller's arrays
    a, b = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    mu = BaseMeasureND(2, segments=[(a, b, 1.0)])
    a[0] = 0.5
    b[1] = 2.0
    assert mu.total_mass() == 1.0
    assert mu.segment_table.p0s.tolist() == [[0.0, 0.0]]
    assert mu.segment_table.p1s.tolist() == [[1.0, 0.0]]


def test_measure_copies_caller_cells():
    c = np.array([[0.0, 0.0, 1.0, 1.0, 2.0]])
    mu = BaseMeasureND(2, cells=c)
    c[0, 2:4] = 50.0
    assert mu.total_mass() == pytest.approx(2.0, rel=1e-15)
    assert mu.cells[0].tolist() == [0.0, 0.0, 1.0, 1.0, 2.0]


def test_doubling_ratio_lebesgue_box():
    # oracle: Lebesgue volume ratio |B(x,2r)| / |B(x,r)| = 2^n, recovered up
    # to the realized cell resolution
    cells = [(i, j, i + 0.5, j + 0.5, 1.0)
             for i in np.arange(-8.0, 8.0, 0.5) for j in np.arange(-8.0, 8.0, 0.5)]
    mu = BaseMeasureND(2, cells=cells, gauss_order=4)
    ratio = doubling_ratio(mu, (-1.0, -1.0), (1.0, 1.0), count=40,
                           radius_range=(0.7, 2.0), seed=3)
    assert ratio == pytest.approx(4.0, rel=0.15)
    again = doubling_ratio(mu, (-1.0, -1.0), (1.0, 1.0), count=40,
                           radius_range=(0.7, 2.0), seed=3)
    assert ratio == again  # deterministic under a fixed seed


def test_doubling_ratio_single_atom():
    mu = BaseMeasureND(2, atoms=[((0.0, 0.0), 2.0)])
    ratio = doubling_ratio(mu, (-0.1, -0.1), (0.1, 0.1), count=60,
                           radius_range=(0.5, 1.0), seed=4)
    assert ratio == 1.0


def test_doubling_ratio_graded_density_brute_force():
    # |x|-like density approximated by graded constant cells; oracle is a
    # brute-force ball sum over an independent fine grid
    cells = []
    step = 0.25
    for i in np.arange(-1.0, 1.0, step):
        for j in np.arange(-1.0, 1.0, step):
            c = (abs(i + step / 2) + abs(j + step / 2))
            cells.append((i, j, i + step, j + step, c))
    mu = BaseMeasureND(2, cells=cells, gauss_order=8)
    ratio = doubling_ratio(mu, (-0.4, -0.4), (0.4, 0.4), count=30,
                           radius_range=(0.1, 0.25), seed=5)
    assert math.isfinite(ratio) and 1.0 <= ratio < 30.0

    g = np.linspace(-1.0, 1.0, 401)[:-1] + 0.0025
    xx, yy = np.meshgrid(g, g, indexing="ij")
    dens = np.zeros_like(xx)
    for i, j, i2, j2, c in cells:
        sel = (xx >= i) & (xx < i2) & (yy >= j) & (yy < j2)
        dens[sel] = c
    area = 0.005 ** 2

    def brute_ball(x, r):
        sel = (xx - x[0]) ** 2 + (yy - x[1]) ** 2 <= r * r
        return float(np.sum(dens[sel]) * area)

    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(30):
        x = rng.uniform(-0.4, 0.4, 2)
        r = math.exp(rng.uniform(math.log(0.1), math.log(0.25)))
        inner = brute_ball(x, r)
        if inner > 0:
            worst = max(worst, brute_ball(x, 2 * r) / inner)
    assert ratio == pytest.approx(worst, rel=0.25)


def test_doubling_ratio_all_degenerate():
    mu = BaseMeasureND(2, atoms=[((50.0, 50.0), 1.0)])
    with pytest.raises(DegenerateConfigurationError):
        doubling_ratio(mu, (-1, -1), (1, 1), count=10, radius_range=(0.1, 0.2), seed=0)


def test_tail1_atoms():
    mu = BaseMeasureND(2, atoms=[((1.0, 0.0), 1.0)])
    assert tail1_check(mu) == pytest.approx(1.0, abs=1e-15)
    mu2 = BaseMeasureND(2, atoms=[((2.0, 0.0), 2.0), ((0.0, 4.0), 4.0)])
    assert tail1_check(mu2) == pytest.approx(2.0, abs=1e-15)  # 2/2 + 4/4
    with pytest.raises(DegenerateConfigurationError):
        tail1_check(BaseMeasureND(2, atoms=[((0.0, 0.0), 1.0)]))


def test_tail1_cells_refinement_stability():
    mu = BaseMeasureND(2, cells=[(1.0, 1.0, 2.0, 2.0, 1.0)], gauss_order=8)
    base = tail1_check(mu)
    assert 0.0 < base < math.inf
    # independent Riemann-sum oracle on a 600x600 grid
    g = np.linspace(1.0, 2.0, 601)[:-1] + 0.5 / 600
    xx, yy = np.meshgrid(g, g, indexing="ij")
    oracle = float(np.sum(1.0 / np.hypot(xx, yy)) / 600 ** 2)
    assert base == pytest.approx(oracle, abs=1e-4)


def test_tail1_segment_through_origin_diverges():
    mu1 = BaseMeasure1D.lebesgue(-1.0, 1.0, 1.0)
    mu = BaseMeasureND.from_axis_measure(mu1)
    assert tail1_check(mu) == math.inf
    off = BaseMeasureND(2, segments=[(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1.0)])
    # oracle: integral of 1/sqrt(t^2 + 1) over [0, 1] = asinh(1)
    assert tail1_check(off) == pytest.approx(math.asinh(1.0), abs=1e-12)


@pytest.mark.parametrize("p0, p1", [((1.0, 0.0), (3.0, 0.0)), ((-3.0, 0.0), (-1.0, 0.0)),
                                     ((0.0, 0.5), (0.0, 4.5))])
def test_tail1_segment_on_a_line_through_origin(p0, p1):
    # the segment's line passes through the origin but the segment misses it:
    # the integral of 1/|t - t0| over [0, ln]
    mu = BaseMeasureND(2, segments=[(p0, p1, 1.5)])
    ln = math.dist(p0, p1)
    t0 = -float(np.dot(p0, np.subtract(p1, p0))) / ln
    assert tail1_check(mu) == pytest.approx(1.5 * abs(math.log((ln - t0) / -t0)), rel=1e-14)


def test_axis_measure_ball_mass():
    mu1 = BaseMeasure1D.lebesgue(-2.0, 2.0, 1.5)
    mu = BaseMeasureND.from_axis_measure(mu1)
    # ball of radius 1 at height 0.6 cuts a chord of half-length 0.8
    assert mu.ball_mass([0.0, 0.6], 1.0) == pytest.approx(1.5 * 1.6, abs=1e-12)
    assert mu.ball_mass([0.0, 2.0], 1.0) == 0.0
    assert mu.total_mass() == pytest.approx(6.0, abs=1e-12)


def test_affine_rank_and_scaling():
    line = BaseMeasureND(2, atoms=[((0.0, 0.0), 1.0), ((1.0, 1.0), 1.0), ((2.0, 2.0), 1.0)])
    assert line.affine_rank() == 1
    tri = BaseMeasureND(2, atoms=[((0.0, 0.0), 1.0), ((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)])
    assert tri.affine_rank() == 2
    scaled = tri.scaled(3.0)
    assert scaled.total_mass() == pytest.approx(3.0 * tri.total_mass(), rel=1e-14)


def test_lebesgue_box_measure_grading():
    mu = lebesgue_box_measure(2, inner_half=0.8, levels=3)
    outer = 0.8 * 2 ** 3
    assert mu.total_mass() == pytest.approx((2 * outer) ** 2, rel=1e-12)
    # cells tile without overlap: mass of the inner quarter matches Lebesgue
    assert mu.ball_mass([0.0, 0.0], 0.5) == pytest.approx(math.pi * 0.25, rel=2e-3)


def _ref_realize_cells(dim, cells, order):
    """The per-cell loop that realized cells before the array pass."""
    from busemetric.arcs import _gl
    x, w = _gl(order)
    pts, wts = [], []
    for row in cells:
        lo, hi, dens = row[:dim], row[dim:2 * dim], row[-1]
        if dens == 0:
            continue
        axes = [(0.5 * (lo[k] + hi[k]) + 0.5 * (hi[k] - lo[k]) * x) for k in range(dim)]
        wax = [0.5 * (hi[k] - lo[k]) * w for k in range(dim)]
        grid = np.meshgrid(*axes, indexing="ij")
        pts.append(np.column_stack([g.ravel() for g in grid]))
        wgrid = np.meshgrid(*wax, indexing="ij")
        wts.append(dens * np.prod(np.stack([g.ravel() for g in wgrid]), axis=0))
    if not pts:
        return np.zeros((0, dim)), np.zeros(0)
    return np.concatenate(pts), np.concatenate(wts)


def _tiled_cells(dim, per_axis, rng):
    """Grid cells of uneven widths with random densities, a third of them zero."""
    edges = [np.cumsum(np.r_[rng.uniform(-2.0, -1.0), rng.uniform(0.1, 1.3, per_axis)])
             for _ in range(dim)]
    rows = []
    for idx in np.ndindex(*(per_axis,) * dim):
        lo = [edges[k][i] for k, i in enumerate(idx)]
        hi = [edges[k][i + 1] for k, i in enumerate(idx)]
        rows.append(lo + hi + [rng.uniform(0.1, 3.0) if rng.random() > 1 / 3 else 0.0])
    return np.array(rows)


def _same_bits(a, b):
    return all(u.shape == v.shape and u.tobytes() == v.tobytes() for u, v in zip(a, b))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_cell_realization_matches_per_cell_loop_bits(dim):
    rng = np.random.default_rng(40 + dim)
    cells = _tiled_cells(dim, 3, rng)
    assert np.any(cells[:, -1] == 0.0) and np.any(cells[:, -1] > 0.0)
    for order in range(1, 7):
        got = BaseMeasureND._realize_cells(dim, cells, order)
        assert _same_bits(got, _ref_realize_cells(dim, cells, order))
        mu = BaseMeasureND(dim, cells=cells, gauss_order=order)
        assert _same_bits((mu.node_points, mu.node_weights), got)
        scaled = mu.scaled(1.7)
        assert _same_bits((scaled.node_points, scaled.node_weights),
                          _ref_realize_cells(dim, scaled.cells, order))
    # only zero-density cells: no nodes, in the right shapes
    empty = cells.copy()
    empty[:, -1] = 0.0
    for c in (empty, empty[:0]):
        p, w = BaseMeasureND._realize_cells(dim, c, 4)
        assert p.shape == (0, dim) and w.shape == (0,)


def test_atoms_on_segment_closed_and_exact_at_both_ends():
    # y = (1.21, 0.33) is not x + 1.0 * (y - x) in floating point, so a
    # projection test alone misses an atom at y
    x, y = np.array([-1.66, -1.05]), np.array([1.21, 0.33])
    assert not np.array_equal(x + 1.0 * (y - x), y)
    mu = BaseMeasureND(2, atoms=[(x, 1.0), (y, 2.0), ((0.5, 0.5), 1.0), ((5.0, 5.0), 1.0)])
    assert mu.atoms_on_segment(x, y).tolist() == [0, 1]
    assert mu.atoms_on_segment(y, x).tolist() == [0, 1]
    assert mu.atoms_on_segment((0.0, 0.0), (1.0, 1.0)).tolist() == [2]
    # [x, x] is the point x
    assert mu.atoms_on_segment(y, y).tolist() == [1]
    assert mu.atoms_on_segment(x + 1.0, x + 1.0).tolist() == []
    mu3 = BaseMeasureND(3, atoms=[((0.5, 1.0, 1.5), 1.0), ((0.5, 1.0, 1.6), 1.0)])
    assert mu3.atoms_on_segment((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)).tolist() == [0]
    assert BaseMeasureND(2, cells=[(0.0, 0.0, 1.0, 1.0, 1.0)]).atoms_on_segment(
        (0.0, 0.0), (1.0, 1.0)).size == 0


# ---------------------------------------------------------------------------
# the cell-overlap sweep against the pairwise broadcast it replaced
# ---------------------------------------------------------------------------

def _ref_cell_overlap(los, his):
    """The C x C x dim broadcast: the first overlapping pair in row-major order."""
    widths = his - los
    tol = 1e-9 * np.minimum(widths[:, None, :], widths[None, :, :])
    inter = (np.minimum(his[:, None, :], his[None, :, :])
             - np.maximum(los[:, None, :], los[None, :, :]))
    overlap = np.all(inter > tol, axis=2)
    np.fill_diagonal(overlap, False)
    if not np.any(overlap):
        return None
    i, j = np.argwhere(overlap)[0]
    return int(i), int(j)


def _nudged_seams(cells, dim, rng):
    """Push a third of the cells' upper corners a few ulps past their seams."""
    out = cells.copy()
    for row in rng.choice(len(out), len(out) // 3, replace=False):
        for _ in range(rng.integers(1, 6)):
            out[row, dim:2 * dim] = np.nextafter(out[row, dim:2 * dim], np.inf)
    return out


def _planted_overlaps(cells, dim, rng):
    """Grow a few cells into their neighbours and append a few stray boxes."""
    out = cells.copy()
    for row in rng.choice(len(out), rng.integers(1, 4), replace=False):
        width = out[row, dim:2 * dim] - out[row, :dim]
        out[row, dim:2 * dim] += rng.uniform(0.1, 0.6) * width
    lo = rng.uniform(out[:, :dim].min(axis=0), out[:, dim:2 * dim].max(axis=0),
                     (rng.integers(0, 3), dim))
    stray = np.column_stack([lo, lo + rng.uniform(0.05, 1.0, lo.shape), np.ones(len(lo))])
    return np.concatenate([out, stray])[rng.permutation(len(out) + len(stray))]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_cell_overlap_sweep_matches_broadcast(dim):
    from busemetric.measures import _first_overlap
    rng = np.random.default_rng(70 + dim)
    per_axis = {2: 7, 3: 4, 4: 3}[dim]
    refused = 0
    for _ in range(12):
        cells = _tiled_cells(dim, per_axis, rng)
        cells = cells[rng.permutation(len(cells))]
        seams = _nudged_seams(cells, dim, rng)
        planted = _planted_overlaps(cells, dim, rng)
        for case in (cells, seams, planted):
            los, his = case[:, :dim], case[:, dim:2 * dim]
            want = _ref_cell_overlap(los, his)
            assert _first_overlap(los, his) == want
            if want is None:
                BaseMeasureND(dim, cells=case)
            else:
                with pytest.raises(ValueError, match=rf"^cells {want[0]} and {want[1]} overlap$"):
                    BaseMeasureND(dim, cells=case)
        # tilings and their few-ulp seams are accepted
        assert _ref_cell_overlap(seams[:, :dim], seams[:, dim:2 * dim]) is None
        refused += _ref_cell_overlap(planted[:, :dim], planted[:, dim:2 * dim]) is not None
    assert refused >= 9


def test_cell_overlap_sweep_memory_is_bounded():
    # the broadcast held C x C x dim floats: a 63 x 63 grid peaked near 756 MB
    import tracemalloc
    cells = _tiled_cells(2, 63, np.random.default_rng(80))
    tracemalloc.start()
    try:
        mu = BaseMeasureND(2, cells=cells, gauss_order=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mu.cells) == 63 * 63 and peak < 50e6


# ---------------------------------------------------------------------------
# non-finite fields and scale factors
# ---------------------------------------------------------------------------

NON_FINITE_FIELDS = {
    "atom positions": lambda b: BaseMeasureND(2, atoms=[((0.0, b), 1.0)]),
    "atom weights": lambda b: BaseMeasureND(2, atoms=[((0.0, 0.5), b)]),
    "cells need finite corners": lambda b: BaseMeasureND(2, cells=[(0.0, 0.0, 1.0, 1.0, 1.0),
                                                                   (2.0, b, 3.0, 1.0, 1.0)]),
    "cells need finite corners and densities": lambda b: BaseMeasureND(
        2, cells=[(0.0, 0.0, 1.0, 1.0, b)]),
    "segment endpoints": lambda b: BaseMeasureND(2, segments=[((0.0, 0.0), (1.0, b), 1.0)]),
    "segment densities": lambda b: BaseMeasureND(2, segments=[((0.0, 0.0), (1.0, 0.0), b)]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", list(NON_FINITE_FIELDS))
def test_non_finite_measure_fields_rejected(field, bad):
    # NaN passed every comparison check; a NaN cell corner would also be
    # misplaced by the overlap sweep's sort without any error
    with pytest.raises(ValueError, match=field):
        NON_FINITE_FIELDS[field](bad)


NON_FINITE_FIELDS_1D = {
    "atom positions must be finite": lambda b: BaseMeasure1D(atoms=[(b, 1.0)]),
    "atom weights must be finite": lambda b: BaseMeasure1D(atoms=[(0.5, b)]),
    "density pieces need finite bounds": lambda b: BaseMeasure1D(pieces=[(0.0, b, 1.0)]),
    "densities must be finite": lambda b: BaseMeasure1D(pieces=[(0.0, 1.0, b)]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", list(NON_FINITE_FIELDS_1D))
def test_non_finite_1d_measure_fields_rejected(field, bad):
    # a NaN atom constructed with support bounds (nan, nan) and interval mass
    # 0.0; a NaN or infinite piece gave a NaN or infinite total mass
    with pytest.raises(ValueError, match=field):
        NON_FINITE_FIELDS_1D[field](bad)


SCALED_MEASURES = {
    "1d": lambda: BaseMeasure1D(atoms=[(0.5, 1.0)], pieces=[(0.0, 1.0, 2.0)]),
    "nd": lambda: BaseMeasureND(2, atoms=[((0.5, 0.5), 1.0)], cells=[(0.0, 0.0, 1.0, 1.0, 2.0)]),
}


@pytest.mark.parametrize("factor", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("kind", list(SCALED_MEASURES))
def test_scaled_rejects_non_positive_and_non_finite_factors(kind, factor):
    # .scaled(nan) used to construct a measure of NaN mass
    with pytest.raises(ValueError, match="scale factor must be finite and positive"):
        SCALED_MEASURES[kind]().scaled(factor)


ROWS_OF_ANOTHER_LENGTH = {
    # once regrouped into four pieces [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    "1-D pieces of four": ("density pieces", lambda: BaseMeasure1D(
        pieces=[(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)])),
    # once built, with support bounds (0, 1) and an IndexError at the first mass query
    "1-D atom at a pair": ("atom positions", lambda: BaseMeasure1D(atoms=[((0, 1), 1.0)])),
    # once built as three atom points with two weights, failing at the first query
    "3-D atoms in 2-D": ("atom positions", lambda: BaseMeasureND(
        2, atoms=[((0, 0, 1), 1.0), ((1, 1, 0), 2.0)])),
    "ragged atoms": ("atom positions", lambda: BaseMeasureND(
        2, atoms=[((0, 0), 1.0), ((1, 1, 0), 2.0)])),
    "a weight pair": ("atom weights", lambda: BaseMeasureND(2, atoms=[((0, 0), (1.0, 2.0))])),
    # once built, the third field unread
    "1-D atom of three fields": ("atoms", lambda: BaseMeasure1D(atoms=[(0.5, 1.0, 7.0)])),
    "2-D atom of three fields": ("atoms", lambda: BaseMeasureND(2, atoms=[((0, 0), 1.0, 7.0)])),
    "cells of four": ("cells", lambda: BaseMeasureND(2, cells=[(0, 0, 1, 1), (1, 1, 2, 2)])),
    # these three once failed unpacking a row or as float() of a pair
    "segment of two fields": ("segments", lambda: BaseMeasureND(2, segments=[((0, 0), (1, 0))])),
    "segment of four fields": ("segments", lambda: BaseMeasureND(
        2, segments=[((0, 0), (1, 0), 1.0, 7.0)])),
    "a segment density pair": ("segment densities", lambda: BaseMeasureND(
        2, segments=[((0, 0), (1, 0), (1.0, 2.0))])),
    "3-D segment endpoints in 2-D": ("segment endpoints", lambda: BaseMeasureND(
        2, segments=[((0, 0, 0), (1, 0, 0), 1.0)])),
}


@pytest.mark.parametrize("case", list(ROWS_OF_ANOTHER_LENGTH))
def test_measure_rows_of_another_length_refused(case):
    key, build = ROWS_OF_ANOTHER_LENGTH[case]
    with pytest.raises(DimensionMismatchError, match=f"^{key} need "):
        build()


_ATOMS = BaseMeasureND(2, atoms=[((0.0, 1.0), 1.0), ((1.0, 0.0), 1.0), ((0.5, 0.5), 2.0)])
_SEGMENT = BaseMeasureND(2, segments=[((0.0, 0.0), (1.0, 0.0), 1.5)])
BAD_MEASURE_INPUTS = {
    "zero gauss_order": ("gauss_order", ValueError, lambda: BaseMeasureND(
        2, cells=[(0.0, 0.0, 1.0, 1.0, 1.0)], gauss_order=0)),
    "fractional dim": ("dim", ValueError, lambda: BaseMeasureND(2.5, atoms=[((0.0, 1.0), 1.0)])),
    "zero doubling count": ("count", ValueError, lambda: doubling_ratio(
        _ATOMS, (-1.0, -1.0), (1.0, 1.0), count=0)),
    "fractional doubling count": ("count", ValueError, lambda: doubling_ratio(
        _ATOMS, (-1.0, -1.0), (1.0, 1.0), count=2.5)),
    "3-D region on a 2-D measure": ("dimension 2", DimensionMismatchError, lambda: doubling_ratio(
        _ATOMS, (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))),
    "negative segment density": ("nonnegative", ValueError, lambda: BaseMeasureND(
        2, segments=[((0.0, 0.0), (1.0, 0.0), 1.0), ((1.0, 0.0), (2.0, 0.0), -1.0)])),
    "degenerate segment": ("degenerate density segment", ValueError, lambda: BaseMeasureND(
        2, segments=[((0.0, 0.0), (1.0, 0.0), 1.0), ((0.5, 0.5), (0.5, 0.5), 1.0)])),
    "NaN ball centre": ("finite", ValueError, lambda: _SEGMENT.ball_mass((math.nan, 0.0), 1.0)),
    "NaN ball radius": ("radius", ValueError, lambda: _SEGMENT.ball_mass((0.5, 0.0), math.nan)),
    "negative ball radius": ("radius", ValueError, lambda: _SEGMENT.ball_mass((0.5, 0.0), -1.0)),
    "3-D ball centre": ("dimension 2", DimensionMismatchError, lambda: _SEGMENT.ball_mass(
        (0.5, 0.0, 0.0), 1.0)),
}


@pytest.mark.parametrize("case", list(BAD_MEASURE_INPUTS))
def test_measure_inputs_refused_by_name(case):
    # numpy once refused a zero gauss_order as "deg must be a positive integer",
    # a zero count as empty inner balls, and a 3-D region or ball centre with a
    # broadcast error; a NaN centre, a NaN radius and radius -1 each once gave
    # _SEGMENT's full mass 1.5
    key, error, build = BAD_MEASURE_INPUTS[case]
    with pytest.raises(error, match=key):
        build()


# ---------------------------------------------------------------------------
# the segment table: one copy of the segments, and the ball chords over it
# against the per-segment loop they replaced
# ---------------------------------------------------------------------------

def _ref_ball_mass(mu, center, r):
    """``BaseMeasureND.ball_mass`` as a loop over the segments, one chord at a time."""
    c = np.asarray(center, dtype=float)
    tot = 0.0
    for pts, wts in ((mu.atom_points, mu.atom_weights), (mu.node_points, mu.node_weights)):
        if pts.size:
            tot += float(np.sum(wts[np.linalg.norm(pts - c, axis=1) <= r]))
    t = mu.segment_table
    for p0, u, ln, dens in zip(t.p0s, t.us, t.lengths.tolist(), t.denss.tolist()):
        t0 = float((c - p0) @ u)
        h2 = float(np.sum((c - p0) ** 2)) - t0 * t0
        if h2 > r * r:
            continue
        half = math.sqrt(max(r * r - h2, 0.0))
        tot += dens * max(0.0, min(ln, t0 + half) - max(0.0, t0 - half))
    return tot


def _ref_total_mass(mu):
    tot = float(np.sum(mu.atom_weights)) + float(np.sum(mu.node_weights))
    for dens, ln in zip(mu.segment_table.denss.tolist(), mu.segment_table.lengths.tolist()):
        tot += dens * ln
    return tot


def _rotated_lebesgue(angle):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return BaseMeasureND(2, segments=[(rot @ (-30.0, 0.0), rot @ (30.0, 0.0), 1.0)])


BALL_MEASURES = {
    "ba_inv_sqrt axis segments": lambda: BaseMeasureND.from_axis_measure(inv_sqrt_density()),
    "rotated ba_lebesgue segment": lambda: _rotated_lebesgue(0.3),
    "atoms, cells and segments": lambda: BaseMeasureND(
        2, atoms=[((0.25, 0.5), 2.0), ((-0.5, 0.1), 0.5)],
        cells=[(-1.0, -1.0, 0.0, 0.0, 1.5), (0.0, 0.0, 0.5, 1.0, 0.25)],
        segments=[((0.0, 0.0), (1.0, 0.7), 1.5), ((-0.3, 0.9), (0.2, -0.4), 0.75),
                  ((0.1, 0.1), (0.1, 0.6), 2.0)]),
    "3-D oblique segments": lambda: BaseMeasureND(
        3, segments=[((0.0, 0.0, 0.0), (0.3, 0.7, 0.2), 1.25), ((0.5, -0.2, 0.1), (-0.4, 0.6, 0.9), 0.5)]),
}


@pytest.mark.parametrize("name", list(BALL_MEASURES))
def test_ball_mass_matches_per_segment_loop_bits(name):
    mu = BALL_MEASURES[name]()
    rng = np.random.default_rng(61)
    t = mu.segment_table
    lo, hi = np.minimum(t.p0s, t.p1s).min(axis=0) - 0.5, np.maximum(t.p0s, t.p1s).max(axis=0) + 0.5
    balls = [(lo + rng.random(mu.dim) * (hi - lo), float(np.exp(rng.uniform(-5.0, 1.0))))
             for _ in range(200)]
    # on a segment's line (h2 == 0), at a start point, tangent to a segment and
    # covering every segment whole
    p0, p1 = t.p0s[0], t.p1s[0]
    cover = (0.5 * (lo + hi), 10.0 * float(np.max(hi - lo)))
    balls += [(p0 + 0.25 * (p1 - p0), 0.1), (p0 - 0.5 * (p1 - p0), 0.75), (p0, 0.3), cover]
    if name == "ba_inv_sqrt axis segments":
        balls += [((0.5, 0.5), 0.5), ((0.25, -0.125), 0.125)]     # tangent: h2 == r * r
    for c, r in balls:
        assert mu.ball_mass(c, r).hex() == _ref_ball_mass(mu, c, r).hex(), (c, r)
    assert mu.ball_mass(*cover) == pytest.approx(mu.total_mass(), rel=1e-12)
    assert mu.total_mass().hex() == _ref_total_mass(mu).hex()
    assert mu.scaled(1.7).total_mass().hex() == _ref_total_mass(mu.scaled(1.7)).hex()


def test_segments_are_read_only_views_of_the_segment_table():
    mu = BaseMeasureND.from_axis_measure(inv_sqrt_density(pieces=8))
    t = mu.segment_table
    assert len(mu.segments) == len(t.lengths) == 8
    for k, (p0, p1, dens) in enumerate(mu.segments):
        assert np.shares_memory(p0, t.p0s) and np.shares_memory(p1, t.p1s)
        assert p0.tolist() == t.p0s[k].tolist() and p1.tolist() == t.p1s[k].tolist()
        assert not p0.flags.writeable and not p1.flags.writeable
        assert type(dens) is float and dens == t.denss[k]
    with pytest.raises(ValueError):
        mu.segments[0][0][0] = 1.0


def test_segments_from_a_generator_build_the_same_table():
    rows = [((0.0, 0.0), (1.0, 0.5), 1.5), ((1.0, 0.5), (2.0, 0.0), 0.25)]
    table = BaseMeasureND(2, segments=rows).segment_table
    again = BaseMeasureND(2, segments=(row for row in rows)).segment_table
    assert _same_bits(table, again) and len(table.lengths) == 2


def test_inv_sqrt_staircase_keeps_the_scalar_loop_bits():
    edges = np.linspace(0.0, 1.0, 1025)
    ref = [(lo, hi, 2.0 * (math.sqrt(hi) - math.sqrt(lo)) / (hi - lo))
           for lo, hi in zip(edges[:-1], edges[1:])]
    assert inv_sqrt_density().pieces.tobytes() == np.array(ref).tobytes()
