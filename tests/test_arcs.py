import json
import math
from pathlib import Path

import numpy as np
import pytest

from busemetric import arcs, diagnostics
from busemetric.cli import _plan_from_config, build_scenario
from busemetric.directions import ArcDensity2D
from busemetric.geometry import DimensionMismatchError
from busemetric.hyperplane_measures import PositionDirection
from busemetric.measures import BaseMeasureND

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _scenario(name):
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    return build_scenario(cfg["scenario"], cfg["seed"]).measure, _plan_from_config(cfg)


def _rotated(nu, angle):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    segs = [(rot @ p0, rot @ p1, dens) for p0, p1, dens in nu.mu.segments]
    return PositionDirection(BaseMeasureND(2, segments=segs), nu.omega), rot


# ---------------------------------------------------------------------------
# per-segment reference: one segment at a time, each cut a Python float, as
# the cuts were generated before they became array-wise
# ---------------------------------------------------------------------------

def _ref_frame(p0, p1):
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    length = float(np.linalg.norm(p1 - p0))
    return p0, (p1 - p0) / length, length


def _ref_ladder(center, scale, length):
    out = []
    step = scale
    while step < 2.0 * length:
        for s in (center - step, center + step):
            if 0.0 < s < length:
                out.append(s)
        step *= 2.0
    return out


def _ref_merge_cuts(cuts, length):
    edges = sorted(cuts)
    tol = 1e-13 * max(length, 1.0)
    out = [edges[0]]
    for e in edges[1:]:
        if e - out[-1] > tol:
            out.append(e)
    if out[-1] < length:
        out[-1] = length
    return np.asarray(out, dtype=float)


def _ref_span_nodes(p0, u, length, cuts, dens):
    svals, wvals = arcs._gl_spans(_ref_merge_cuts(cuts, length), arcs.SEGMENT_ORDER)
    return p0[None, :] + svals[:, None] * u[None, :], wvals * dens


def _ref_query_nodes(p0, p1, dens, x, y, boundary):
    p0, u, length = _ref_frame(p0, p1)
    delta = x - y
    cuts = {0.0, length}
    cross_u_delta = u[0] * delta[1] - u[1] * delta[0]
    nrm = np.array([-u[1], u[0]])
    hx = float((x - p0) @ nrm)
    hy = float((y - p0) @ nrm)
    sx = float((x - p0) @ u)
    sy = float((y - p0) @ u)
    if cross_u_delta == 0.0 and hx == 0.0:
        cuts.update(s for s in (sx, sy) if 0.0 < s < length)
    else:
        if cross_u_delta != 0.0 and hx != hy:
            s_star = sx + hx * (sy - sx) / (hx - hy)
            if 0.0 < s_star < length:
                cuts.add(s_star)
        s = arcs._boundary_crossings(p0[None], u[None], np.stack([x, y]),
                                     arcs._boundary_dirs(boundary))
        cuts.update(s[(s > 0.0) & (s < length)].tolist())
        for s_proj, h in ((sx, hx), (sy, hy)):
            d = abs(h)
            if d == 0.0:
                if 0.0 < s_proj < length:
                    cuts.add(s_proj)
            elif d < length and -length < s_proj < 2.0 * length:
                cuts.update(_ref_ladder(s_proj, d, length))
    return _ref_span_nodes(p0, u, length, cuts, dens)


def _ref_mask(segments, x, y, boundary):
    p0s = np.stack([s[0] for s in segments])
    p1s = np.stack([s[1] for s in segments])
    lengths = np.linalg.norm(p1s - p0s, axis=1)
    us = (p1s - p0s) / lengths[:, None]
    nrms = np.stack([-us[:, 1], us[:, 0]], axis=1)
    special = np.zeros(len(segments), dtype=bool)
    proj = []
    for q in (x, y):
        rel = q[None, :] - p0s
        h = np.einsum("ij,ij->i", rel, nrms)
        s = np.einsum("ij,ij->i", rel, us)
        proj.append((h, s))
        special |= (np.abs(h) < lengths) & (s > -lengths) & (s < 2.0 * lengths)
    (hx, sx), (hy, sy) = proj
    with np.errstate(divide="ignore", invalid="ignore"):
        s_star = sx + hx * (sy - sx) / (hx - hy)
    valid = (hx != hy) & np.isfinite(s_star)
    special |= valid & (s_star > 0.0) & (s_star < lengths)
    s = arcs._boundary_crossings(p0s, us, np.stack([x, y]), arcs._boundary_dirs(boundary))
    special |= np.any((s > 0.0) & (s < lengths[:, None, None]), axis=(1, 2))
    return special


def _ref_pair_nodes(segments, pieces, x, y):
    boundary = arcs.boundary_angles(pieces)
    special = _ref_mask(segments, x, y, boundary)
    parts = [_ref_query_nodes(*segments[k], x, y, boundary) for k in np.flatnonzero(special)]
    bulk = [seg for seg, feat in zip(segments, special) if not feat]
    if bulk:
        parts.append(arcs.segment_bulk_nodes(*zip(*bulk)))
    pts, wts = zip(*parts)
    return np.concatenate(pts), np.concatenate(wts)


def _ref_box_nodes(segments, pieces, lo, hi):
    corners = arcs.box_corners(lo, hi)
    dirs = arcs._boundary_dirs(arcs.boundary_angles(pieces))
    center = 0.5 * (lo + hi)
    for p0, p1, dens in segments:
        p0, u, length = _ref_frame(p0, p1)
        cuts = {0.0, length}
        for axis, val in ((0, lo[0]), (0, hi[0]), (1, lo[1]), (1, hi[1])):
            if u[axis] != 0.0:
                s = (val - p0[axis]) / u[axis]
                if 0.0 < s < length:
                    cuts.add(s)
        s = arcs._boundary_crossings(p0[None], u[None], corners, dirs)
        cuts.update(s[(s > 0.0) & (s < length)].tolist())
        nrm = np.array([-u[1], u[0]])
        h = abs(float((center - p0) @ nrm))
        s_proj = float((center - p0) @ u)
        scale = max(h, 0.25 * float(np.min(hi - lo)))
        cuts.update(_ref_ladder(s_proj, scale, length))
        yield _ref_span_nodes(p0, u, length, cuts, dens)


def _ref_box_mass(nodes, pieces, lo, hi):
    total = 0.0
    for pts, wts in nodes:
        total += arcs.box_cloud_mass(pts, wts, pieces, lo, hi)
    return total


def _box_mass(table, pieces, lo, hi):
    total = 0.0
    for mass in arcs.segment_box_masses(table, pieces, lo, hi):
        total += mass
    return total


def _boxes(plan, rotation=None):
    """The plan's cubes, its region and 40 seeded boxes with edges in [1e-3, 1.5]."""
    lo0, hi0 = np.asarray(plan.region_lo), np.asarray(plan.region_hi)
    out = [(q.center - 0.5 * q.edge, q.center + 0.5 * q.edge)
           for q in diagnostics._sample_cubes(plan, diagnostics._streams(plan)[2])]
    out.append((lo0, hi0))
    rng = np.random.default_rng(47)
    for _ in range(40):
        edges = np.exp(rng.uniform(math.log(1e-3), math.log(1.5), 2))
        center = lo0 + (hi0 - lo0) * rng.random(2)
        out.append((center - 0.5 * edges, center + 0.5 * edges))
    if rotation is None:
        return out
    # the axis box around each rotated box
    turned = []
    for lo, hi in out:
        corners = arcs.box_corners(lo, hi) @ rotation.T
        turned.append((corners.min(axis=0), corners.max(axis=0)))
    return turned


def _pairs(plan, seed, count, rotation=np.eye(2)):
    lo, hi = np.asarray(plan.region_lo), np.asarray(plan.region_hi)
    rng = np.random.default_rng(seed)
    points = [rotation @ (lo + (hi - lo) * rng.random(2)) for _ in range(2 * count)]
    return list(zip(points[::2], points[1::2]))


def _needs_features(table, x, y, boundary):
    """The pair path's feature mask over the whole table."""
    return arcs._needs_features(table.lengths, *arcs._pair_geometry(
        table.p0s, table.us, table.nrms, x, y, arcs._boundary_dirs(boundary)))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_smooth_segments_take_one_span():
    # the feature mask and the query splitter make the same decision: a
    # segment the mask sends to the bulk rule gets no interior cut from
    # segment_query_nodes, so its bulk nodes are the ones the splitter would
    # have produced
    nu, plan = _scenario("ba_inv_sqrt")
    table = nu.mu.segment_table
    boundary = arcs.boundary_angles(nu.omega.arc_pieces())
    smooth = 0
    for x, y in _pairs(plan, 31, 30):
        rows = ~_needs_features(table, x, y, boundary)
        # the splitter on all smooth rows at once; segment_query_nodes is its one-row case
        geometry = arcs._pair_geometry(table.p0s[rows], table.us[rows], table.nrms[rows], x, y,
                                       arcs._boundary_dirs(boundary))
        lengths = table.lengths[rows]
        cuts = arcs._pair_cuts(table.us[rows], lengths, x - y, *geometry)
        _, _, seg = arcs._cut_nodes(table.p0s[rows], table.us[rows], lengths,
                                    table.denss[rows], cuts)
        split = np.bincount(seg, minlength=len(lengths)) != arcs.SEGMENT_ORDER
        assert not split.any(), (np.flatnonzero(rows)[split], x, y)
        smooth += int(np.sum(rows))
    assert len(table.lengths) == 1024
    assert smooth > 0.9 * 30 * len(table.lengths)


def test_box_nodes_match_per_segment_cuts_bit_for_bit():
    nu, plan = _scenario("ba_inv_sqrt")
    segs, table, pieces = nu.mu.segments, nu.mu.segment_table, nu.omega.arc_pieces()
    for lo, hi in _boxes(plan):
        pts, wts, seg = arcs.segment_box_nodes(table, pieces, lo, hi)
        ref = list(_ref_box_nodes(segs, pieces, lo, hi))
        assert np.bincount(seg, minlength=len(segs)).tolist() == [len(w) for _, w in ref]
        assert pts.tobytes() == np.concatenate([p for p, _ in ref]).tobytes()
        assert wts.tobytes() == np.concatenate([w for _, w in ref]).tobytes()
        assert _box_mass(table, pieces, lo, hi) == _ref_box_mass(ref, pieces, lo, hi)


@pytest.mark.parametrize("name", ["ba_lebesgue", "ba_inv_sqrt"])
def test_box_mass_on_oblique_segments_matches_per_segment_cuts(name):
    base, plan = _scenario(name)
    nu, rot = _rotated(base, 0.3)
    segs, table, pieces = nu.mu.segments, nu.mu.segment_table, nu.omega.arc_pieces()
    boxes = _boxes(plan, rot)
    if name == "ba_inv_sqrt":
        boxes = boxes[::4]
    for lo, hi in boxes:
        ref = _ref_box_mass(_ref_box_nodes(segs, pieces, lo, hi), pieces, lo, hi)
        assert ref > 0.0
        assert _box_mass(table, pieces, lo, hi) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name, oblique", [("ba_inv_sqrt", False), ("ba_lebesgue", False),
                                           ("ba_lebesgue", True), ("ba_inv_sqrt", True)])
def test_pair_nodes_match_per_segment_cuts(name, oblique):
    base, plan = _scenario(name)
    nu, rot = _rotated(base, 0.3) if oblique else (base, np.eye(2))
    segs, table, pieces = nu.mu.segments, nu.mu.segment_table, nu.omega.arc_pieces()
    boundary = arcs.boundary_angles(pieces)
    for x, y in _pairs(plan, 53, 12, rot):
        pts, wts, _ = arcs.segment_pair_nodes(table, pieces, x, y)
        ref_pts, ref_wts = _ref_pair_nodes(segs, pieces, x, y)
        if oblique:
            assert pts.shape == ref_pts.shape
            np.testing.assert_allclose(pts, ref_pts, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(wts, ref_wts, rtol=1e-12, atol=0.0)
        else:
            assert pts.tobytes() == ref_pts.tobytes()
            assert wts.tobytes() == ref_wts.tobytes()
        special = _needs_features(table, x, y, boundary)
        for k in np.flatnonzero(special)[:8]:
            one = arcs.segment_query_nodes(*segs[k], x, y, boundary)
            ref = _ref_query_nodes(*segs[k], x, y, boundary)
            assert len(one[1]) == len(ref[1])
            np.testing.assert_allclose(one[0], ref[0], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(one[1], ref[1], rtol=1e-12, atol=0.0)


def test_query_nodes_cover_the_collinear_and_on_line_cases():
    # a query on the segment's own line, a query point on the line beyond
    # it, and a point on the line with the other off it
    p0, p1 = np.array([0.0, 0.0]), np.array([2.0, 0.0])
    boundary = [0.5, 2.5]
    for x, y in (([0.5, 0.0], [1.5, 0.0]), ([3.0, 0.0], [0.7, 0.4]), ([0.25, 0.0], [0.6, 1.0])):
        x, y = np.array(x), np.array(y)
        pts, wts = arcs.segment_query_nodes(p0, p1, 1.5, x, y, boundary)
        ref_pts, ref_wts = _ref_query_nodes(p0, p1, 1.5, x, y, boundary)
        assert pts.tobytes() == ref_pts.tobytes()
        assert wts.tobytes() == ref_wts.tobytes()
        assert float(np.sum(wts)) == pytest.approx(3.0, rel=1e-14)


def test_boundary_directions_are_listed_once():
    # pieces touching both 0 and pi (uniform directions, every bundled cap) put
    # the vertical direction at both ends; a repeat would only add repeated cuts
    dirs = arcs._boundary_dirs([0.0, 0.3, math.pi, 2.0])
    g = [(b - 0.5 * math.pi) % math.pi for b in (0.0, 0.3, 2.0)]
    assert dirs.tolist() == [[math.cos(v), math.sin(v)] for v in g]


def test_thin_gap_runs_merge_sequentially():
    # cuts closer than the tolerance in a chain: each is dropped against the
    # last kept one, not against its neighbour
    p0s, us = np.zeros((1, 2)), np.array([[1.0, 0.0]])
    lengths, denss = np.array([1.0]), np.array([1.0])
    tol = 1e-13
    chain = 0.5 + np.array([0.0, 0.6, 1.2, 1.8, 2.4]) * tol
    cuts = np.concatenate([chain, [0.5, 0.25, 1.0 - 0.5 * tol, np.nan, -1.0, 2.0]])[None, :]
    pts, wts, seg = arcs._cut_nodes(p0s, us, lengths, denss, cuts)
    ref_pts, ref_wts = _ref_span_nodes(p0s[0], us[0], 1.0,
                                       {0.0, 1.0, 0.25, 1.0 - 0.5 * tol, *chain.tolist()}, 1.0)
    assert pts.tobytes() == ref_pts.tobytes()
    assert wts.tobytes() == ref_wts.tobytes()
    assert seg.tolist() == [0] * len(wts)


def test_segment_table_is_read_only_and_matches_segments():
    nu, _ = _scenario("ba_inv_sqrt")
    table = nu.mu.segment_table
    for k in (0, 511, 1023):
        p0, p1, dens = nu.mu.segments[k]
        assert table.p0s[k].tolist() == p0.tolist() and table.p1s[k].tolist() == p1.tolist()
        assert table.lengths[k] == float(np.linalg.norm(p1 - p0))
        assert table.denss[k] == dens
    bulk_pts, bulk_wts = arcs.segment_bulk_nodes(table.p0s, table.p1s, table.denss)
    assert table.bulk_pts.reshape(-1, 2).tobytes() == bulk_pts.tobytes()
    assert table.bulk_wts.ravel().tobytes() == bulk_wts.tobytes()
    with pytest.raises(ValueError):
        table.p0s[0, 0] = 1.0


# ---------------------------------------------------------------------------
# the pair kernel in its dense form: the psi = pi/2 tie-break taken on every
# node, the collinear cases by nested np.where, the overlaps by a 3-index
# nonzero over stacked arrays
# ---------------------------------------------------------------------------

def _ref_arc_overlaps(arc_lo, arc_hi, dens):
    lo2 = np.stack([arc_lo, np.zeros(len(arc_lo))], axis=1)
    hi2 = np.stack([np.minimum(arc_hi, math.pi), np.clip(arc_hi - math.pi, 0.0, None)], axis=1)
    glo = np.maximum(lo2[:, :, None], dens[None, None, :, 0])
    ghi = np.minimum(hi2[:, :, None], dens[None, None, :, 1])
    ii, pp, jj = np.nonzero(ghi > glo)
    return ii, glo[ii, pp, jj], ghi[ii, pp, jj], dens[jj, 2]


def _ref_pair_core(dx, dy, w, pieces, delta, taus=None):
    """``arcs.pair_cloud_integrals`` for nodes ("full" on the segment), every step on every node."""
    PI = math.pi
    rx2 = np.einsum("ij,ij->i", dx, dx)
    ry2 = np.einsum("ij,ij->i", dy, dy)
    cross = dx[:, 0] * dy[:, 1] - dx[:, 1] * dy[:, 0]
    dot = np.einsum("ij,ij->i", dx, dy)
    collinear = cross == 0.0
    between = collinear & (dot <= 0.0)
    px = (np.arctan2(dx[:, 1], dx[:, 0]) + 0.5 * PI) % PI
    py = (np.arctan2(dy[:, 1], dy[:, 0]) + 0.5 * PI) % PI
    w1 = (py - px) % PI
    ux = dx / np.sqrt(np.where(rx2 == 0.0, 1.0, rx2))[:, None]
    uy = dy / np.sqrt(np.where(ry2 == 0.0, 1.0, ry2))[:, None]
    psi = 2.0 * np.arctan2(np.hypot(ux[:, 0] - uy[:, 0], ux[:, 1] - uy[:, 1]),
                           np.hypot(ux[:, 0] + uy[:, 0], ux[:, 1] + uy[:, 1]))
    first_matches = np.abs(w1 - psi) <= np.abs((PI - w1) - psi)
    mid = px + 0.5 * w1
    cmid, smid = np.cos(mid), np.sin(mid)
    prod = (cmid * dx[:, 0] + smid * dx[:, 1]) * (cmid * dy[:, 0] + smid * dy[:, 1])
    use_first = np.where(np.abs(psi - 0.5 * PI) < 1e-6, prod <= 0.0, first_matches)
    lo = np.where(use_first, px, (px + w1) % PI)
    width = np.where(use_first, w1, PI - w1)
    width = np.where(collinear, np.where(between, PI, 0.0), width)
    p_delta, s0 = arcs._query_frame(delta)
    xi_lo = (lo - p_delta) % PI
    xi_lo = np.where(between, 0.0, xi_lo)
    xi_lo = np.where(width == 0.0, 0.0, xi_lo)
    ii, lo_r, hi_r, rho_r = _ref_arc_overlaps(xi_lo, xi_lo + width,
                                              arcs._wrap_pieces_to_xi(pieces, p_delta))
    len_r = rho_r * (hi_r - lo_r)
    phi_lo, phi_hi = p_delta + lo_r, p_delta + hi_r
    tr_r = rho_r * (np.cos(lo_r) - np.cos(hi_r))
    e0_r = s0 * rho_r * (np.sin(phi_hi) - np.sin(phi_lo))
    e1_r = s0 * rho_r * (np.cos(phi_lo) - np.cos(phi_hi))
    wr = w[ii]
    angle = None if taus is None else arcs.arc_threshold_sums(wr * rho_r, lo_r, hi_r, taus)
    return (float(wr @ len_r), float(wr @ tr_r),
            np.array([float(wr @ e0_r), float(wr @ e1_r)]), angle)


def _assert_core_bits(points, weights, pieces, x, y, taus):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    got = arcs.pair_cloud_integrals(points, weights, pieces, x, y, taus=taus, on_segment="full")
    ref = _ref_pair_core(x - points, y - points, weights, pieces, x - y, taus=taus)
    assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in ref]
    return got


def test_pair_cloud_integrals_answers_zeros_for_an_empty_point_list():
    # a flat empty list once became a (1, 0) array and failed to broadcast
    pieces = ArcDensity2D([(0.2, 1.0, 1.5), (1.3, 2.9, 0.5)]).pieces
    x, y = (0.1, 0.2), (0.7, 0.4)
    for taus in (None, [0.3, 0.6]):
        flat = arcs.pair_cloud_integrals([], [], pieces, x, y, taus=taus)
        shaped = arcs.pair_cloud_integrals(np.zeros((0, 2)), [], pieces, x, y, taus=taus)
        assert [np.asarray(v).tobytes() for v in flat] == \
            [np.asarray(v).tobytes() for v in shaped]
        mass, trans, embed, angle = flat
        assert mass == trans == 0.0 and not np.any(embed)
        assert angle is None if taus is None else not np.any(angle)


_CLOUD = ([[0.2, 0.5], [0.1, -0.4]], [1.0, 1.0])
_QUERY = ((0.1, 0.2), (0.7, 0.4))
BAD_CLOUD_CALLS = {
    # once reshaped to three planar points and answered mass 1.4829
    "3-D points": (([[0.2, 0.5, 0.3], [0.1, -0.4, 0.7]], [1.0, 1.0, 1.0]), _QUERY,
                   DimensionMismatchError, "point of shape"),
    # once answered 0.8882, the third weight unread
    "extra weight": ((_CLOUD[0], [1.0, 1.0, 1.0]), _QUERY, DimensionMismatchError,
                     "3 weights for 2 points"),
    # once failed inside the kernel with an IndexError
    "missing weight": ((_CLOUD[0] + [[0.3, 0.3]], [1.0, 1.0]), _QUERY, DimensionMismatchError,
                       "2 weights for 3 points"),
    # once answered a finite mass from the first two coordinates
    "3-D query": (_CLOUD, ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), DimensionMismatchError,
                  "point of shape"),
    # once answered zeros
    "NaN query": (_CLOUD, ((math.nan, 0.0), (1.0, 0.0)), ValueError, "must be finite"),
}


@pytest.mark.parametrize("case", list(BAD_CLOUD_CALLS))
def test_pair_cloud_integrals_refuses_points_that_are_not_planar_or_weighted_once(case):
    (points, weights), (x, y), error, message = BAD_CLOUD_CALLS[case]
    pieces = ArcDensity2D([(0.2, 1.0, 1.5), (1.3, 2.9, 0.5)]).pieces
    with pytest.raises(error, match=message):
        arcs.pair_cloud_integrals(points, weights, pieces, x, y, on_segment="full")


@pytest.mark.parametrize("name", ["ba_inv_sqrt", "degenerate_caps_02", "ba_lebesgue"])
def test_pair_core_matches_dense_reference_bits(name):
    from busemetric.diagnostics import TAU_GRID
    from busemetric.evaluate import _point_support
    nu, plan = _scenario(name)
    pieces = nu.omega.arc_pieces()
    for x, y in _pairs(plan, 61, 4):
        for points, weights in (_point_support(nu.mu),
                                arcs.segment_pair_nodes(nu.mu.segment_table, pieces, x, y)[:2]):
            if len(points):
                for taus in (None, TAU_GRID):
                    _assert_core_bits(points, weights, pieces, x, y, taus)


def test_pair_core_tie_collinear_and_between_nodes_match_dense_reference_bits():
    # a node at the apex of a right angle over [x, y] sees the segment at
    # psi = pi/2, where both arcs are as wide and the midpoint test picks one;
    # nodes on the query line beyond it and on it (endpoints included); and a
    # ring of nodes whose hit arcs run past pi in the query frame
    pieces = ArcDensity2D([(0.2, 1.0, 1.5), (1.3, 2.9, 0.5), (3.0, math.pi, 2.0)]).pieces
    rng = np.random.default_rng(9)
    angles = rng.uniform(0.0, 2.0 * math.pi, 40)
    ring = 0.5 * np.column_stack([np.cos(angles), np.sin(angles)])
    special = np.array([[0.0, 1.0], [0.0, -1.0], [3.0, 0.0], [-2.0, 0.0],
                        [0.25, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    # nodes off the circle on [x, y] by 1e-7 to 1e-4, so psi is near pi/2 and
    # some lie in the shell 1e-6 < |psi - pi/2| < 1e-5 that takes the width
    # rule without the midpoint test; and far nodes, whose w1 is near 0 or wraps to near pi
    shell = np.outer(1.0 + np.r_[-1.0, 1.0][:, None] * np.geomspace(1e-7, 1e-4, 9),
                     np.ones(2)).reshape(-1, 1, 2)
    turns = rng.uniform(0.1, math.pi - 0.1, 3)
    turns = np.column_stack([np.cos(turns), np.sin(turns)])
    shell = (shell * np.concatenate([turns, -turns])).reshape(-1, 2)
    far = np.geomspace(1e4, 1e9, 12)[:, None] * np.column_stack([np.cos(angles[:12]),
                                                                 np.sin(angles[:12])])
    points = np.concatenate([special, ring, shell, far])
    weights = rng.uniform(0.5, 2.0, len(points))
    dx, dy = np.array([-1.0, 0.0]) - shell, np.array([1.0, 0.0]) - shell
    off = np.abs(np.arccos(np.einsum("ij,ij->i", dx, dy) / np.hypot(*dx.T) / np.hypot(*dy.T))
                 - 0.5 * math.pi)
    assert np.any((off > 1e-6) & (off < 1e-5)) and np.any(off < 1e-6) and np.any(off > 1e-5)
    dx, dy = np.array([-1.0, 0.0]) - far, np.array([1.0, 0.0]) - far
    w1 = (np.arctan2(dy[:, 1], dy[:, 0]) - np.arctan2(dx[:, 1], dx[:, 0])) % math.pi
    assert np.any(w1 > math.pi - 1e-3) and np.any(w1 < 1e-3)
    for x, y in (([-1.0, 0.0], [1.0, 0.0]), ([1.0, 0.0], [-1.0, 0.0])):
        for taus in (None, [0.4], np.linspace(0.0, 3.0, 7)):
            _assert_core_bits(points, weights, pieces, x, y, taus)
        # the apex node alone, under a uniform direction density: it is hit by the
        # lines crossing the x axis between x and y, normals within pi/4 of it
        uniform = np.array([[0.0, math.pi, 1.0]])
        mass, _, emb, _ = _assert_core_bits(special[:1], np.ones(1), uniform, x, y, None)
        assert mass == pytest.approx(0.5 * math.pi, rel=1e-14)
        assert abs(emb[0]) == pytest.approx(math.sqrt(2.0), rel=1e-14) and abs(emb[1]) < 1e-15


def test_mod_pi_matches_the_remainder_bits():
    # the shift by comparisons gives the bits of ``% pi`` on [-pi, 2 pi]: at the
    # signed zeros, the multiples of pi/2 and their neighbours, and over each
    # call site's input range, the arctangent sums of axis-aligned points included
    PI = math.pi
    marks = [-0.0, 0.0, -PI, -0.5 * PI, 0.5 * PI, PI, 1.5 * PI, 2.0 * PI]
    near = [np.nextafter(v, side) for v in marks for side in (-np.inf, np.inf)]
    edge = np.array([v for v in marks + near if -PI <= v <= 2.0 * PI])
    assert arcs._mod_pi(edge).tobytes() == (edge % PI).tobytes()
    rng = np.random.default_rng(23)
    axes = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-1.0, -0.0]])
    ranges = {"arctan2 + pi/2": (-0.5 * PI, 1.5 * PI), "differences": (-PI, PI),
              "px + w1": (0.0, 2.0 * PI), "pi/2 - p_d": (-0.5 * PI, 0.5 * PI)}
    for lo, hi in ranges.values():
        a = np.r_[rng.uniform(lo, hi, 10**6), lo, hi]
        assert arcs._mod_pi(a).tobytes() == (a % PI).tobytes()
    a = np.r_[np.arctan2(*rng.normal(size=(2, 10**6))), np.arctan2(axes[:, 1], axes[:, 0])]
    a += 0.5 * PI
    assert arcs._mod_pi(a).tobytes() == (a % PI).tobytes()
    # the box kernel takes % 2 pi of values in [-pi, 3 pi] and % pi of values in
    # [-1.5 pi, 1.5 pi]: the shift covers [-2 period, 2 period] for both periods
    for period in (PI, 2.0 * PI):
        marks = [0.5 * k * period for k in range(-4, 5)] + [-0.0]
        near = [np.nextafter(v, side) for v in marks for side in (-np.inf, np.inf)]
        a = np.r_[marks, near, rng.uniform(-2.0 * period, 2.0 * period, 10**6)]
        a = a[np.abs(a) <= 2.0 * period]
        assert arcs._mod_pi(a, period).tobytes() == (a % period).tobytes()


def test_arc_overlaps_match_dense_reference_bits():
    # arcs of zero width, of width pi and past pi, against pieces that touch
    rng = np.random.default_rng(31)
    dens = np.array([[0.0, 0.4, 1.0], [0.4, 1.1, 2.0], [1.5, 2.5, 0.5], [2.9, math.pi, 3.0]])
    lo = np.r_[rng.uniform(0.0, math.pi, 200), 0.0, 0.4, 2.0, math.pi - 1e-9]
    width = np.r_[rng.uniform(0.0, math.pi, 200) * (rng.random(200) < 0.9), math.pi, 0.0,
                  math.pi, 1e-9]
    got = arcs._arc_overlaps(lo, lo + width, dens)
    ref = _ref_arc_overlaps(lo, lo + width, dens)
    assert np.any(lo + width > math.pi)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]


# ---------------------------------------------------------------------------
# the box kernel in its dense form: (positions, corners, 2) offsets, ``%`` and
# min/max over the corner axis
# ---------------------------------------------------------------------------

def _ref_box_cloud_hits(points, pieces, lo, hi):
    PI = math.pi
    inside = np.all((points >= lo) & (points <= hi), axis=1)
    d = arcs.box_corners(lo, hi)[None, :, :] - points[:, None, :]
    theta = np.arctan2(d[:, :, 1], d[:, :, 0])
    rel = (theta - theta[:, :1] + PI) % (2.0 * PI) - PI
    wedge_lo = theta[:, 0] + rel.min(axis=1)
    n_lo = np.where(inside, 0.0, (wedge_lo + 0.5 * PI) % PI)
    n_width = np.where(inside, PI, rel.max(axis=1) - rel.min(axis=1))
    ii, glo, ghi, rho = _ref_arc_overlaps(n_lo, n_lo + n_width, np.asarray(pieces, dtype=float))
    return ii, rho * (ghi - glo)


def _assert_box_bits(points, pieces, lo, hi):
    got = arcs.box_cloud_hits(points, pieces, lo, hi)
    ref = _ref_box_cloud_hits(points, pieces, np.asarray(lo), np.asarray(hi))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]


@pytest.mark.parametrize("name", ["ba_inv_sqrt", "degenerate_caps_02", "doubling_box"])
def test_box_cloud_hits_match_dense_reference_bits(name):
    # the cube audit's boxes, over the cloud each query integrates
    from busemetric.evaluate import _point_support
    nu, plan = _scenario(name)
    pieces = nu.omega.arc_pieces()
    for q in diagnostics._sample_cubes(plan, diagnostics._streams(plan)[2]):
        lo, hi = q.center - 0.5 * q.edge, q.center + 0.5 * q.edge
        points = _point_support(nu.mu)[0]
        if not len(points):
            points = arcs.segment_box_nodes(nu.mu.segment_table, pieces, lo, hi)[0]
        _assert_box_bits(points, pieces, lo, hi)


def test_box_cloud_hits_on_corners_edges_and_edge_lines_match_dense_reference_bits():
    # nodes at the corners, on the edges and inside, and nodes on an edge line
    # or an ulp off it, where a corner's direction is at angle +0, pi or near
    # -pi; boxes flat in one axis or both too
    pieces = ArcDensity2D([(0.2, 1.0, 1.5), (1.3, 2.9, 0.5), (3.0, math.pi, 2.0)]).pieces
    for lo, hi in (((-1.0, -0.5), (1.0, 0.5)), ((0.3, -0.2), (0.3, 0.7)),
                   ((0.25, 0.25), (0.25, 0.25)), ((-2.0, 1e-9), (3.0, 2e-9))):
        lo, hi = np.asarray(lo), np.asarray(hi)
        axes = []
        for k in range(2):
            ends = [v for v in (lo[k], hi[k]) for v in (np.nextafter(v, -np.inf), v,
                                                         np.nextafter(v, np.inf))]
            axes.append(np.r_[ends, 0.5 * (lo[k] + hi[k]), lo[k] - 3.0, hi[k] + 2.0, -1e6, 1e6])
        points = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, 2)
        for omega in (pieces, np.array([[0.0, math.pi, 1.0]])):
            _assert_box_bits(points, omega, lo, hi)
