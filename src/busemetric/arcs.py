"""Exact circle-arc integration for position-direction hyperplane measures in the plane.

For a position a and a query segment [x, y], the normals v(phi) of the
hyperplanes through a that hit the segment form an arc of the projective
angle circle [0, pi).  Shifting the angle by p_delta (the normal angle of
the query direction) puts the arc inside (0, pi) of a coordinate xi in
which all integrands are elementary:

* hit mass            : density * dxi,
* sin(alpha) weight   : density * sin(xi) dxi,
* oriented normal     : s0 * density * v(p_delta + xi) dxi,
* angle threshold tau : restrict xi to [tau, pi - tau].

The orientation sign s0 is constant on (0, pi), so every integral reduces
to antiderivative differences; the three queries evaluated on the same
positions therefore satisfy the metric/embedding identities exactly.

The same machinery integrates measures carried by straight density
segments, and this module owns their cuts and nodes for both pair and box
queries: per query, each segment is split at the finitely many parameter
values where the line from a query point (or box corner) along a
density-support boundary direction crosses it, where the query line (or a
box edge line) crosses it, graded dyadically toward the projections of the
query points (or the box center), and integrated with SEGMENT_ORDER
Gauss-Legendre nodes per smooth span.  Segments with no such feature take
fixed bulk nodes.  A measure stacks its segments once into a read-only
``SegmentTable``, and a query generates, merges and expands the cuts of all
its segments as arrays in one pass.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .directions import wrap_interval
from .geometry import (DegenerateConfigurationError, DimensionMismatchError, as_point,
                       as_points, points_on_segments)

PI = math.pi
TWO_PI = 2.0 * math.pi


def _wrap_pieces_to_xi(pieces: np.ndarray, p_delta: float) -> np.ndarray:
    """Shift density pieces on [0, pi) into xi coordinates, splitting wraps."""
    return np.asarray([(a, b, dens) for lo, hi, dens in pieces
                       for a, b in wrap_interval(lo - p_delta, hi - lo)], dtype=float)


def _query_frame(delta) -> tuple[float, float]:
    """The normal angle p_delta of the query direction ``delta`` and the sign s0
    orienting v(p_delta + xi) toward the x side for xi in (0, pi)."""
    d0, d1 = float(delta[0]), float(delta[1])
    p_delta = (math.atan2(d1, d0) + 0.5 * PI) % PI
    # v(p_delta + pi/2) is +-delta/|delta|, so the sign test is never near a tie
    along = math.cos(p_delta + 0.5 * PI) * d0 + math.sin(p_delta + 0.5 * PI) * d1
    return p_delta, (1.0 if along > 0.0 else -1.0)


def _arc_overlaps(arc_lo, arc_hi, dens, rows=None):
    """The nonempty overlaps of hit arcs [arc_lo, arc_hi) with density pieces.

    ``dens`` holds (lo, hi, density) pieces shared by every arc or, with ``rows``,
    one padded set per query row, arc k taking the set of row ``rows[k]``.  An arc
    may run past pi (arc_lo < pi, width <= pi); only such an arc gets a second part,
    [0, arc_hi - pi).  Returns ``(ii, lo, hi, rho)``: one entry per nonempty (arc,
    part, piece) overlap, in that order, so ``ii`` runs in arc order.
    """
    def overlaps(at, part_lo, part_hi):
        """The overlaps of the arcs ``at`` (a slice or indices) with their part."""
        glo, ghi = np.empty((2, len(part_hi), dens.shape[-2]))
        if rows is None:
            # written through (piece, arc) views, so each loop runs along the arcs
            np.maximum(part_lo, dens[:, 0, None], out=glo.T, order="C")
            np.minimum(part_hi, dens[:, 1, None], out=ghi.T, order="C")
        else:       # piece k of each arc's own row
            own = rows[at]
            for k in range(dens.shape[1]):
                np.maximum(part_lo, dens[own, k, 0], out=glo[:, k])
                np.minimum(part_hi, dens[own, k, 1], out=ghi[:, k])
        flat = np.flatnonzero(ghi > glo)
        ii, kk = np.divmod(flat, glo.shape[1])
        if not isinstance(at, slice):
            ii = at[ii]
        return (ii, glo.ravel()[flat], ghi.ravel()[flat],
                dens[kk, 2] if rows is None else dens[rows[ii], kk, 2])

    first = overlaps(slice(None), arc_lo, np.minimum(arc_hi, PI))
    wrap = np.flatnonzero(arc_hi > PI)
    if not wrap.size:
        return first
    second = overlaps(wrap, 0.0, arc_hi[wrap] - PI)
    # a stable sort by arc puts an arc's wrapped part after its first part
    order = np.argsort(np.concatenate([first[0], second[0]]), kind="stable")
    return tuple(np.concatenate(parts)[order] for parts in zip(first, second))


def _mod_pi(a: np.ndarray, period: float = PI) -> np.ndarray:
    """``a % period`` bit for bit for ``a`` in [-2 period, 2 period], by a shift of
    -2 to 2 periods picked by comparisons: subtracting one or two periods from a
    value at least that large is exact (Sterbenz), as ``%`` is; adding one to a
    negative value, or two below -period (``%`` adds one exactly, then one
    more), rounds once as ``%`` does; adding 0.0 maps -0.0 to +0.0, as ``%`` does.
    """
    return a + period * ((a < 0.0).view(np.int8) + (a < -period) - (a >= period) - (a >= 2 * period))


def pair_cloud_integrals(points, weights, pieces, x, y, *, taus=None,
                         on_segment: str = "error"):
    """Mass, sin-alpha integral, oriented-normal integral over hits of [x, y].

    ``points``/``weights`` describe a weighted position cloud, ``pieces`` the
    direction density on [0, pi); the points and ``x``, ``y`` must be planar points
    (``geometry.as_points``), with one weight per cloud point.
    ``on_segment`` controls positions that lie on the closed query segment
    (``geometry.points_on_segments``): "error" rejects them (atom semantics),
    "full" assigns the full direction circle (density-node semantics).
    Returns the weighted totals (mass, transversal, embed[2], angle_masses).
    """
    x, y = as_point(x, 2)[None], as_point(y, 2)[None]
    if not np.any(x != y):
        raise DegenerateConfigurationError("pair query needs x != y")
    points, error = as_points(points, 2)
    if error is not None:
        raise error
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(points),):
        raise DimensionMismatchError(f"{weights.size} weights for {len(points)} points")
    if on_segment == "error" and points_on_segments(points, x, y).any():
        raise DegenerateConfigurationError("atom lies on the closed query segment")
    return _pair_core(points, weights, np.asarray(pieces, dtype=float),
                      x, y, np.zeros(len(points), dtype=np.intp), taus=taus)[0]


def _xi_pieces(pieces, p_deltas) -> np.ndarray:
    """Each query row's density pieces in its xi coordinate (``_wrap_pieces_to_xi``),
    as (rows, pieces, 3), a row with fewer wrapped pieces padded with empty ones."""
    wrapped = [_wrap_pieces_to_xi(pieces, p) for p in p_deltas]
    out = np.tile([math.inf, -math.inf, 0.0], (len(wrapped), max(map(len, wrapped)), 1))
    for row, xi in zip(out, wrapped):
        row[:len(xi)] = xi
    return out


def _hit_arcs(c0, c1, p_delta):
    """Each node's hit arc [xi_lo, xi_hi) in its query's xi frame, from the coordinate
    columns c0 (x[0] - p[:, 0] in row 0, y[0] - p[:, 0] in row 1) and c1.

    The arc is picked by the side of pi/2 its width w1 and the subtended angle
    lie on, near a tie by the closer width and the midpoint sign test.
    """
    (dx0, dy0), (dx1, dy1) = c0, c1
    collinear = dx0 * dy1 - dx1 * dy0 == 0.0
    dot = dx0 * dy0 + dx1 * dy1
    # a point on the closed segment, an endpoint included, is hit by every
    # line through it, oriented as for a point just inside the segment
    between = collinear & (dot <= 0.0)

    px, py = _mod_pi(np.arctan2(c1, c0) + 0.5 * PI)
    w1 = _mod_pi(py - px)
    # The hit arc [px, px + w1) or its complement is as wide as the angle psi
    # the segment subtends, and w1 is psi or pi - psi to about 1e-15: where
    # |w1 - pi/2| >= 1e-5 the width nearer psi is w1 just when both lie on one
    # side of pi/2, and psi < pi/2 just when dot > 0 (off by a few eps r_x r_y).
    use_first = (w1 < 0.5 * PI) == (dot > 0.0)
    near = np.flatnonzero(np.abs(w1 - 0.5 * PI) < 1e-5)
    if near.size:
        n0, n1 = c0[:, near], c1[:, near]
        r2 = n0 * n0 + n1 * n1
        r = np.sqrt(np.where(r2 == 0.0, 1.0, r2))
        (ux0, uy0), (ux1, uy1) = n0 / r, n1 / r
        psi = 2.0 * np.arctan2(np.hypot(ux0 - uy0, ux1 - uy1), np.hypot(ux0 + uy0, ux1 + uy1))
        use_first[near] = np.abs(w1[near] - psi) <= np.abs((PI - w1[near]) - psi)
        tie = near[np.abs(psi - 0.5 * PI) < 1e-6]
        mid = px[tie] + 0.5 * w1[tie]
        cmid, smid = np.cos(mid), np.sin(mid)
        use_first[tie] = ((cmid * dx0[tie] + smid * dx1[tie])
                          * (cmid * dy0[tie] + smid * dy1[tie])) <= 0.0
    width = np.where(use_first, w1, PI - w1)
    width[collinear] = 0.0
    width[between] = PI
    xi_lo = _mod_pi(np.where(use_first, px, _mod_pi(px + w1)) - p_delta)
    xi_lo[between] = 0.0    # the whole circle from 0; a zero-width arc overlaps nothing anyway
    return xi_lo, xi_lo + width


def _pair_core(pts, w, pieces, xs, ys, rows, *, taus=None):
    """``pair_cloud_integrals`` on float arrays for the queries ``xs[q]``, ``ys[q]``
    at once, the nodes of query q those with ``rows == q`` (``rows`` nondecreasing).

    Each node's hit arc (``_hit_arcs``) is integrated in closed form.  Every step
    is elementwise over all nodes; each query's sums are dot products over its own
    overlaps alone, so they keep the bits of a call with that query alone.
    Returns one (mass, transversal, embed, angle) per query.
    """
    # a per-query value per node: one query broadcasts, as a scalar would
    one = len(xs) == 1
    at = slice(0, 1) if one else rows
    frames = np.array([_query_frame(d) for d in (xs - ys).tolist()])
    p_delta, s0 = frames[:, 0], frames[:, 1]
    dens, by_row = ((_wrap_pieces_to_xi(pieces, p_delta[0]), None) if one else
                    (_xi_pieces(pieces, p_delta), rows))
    # coordinate columns: row 0 of c0 is x[0] - p[:, 0], row 1 is y[0] - p[:, 0]
    ends = np.stack([xs, ys])
    ii, lo_r, hi_r, rho_r = _arc_overlaps(
        *_hit_arcs(ends[:, at, 0] - pts[:, 0], ends[:, at, 1] - pts[:, 1], p_delta[at]),
        dens, by_row)
    hit_at = at if one else rows[ii]
    bounds = [0, len(ii)] if one else np.searchsorted(hit_at, np.arange(len(xs) + 1)).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    wr = w[ii]
    sums = _overlap_sums(wr, rho_r, lo_r, hi_r, p_delta[hit_at], s0[hit_at], spans)
    if taus is None:
        return [(*row, None) for row in sums]
    # the angle profiles run once the arrays of the sums are freed
    wrho = wr * rho_r
    return [(*row, arc_threshold_sums(wrho[a:b], lo_r[a:b], hi_r[a:b], taus))
            for row, (a, b) in zip(sums, spans)]


def _overlap_sums(wr, rho_r, lo_r, hi_r, p_r, s0_r, spans):
    """Each query's mass, transversal and embedding, from the overlaps [lo_r, hi_r) in
    xi of the nodes of weights ``wr``: dot products over its own ``spans`` alone."""
    len_r = rho_r * (hi_r - lo_r)
    tr_r = rho_r * (np.cos(lo_r) - np.cos(hi_r))
    srho_r = s0_r * rho_r
    e0_r = srho_r * (np.sin(p_r + hi_r) - np.sin(p_r + lo_r))
    e1_r = srho_r * (np.cos(p_r + lo_r) - np.cos(p_r + hi_r))
    return [(float(wr[a:b] @ len_r[a:b]), float(wr[a:b] @ tr_r[a:b]),
             np.array([float(wr[a:b] @ e0_r[a:b]), float(wr[a:b] @ e1_r[a:b])]))
            for a, b in spans]


ANGLE_BLOCK_ELEMENTS = 1 << 16    # the most elements in one cache-sized block of angle rows


def threshold_sums(weights, taus, fill):
    """Per threshold t, the sum over rows k of ``w[k] * v[k, t]`` for each ``w`` in
    ``weights``; ``fill(start, stop, out, tmp)`` writes ``v[start:stop]`` into ``out``.

    With two or more thresholds ``einsum("k,kt->t")`` adds rows in order, so rows
    go a block at a time into two buffers allocated once, behind the running sums
    in row 0 (weight 1.0), with the bits of one sum over all rows.  One column is
    not added in order, so a single threshold takes all rows at once.
    """
    count, width = len(weights[0]), len(taus)
    if width < 2:
        vals, tmp = np.empty((2, count, width))
        fill(0, count, vals, tmp)
        return [np.einsum("k,kt->t", w, vals) for w in weights]
    rows = max(ANGLE_BLOCK_ELEMENTS // width, 1)
    vals, tmp = np.empty((2, min(rows, count) + 1, width))
    wbuf = np.ones(len(vals))       # row 0 keeps weight 1.0
    sums = [np.zeros(width) for _ in weights]
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        n = stop - start + 1
        fill(start, stop, vals[1:n], tmp[1:n])
        for j, w in enumerate(weights):
            vals[0], wbuf[1:n] = sums[j], w[start:stop]
            sums[j] = np.einsum("k,kt->t", wbuf[:n], vals[:n])
    return sums


def arc_threshold_sums(w, lo, hi, taus, anti=None) -> np.ndarray:
    """Per threshold t, the sum over rows k of ``w[k] * (F(a) - F(b))``, [a, b] the part of
    the arc [lo[k], hi[k]] in [t, pi - t] (no term where it is empty) and F ``anti``;
    without ``anti``, F(x) = -x and each term weighs the part's length."""
    taus = np.asarray(taus, dtype=float)

    def fill(start, stop, a, b):
        np.maximum(lo[start:stop, None], taus, out=a)
        np.minimum(hi[start:stop, None], PI - taus, out=b)
        if anti is not None:
            np.copyto(a, np.where(b > a, anti(a) - anti(b), 0.0))
        else:       # F(a) - F(b) = b - a, which is <= 0 just where the part is empty
            np.subtract(b, a, out=a)
            np.maximum(a, 0.0, out=a)

    return threshold_sums([w], taus, fill)[0]


def box_corners(lo, hi) -> np.ndarray:
    """The four corners of a planar axis box."""
    return np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])


def box_cloud_hits(points, pieces, box_lo, box_hi):
    """Direction mass of the hyperplanes through each position that hit an axis box.

    The wedge spans the corner directions, (4, positions) columns in ``box_corners``
    order, relative to the first; its own relative angle, +0.0, starts the min and max.
    Returns ``(ii, vals)``: one entry per nonempty (position, arc piece,
    density piece) overlap, in position order; the box mass of a weighted
    cloud is ``w[ii] @ vals``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    # offsets to the edge lines; a rounded difference has the sign of the exact one
    ox = np.subtract.outer((lo[0], hi[0]), pts[:, 0])
    oy = np.subtract.outer((lo[1], hi[1]), pts[:, 1])
    inside = (ox[0] <= 0.0) & (ox[1] >= 0.0) & (oy[0] <= 0.0) & (oy[1] >= 0.0)

    theta = np.arctan2(oy[[0, 1, 0, 1]], ox[[0, 0, 1, 1]])
    rel = _mod_pi(theta[1:] - theta[0] + PI, TWO_PI) - PI
    rel_lo = rel.min(axis=0, initial=0.0)
    n_lo = np.where(inside, 0.0, _mod_pi(theta[0] + rel_lo + 0.5 * PI))
    n_width = np.where(inside, PI, rel.max(axis=0, initial=0.0) - rel_lo)

    ii, glo, ghi, rho = _arc_overlaps(n_lo, n_lo + n_width, np.asarray(pieces, dtype=float))
    return ii, rho * (ghi - glo)


def box_cloud_mass(points, weights, pieces, box_lo, box_hi):
    """Direction mass of hyperplanes through each position that hit an axis box."""
    ii, vals = box_cloud_hits(points, pieces, box_lo, box_hi)
    return float(np.asarray(weights, dtype=float)[ii] @ vals)


# ---------------------------------------------------------------------------
# segment cuts and Gauss nodes, shared by the pair and box paths
# ---------------------------------------------------------------------------

SEGMENT_ORDER = 8          # Gauss-Legendre nodes per smooth span of a density segment

_gl = functools.cache(np.polynomial.legendre.leggauss)   # (nodes, weights) of an order


def _gl_spans(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes and weights of ``order`` points on each span between edges."""
    gx, gw = _gl(order)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    return (mids[:, None] + halves[:, None] * gx[None, :]).ravel(), \
        (halves[:, None] * gw[None, :]).ravel()


def boundary_angles(pieces) -> list[float]:
    """The normal angles where the direction density's support starts or ends."""
    return [float(v) for lo, hi, _ in pieces for v in (lo, hi)]


def _boundary_dirs(angles) -> np.ndarray:
    """Unit directions of the hyperplanes whose normal sits at each boundary angle,
    each direction once (pieces touching both 0 and pi give the same one twice).

    Built with ``math`` scalars: numpy's vectorized cos/sin may differ by an
    ulp, and the cuts must not move.
    """
    dirs = []
    for b in angles:
        g = (b - 0.5 * PI) % PI
        d = (math.cos(g), math.sin(g))
        if d not in dirs:
            dirs.append(d)
    return np.array(dirs).reshape(-1, 2)


def _boundary_crossings(p0s, us, qs, dirs) -> np.ndarray:
    """Segment parameters where the line through each point along each direction crosses.

    Solves p0 + s u = q + t g for s, with shape (..., segments, points,
    directions) for points ``qs`` of shape (..., points, 2); entries are inf or
    nan where u is parallel to g, so a caller keeping 0 < s < length drops them.
    """
    denom = us[:, None, 0] * dirs[None, :, 1] - us[:, None, 1] * dirs[None, :, 0]
    rel0 = qs[..., None, :, 0] - p0s[:, None, 0]
    rel1 = qs[..., None, :, 1] - p0s[:, None, 1]
    num = rel0[..., None] * dirs[:, 1] - rel1[..., None] * dirs[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / denom[:, None, :]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each computed as a 1-D ``a[k] @ b[k]`` would be.

    A stack of (1 x n) @ (n x 1) products runs the same dot kernel per
    vector pair, which may fuse multiply-adds, so a cut computed for all
    segments at once keeps the bits it has when computed for one; ``einsum``
    does not fuse.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _frames(p0s: np.ndarray, p1s: np.ndarray):
    """Unit directions and lengths of segment rows (lengths as ``np.linalg.norm``)."""
    d = p1s - p0s
    lengths = np.sqrt(_rowdot(d, d))
    return d / lengths[:, None], lengths


def _normals(us: np.ndarray) -> np.ndarray:
    """In-plane unit normals (-u1, u0); no columns outside the plane."""
    if us.shape[1] != 2:
        return np.zeros((len(us), 0))
    return np.stack([-us[:, 1], us[:, 0]], axis=1)


class SegmentTable(NamedTuple):
    """A measure's density segments as read-only arrays, one row per segment."""

    p0s: np.ndarray        # (m, dim) start points
    p1s: np.ndarray        # (m, dim) end points
    us: np.ndarray         # (m, dim) unit directions
    lengths: np.ndarray    # (m,)
    nrms: np.ndarray       # (m, 2) in-plane unit normals; (m, 0) outside the plane
    denss: np.ndarray      # (m,) densities per unit length
    bulk_pts: np.ndarray   # (m, SEGMENT_ORDER, dim) fixed Gauss nodes (segment_bulk_nodes)
    bulk_wts: np.ndarray   # (m, SEGMENT_ORDER)


def segment_table(p0s: np.ndarray, p1s: np.ndarray, denss: np.ndarray) -> SegmentTable:
    """The read-only ``SegmentTable`` of (m, dim) endpoints and (m,) densities, frozen as given."""
    m, dim = p0s.shape
    us, lengths = _frames(p0s, p1s)
    bulk_pts, bulk_wts = segment_bulk_nodes(p0s, p1s, denss)
    table = SegmentTable(p0s, p1s, us, lengths, _normals(us), denss,
                         bulk_pts.reshape(m, SEGMENT_ORDER, dim),
                         bulk_wts.reshape(m, SEGMENT_ORDER))
    for arr in table:
        arr.setflags(write=False)
    return table


def _ladders(center, scale, lengths, active) -> np.ndarray:
    """Dyadic split points center -/+ scale 2^k, k >= 0, while the step is below
    twice the segment length.

    ``center``, ``scale`` and ``active`` hold a column per feature of each
    segment row; inactive features give nan.  ``scale 2^k`` is exact, so
    these are the points repeated doubling gives.
    """
    active = active & (scale > 0.0)
    if not active.any():
        return np.zeros((len(lengths), 0))
    lens = lengths[:, None, None]
    # scale 2^k < 2 length needs k < (length exponent) - (scale exponent) + 2
    count = int((np.frexp(lens)[1][:, 0] - np.frexp(scale)[1])[active].max()) + 2
    steps = np.ldexp(scale[:, :, None], np.arange(max(count, 0)))
    steps = np.where(active[:, :, None] & (steps < 2.0 * lens), steps, np.nan)
    # center + (-step) is center - step, bit for bit
    return (center[:, :, None] + np.concatenate([-steps, steps], axis=2)).reshape(len(lengths), -1)


def _sequential_keep(edges: np.ndarray, tol: float) -> np.ndarray:
    """Which of one row's sorted edges survive: an edge within ``tol`` of the
    last surviving one is dropped (so is every repeat)."""
    keep = np.zeros(len(edges), dtype=bool)
    last = edges[0]
    keep[0] = True
    for j in range(1, len(edges)):
        if edges[j] - last > tol:
            keep[j] = True
            last = edges[j]
    return keep


def _cut_nodes(p0s, us, lengths, denss, cuts):
    """Gauss nodes and weights along segment rows split at their candidate cuts.

    Row k of ``cuts`` holds candidates for segment k; those outside
    (0, length) (and nan) are ignored.  Cuts produced by different feature
    formulas for the same geometric point can differ by a few ulps, and an
    interval that thin would round its interior quadrature nodes onto the
    cut itself, so after sorting, a cut within 1e-13 max(length, 1) of the
    last kept one is dropped and the last kept one moves to the length.
    Returns points, weights and each node's row, rows in order.
    """
    m = len(lengths)
    lens = lengths[:, None]
    # ignored candidates become repeats of the length, dropped like any repeat
    edges = np.concatenate([np.zeros((m, 1)), lens,
                            np.where((cuts > 0.0) & (cuts < lens), cuts, lens)], axis=1)
    edges.sort(axis=1)
    gaps = edges[:, 1:] - edges[:, :-1]
    close = gaps <= 1e-13 * np.maximum(lens, 1.0)
    keep = np.concatenate([np.ones((m, 1), dtype=bool), ~close], axis=1)
    # an edge is dropped against its kept predecessor; only a distinct edge
    # close to a predecessor that was itself dropped is judged wrongly here
    redo = close[:, 1:] & (gaps[:, 1:] > 0.0) & close[:, :-1]
    for r in np.flatnonzero(redo.any(axis=1)):
        keep[r] = _sequential_keep(edges[r], 1e-13 * max(float(lengths[r]), 1.0))
    last = keep.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)
    edges[np.arange(m), last] = lengths
    rows, cols = np.nonzero(keep)
    # spans between consecutive kept edges, dropping the ones across rows
    s, w = _gl_spans(edges[rows, cols], SEGMENT_ORDER)
    same = np.repeat(rows[1:] == rows[:-1], SEGMENT_ORDER)
    seg = np.repeat(rows[:-1], SEGMENT_ORDER)[same]
    # np.take gathers rows several times faster than fancy indexing does
    return (np.take(p0s, seg, axis=0) + s[same][:, None] * np.take(us, seg, axis=0),
            w[same] * np.take(denss, seg), seg)


def _pair_geometry(p0s, us, nrms, xs, ys, dirs):
    """Where query points x and y sit relative to each segment row, for the mask and
    the cuts; ``xs`` and ``ys`` are one query's points or (queries, 2) rows of them.

    Returns h and s of shape (..., rows, 2), a leading query axis for query
    rows: the signed distances of x and y from the segment line and the
    parameters of their projections; the parameter where the query line
    crosses the segment line (nan or inf where it does not); and the boundary
    crossings from x and y, one column each per direction.
    """
    qs = np.stack([xs, ys], axis=-2)
    rel = qs[..., None, :, :] - p0s[:, None, :]
    h = _rowdot(rel, nrms[:, None, :])
    s = _rowdot(rel, us[:, None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        s_star = s[..., 0] + h[..., 0] * (s[..., 1] - s[..., 0]) / (h[..., 0] - h[..., 1])
    return h, s, s_star, _boundary_crossings(p0s, us, qs, dirs).reshape(h.shape[:-1] + (-1,))


def _needs_features(lengths, h, s, s_star, crossings) -> np.ndarray:
    """Mask of density segments whose arc integrand changes regime inside them.

    From ``_pair_geometry``'s output.  A segment is smooth at its own length
    scale unless a query point projects near it, the query line crosses it,
    or the direction to a query point passes a density-support boundary
    along it; only those need the query-adaptive splitting of
    ``segment_query_nodes``, the rest take fixed bulk Gauss nodes.
    """
    lens = lengths[:, None]
    special = np.any((np.abs(h) < lens) & (s > -lens) & (s < 2.0 * lens), axis=-1)
    special |= (h[..., 0] != h[..., 1]) & (s_star > 0.0) & (s_star < lengths)
    return special | np.any((crossings > 0.0) & (crossings < lens), axis=-1)


def _pair_cuts(us, lengths, delta, h, s, s_star, crossings) -> np.ndarray:
    """Candidate cuts of segment rows for a pair query (see ``segment_query_nodes``);
    ``delta`` is x - y, or one such row per segment row."""
    cross = us[:, 0] * delta[..., 1] - us[:, 1] * delta[..., 0]
    # the query line on the segment line: only the projections of x and y cut
    collinear = (cross == 0.0) & (h[:, 0] == 0.0)
    s_star = np.where(~collinear & (cross != 0.0) & (h[:, 0] != h[:, 1]), s_star, np.nan)
    d = np.abs(h)
    lens = lengths[:, None]
    graded = ~collinear[:, None] & (d < lens) & (-lens < s) & (s < 2.0 * lens)
    return np.concatenate([s_star[:, None], np.where(collinear[:, None], np.nan, crossings),
                           np.where(collinear[:, None] | (d == 0.0), s, np.nan),
                           _ladders(s, d, lengths, graded)], axis=1)


def segment_query_nodes(p0, p1, dens, x, y, boundary_angles):
    """Gauss nodes and weights integrating a line density against a pair query.

    Splits the segment at the query-line crossing, at the parameters where
    the arc endpoints seen from the moving position cross the direction
    support boundaries, and dyadically toward the projections of x and y.
    When the query line coincides with the segment line the integrand is
    piecewise constant and only the projections of x and y are needed.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p0s = np.asarray(p0, dtype=float)[None, :]
    us, lengths = _frames(p0s, np.asarray(p1, dtype=float)[None, :])
    geometry = _pair_geometry(p0s, us, _normals(us), x, y, _boundary_dirs(boundary_angles))
    cuts = _pair_cuts(us, lengths, x - y, *geometry)
    pts, wts, _ = _cut_nodes(p0s, us, lengths, np.array([float(dens)]), cuts)
    return pts, wts


def segment_bulk_nodes(p0s, p1s, denss):
    """Fixed Gauss nodes for many density segments at once (no query features)."""
    p0s = np.atleast_2d(np.asarray(p0s, dtype=float))
    p1s = np.atleast_2d(np.asarray(p1s, dtype=float))
    denss = np.asarray(denss, dtype=float)
    gx, gw = _gl(SEGMENT_ORDER)
    t = 0.5 * (gx + 1.0)
    pts = p0s[:, None, :] + t[None, :, None] * (p1s - p0s)[:, None, :]
    lens = np.linalg.norm(p1s - p0s, axis=1)
    wts = 0.5 * gw[None, :] * (lens * denss)[:, None]
    return pts.reshape(-1, p0s.shape[1]), wts.ravel()


def segment_pair_nodes(table: SegmentTable, pieces, xs, ys):
    """Gauss nodes and weights of all density segments for the pair queries on the
    rows of ``xs`` and ``ys``, with each node's query row, rows in order.

    For each query, the segments that ``_needs_features`` marks take
    query-adaptive nodes, in segment order; the rest follow as one block of
    their bulk nodes.
    """
    if not len(table.lengths):
        return np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=np.intp)
    xs, ys = np.atleast_2d(xs, ys)
    geometry = _pair_geometry(table.p0s, table.us, table.nrms, xs, ys,
                              _boundary_dirs(boundary_angles(pieces)))
    special = _needs_features(table.lengths, *geometry)
    rows, segs = np.nonzero(~special)
    pts, wts = table.bulk_pts[segs].reshape(-1, 2), table.bulk_wts[segs].ravel()
    rows = np.repeat(rows, SEGMENT_ORDER)
    if not special.any():
        return pts, wts, rows
    frows, segs = np.nonzero(special)
    us, lengths = table.us[segs], table.lengths[segs]
    cuts = _pair_cuts(us, lengths, (xs - ys)[frows], *(a[special] for a in geometry))
    fpts, fwts, pair = _cut_nodes(table.p0s[segs], us, lengths, table.denss[segs], cuts)
    if not len(rows):
        return fpts, fwts, frows[pair]
    keys = np.concatenate([2 * frows[pair], 2 * rows + 1])
    # per query row, its featured nodes and then its bulk nodes (one row: in order)
    order = np.argsort(keys, kind="stable") if len(xs) > 1 else slice(None)
    return (np.concatenate([fpts, pts])[order], np.concatenate([fwts, wts])[order],
            keys[order] >> 1)


def segment_box_nodes(table: SegmentTable, pieces, lo, hi):
    """Gauss nodes, weights and segment rows along the density segments for a box query.

    Each segment is split where it crosses the four box edge lines (the
    wedge's tangent corners switch there), where the line from a corner
    along a boundary direction crosses it, and dyadically toward the
    projection of the box center.
    """
    p0s, us, lengths = table.p0s, table.us, table.lengths
    m = len(lengths)
    with np.errstate(divide="ignore", invalid="ignore"):
        # where each segment crosses the lines x = lo0, x = hi0, y = lo1, y = hi1
        edge_cuts = (np.stack([lo, hi], axis=1) - p0s[:, :, None]) / us[:, :, None]
    crossings = _boundary_crossings(p0s, us, box_corners(lo, hi),
                                    _boundary_dirs(boundary_angles(pieces)))
    rel = 0.5 * (lo + hi) - p0s
    scale = np.maximum(np.abs(_rowdot(rel, table.nrms)), 0.25 * float(np.min(hi - lo)))
    ladders = _ladders(_rowdot(rel, us)[:, None], scale[:, None], lengths,
                       np.ones((m, 1), dtype=bool))
    cuts = np.concatenate([edge_cuts.reshape(m, 4), crossings.reshape(m, -1), ladders], axis=1)
    return _cut_nodes(p0s, us, lengths, table.denss, cuts)


def segment_box_masses(table: SegmentTable, pieces, lo, hi) -> list[float]:
    """Box-hitting direction mass of each density segment, in segment order.

    One wedge pass over all segments' nodes; each segment's mass is its own
    dot product, so the values are those of separate per-segment passes.
    """
    if not len(table.lengths):
        return []
    pts, wts, seg = segment_box_nodes(table, pieces, lo, hi)
    ii, vals = box_cloud_hits(pts, pieces, lo, hi)
    wi = wts[ii]
    bounds = np.searchsorted(seg[ii], np.arange(len(table.lengths) + 1)).tolist()
    return [float(wi[a:b] @ vals[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
