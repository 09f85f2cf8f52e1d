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
fixed bulk nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import DegenerateConfigurationError

PI = math.pi
TWO_PI = 2.0 * math.pi


def _wrap_pieces_to_xi(pieces: np.ndarray, p_delta: float) -> np.ndarray:
    """Shift density pieces on [0, pi) into xi coordinates, splitting wraps."""
    out = []
    for lo, hi, dens in pieces:
        a = (lo - p_delta) % PI
        b = a + (hi - lo)
        if b <= PI:
            out.append((a, b, dens))
        else:
            out.append((a, PI, dens))
            out.append((0.0, b - PI, dens))
    return np.asarray(out, dtype=float)


def pair_cloud_integrals(points, weights, pieces, x, y, *, taus=None,
                         on_segment: str = "error"):
    """Mass, sin-alpha integral, oriented-normal integral over hits of [x, y].

    ``points``/``weights`` describe a weighted position cloud, ``pieces`` the
    direction density on [0, pi).  ``on_segment`` controls positions that lie
    on the closed query segment: "error" rejects them (atom semantics),
    "full" assigns the full direction circle (density-node semantics).
    Returns the weighted totals (mass, transversal, embed[2], angle_masses).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    delta = x - y
    if not np.any(delta != 0.0):
        raise DegenerateConfigurationError("pair query needs x != y")
    dx = x - pts
    dy = y - pts
    return _pair_core(dx, dy, w, np.asarray(pieces, dtype=float), delta,
                      taus=taus, on_segment=on_segment)


def _pair_core(dx, dy, w, pieces, delta, *, taus=None, on_segment="error"):
    m = dx.shape[0]
    rx2 = np.einsum("ij,ij->i", dx, dx)
    ry2 = np.einsum("ij,ij->i", dy, dy)
    if np.any(rx2 == 0.0) or np.any(ry2 == 0.0):
        raise DegenerateConfigurationError("support point coincides with a query endpoint")
    cross = dx[:, 0] * dy[:, 1] - dx[:, 1] * dy[:, 0]
    dot = np.einsum("ij,ij->i", dx, dy)
    collinear = cross == 0.0
    between = collinear & (dot < 0.0)
    if on_segment == "error" and np.any(between):
        raise DegenerateConfigurationError("atom lies on the closed query segment")
    if np.any(collinear & (dot == 0.0)):
        raise DegenerateConfigurationError("support point coincides with a query endpoint")

    px = (np.arctan2(dx[:, 1], dx[:, 0]) + 0.5 * PI) % PI
    py = (np.arctan2(dy[:, 1], dy[:, 0]) + 0.5 * PI) % PI
    w1 = (py - px) % PI
    # the hit arc's width equals the angle subtended by the segment, which
    # identifies the candidate robustly even for extremely thin wedges; the
    # midpoint sign test breaks ties at psi = pi/2 where widths coincide
    ux = dx / np.sqrt(rx2)[:, None]
    uy = dy / np.sqrt(ry2)[:, None]
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

    theta_d = math.atan2(delta[1], delta[0])
    p_delta = (theta_d + 0.5 * PI) % PI
    vt = np.array([math.cos(p_delta + 0.5 * PI), math.sin(p_delta + 0.5 * PI)])
    s0 = 1.0 if float(vt @ delta) > 0.0 else -1.0

    xi_lo = (lo - p_delta) % PI
    xi_lo = np.where(between, 0.0, xi_lo)
    xi_lo = np.where(width == 0.0, 0.0, xi_lo)
    xi_hi = xi_lo + width

    # hit arc as <=2 non-wrapping xi intervals per point; keep only the
    # nonempty (point, arc piece, density piece) intersections
    arc_lo = np.stack([xi_lo, np.zeros(m)], axis=1)
    arc_hi = np.stack([np.minimum(xi_hi, PI), np.clip(xi_hi - PI, 0.0, None)], axis=1)

    dens = _wrap_pieces_to_xi(pieces, p_delta)
    glo = np.maximum(arc_lo[:, :, None], dens[None, None, :, 0])
    ghi = np.minimum(arc_hi[:, :, None], dens[None, None, :, 1])
    ii, pp, jj = np.nonzero(ghi > glo)
    lo_r = glo[ii, pp, jj]
    hi_r = ghi[ii, pp, jj]
    rho_r = dens[jj, 2]

    len_r = rho_r * (hi_r - lo_r)
    cos_lo, cos_hi = np.cos(lo_r), np.cos(hi_r)
    phi_lo = p_delta + lo_r
    phi_hi = p_delta + hi_r
    tr_r = rho_r * (cos_lo - cos_hi)
    e0_r = s0 * rho_r * (np.sin(phi_hi) - np.sin(phi_lo))
    e1_r = s0 * rho_r * (np.cos(phi_lo) - np.cos(phi_hi))

    wr = w[ii]
    mass = float(wr @ len_r)
    trans = float(wr @ tr_r)
    emb = np.array([float(wr @ e0_r), float(wr @ e1_r)])
    angle = None
    if taus is not None:
        t = np.asarray(taus, dtype=float)
        blo = np.maximum(lo_r[:, None], t[None, :])
        bhi = np.minimum(hi_r[:, None], PI - t[None, :])
        angle = np.einsum("k,kt->t", wr * rho_r, np.clip(bhi - blo, 0.0, None))
    return mass, trans, emb, angle


def box_corners(lo, hi) -> np.ndarray:
    """The four corners of a planar axis box."""
    return np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])


def box_cloud_mass(points, weights, pieces, box_lo, box_hi):
    """Direction mass of hyperplanes through each position that hit an axis box."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float)
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    corners = box_corners(lo, hi)
    inside = np.all((pts >= lo) & (pts <= hi), axis=1)

    d = corners[None, :, :] - pts[:, None, :]
    theta = np.arctan2(d[:, :, 1], d[:, :, 0])
    rel = (theta - theta[:, :1] + PI) % TWO_PI - PI
    wedge_lo = theta[:, 0] + rel.min(axis=1)
    wedge_width = rel.max(axis=1) - rel.min(axis=1)
    n_lo = np.where(inside, 0.0, (wedge_lo + 0.5 * PI) % PI)
    n_width = np.where(inside, PI, wedge_width)

    arc_lo = np.stack([n_lo, np.zeros(len(pts))], axis=1)
    arc_hi = np.stack([np.minimum(n_lo + n_width, PI), np.clip(n_lo + n_width - PI, 0.0, None)], axis=1)
    dens = np.asarray(pieces, dtype=float)
    glo = np.maximum(arc_lo[:, :, None], dens[None, None, :, 0])
    ghi = np.minimum(arc_hi[:, :, None], dens[None, None, :, 1])
    ii, pp, jj = np.nonzero(ghi > glo)
    vals = dens[jj, 2] * (ghi[ii, pp, jj] - glo[ii, pp, jj])
    return float(w[ii] @ vals)


# ---------------------------------------------------------------------------
# segment cuts and Gauss nodes, shared by the pair and box paths
# ---------------------------------------------------------------------------

SEGMENT_ORDER = 8          # Gauss-Legendre nodes per smooth span of a density segment

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(order: int):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


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
    """Unit directions of the hyperplanes whose normal sits at each boundary angle.

    Built with ``math`` scalars: numpy's vectorized cos/sin may differ by an
    ulp, and the cuts must not move.
    """
    gammas = [(b - 0.5 * PI) % PI for b in angles]
    return np.array([[math.cos(g), math.sin(g)] for g in gammas]).reshape(-1, 2)


def _boundary_crossings(p0s, us, qs, dirs) -> np.ndarray:
    """Segment parameters where the line through each point along each direction crosses.

    Solves p0 + s u = q + t g for s, with shape (segments, points,
    directions); entries are inf or nan where u is parallel to g, so a
    caller keeping 0 < s < length drops them.
    """
    denom = us[:, None, 0] * dirs[None, :, 1] - us[:, None, 1] * dirs[None, :, 0]
    rel0 = qs[None, :, 0] - p0s[:, None, 0]
    rel1 = qs[None, :, 1] - p0s[:, None, 1]
    num = rel0[:, :, None] * dirs[None, None, :, 1] - rel1[:, :, None] * dirs[None, None, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / denom[:, None, :]


def _ladder(center: float, scale: float, length: float) -> list[float]:
    """Dyadic split points spreading outward from a feature at ``center``."""
    out = []
    step = scale
    while step < 2.0 * length:
        for s in (center - step, center + step):
            if 0.0 < s < length:
                out.append(s)
        step *= 2.0
    return out


def _merge_cuts(cuts, length: float) -> np.ndarray:
    """Sorted cut parameters with near-duplicates collapsed.

    Cuts produced by different feature formulas for the same geometric point
    can differ by a few ulps; an interval that thin would round its interior
    quadrature nodes onto the cut itself.
    """
    edges = sorted(cuts)
    tol = 1e-13 * max(length, 1.0)
    out = [edges[0]]
    for e in edges[1:]:
        if e - out[-1] > tol:
            out.append(e)
    if out[-1] < length:
        out[-1] = length
    return np.asarray(out, dtype=float)


def _frame(p0, p1):
    """(p0, unit direction, length) of a density segment."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    length = float(np.linalg.norm(p1 - p0))
    return p0, (p1 - p0) / length, length


def _span_nodes(p0, u, length: float, cuts, dens: float):
    """Gauss nodes and weights along a segment split at ``cuts``."""
    svals, wvals = _gl_spans(_merge_cuts(cuts, length), SEGMENT_ORDER)
    return p0[None, :] + svals[:, None] * u[None, :], wvals * dens


def segments_needing_features(segments, x, y, boundary) -> np.ndarray:
    """Mask of density segments whose arc integrand changes regime inside them.

    A segment is smooth at its own length scale unless a query point projects
    near it, the query line crosses it, or the direction to a query point
    passes a density-support boundary along it; only those need the
    query-adaptive splitting of ``segment_query_nodes``, the rest take fixed
    bulk Gauss nodes.
    """
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
    s = _boundary_crossings(p0s, us, np.stack([x, y]), _boundary_dirs(boundary))
    special |= np.any((s > 0.0) & (s < lengths[:, None, None]), axis=(1, 2))
    return special


def segment_query_nodes(p0, p1, dens, x, y, boundary_angles):
    """Gauss nodes and weights integrating a line density against a pair query.

    Splits the segment at the query-line crossing, at the parameters where
    the arc endpoints seen from the moving position cross the direction
    support boundaries, and dyadically toward the projections of x and y.
    When the query line coincides with the segment line the integrand is
    piecewise constant and only the projections of x and y are needed.
    """
    p0, u, length = _frame(p0, p1)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
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
            # intersection of the query line with the segment line
            s_star = sx + hx * (sy - sx) / (hx - hy)
            if 0.0 < s_star < length:
                cuts.add(s_star)
        s = _boundary_crossings(p0[None], u[None], np.stack([x, y]), _boundary_dirs(boundary_angles))
        cuts.update(s[(s > 0.0) & (s < length)].tolist())
        for s_proj, h in ((sx, hx), (sy, hy)):
            d = abs(h)
            if d == 0.0:
                # the query point sits on the segment line: the integrand
                # jumps at its projection and is smooth on both sides
                if 0.0 < s_proj < length:
                    cuts.add(s_proj)
            elif d < length and -length < s_proj < 2.0 * length:
                cuts.update(_ladder(s_proj, d, length))
    return _span_nodes(p0, u, length, cuts, dens)


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


def segment_pair_nodes(segments, pieces, x, y):
    """Gauss nodes and weights of all density segments for a pair query.

    Segments that ``segments_needing_features`` marks take query-adaptive
    nodes, in segment order; the rest follow as one block of bulk nodes.
    """
    if not segments:
        return np.zeros((0, 2)), np.zeros(0)
    boundary = boundary_angles(pieces)
    special = segments_needing_features(segments, x, y, boundary)
    parts = [segment_query_nodes(*segments[k], x, y, boundary) for k in np.flatnonzero(special)]
    bulk = [seg for seg, feat in zip(segments, special) if not feat]
    if bulk:
        parts.append(segment_bulk_nodes(*zip(*bulk)))
    pts, wts = zip(*parts)
    return np.concatenate(pts), np.concatenate(wts)


def segment_box_nodes(segments, pieces, lo, hi):
    """Gauss nodes and weights along each density segment for a box query, per segment.

    Each segment is split where it crosses the four box edge lines (the
    wedge's tangent corners switch there), where the line from a corner
    along a boundary direction crosses it, and dyadically toward the
    projection of the box center.
    """
    corners = box_corners(lo, hi)
    dirs = _boundary_dirs(boundary_angles(pieces))
    center = 0.5 * (lo + hi)
    for p0, p1, dens in segments:
        p0, u, length = _frame(p0, p1)
        cuts = {0.0, length}
        for axis, val in ((0, lo[0]), (0, hi[0]), (1, lo[1]), (1, hi[1])):
            if u[axis] != 0.0:
                s = (val - p0[axis]) / u[axis]
                if 0.0 < s < length:
                    cuts.add(s)
        s = _boundary_crossings(p0[None], u[None], corners, dirs)
        cuts.update(s[(s > 0.0) & (s < length)].tolist())
        nrm = np.array([-u[1], u[0]])
        h = abs(float((center - p0) @ nrm))
        s_proj = float((center - p0) @ u)
        scale = max(h, 0.25 * float(np.min(hi - lo)))
        cuts.update(_ladder(s_proj, scale, length))
        yield _span_nodes(p0, u, length, cuts, dens)
