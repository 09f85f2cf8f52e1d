"""Integral queries over hyperplane measures: segment mass, embedding, transversality.

Everything downstream consumes three integrals over the hyperplanes hitting
a segment [x, y]:

* mass            nu(pi[x, y]),
* transversal     integral of sin(alpha(x - y, H)),
* embedding step  f(x) - f(y) = integral of the unit normal oriented toward
                  the x side (independent of the basepoint).

Each backend evaluates all three against the same effective measure --
closed forms, exact arc integration, or one shared Monte Carlo batch -- so
the pointwise relations between the integrands (the inner-product identity,
the Lipschitz bound, the lower bound) carry over to the computed values up
to floating-point rounding, not up to estimator noise.

Backends:

* ``ClosedForm``  -- offset-direction measures with a constant offset
  density (uniform directions in any dimension, any arc density for n = 2)
  and position-direction measures with uniform directions and no line
  densities for n <= 3 (subtended-angle kernel; box masses by exact arcs
  for n = 2 and, for n = 3, the perimeter of the box's outline seen from
  each node; the n = 3 angle profile by an elementary antiderivative), every
  answer a closed form;
* ``Exact2D``     -- position-direction measures in the plane with any arc
  density: exact per-position arc antiderivatives, query-adaptive
  Gauss-Legendre integration along density segments;
* ``MonteCarlo``  -- any measure; seeded, cached batches shared across
  queries, unbiased estimates with standard errors.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import arcs
from .directions import (UniformDirections, abs_moment, partial_abs_moment, sample_pieces,
                         unit_kernel_constant)
from .geometry import Cube, DegenerateConfigurationError, as_point, as_points, require_int
from .hyperplane_measures import (HyperplaneMeasure, OffsetDirection, PositionDirection,
                                  SamplerMeasure)

PI = math.pi
TINY = np.finfo(float).tiny    # the smallest normal float64
DEFAULT_BUDGET = 100_000       # Monte Carlo samples per batch when no budget is given


class UnsupportedBackendError(ValueError):
    """The backend cannot serve this measure/query pairing."""


@dataclass(frozen=True)
class PairIntegrals:
    """The three segment integrals (plus optional angle-threshold masses)."""

    mass: float
    transversal: float
    embed: np.ndarray
    angle: np.ndarray | None = None
    mass_se: float | None = None
    transversal_se: float | None = None
    embed_se: np.ndarray | None = None
    angle_se: np.ndarray | None = None
    backend: str = "exact"


class RegionMass(NamedTuple):
    """A region query's answer; ``mass_se`` is None on the exact backends."""

    mass: float
    mass_se: float | None = None


def _point_support(mu):
    """Atoms and realized cell nodes of ``mu`` as one weighted point cloud,
    the measure's own arrays when it has only one of the two."""
    if mu.atom_points.size and mu.node_points.size:
        return (np.concatenate([mu.atom_points, mu.node_points]),
                np.concatenate([mu.atom_weights, mu.node_weights]))
    if mu.node_points.size:
        return mu.node_points, mu.node_weights
    return mu.atom_points, mu.atom_weights


def _as_taus(taus) -> np.ndarray:
    """The angle thresholds as a 1-D finite float array (empty allowed)."""
    try:
        t = np.asarray(taus, dtype=float)
    except (TypeError, ValueError):
        t = None
    if t is None or t.ndim != 1 or not np.isfinite(t).all():
        raise ValueError(f"taus must be a 1-D array of finite angles, got {taus!r}")
    return t


class Backend:
    """The public query boundary the three backends share: refuse a measure
    that ``supports`` rules out, check the points (finite, bounded, of the
    measure's dimension), the pair rows by ``_segments``, the box corners'
    order and the angle thresholds (``_as_taus``), answer ``x == y`` with
    zeros, and only then call the backend's ``_pair_rows`` or ``_box_mass``."""

    name: str
    estimates_se = False       # answers carry standard errors

    def supports(self, nu: HyperplaneMeasure) -> bool:
        raise NotImplementedError

    def _serve(self, nu):
        if not self.supports(nu):
            raise UnsupportedBackendError(
                f"backend {self.name} does not serve this {type(nu).__name__} measure")

    def _segments(self, nu, xs, ys):
        """The rows of pair queries on [x, y] before the first refused one, checked in
        one array pass, whether each moves (x != y), and the refused row's error or None.
        A row is refused at its first failing check: x, then y, a point of the measure's
        dimension (``as_points``); distinct points whose squared distance underflows,
        which every backend would lose (``as_points`` keeps squares from overflowing); a
        mu-atom on the closed segment, or at the point x == y, which carries hyperplane
        mass through a single point and leaves the integrals ill-posed."""
        self._serve(nu)
        xs, error = as_points(xs, nu.dim)
        ys, y_error = as_points(ys, nu.dim)
        if len(ys) < len(xs):
            xs, error = xs[:len(ys)], y_error
        ys = ys[:len(xs)]
        d = xs - ys
        moving = np.vecdot(d, d) >= TINY
        count = len(moving)
        if np.count_nonzero(moving) < count:
            close = np.flatnonzero(~moving & (d != 0.0).any(axis=1))
            if len(close):
                count = close[0]
                error = ValueError(f"points {xs[count].tolist()} and {ys[count].tolist()} are "
                                   "distinct but too close: their squared distance underflows")
        if isinstance(nu, PositionDirection) and len(nu.mu.atom_points):
            on_atom = nu.mu.atoms_on_segments(xs[:count], ys[:count])
            if np.count_nonzero(on_atom):
                count = np.flatnonzero(on_atom.any(axis=1))[0]
                error = DegenerateConfigurationError("mu-atom lies on the closed query segment")
        return xs[:count], ys[:count], moving[:count], error

    def pair(self, nu, x, y, taus=None) -> PairIntegrals:
        return next(self._pairs(nu, (x,), (y,), taus))

    def _pairs(self, nu, xs, ys, taus=None):
        """Yield ``pair(nu, x, y, taus)`` for each row of ``xs`` and ``ys``, in order,
        the rows with x != y answered by one ``_pair_rows`` call.  A refused row's
        error is raised after the answers of the rows before it."""
        xs, ys, moving, error = self._segments(nu, xs, ys)
        if len(moving):
            if taus is not None:
                taus = _as_taus(taus)
            flags = moving.tolist()
            if not all(flags):
                xs, ys = xs[moving], ys[moving]
            answers = self._pair_rows(nu, xs, ys, taus) if any(flags) else None
            for moves in flags:
                yield next(answers) if moves else self._zeros(nu.dim, taus)
        if error is not None:
            raise error

    def _zeros(self, dim, taus) -> PairIntegrals:
        """The answer for x == y, no atom at x: zeros under the backend's name, with zero
        standard errors shaped like the values when it estimates them."""
        t = None if taus is None else np.zeros(len(taus))
        if not self.estimates_se:
            return PairIntegrals(0.0, 0.0, np.zeros(dim), t, backend=self.name)
        return PairIntegrals(0.0, 0.0, np.zeros(dim), t, 0.0, 0.0, np.zeros(dim),
                             None if t is None else np.zeros(len(t)), backend=self.name)

    def box_mass(self, nu, lo, hi) -> RegionMass:
        self._serve(nu)
        corners, error = as_points((lo, hi), nu.dim)
        if error is not None:
            raise error
        lo, hi = corners
        if np.any(lo > hi):
            raise ValueError(f"box corners {lo.tolist()} and {hi.tolist()} are out of order: "
                             "need lo <= hi on every axis")
        return self._box_mass(nu, lo, hi)

    def cube_mass(self, nu, q: Cube) -> RegionMass:
        return self.box_mass(nu, q.center - 0.5 * q.edge, q.center + 0.5 * q.edge)


def _norms(rows: np.ndarray) -> np.ndarray:
    """The norm of each row, as ``np.linalg.norm`` takes it of the row alone: ``vecdot``
    runs the dot kernel of 1-D ``@`` on each row (rows whose entries are adjacent)."""
    return np.sqrt(np.vecdot(rows, rows))


def _covered_density(nu, reaches):
    """The constant offset density, the count of leading ``reaches`` (query norms) its
    span covers, and the error refusing the first one it does not (None when it covers all)."""
    rho, lo, hi = nu.constant_offset_density()
    outside = (reaches > min(hi, -lo)).tolist()
    if True not in outside:
        return rho, len(outside), None
    k = outside.index(True)
    return rho, k, UnsupportedBackendError(
        f"offset density span [{lo:g}, {hi:g}] does not cover queries of norm {reaches[k]:g}")


@functools.lru_cache(maxsize=8)
def _tau_profile(n: int, taus: bytes) -> np.ndarray:
    """``partial_abs_moment(n, sin t)`` for each threshold of the float64 ``taus``
    bytes, read-only: kept for the last few grids, so a lone pair query with the
    same thresholds does not rebuild it."""
    profile = np.array([partial_abs_moment(n, math.sin(t)) for t in np.frombuffer(taus)])
    profile.setflags(write=False)
    return profile


# ---------------------------------------------------------------------------
# closed-form backend
# ---------------------------------------------------------------------------

class ClosedForm(Backend):
    """Formulas for the pairings in the module docstring: every query on a supported
    measure answers, except one outside an offset density's span (``_covered_density``)."""

    name = "closed_form"

    def supports(self, nu: HyperplaneMeasure) -> bool:
        if isinstance(nu, OffsetDirection):
            return nu.constant_offset_density() is not None and (
                nu.dim == 2 or isinstance(nu.omega, UniformDirections))
        return (isinstance(nu, PositionDirection) and isinstance(nu.omega, UniformDirections)
                and not nu.mu.segments and nu.dim <= 3)

    # -- pair queries -------------------------------------------------------

    def _pair_rows(self, nu, xs, ys, taus):
        if isinstance(nu, OffsetDirection):
            return self._offset_pairs(nu, xs, ys, taus)
        return self._position_pairs(nu, xs, ys, taus)

    def _offset_pairs(self, nu, xs, ys, taus):
        deltas = xs - ys
        norms_x, norms_y, rs = _norms(np.concatenate([xs, ys, deltas])).reshape(3, -1)
        rho, covered, error = _covered_density(nu, np.maximum(norms_x, norms_y))
        rs = rs.tolist()
        if isinstance(nu.omega, UniformDirections):
            answers = self._uniform_offset_pairs(nu.dim, rho, deltas, rs, taus)
        else:
            answers = self._offset_pairs_2d(nu.omega.arc_pieces(), rho, deltas, rs, taus)
        # a row beyond the density's span is refused in its turn
        yield from itertools.islice(answers, covered)
        if error is not None:
            raise error

    def _uniform_offset_pairs(self, n, rho, deltas, rs, taus):
        moment, embs = abs_moment(n), rho * deltas / n
        profile = None if taus is None else _tau_profile(n, taus.tobytes())
        for r, emb in zip(rs, embs):
            yield PairIntegrals(rho * r * moment, rho * r / n, emb,
                                None if profile is None else rho * r * profile, backend=self.name)

    def _offset_pairs_2d(self, pieces, rho, deltas, rs, taus):
        frames = [arcs._query_frame(d) for d in deltas]
        pieces = np.asarray(pieces, dtype=float)
        xis = [arcs._wrap_pieces_to_xi(pieces, p_d) for p_d, _ in frames]
        counts = [len(xi) for xi in xis]
        bounds = np.cumsum([0] + counts).tolist()
        a, b, dens = np.concatenate(xis).T
        # each row's normal angle p_d and its sine and cosine, once per piece
        p_d, sin_d, cos_d = (np.repeat([f(p) for p, _ in frames], counts)
                             for f in (float, math.sin, math.cos))
        mass_i = dens * (np.cos(a) - np.cos(b))
        trans_i = dens * (0.5 * (b - a) - 0.25 * (np.sin(2 * b) - np.sin(2 * a)))

        def emb_anti(xi_v):
            # antiderivative of v(p_d + xi) * sin(xi)
            c0 = -0.25 * np.cos(p_d + 2 * xi_v) - 0.5 * xi_v * sin_d
            c1 = 0.5 * xi_v * cos_d - 0.25 * np.sin(p_d + 2 * xi_v)
            return c0, c1

        a0, a1 = emb_anti(a)
        b0, b1 = emb_anti(b)
        emb0_i, emb1_i = dens * (b0 - a0), dens * (b1 - a1)
        for (_, s0), r, lo, hi in zip(frames, rs, bounds[:-1], bounds[1:]):
            # each sum runs over the row's own pieces
            emb = s0 * rho * r * np.array([float(np.sum(emb0_i[lo:hi])),
                                           float(np.sum(emb1_i[lo:hi]))])
            angle = None if taus is None else rho * r * arcs.arc_threshold_sums(
                dens[lo:hi], a[lo:hi], b[lo:hi], taus, np.cos)
            yield PairIntegrals(rho * r * float(np.sum(mass_i[lo:hi])),
                                rho * r * float(np.sum(trans_i[lo:hi])), emb, angle,
                                backend=self.name)

    def _position_pairs(self, nu, xs, ys, taus):
        n = nu.dim
        pts, w = _point_support(nu.mu)
        dist, units = _unit_frames(pts, xs, ys)
        # psi = 2 atan2(|u - w|, |u + w|) is stable at both angle extremes,
        # unlike arccos of the inner product
        kern = [u[0] - u[1] for u in units]
        diff = _column_norms(kern)
        summ = _column_norms([u[0] + u[1] for u in units])
        psi = 2.0 * np.arctan2(diff, summ)
        deltas = xs - ys
        udeltas = deltas / _norms(deltas)[:, None]
        c_n = unit_kernel_constant(n)
        # the matvec and the einsums read (points, dim) rows: they add a row's
        # products in an order that column sums would not keep in 3-D
        kern = np.stack(kern, axis=-1)
        angle = [None] * len(xs)
        if taus is not None:
            dot_u = np.einsum("ij,ij->i", *np.stack(units, axis=-1).reshape(2, -1, n))
            angle = self._position_angle_profiles(n, w, *dist, dot_u.reshape(psi.shape),
                                                  0.5 * diff * summ, psi, taus)
        for k in range(len(xs)):
            yield PairIntegrals(float(w @ psi[k]) / PI, c_n * float(w @ (kern[k] @ udeltas[k])),
                                c_n * np.einsum("i,ij->j", w, kern[k]), angle[k],
                                backend=self.name)

    @staticmethod
    def _position_angle_profiles(n, w, rx, ry, dot_u, sin_psi, psi, taus):
        """The angle profile of each query row, from (rows, nodes) arrays."""
        # reduce to the plane spanned by (dx, dy), dx along the first axis: the
        # hit arc sits at xi in [xi_lo, xi_lo + psi] past the normal angle of delta
        p_d = arcs._mod_pi(np.arctan2(0.0 - ry * sin_psi, rx - ry * dot_u) + 0.5 * PI)
        xi_lo = arcs._mod_pi(0.5 * PI - p_d)
        xi_lo[psi >= PI] = 0.0
        xi_hi = np.minimum(xi_lo + psi, PI)
        anti = None     # n = 2: the arc length
        if n == 3:
            # P(in-plane radius >= sin tau / sin xi) = sqrt(1 - (sin tau / sin xi)^2)
            # integrated over [lo, hi]; in c = cos xi it is sqrt(cos^2 tau - c^2) / (1 - c^2),
            # whose antiderivative F is elementary, so the integral is F(cos lo) - F(cos hi)
            sin_t, cos2_t = np.sin(taus), np.cos(taus) ** 2

            def anti(xi):
                c = np.cos(xi)
                r = np.sqrt(np.maximum(cos2_t - c * c, 0.0))
                return np.arctan2(c, r) - sin_t * np.arctan2(c * sin_t, r)

        return [arcs.arc_threshold_sums(w, lo, hi, taus, anti) / PI
                for lo, hi in zip(xi_lo, xi_hi)]

    # -- region queries -----------------------------------------------------

    def _box_mass(self, nu, lo, hi) -> RegionMass:
        if isinstance(nu, PositionDirection):
            if nu.dim == 2:
                return RegionMass(_position_box_mass_2d(nu, lo, hi))
            return RegionMass(_position_box_mass_3d(nu, lo, hi))
        sides = hi - lo
        # the far corner of the box bounds the norm of every point in it
        rho, _, error = _covered_density(nu, _norms(np.maximum(np.abs(lo), np.abs(hi))[None]))
        if error is not None:
            raise error
        if isinstance(nu.omega, UniformDirections):
            return RegionMass(rho * float(np.sum(sides)) * abs_moment(nu.dim))
        return RegionMass(rho * _box_width_integral_2d(nu.omega.arc_pieces(), sides))


def _unit_frames(pts, x, y):
    """Distances and unit directions from each support point to x (row 0) and to y
    (row 1): ``dist`` of shape (2, ..., points) and one such array per coordinate in
    ``units``, with a query axis when ``x`` and ``y`` hold (queries, dim) rows.  A
    point at one endpoint gets minus its direction to the other, as if just inside
    [x, y]."""
    ends = np.stack([x, y])
    cols = [ends[..., k:k + 1] - pts[:, k] for k in range(pts.shape[1])]
    dist = _column_norms(cols)
    at_end = dist == 0.0
    scale = np.where(at_end, 1.0, dist)
    units = [c / scale for c in cols]
    if at_end.any():
        at_x, at_y = at_end
        for u in units:
            u[0, at_x] = -u[1, at_x]
        for u in units:
            u[1, at_y] = -u[0, at_y]
    return dist, units


def _column_norms(cols):
    """Row norms of the matrix with columns ``cols``, summed in column order as
    ``np.linalg.norm(axis=1)`` sums them."""
    total = cols[0] * cols[0]
    for c in cols[1:]:
        total += c * c
    return np.sqrt(total)


def _box_width_integral_2d(pieces, sides) -> float:
    """Integral of the box support width side0*|cos| + side1*|sin| over arc pieces."""
    total = 0.0
    for lo, hi, dens in np.asarray(pieces, dtype=float):
        for a, b in ((lo, min(hi, 0.5 * PI)), (max(lo, 0.5 * PI), hi)):
            if b <= a:
                continue
            sgn = 1.0 if b <= 0.5 * PI else -1.0
            total += dens * (sides[0] * sgn * (math.sin(b) - math.sin(a))
                             + sides[1] * (math.cos(a) - math.cos(b)))
    return float(total)


# ---------------------------------------------------------------------------
# exact planar backend
# ---------------------------------------------------------------------------

class Exact2D(Backend):
    """Exact arc integration for position-direction measures in the plane."""

    name = "exact2d"

    def supports(self, nu: HyperplaneMeasure) -> bool:
        return isinstance(nu, PositionDirection) and nu.dim == 2

    def _pair_rows(self, nu, xs, ys, taus):
        pieces = nu.omega.arc_pieces()
        count = len(xs)
        clouds = []
        # the boundary refused atoms on the segment: a point on it is a node, hit fully
        pts, w = _point_support(nu.mu)
        if len(pts):
            clouds.append((pts, w, np.zeros(len(pts), dtype=np.intp)) if count == 1 else
                          (np.tile(pts, (count, 1)), np.tile(w, count),
                           np.repeat(np.arange(count), len(pts))))
        nodes = arcs.segment_pair_nodes(nu.mu.segment_table, pieces, xs, ys)
        if len(nodes[0]):
            clouds.append(nodes)
        sums = [arcs._pair_core(points, weights, pieces, xs, ys, rows, taus=taus)
                for points, weights, rows in clouds]
        for k in range(count):
            mass, trans = 0.0, 0.0
            emb = np.zeros(2)
            angle = np.zeros(len(taus)) if taus is not None else None
            for m, t, e, a in (cloud[k] for cloud in sums):
                mass += m
                trans += t
                emb += e
                if angle is not None:
                    angle += a
            yield PairIntegrals(mass, trans, emb, angle, backend=self.name)

    def _box_mass(self, nu, lo, hi) -> RegionMass:
        return RegionMass(_position_box_mass_2d(nu, lo, hi))


def _position_box_mass_2d(nu, lo, hi) -> float:
    """Exact arc integration of the box-hitting direction mass in the plane."""
    pieces = nu.omega.arc_pieces()
    pts, w = _point_support(nu.mu)
    total = arcs.box_cloud_mass(pts, w, pieces, lo, hi) if pts.size else 0.0
    for mass in arcs.segment_box_masses(nu.mu.segment_table, pieces, lo, hi):
        total += mass
    return float(total)


# bit d of a corner's index picks hi on axis d; each of the 12 box edges is a
# (corner, axis) pair, running from that corner (whose bit is clear) along the axis
_CORNER_BITS = (np.arange(8)[:, None] >> np.arange(3)) & 1
_BOX_EDGES = [(c, k) for k in range(3) for c in range(8) if not c >> k & 1]


def _position_box_mass_3d(nu, lo, hi) -> float:
    """Exact box-hitting direction fraction of each node, in closed form.

    A node in the closed box is hit by every plane through it.  Seen from a
    node outside, the planes that miss the box have normals in the polar of
    the box's spherical outline or in its antipode, an area of 2 (2 pi - P)
    out of 4 pi, where P is the outline's perimeter; the hit share is
    P / (2 pi).  The outline is made of the edges where exactly one of the
    two faces faces the node (face x_i = lo_i when p_i < lo_i, face
    x_i = hi_i when p_i > hi_i), each adding the angle it subtends.
    """
    pts, w = _point_support(nu.mu)
    corners = np.where(_CORNER_BITS, hi, lo)
    facing = np.stack([pts < lo, pts > hi])              # [side, node, axis]
    perimeter = np.zeros(len(pts))
    for c, k in _BOX_EDGES:
        a = corners[c] - pts
        b = corners[c | 1 << k] - pts
        i, j = (k + 1) % 3, (k + 2) % 3
        outline = facing[_CORNER_BITS[c, i], :, i] != facing[_CORNER_BITS[c, j], :, j]
        angle = np.arctan2(np.linalg.norm(np.cross(a, b), axis=1), np.einsum("ij,ij->i", a, b))
        perimeter += np.where(outline, angle, 0.0)
    outside = facing.any(axis=(0, 2))
    return float(w @ np.where(outside, perimeter / (2.0 * PI), 1.0))


# ---------------------------------------------------------------------------
# Monte Carlo backend
# ---------------------------------------------------------------------------

# batches of this many measures stay cached, least recently used dropped
# first; a rebuilt batch draws the same samples from the same seed
BATCH_CACHE_SIZE = 4


def _standard_error(total, total_sq, m: int, scale):
    """Standard error from the sums (``scale = m``) or means (``scale = 1``) of m
    per-sample values and of their squares; of the sum or the mean, respectively."""
    return np.sqrt(np.maximum(total_sq * scale - total * total, 0.0) / max(m - 1, 1))


def _sum_with_se(v) -> tuple[float, float]:
    """A Monte Carlo estimate, the sum of the per-sample values ``v``, with its standard error."""
    total = float(np.sum(v))
    return total, float(_standard_error(total, float(np.sum(v * v)), len(v), len(v)))


class MonteCarlo(Backend):
    """Seeded Monte Carlo estimates with one batch shared across queries.

    For position-direction measures it samples (position, normal) pairs; for
    offset-direction measures it samples normals and integrates the offset
    coordinate analytically; sampler measures supply their own weighted
    hyperplanes.  Identical (budget, seed) reproduce identical batches, and
    every query against one measure object reuses the same batch, so the
    per-sample integrand identities survive in the estimates.
    """

    name = "monte_carlo"
    estimates_se = True

    def __init__(self, budget: int = DEFAULT_BUDGET, seed: int = 0):
        self.budget = require_int("budget", budget, 1)
        self.seed = require_int("seed", seed, 0)
        self._batches: OrderedDict[int, tuple] = OrderedDict()
        self._lock = threading.Lock()   # queries from several threads share the cache

    def supports(self, nu: HyperplaneMeasure) -> bool:
        return isinstance(nu, (PositionDirection, OffsetDirection, SamplerMeasure))

    # -- batch construction -------------------------------------------------

    def _batch(self, nu):
        """The measure's cached batch ``(normals, slab)``: sampled normals, and
        ``slab(lo, hi)``, each sample's mass in the slab of offsets [lo, hi] along its
        normal.  Sampled hyperplanes count with their weight (positions reduced to
        offsets <a, v> at build time); an offset-direction batch integrates the offset
        analytically.  The cache holds the measure with its batch, so its ``id`` stays
        unique while the entry lives."""
        with self._lock:
            key = id(nu)
            if key in self._batches:
                self._batches.move_to_end(key)
                return self._batches[key][1]
            rng = np.random.default_rng(self.seed)
            m = self.budget
            if isinstance(nu, OffsetDirection):
                normals = nu.omega.sample_normals(rng, m)
                base = nu.omega.total_mass() / m

                def slab(lo, hi):
                    return base * nu.offsets.mass_many(lo, hi)
            else:
                if isinstance(nu, PositionDirection):
                    pts = _sample_positions(nu.mu, rng, m)
                    normals = nu.omega.sample_normals(rng, m)
                    weight = nu.mu.total_mass() * nu.omega.total_mass() / m
                    offsets = np.einsum("ij,ij->i", pts, normals)
                else:
                    normals, offsets, weights = nu.sample(rng, m)
                    weight = weights / m

                def slab(lo, hi):
                    return weight * ((offsets >= lo) & (offsets <= hi))
            self._batches[key] = (nu, (normals, slab))
            if len(self._batches) > BATCH_CACHE_SIZE:
                self._batches.popitem(last=False)
            return normals, slab

    # -- queries -------------------------------------------------------------

    def _pair_rows(self, nu, xs, ys, taus):
        for x, y in zip(xs, ys):
            yield self._pair(nu, x, y, taus)

    def _pair(self, nu, x, y, taus):
        delta = x - y
        normals, slab = self._batch(nu)
        px, py = normals @ x, normals @ y
        mass_i = slab(np.minimum(px, py), np.maximum(px, py))
        m = len(mass_i)
        carry = mass_i != 0.0
        hit = slice(None) if carry.all() else np.flatnonzero(carry)
        # vd on the hit rows alone (a row's product is the same in a gathered
        # matrix): a missed sample's mass_i * |vd| is its own zero mass
        vd = normals[hit] @ (delta / float(np.linalg.norm(delta)))
        trans_i = mass_i.copy()
        trans_i[hit] *= np.abs(vd)
        mass, mass_se = _sum_with_se(mass_i)
        trans, trans_se = _sum_with_se(trans_i)
        # row sums in order from +0.0, to which a missed sample's row adds an exact +-0.0
        emb_i = (mass_i[hit] * np.sign(vd))[:, None] * normals[hit]
        emb = np.einsum("ij->j", emb_i)
        emb_se = _standard_error(emb, np.einsum("ij,ij->j", emb_i, emb_i), m, m)
        angle = angle_se = None
        if taus is not None:
            sin_t = np.sin(taus)
            if len(taus) >= 2:
                angle, angle_sq = _angle_sums(mass_i[hit], np.abs(vd), sin_t)
            else:
                # numpy sums a single threshold's column pairwise, so it keeps every row;
                # a missed sample's row is zero whatever its |vd|
                avd = np.zeros(m)
                avd[hit] = np.abs(vd)
                vals = mass_i[:, None] * (avd[:, None] >= sin_t[None, :])
                angle, angle_sq = np.sum(vals, axis=0), np.einsum("it,it->t", vals, vals)
            angle_se = _standard_error(angle, angle_sq, m, m)
        return PairIntegrals(mass, trans, emb, angle, mass_se, trans_se, emb_se, angle_se,
                             backend=self.name)

    def seg_mass_many(self, nu, xs, ys):
        """Segment masses with standard errors for many pairs over one batch.

        The rows pass ``pair``'s checks in one ``_segments`` pass.  Where one constant
        offset density covers every row (``_covered_density``), an allocation-light
        bulk kernel answers them; otherwise each moving row is answered by
        ``_pair_rows`` on the same shared batch.
        """
        _row_count(xs, ys)
        xs, ys, moving, error = self._segments(nu, xs, ys)
        if error is not None:
            raise error
        covered = None
        if isinstance(nu, OffsetDirection) and nu.constant_offset_density() is not None:
            rho, covered, _ = _covered_density(nu, np.maximum(_norms(xs), _norms(ys)))
        if covered != len(xs):
            vals, ses = np.zeros((2, len(xs)))
            answers = self._pair_rows(nu, xs[moving], ys[moving], None)
            vals[moving], ses[moving] = np.reshape([(p.mass, p.mass_se) for p in answers],
                                                   (-1, 2)).T
            return vals, ses
        normals, _ = self._batch(nu)
        m = len(normals)
        # omega total mass times the offset density, in the batch's operations
        scale = nu.omega.total_mass() / m * m * rho
        buf = np.empty(m)
        vals = np.empty(len(xs))
        ses = np.empty(len(xs))
        for k, delta in enumerate(xs - ys):
            np.abs(normals @ delta, out=buf)
            mean = float(np.einsum("i->", buf)) / m
            vals[k] = scale * mean
            ses[k] = scale * _standard_error(mean, float(buf @ buf) / m, m, 1.0)
        return vals, ses

    def _box_mass(self, nu, lo, hi) -> RegionMass:
        center = 0.5 * (lo + hi)
        halfs = 0.5 * (hi - lo)
        normals, slab = self._batch(nu)
        reach = np.abs(normals) @ halfs
        mid = normals @ center
        return RegionMass(*_sum_with_se(slab(mid - reach, mid + reach)))


def _angle_sums(w, a, sin_t):
    """Per threshold t, the sums over the samples that carry mass of ``w * (a >= sin_t[t])``
    and of its square (a miss would add an exact +0.0), ``w`` their masses and ``a`` their
    ``|vd|``.  The row values are 0 or 1, so ``w`` and its square weigh them exactly.

    With the thresholds ranked by a stable sort, sample k's row is 1 exactly where
    ``rank[t] < j[k]``, ``j[k]`` the count of thresholds <= ``a[k]``; so ``j`` is counted
    once and each block of rows is copied from the table ``steps[j, t] = rank[t] < j``.
    The table has (W + 1) x W entries for W thresholds and stays within one block:
    wider threshold sets go in column groups of two or more, each with its own table
    and counts, and a column's in-order sum is the same in any group."""
    # the largest W with (W + 1) W <= ANGLE_BLOCK_ELEMENTS
    widest = (math.isqrt(4 * arcs.ANGLE_BLOCK_ELEMENTS + 1) - 1) // 2
    weights = [w, w * w]
    groups = []
    for cols in np.array_split(sin_t, -(-len(sin_t) // widest)):
        order = np.argsort(cols, kind="stable")
        rank = np.argsort(order)
        steps = (rank < np.arange(len(cols) + 1)[:, None]).astype(float)
        j = np.searchsorted(cols[order], a, side="right")

        def fill(start, stop, out, tmp):
            # j lies in [0, W], so "clip" never clips: it lets take write to out unbuffered
            np.take(steps, j[start:stop], axis=0, out=out, mode="clip")

        groups.append(arcs.threshold_sums(weights, cols, fill))
    return [np.concatenate(sums) for sums in zip(*groups)]


def _sample_positions(mu, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample positions from the point support (atoms, realized cell nodes) and line densities."""
    pts, w = _point_support(mu)
    table = mu.segment_table
    idx, frac = sample_pieces(np.concatenate([w, table.denss * table.lengths]), rng, size)
    # each row's point or segment start in one gather; a segment row then adds its
    # step along the segment, and a point row is left an exact copy of its point
    # (adding a zero step would turn a -0.0 coordinate into +0.0)
    out = np.concatenate([pts, table.p0s])[idx]
    seg = slice(None) if not len(w) else np.flatnonzero(idx >= len(w))
    out[seg] += frac[seg, None] * (table.p1s - table.p0s)[idx[seg] - len(w)]
    return out


# ---------------------------------------------------------------------------
# dispatch and the embedding map
# ---------------------------------------------------------------------------

_CLOSED = ClosedForm()
_EXACT2D = Exact2D()


def default_backend(nu: HyperplaneMeasure, *, budget: int = DEFAULT_BUDGET, seed: int = 0):
    """Best exact backend for the measure, falling back to Monte Carlo."""
    if _CLOSED.supports(nu):
        return _CLOSED
    if _EXACT2D.supports(nu):
        return _EXACT2D
    return MonteCarlo(budget=budget, seed=seed)


def pair_integrals(nu, x, y, *, backend=None, taus=None) -> PairIntegrals:
    backend = backend or default_backend(nu)
    return backend.pair(nu, x, y, taus=taus)


def seg_mass(nu, x, y, *, backend=None) -> float:
    """nu(pi[x, y]), the projective distance between x and y."""
    return pair_integrals(nu, x, y, backend=backend).mass


def cube_mass(nu, q: Cube, *, backend=None) -> float:
    return (backend or default_backend(nu)).cube_mass(nu, q).mass


def box_mass(nu, lo, hi, *, backend=None) -> float:
    return (backend or default_backend(nu)).box_mass(nu, lo, hi).mass


# the support nodes from which batched queries run on every core: on 2 cores, fanned sweeps
# over 1024-, 2048- and 4096-atom Exact2D clouds ran 0.87x, 1.15x and 1.42x as fast as a
# loop (medians of 5; a later run read 0.97x, 1.07x and 1.04x)
FAN_OUT_NODES = 2048
_POOL = [None, None]           # the pid that made the thread pool, and the pool
_POOL_LOCK = threading.Lock()
_IN_WORKER = threading.local()


def _worker_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _support_size(nu) -> int:
    """Atoms, realized cell nodes and ``SEGMENT_ORDER`` nodes per density segment."""
    if not isinstance(nu, PositionDirection):
        return 0
    mu = nu.mu
    return (len(mu.atom_points) + len(mu.node_points)
            + arcs.SEGMENT_ORDER * len(mu.segment_table.lengths))


def _fans_out(nu, count: int) -> bool:
    """Whether ``count`` queries on ``nu`` run on the thread pool: the support is large,
    there are two usable cores or more, and the caller is not itself a pool worker
    (waiting on its own pool could deadlock)."""
    return (count >= 2 and _support_size(nu) >= FAN_OUT_NODES and _worker_count() >= 2
            and not getattr(_IN_WORKER, "active", False))


def fan_out(nu, calls):
    """Yield ``fn(*args)`` for each ``(fn, *args)`` in ``calls``, in call order.

    Where ``_fans_out`` says so the calls run on a thread pool, one worker per
    usable core (numpy kernels release the GIL); the first error in call order is
    raised and calls not yet started are dropped.  Otherwise each runs in the
    caller's thread.
    """
    calls = list(calls)
    if not _fans_out(nu, len(calls)):
        yield from (fn(*args) for fn, *args in calls)
        return
    with _POOL_LOCK:
        if _POOL[0] != os.getpid():    # no pool yet, or one made before this process forked
            from concurrent.futures import ThreadPoolExecutor
            _POOL[:] = os.getpid(), ThreadPoolExecutor(
                _worker_count(), initializer=setattr, initargs=(_IN_WORKER, "active", True))
        answers = _POOL[1].map(lambda call: call[0](*call[1:]), calls)
    yield from answers    # closing this generator closes ``answers``, cancelling unstarted calls


def _row_count(xs, ys) -> int:
    """The number of pair queries in ``xs`` and ``ys``, refused unless both hold that many."""
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} segment starts but {len(ys)} segment ends")
    return len(xs)


def pair_many(backend, nu, xs, ys, taus=None):
    """Yield ``backend.pair(nu, x, y, taus)`` for each row of ``xs`` and ``ys``, in order,
    each answer with the bits of that call.  Taken one at a time, the answers need not
    all be held at once.

    A ``Backend`` whose queries would not fan out (see ``fan_out``) answers the rows
    in chunks of one batched call each, in the caller's thread; a refused row raises
    its error after the answers before it.  Any other object, such as a wrapper
    around a backend, is asked one row at a time.
    """
    count = _row_count(xs, ys)
    if isinstance(backend, Backend) and not _fans_out(nu, count):
        return _chunked_pairs(backend, nu, xs, ys, taus)
    return fan_out(nu, ((backend.pair, nu, x, y, taus) for x, y in zip(xs, ys)))


def _chunked_pairs(backend, nu, xs, ys, taus):
    # a chunk's arrays grow with its rows' nodes, and a query may cut a density
    # segment into many spans of SEGMENT_ORDER nodes: each chunk takes the rows of
    # FAN_OUT_NODES // SEGMENT_ORDER support nodes (a measure without any counts one)
    size = max(FAN_OUT_NODES // (arcs.SEGMENT_ORDER * max(_support_size(nu), 1)), 1)
    for start in range(0, len(xs), size):
        yield from backend._pairs(nu, xs[start:start + size], ys[start:start + size], taus)


@dataclass(frozen=True)
class EmbeddingMap:
    """The basepoint-anchored embedding x |-> integral of oriented normals.

    ``eval(o)`` is exactly zero; differences are evaluated directly over
    pi[x, y], so the basepoint only shifts values, never differences.
    """

    measure: HyperplaneMeasure
    basepoint: np.ndarray
    backend: object = field(default=None)

    def __init__(self, measure, basepoint, backend=None):
        o = as_point(basepoint, measure.dim).copy()
        backend = backend or default_backend(measure)
        if isinstance(measure, PositionDirection) and measure.mu.atoms_on_segment(o, o).size:
            raise DegenerateConfigurationError("basepoint coincides with a mu-atom")
        o.setflags(write=False)
        object.__setattr__(self, "measure", measure)
        object.__setattr__(self, "basepoint", o)
        object.__setattr__(self, "backend", backend)

    def eval(self, x) -> np.ndarray:
        return self.backend.pair(self.measure, x, self.basepoint).embed

    def eval_many(self, points) -> np.ndarray:
        answers = pair_many(self.backend, self.measure, points, [self.basepoint] * len(points))
        return np.array([p.embed for p in answers]).reshape(-1, self.measure.dim)


# ---------------------------------------------------------------------------
# kernel-constant calibration
# ---------------------------------------------------------------------------

class CalibrationError(RuntimeError):
    """The distance-independence check of the kernel constant failed."""


@dataclass(frozen=True)
class EmbeddingConstant:
    """Coefficient of the unit-difference embedding kernel for uniform directions."""

    dim: int
    value: float
    half_width: float
    provenance: str            # "oracle": estimated from the defining integral
    budget: int = 0
    seed: int = 0
    per_distance: tuple = ()
    warning: bool = False


# the far probe distances |x|, the sampled ball's radius, the most samples drawn at once
CALIBRATION_DISTANCES = (2.0, 5.0, 10.0)
CALIBRATION_BALL_RADIUS = 0.05
CALIBRATION_CHUNK = 1 << 20


def calibrate_embedding_constant(n: int, budget: int, seed: int) -> EmbeddingConstant:
    """Estimate the unit-difference kernel constant from the defining integral.

    Samples the pushforward of (uniform ball) x (uniform directions) with the
    basepoint at the ball center and probes far points x with |x| much larger
    than the radius, where the embedding is constant * x/|x|.  The constant
    must come out independent of |x|; disagreement beyond 4 combined sigma is
    an error.  The ball radius keeps the finite-radius correction,
    of order radius^2 / (8 |x|^2), far below the statistical band.
    """
    n = require_int("dim", n, 2)
    seed = require_int("seed", seed, 0)
    # two samples per distance at least, so that each has a standard error
    budget = require_int("budget", budget, 2 * len(CALIBRATION_DISTANCES))
    rng = np.random.default_rng(seed)
    per = budget // len(CALIBRATION_DISTANCES)
    results = []
    for dist in CALIBRATION_DISTANCES:
        xhat = np.zeros(n)
        xhat[0] = 1.0
        total = total_sq = 0.0
        remaining = per
        while remaining > 0:
            m = min(CALIBRATION_CHUNK, remaining)
            remaining -= m
            g = rng.standard_normal((m, n))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            radii = CALIBRATION_BALL_RADIUS * rng.random(m) ** (1.0 / n)
            a = g * radii[:, None]
            v = rng.standard_normal((m, n))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            av = np.einsum("ij,ij->i", a, v)
            gx = (v @ xhat) * dist - av
            live = av != 0.0          # basepoint-on-hyperplane events are null
            # endpoint gaps are -av and gx; separation means their product <= 0
            hit = (av * gx >= 0.0) & live
            vals = np.where(hit, np.sign(av) * (v @ xhat), 0.0)
            total += float(np.sum(vals))
            total_sq += float(np.sum(vals * vals))
        mean = total / per
        var = max(total_sq / per - mean * mean, 0.0)
        se = math.sqrt(var / per)
        results.append((float(dist), mean, se))
    for (d1, v1, se1), (d2, v2, se2) in itertools.combinations(results, 2):
        gap = abs(v1 - v2)
        lim = 4.0 * math.hypot(se1, se2)
        if gap > lim:
            raise CalibrationError(f"constant at |x|={d1:g} and |x|={d2:g} "
                                   f"differ by {gap:.3e} > 4 sigma = {lim:.3e}")
    wts = np.array([1.0 / max(se * se, 1e-300) for _, _, se in results])
    vals = np.array([v for _, v, _ in results])
    value = float(np.sum(wts * vals) / np.sum(wts))
    se_comb = float(1.0 / math.sqrt(np.sum(wts)))
    half = 4.0 * se_comb
    return EmbeddingConstant(dim=n, value=value, half_width=half, provenance="oracle",
                             budget=budget, seed=seed,
                             per_distance=tuple(results),
                             warning=half > 0.05 * abs(value) if value else True)
