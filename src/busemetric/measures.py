"""Base measures on R^n: atoms, piecewise constant densities, and line densities.

``BaseMeasure1D`` models measures on the real line (atoms plus piecewise
constant densities on half-open intervals).  ``BaseMeasureND`` models
measures on R^n as a combination of

* weighted atoms,
* axis-aligned boxes with constant density -- realized at construction
  into fixed Gauss-Legendre point masses so that every evaluation backend
  integrates exactly the same discrete measure, and
* straight line segments carrying a density per unit length (used for
  measures supported on an axis), which are integrated adaptively by the
  evaluators.

Interval masses use the cdf-difference convention: mass(s, t) counts atoms
in the half-open interval (s, t], which makes additivity over adjacent
intervals exact (an atom at the shared endpoint is counted once, on the
left interval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arcs import ANGLE_BLOCK_ELEMENTS, SegmentTable, _gl, _rowdot, segment_table
from .geometry import (DegenerateConfigurationError, DimensionMismatchError, as_point,
                       points_on_segments, require_int, require_positive)


def _rows(key: str, rows, shape: tuple) -> np.ndarray:
    """A float copy of ``rows`` with shape (count, *shape), refused by name unless every
    row has ``shape``: a flat reshape would regroup rows of another length."""
    if not len(rows):
        return np.empty((0,) + shape)
    try:
        arr = np.array(rows, dtype=float)
    except ValueError:
        arr = None
    if arr is None or arr.shape[1:] != shape:
        got = "ragged or non-numeric rows" if arr is None else arr.shape
        raise DimensionMismatchError(f"{key} need shape {(len(rows),) + shape}, got {got}")
    return arr


def _atoms(atoms, shape: tuple):
    """The positions (each of ``shape``) and weights of (position, weight) pairs, refused
    unless the positions are finite and the weights finite and positive."""
    if any(len(a) != 2 for a in atoms):
        raise DimensionMismatchError("atoms need (position, weight) pairs")
    positions = _rows("atom positions", [a[0] for a in atoms], shape)
    weights = _rows("atom weights", [a[1] for a in atoms], ())
    if not np.isfinite(positions).all():
        raise ValueError("atom positions must be finite")
    if not np.isfinite(weights).all():
        raise ValueError("atom weights must be finite")
    if np.any(weights <= 0):
        raise ValueError("atom weights must be positive")
    return positions, weights


def _sum_in_order(start: float, terms: np.ndarray) -> float:
    """start + terms[0] + terms[1] + ..., left to right (``np.sum`` adds pairwise)."""
    return float(np.cumsum(np.concatenate(([start], terms)))[-1])


@dataclass(frozen=True)
class BaseMeasure1D:
    """Atoms plus piecewise constant density on the real line."""

    atom_positions: np.ndarray
    atom_weights: np.ndarray
    pieces: np.ndarray  # rows (lo, hi, density), pairwise disjoint

    def __init__(self, atoms=(), pieces=()):
        pos, wts = _atoms(atoms, ())
        pc = _rows("density pieces", pieces, (3,))
        if pc.size:
            if not np.isfinite(pc[:, :2]).all():
                raise ValueError("density pieces need finite bounds")
            if not np.isfinite(pc[:, 2]).all():
                raise ValueError("densities must be finite")
            if np.any(pc[:, 2] < 0):
                raise ValueError("densities must be nonnegative")
            if np.any(pc[:, 0] >= pc[:, 1]):
                raise ValueError("density pieces need lo < hi")
            order = np.argsort(pc[:, 0], kind="stable")
            pc = pc[order]
            if np.any(pc[1:, 0] < pc[:-1, 1] - 1e-15):
                raise ValueError("density pieces must be pairwise disjoint")
        if pos.size == 0 and pc.size == 0:
            raise ValueError("measure must have atoms or density pieces")
        for arr in (pos, wts, pc):
            arr.setflags(write=False)
        object.__setattr__(self, "atom_positions", pos)
        object.__setattr__(self, "atom_weights", wts)
        object.__setattr__(self, "pieces", pc)

    @classmethod
    def lebesgue(cls, lo: float, hi: float, density: float = 1.0) -> "BaseMeasure1D":
        return cls(pieces=[(lo, hi, density)])

    def mass(self, s: float, t: float) -> float:
        """mu((s, t]): atoms in the half-open interval plus the density integral."""
        return float(self.mass_many([s], [t])[0])

    def mass_many(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Vectorized mass((s_i, t_i]), refused unless s_i <= t_i on every row.

        Each row's sum starts from +0.0 plus the atoms' mass and adds the pieces'
        density integrals in order.  The rows go a bounded block at a time into one
        (pieces, rows) array, every piece's integral written in place at once, and the
        piece rows are added one in-place add each: ``np.add.reduce`` would sum a
        one-row block's pieces pairwise."""
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        if np.any(s > t):
            raise ValueError("need s <= t")
        shape, s, t = s.shape, s.ravel(), t.ravel()
        out = np.zeros(len(s))
        if self.atom_positions.size:
            order = np.argsort(self.atom_positions, kind="stable")
            pos = self.atom_positions[order]
            wcum = np.concatenate([[0.0], np.cumsum(self.atom_weights[order])])
            out += (wcum[np.searchsorted(pos, t, side="right")]
                    - wcum[np.searchsorted(pos, s, side="right")])
        lo, hi, dens = self.pieces.T[:, :, None]
        rows = max(ANGLE_BLOCK_ELEMENTS // max(len(self.pieces), 1), 1)
        upper, lower = np.empty((2, len(self.pieces), min(rows, len(s))))
        for start in range(0, len(s), rows):
            stop = min(start + rows, len(s))
            terms, below = upper[:, :stop - start], lower[:, :stop - start]
            for part, ends in ((terms, t[start:stop]), (below, s[start:stop])):
                np.minimum(ends, hi, out=part)
                part -= lo
                np.maximum(part, 0.0, out=part)
            terms -= below
            terms *= dens
            sums = out[start:stop]
            for piece in terms:
                sums += piece
        return out.reshape(shape)

    def support_bounds(self) -> tuple[float, float]:
        los, his = [], []
        if self.atom_positions.size:
            los.append(float(np.min(self.atom_positions)))
            his.append(float(np.max(self.atom_positions)))
        if self.pieces.size:
            los.append(float(np.min(self.pieces[:, 0])))
            his.append(float(np.max(self.pieces[:, 1])))
        return min(los), max(his)

    def atoms_in(self, lo: float, hi: float) -> np.ndarray:
        sel = (self.atom_positions >= lo) & (self.atom_positions <= hi)
        return self.atom_positions[sel]

    def scaled(self, factor: float) -> "BaseMeasure1D":
        require_positive("scale factor", factor)
        atoms = list(zip(self.atom_positions, self.atom_weights * factor))
        pieces = self.pieces.copy()
        if pieces.size:
            pieces[:, 2] *= factor
        return BaseMeasure1D(atoms=atoms, pieces=pieces)


@dataclass(frozen=True)
class BaseMeasureND:
    """Measure on R^n: atoms + realized box densities + line densities.

    Boxes are realized into per-cell tensor Gauss-Legendre point masses at
    construction (``gauss_order`` points per axis); the realized nodes *are*
    the measure as far as all integral queries are concerned, which keeps
    every backend consistent.  Builders control accuracy by grading the
    cell sizes.  The segments are kept once, as the rows of the read-only
    ``segment_table``; ``segments`` holds views of those rows.  The measure
    copies every array it is given, so freezing them never touches the caller's.
    """

    dim: int
    atom_points: np.ndarray
    atom_weights: np.ndarray
    cells: np.ndarray        # rows (lo_1..lo_n, hi_1..hi_n, density)
    node_points: np.ndarray  # realized cell quadrature nodes
    node_weights: np.ndarray
    segments: tuple          # (p0, p1, linear_density) triples
    gauss_order: int = field(default=4)
    segment_table: SegmentTable = field(default=None, repr=False, compare=False)

    def __init__(self, dim: int, atoms=(), cells=(), segments=(), gauss_order: int = 4):
        dim = require_int("dim", dim, 2)
        gauss_order = require_int("gauss_order", gauss_order, 1)
        apts, awts = _atoms(atoms, (dim,))
        cl = _rows("cells", cells, (2 * dim + 1,))
        if cl.size:
            # before the overlap sweep, whose sort would misplace a NaN cell
            if not np.isfinite(cl).all():
                raise ValueError("cells need finite corners and densities")
            if np.any(cl[:, :dim] >= cl[:, dim:2 * dim]):
                raise ValueError("cells need lo < hi on every axis")
            if np.any(cl[:, -1] < 0):
                raise ValueError("cell densities must be nonnegative")
            pair = _first_overlap(cl[:, :dim], cl[:, dim:2 * dim])
            if pair is not None:
                raise ValueError(f"cells {pair[0]} and {pair[1]} overlap")
        node_p, node_w = self._realize_cells(dim, cl, gauss_order)
        segments = list(segments)
        if any(len(s) != 3 for s in segments):
            raise DimensionMismatchError("segments need (p0, p1, density) triples")
        p0s = _rows("segment endpoints", [s[0] for s in segments], (dim,))
        p1s = _rows("segment endpoints", [s[1] for s in segments], (dim,))
        denss = _rows("segment densities", [s[2] for s in segments], ())
        if not (np.isfinite(p0s).all() and np.isfinite(p1s).all()):
            raise ValueError("segment endpoints must be finite")
        if not np.isfinite(denss).all():
            raise ValueError("segment densities must be finite")
        if np.any(denss < 0):
            raise ValueError("segment densities must be nonnegative")
        if not np.all(np.linalg.norm(p1s - p0s, axis=1) > 0):
            raise ValueError("degenerate density segment")
        if apts.size == 0 and node_p.size == 0 and not segments:
            raise ValueError("measure must have atoms, cells or segments")
        for arr in (apts, awts, cl, node_p, node_w):
            arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "atom_points", apts)
        object.__setattr__(self, "atom_weights", awts)
        object.__setattr__(self, "cells", cl)
        object.__setattr__(self, "node_points", node_p)
        object.__setattr__(self, "node_weights", node_w)
        table = segment_table(p0s, p1s, denss)
        object.__setattr__(self, "segments", tuple(zip(table.p0s, table.p1s, table.denss.tolist())))
        object.__setattr__(self, "gauss_order", gauss_order)
        object.__setattr__(self, "segment_table", table)

    @staticmethod
    def _realize_cells(dim, cells, order):
        """Tensor Gauss-Legendre nodes and weights of the cells with nonzero
        density: cell-major, each cell's nodes in ``ij`` order, the weight
        the axis weights multiplied left to right, then by the density."""
        cells = cells[cells[:, -1] != 0]
        x, w = _gl(order)
        lo, hi, dens = cells[:, :dim], cells[:, dim:2 * dim], cells[:, -1]
        half = (0.5 * (hi - lo))[:, :, None]
        axes = (0.5 * (lo + hi))[:, :, None] + half * x     # (cell, axis, node)
        wax = half * w

        def along(a, k):
            """Axis k's values for each cell, varying along grid axis k only."""
            return a[:, k].reshape((len(cells),) + (1,) * k + (order,) + (1,) * (dim - 1 - k))

        pts = np.empty((len(cells),) + (order,) * dim + (dim,))
        for k in range(dim):
            pts[..., k] = along(axes, k)
        wts = along(wax, 0)
        for k in range(1, dim):
            wts = wts * along(wax, k)
        wts = dens.reshape((-1,) + (1,) * dim) * wts
        return pts.reshape(-1, dim), wts.reshape(-1)

    @classmethod
    def from_axis_measure(cls, mu: BaseMeasure1D, dim: int = 2, axis: int = 0) -> "BaseMeasureND":
        """Embed a 1-D measure on a coordinate axis of R^dim."""
        def lift(t):
            p = np.zeros((len(t), dim))
            p[:, axis] = t
            return p

        return cls(dim, atoms=list(zip(lift(mu.atom_positions), mu.atom_weights)),
                   segments=zip(lift(mu.pieces[:, 0]), lift(mu.pieces[:, 1]), mu.pieces[:, 2]))

    def total_mass(self) -> float:
        t = self.segment_table
        return _sum_in_order(float(np.sum(self.atom_weights)) + float(np.sum(self.node_weights)),
                             t.denss * t.lengths)

    def affine_rank(self) -> int:
        """Rank of the support's affine hull, from atoms, cell centers and segment ends."""
        pts = [self.atom_points] if self.atom_points.size else []
        if self.cells.size:
            n = self.dim
            pts.append(0.5 * (self.cells[:, :n] + self.cells[:, n:2 * n]))
        t = self.segment_table
        pts.append(np.stack([t.p0s, t.p1s], axis=1).reshape(-1, self.dim))  # p0, p1, p0, ...
        allp = np.concatenate(pts)
        if len(allp) < 2:
            return 0
        centered = allp - allp.mean(axis=0)
        return int(np.linalg.matrix_rank(centered, tol=1e-9))

    def ball_mass(self, center, r: float) -> float:
        """Mass of the closed ball B(center, r) (cells via their realized nodes), refused
        unless ``center`` is a point of the measure's dimension and ``r`` finite and
        positive.  Each segment adds its density times the chord the ball cuts from it."""
        c = as_point(center, self.dim)
        r = require_positive("radius", r)
        tot = 0.0
        for pts, wts in ((self.atom_points, self.atom_weights), (self.node_points, self.node_weights)):
            if pts.size:
                tot += float(np.sum(wts[np.linalg.norm(pts - c, axis=1) <= r]))
        t = self.segment_table
        rel = c - t.p0s
        t0 = _rowdot(rel, t.us)     # the parameter of the foot of c on each segment's line
        h2 = np.sum(rel ** 2, axis=1) - t0 * t0
        half = np.sqrt(np.maximum(r * r - h2, 0.0))
        chord = np.maximum(0.0, np.minimum(t.lengths, t0 + half) - np.maximum(0.0, t0 - half))
        return _sum_in_order(tot, np.where(h2 > r * r, 0.0, t.denss * chord))

    def atoms_on_segment(self, x, y) -> np.ndarray:
        """Indices of the atoms on the closed segment [x, y]; ``[x, x]`` is the point x."""
        return np.flatnonzero(self.atoms_on_segments(np.asarray([x], dtype=float),
                                                     np.asarray([y], dtype=float))[0])

    def atoms_on_segments(self, xs, ys) -> np.ndarray:
        """(rows, atoms) mask of the atoms on each closed segment [xs[k], ys[k]], by
        ``geometry.points_on_segments``."""
        return points_on_segments(self.atom_points, xs, ys)

    def scaled(self, factor: float) -> "BaseMeasureND":
        require_positive("scale factor", factor)
        atoms = [(p, w * factor) for p, w in zip(self.atom_points, self.atom_weights)]
        cells = self.cells.copy()
        if cells.size:
            cells[:, -1] *= factor
        t = self.segment_table
        return BaseMeasureND(self.dim, atoms=atoms, cells=cells,
                             segments=zip(t.p0s, t.p1s, t.denss * factor),
                             gauss_order=self.gauss_order)


def _first_overlap(los, his):
    """The lexicographically smallest pair (i, j), i < j, of boxes that overlap by
    more than a width-relative sliver on every axis (float tilings meet at seams a
    few ulps wide), or None.

    A sort-and-sweep: sorted by ``lo`` on one axis, a box can only overlap the
    later boxes that start before it ends there.  The sweep takes the axis with
    the fewest such candidates and runs the exact test on those pairs only.
    """
    count = len(los)

    def sweep(k):
        order = np.argsort(los[:, k])
        # the later boxes in this order that start before each box ends on axis k
        return order, np.searchsorted(los[order, k], his[order, k]) - np.arange(1, count + 1)

    order, after = min(map(sweep, range(los.shape[1])), key=lambda s: int(s[1].sum()))
    first = np.repeat(np.arange(count), after)
    # each candidate's offset past its box in the sorted order
    step = np.arange(len(first)) - np.repeat(np.cumsum(after) - after, after) + 1
    i, j = order[first], order[first + step]
    widths = his - los
    tol = 1e-9 * np.minimum(widths[i], widths[j])
    inter = np.minimum(his[i], his[j]) - np.maximum(los[i], los[j])
    hit = np.all(inter > tol, axis=1)
    if not hit.any():
        return None
    a, b = np.minimum(i[hit], j[hit]), np.maximum(i[hit], j[hit])
    a0 = a.min()
    return int(a0), int(b[a == a0].min())


# ---------------------------------------------------------------------------
# measure diagnostics
# ---------------------------------------------------------------------------

def doubling_ratio(m: BaseMeasureND, region_lo, region_hi, *, count: int = 64,
                   radius_range=(0.05, 0.5), seed: int = 0) -> float:
    """Max over sampled (x, r) of mu(B(x, 2r)) / mu(B(x, r)).

    Samples with zero inner mass are skipped (the 0/0 convention); raises if
    every sample degenerates.
    """
    lo, hi = as_point(region_lo, m.dim), as_point(region_hi, m.dim)
    count = require_int("count", count, 1)
    rng = np.random.default_rng(seed)
    rmin, rmax = radius_range
    if not 0 < rmin <= rmax:
        raise ValueError("radius range must be positive and ordered")
    worst = 0.0
    effective = 0
    for _ in range(count):
        x = lo + rng.random(lo.size) * (hi - lo)
        r = math.exp(rng.uniform(math.log(rmin), math.log(rmax)))
        inner = m.ball_mass(x, r)
        if inner <= 0.0:
            continue
        worst = max(worst, m.ball_mass(x, 2.0 * r) / inner)
        effective += 1
    if effective == 0:
        raise DegenerateConfigurationError("all doubling samples had empty inner balls")
    return worst


def tail1_check(m: BaseMeasureND) -> float:
    """Integral of |x|^-1 against the measure.

    Atoms are summed exactly (an atom at the origin is an error); realized
    cell nodes are summed directly; line densities integrate in closed form
    and yield +inf when the segment passes through the origin.
    """
    total = 0.0
    for pts, wts, what in ((m.atom_points, m.atom_weights, "atom at the origin: |x|^-1 undefined"),
                           (m.node_points, m.node_weights, "cell node at the origin")):
        if pts.size:
            r = np.linalg.norm(pts, axis=1)
            if np.any(r == 0.0):
                raise DegenerateConfigurationError(what)
            total += float(np.sum(wts / r))
    t = m.segment_table
    for p0, u, ln, dens in zip(t.p0s, t.us, t.lengths.tolist(), t.denss.tolist()):
        t0 = float(-(p0 @ u))            # parameter of the closest point to the origin
        h = math.sqrt(max(float(p0 @ p0) - t0 * t0, 0.0))
        if h == 0.0 and 0.0 <= t0 <= ln:
            return math.inf
        # integral of dt / sqrt((t - t0)^2 + h^2)
        total += dens * (_asinh_safe(ln - t0, h) - _asinh_safe(-t0, h))
    return total


def _asinh_safe(t: float, h: float) -> float:
    if h == 0.0:
        # degenerate: line through origin, away from t = 0; sign(t) log|t| is an
        # antiderivative of 1/|t| (copysign would also flip log|t| < 0 for |t| < 1)
        return math.copysign(1.0, t) * math.log(abs(t)) if t != 0.0 else 0.0
    return math.asinh(t / h)
