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

from .arcs import _gl
from .geometry import DegenerateConfigurationError


@dataclass(frozen=True)
class BaseMeasure1D:
    """Atoms plus piecewise constant density on the real line."""

    atom_positions: np.ndarray
    atom_weights: np.ndarray
    pieces: np.ndarray  # rows (lo, hi, density), pairwise disjoint

    def __init__(self, atoms=(), pieces=()):
        pos = np.asarray([a[0] for a in atoms], dtype=float)
        wts = np.asarray([a[1] for a in atoms], dtype=float)
        if np.any(wts <= 0):
            raise ValueError("atom weights must be positive")
        pc = np.asarray(pieces, dtype=float).reshape(-1, 3)
        if pc.size:
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

    def cdf(self, x: float) -> float:
        """Mass of (-inf, x]."""
        total = float(np.sum(self.atom_weights[self.atom_positions <= x]))
        if self.pieces.size:
            cov = np.clip(np.minimum(self.pieces[:, 1], x) - self.pieces[:, 0], 0.0, None)
            total += float(np.sum(cov * self.pieces[:, 2]))
        return total

    def mass(self, s: float, t: float) -> float:
        """mu((s, t]): atoms in the half-open interval plus the density integral."""
        if s > t:
            raise ValueError("need s <= t")
        return self.cdf(t) - self.cdf(s)

    def mass_many(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Vectorized mass((s_i, t_i])."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        out = np.zeros(s.shape)
        if self.atom_positions.size:
            pos = np.sort(self.atom_positions)
            wcum = np.concatenate([[0.0], np.cumsum(self.atom_weights[np.argsort(self.atom_positions, kind="stable")])])
            out += wcum[np.searchsorted(pos, t, side="right")] - wcum[np.searchsorted(pos, s, side="right")]
        for lo, hi, dens in self.pieces:
            out += dens * (np.clip(np.minimum(t, hi) - lo, 0.0, None)
                           - np.clip(np.minimum(s, hi) - lo, 0.0, None))
        return out

    def total_mass(self) -> float:
        tot = float(np.sum(self.atom_weights))
        if self.pieces.size:
            tot += float(np.sum((self.pieces[:, 1] - self.pieces[:, 0]) * self.pieces[:, 2]))
        return tot

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
        if factor <= 0:
            raise ValueError("scale factor must be positive")
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
    cell sizes.
    """

    dim: int
    atom_points: np.ndarray
    atom_weights: np.ndarray
    cells: np.ndarray        # rows (lo_1..lo_n, hi_1..hi_n, density)
    node_points: np.ndarray  # realized cell quadrature nodes
    node_weights: np.ndarray
    segments: tuple          # (p0, p1, linear_density) triples
    gauss_order: int = field(default=4)

    def __init__(self, dim: int, atoms=(), cells=(), segments=(), gauss_order: int = 4):
        if dim < 2:
            raise ValueError("dimension must be >= 2")
        apts = np.asarray([a[0] for a in atoms], dtype=float).reshape(-1, dim)
        awts = np.asarray([a[1] for a in atoms], dtype=float)
        if np.any(awts <= 0):
            raise ValueError("atom weights must be positive")
        cl = np.asarray(cells, dtype=float).reshape(-1, 2 * dim + 1)
        if cl.size:
            if np.any(cl[:, :dim] >= cl[:, dim:2 * dim]):
                raise ValueError("cells need lo < hi on every axis")
            if np.any(cl[:, -1] < 0):
                raise ValueError("cell densities must be nonnegative")
            los, his = cl[:, :dim], cl[:, dim:2 * dim]
            # overlap must exceed a width-relative sliver: float tilings meet
            # at seams a few ulps wide
            widths = his - los
            tol = 1e-9 * np.minimum(widths[:, None, :], widths[None, :, :])
            inter = (np.minimum(his[:, None, :], his[None, :, :])
                     - np.maximum(los[:, None, :], los[None, :, :]))
            overlap = np.all(inter > tol, axis=2)
            np.fill_diagonal(overlap, False)
            if np.any(overlap):
                i, j = np.argwhere(overlap)[0]
                raise ValueError(f"cells {i} and {j} overlap")
        node_p, node_w = self._realize_cells(dim, cl, gauss_order)
        segs = []
        for p0, p1, dens in segments:
            p0 = np.asarray(p0, dtype=float)
            p1 = np.asarray(p1, dtype=float)
            if p0.shape != (dim,) or p1.shape != (dim,):
                raise ValueError("segment endpoints must have the measure dimension")
            if dens < 0:
                raise ValueError("segment densities must be nonnegative")
            if not np.linalg.norm(p1 - p0) > 0:
                raise ValueError("degenerate density segment")
            p0.setflags(write=False)
            p1.setflags(write=False)
            segs.append((p0, p1, float(dens)))
        if apts.size == 0 and node_p.size == 0 and not segs:
            raise ValueError("measure must have atoms, cells or segments")
        for arr in (apts, awts, cl, node_p, node_w):
            arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "atom_points", apts)
        object.__setattr__(self, "atom_weights", awts)
        object.__setattr__(self, "cells", cl)
        object.__setattr__(self, "node_points", node_p)
        object.__setattr__(self, "node_weights", node_w)
        object.__setattr__(self, "segments", tuple(segs))
        object.__setattr__(self, "gauss_order", int(gauss_order))

    @staticmethod
    def _realize_cells(dim, cells, order):
        if cells.size == 0:
            return np.zeros((0, dim)), np.zeros(0)
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

    @classmethod
    def from_axis_measure(cls, mu: BaseMeasure1D, dim: int = 2, axis: int = 0) -> "BaseMeasureND":
        """Embed a 1-D measure on a coordinate axis of R^dim."""
        def lift(t):
            p = np.zeros(dim)
            p[axis] = t
            return p

        atoms = [(lift(p), w) for p, w in zip(mu.atom_positions, mu.atom_weights)]
        segments = [(lift(lo), lift(hi), dens) for lo, hi, dens in mu.pieces]
        return cls(dim, atoms=atoms, segments=segments)

    def total_mass(self) -> float:
        tot = float(np.sum(self.atom_weights)) + float(np.sum(self.node_weights))
        for p0, p1, dens in self.segments:
            tot += dens * float(np.linalg.norm(p1 - p0))
        return tot

    def support_radius(self) -> float:
        """Radius of a ball around the origin containing the support."""
        r = 0.0
        if self.atom_points.size:
            r = max(r, float(np.max(np.linalg.norm(self.atom_points, axis=1))))
        if self.cells.size:
            n = self.dim
            corners = np.maximum(np.abs(self.cells[:, :n]), np.abs(self.cells[:, n:2 * n]))
            r = max(r, float(np.max(np.linalg.norm(corners, axis=1))))
        for p0, p1, _ in self.segments:
            r = max(r, float(np.linalg.norm(p0)), float(np.linalg.norm(p1)))
        return r

    def affine_rank(self) -> int:
        """Rank of the support's affine hull, from atoms, cell centers and segment ends."""
        pts = [self.atom_points] if self.atom_points.size else []
        if self.cells.size:
            n = self.dim
            pts.append(0.5 * (self.cells[:, :n] + self.cells[:, n:2 * n]))
        for p0, p1, _ in self.segments:
            pts.append(np.stack([p0, p1]))
        allp = np.concatenate(pts)
        if len(allp) < 2:
            return 0
        centered = allp - allp.mean(axis=0)
        return int(np.linalg.matrix_rank(centered, tol=1e-9))

    def ball_mass(self, center, r: float) -> float:
        """Mass of the closed ball B(center, r) (cells via their realized nodes)."""
        c = np.asarray(center, dtype=float)
        tot = 0.0
        if self.atom_points.size:
            inside = np.linalg.norm(self.atom_points - c, axis=1) <= r
            tot += float(np.sum(self.atom_weights[inside]))
        if self.node_points.size:
            inside = np.linalg.norm(self.node_points - c, axis=1) <= r
            tot += float(np.sum(self.node_weights[inside]))
        for p0, p1, dens in self.segments:
            d = p1 - p0
            ln = float(np.linalg.norm(d))
            u = d / ln
            t0 = float((c - p0) @ u)
            h2 = float(np.sum((c - p0) ** 2)) - t0 * t0
            if h2 > r * r:
                continue
            half = math.sqrt(max(r * r - h2, 0.0))
            tot += dens * max(0.0, min(ln, t0 + half) - max(0.0, t0 - half))
        return tot

    def atoms_near(self, point, tol: float = 0.0) -> np.ndarray:
        if not self.atom_points.size:
            return np.zeros(0, dtype=int)
        d = np.linalg.norm(self.atom_points - np.asarray(point, dtype=float), axis=1)
        return np.nonzero(d <= tol)[0]

    def scaled(self, factor: float) -> "BaseMeasureND":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        atoms = [(p, w * factor) for p, w in zip(self.atom_points, self.atom_weights)]
        cells = self.cells.copy()
        if cells.size:
            cells[:, -1] *= factor
        segments = [(p0, p1, dens * factor) for p0, p1, dens in self.segments]
        return BaseMeasureND(self.dim, atoms=atoms, cells=cells, segments=segments,
                             gauss_order=self.gauss_order)

    def translated(self, shift) -> "BaseMeasureND":
        t = np.asarray(shift, dtype=float)
        atoms = [(p + t, w) for p, w in zip(self.atom_points, self.atom_weights)]
        cells = self.cells.copy()
        if cells.size:
            n = self.dim
            cells[:, :n] += t
            cells[:, n:2 * n] += t
        segments = [(p0 + t, p1 + t, dens) for p0, p1, dens in self.segments]
        return BaseMeasureND(self.dim, atoms=atoms, cells=cells, segments=segments,
                             gauss_order=self.gauss_order)


# ---------------------------------------------------------------------------
# measure diagnostics
# ---------------------------------------------------------------------------

def doubling_ratio(m: BaseMeasureND, region_lo, region_hi, *, count: int = 64,
                   radius_range=(0.05, 0.5), seed: int = 0) -> float:
    """Max over sampled (x, r) of mu(B(x, 2r)) / mu(B(x, r)).

    Samples with zero inner mass are skipped (the 0/0 convention); raises if
    every sample degenerates.
    """
    lo = np.asarray(region_lo, dtype=float)
    hi = np.asarray(region_hi, dtype=float)
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


def tail1_check(m: BaseMeasureND, *, refine_level: int = 0) -> float:
    """Integral of |x|^-1 against the measure.

    Atoms are summed exactly (an atom at the origin is an error); realized
    cell nodes are summed directly, optionally refined by splitting every
    cell ``refine_level`` extra times for stability studies; line densities
    integrate in closed form and yield +inf when the segment passes through
    the origin.
    """
    total = 0.0
    if m.atom_points.size:
        r = np.linalg.norm(m.atom_points, axis=1)
        if np.any(r == 0.0):
            raise DegenerateConfigurationError("atom at the origin: |x|^-1 undefined")
        total += float(np.sum(m.atom_weights / r))
    if m.cells.size:
        cells = m.cells
        if refine_level > 0:
            cells = _split_cells(cells, m.dim, refine_level)
        pts, wts = BaseMeasureND._realize_cells(m.dim, cells, m.gauss_order)
        r = np.linalg.norm(pts, axis=1)
        if np.any(r == 0.0):
            raise DegenerateConfigurationError("cell node at the origin")
        total += float(np.sum(wts / r))
    for p0, p1, dens in m.segments:
        d = p1 - p0
        ln = float(np.linalg.norm(d))
        u = d / ln
        t0 = float(-(p0 @ u))            # parameter of the closest point to the origin
        h = math.sqrt(max(float(p0 @ p0) - t0 * t0, 0.0))
        if h == 0.0 and 0.0 <= t0 <= ln:
            return math.inf
        # integral of dt / sqrt((t - t0)^2 + h^2)
        total += dens * (_asinh_safe(ln - t0, h) - _asinh_safe(-t0, h))
    return total


def _asinh_safe(t: float, h: float) -> float:
    if h == 0.0:
        # degenerate: line through origin, away from t = 0
        return math.copysign(math.log(abs(t)), t) if t != 0.0 else 0.0
    return math.asinh(t / h)


def _split_cells(cells: np.ndarray, dim: int, level: int) -> np.ndarray:
    out = cells
    for _ in range(level):
        new = []
        for row in out:
            lo, hi, dens = row[:dim], row[dim:2 * dim], row[-1]
            mid = 0.5 * (lo + hi)
            for mask in range(2 ** dim):
                bits = (mask >> np.arange(dim)) & 1
                nlo = np.where(bits, mid, lo)
                nhi = np.where(bits, hi, mid)
                new.append(np.concatenate([nlo, nhi, [dens]]))
        out = np.asarray(new)
    return out
