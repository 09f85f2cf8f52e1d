"""Named measure families and a controlled degenerate family, plus grid export.

Builders return a ``Scenario``: the measure, a bounded domain and a basepoint.
The doubling-box family extends the base measure far beyond the query window
(factor >= 100) because global doubling cannot hold for compactly supported
measures; ``measures.doubling_ratio`` on the window is the desk-scale proxy
for the doubling hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import evaluate
from .directions import ArcDensity2D, SymmetricCap, UniformDirections, wrap_interval
from .geometry import as_point, require_int, require_positive
from .hyperplane_measures import HyperplaneMeasure, OffsetDirection, PositionDirection, validate
from .measures import BaseMeasure1D, BaseMeasureND, tail1_check

PI = math.pi


@dataclass(frozen=True)
class Scenario:
    """A measure with its domain and basepoint."""

    name: str
    domain_lo: np.ndarray
    domain_hi: np.ndarray
    measure: HyperplaneMeasure
    basepoint: np.ndarray

    def __post_init__(self):
        lo, hi, o = (as_point(p, self.measure.dim)
                     for p in (self.domain_lo, self.domain_hi, self.basepoint))
        if np.any(hi <= lo):
            raise ValueError("scenario domain must be a nonempty box")
        if np.any(o < lo) or np.any(o > hi):
            raise ValueError("basepoint must lie inside the domain")
        for arr in (lo, hi, o):
            arr.setflags(write=False)
        object.__setattr__(self, "domain_lo", lo)
        object.__setattr__(self, "domain_hi", hi)
        object.__setattr__(self, "basepoint", o)

    @property
    def dim(self) -> int:
        return self.measure.dim

    def backend(self):
        return evaluate.default_backend(self.measure)

    def embedding(self, *, backend=None) -> evaluate.EmbeddingMap:
        return evaluate.EmbeddingMap(self.measure, self.basepoint,
                                     backend=backend or self.backend())

    def validate(self, *, seed: int = 0, point_count: int = 32, segment_count: int = 64):
        return validate(self.measure, self.domain_lo, self.domain_hi,
                        point_count=point_count, segment_count=segment_count, seed=seed)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def crofton(n: int, *, half_extent: float = 5.0) -> Scenario:
    """Rotation- and translation-invariant measure recovering the Euclidean metric.

    Uniform directions with a unit offset density wide enough to cover the
    domain; the metric is (2/pi)|x - y| for n = 2 and the embedding is
    (x - o)/n.
    """
    n = require_int("dimension", n, 2)
    require_positive("half_extent", half_extent)
    span = 2.0 * half_extent * math.sqrt(n)
    nu = OffsetDirection(UniformDirections(n), BaseMeasure1D.lebesgue(-span, span, 1.0))
    lo = -half_extent * np.ones(n)
    return Scenario(
        name=f"crofton{n}",
        domain_lo=lo,
        domain_hi=-lo,
        measure=nu,
        basepoint=np.zeros(n),
    )


def lebesgue_box_measure(dim: int, *, inner_half: float, levels: int = 6,
                         cell: float | None = None, gauss_order: int = 4) -> BaseMeasureND:
    """Unit-density box graded from fine cells near the origin to a far boundary.

    The box covers [-inner_half * 2**levels, ...]^dim; each dyadic ring
    doubles the cell size, so far mass is represented coarsely and the
    window-scale mass finely.
    """
    require_positive("inner_half", inner_half)
    cell = require_positive("cell", cell if cell is not None else inner_half / 4.0)
    m = round(inner_half / cell)
    if m < 1 or abs(m * cell - inner_half) > 1e-12 * inner_half:
        raise ValueError("inner_half must be an integer multiple of the cell size")
    cells = []

    def add_grid(h: float, size: float, skip_half: float | None):
        counts = round(2.0 * h / size)
        for idx in np.ndindex(*([counts] * dim)):
            lo = -h + size * np.asarray(idx, dtype=float)
            hi = lo + size
            if skip_half is not None and np.all(np.abs(lo) <= skip_half) \
                    and np.all(np.abs(hi) <= skip_half):
                continue
            cells.append(np.concatenate([lo, hi, [1.0]]))

    add_grid(inner_half, cell, None)
    h, size = inner_half, cell
    for _ in range(require_int("levels", levels, 0)):
        h, size = 2.0 * h, 2.0 * size
        add_grid(h, size, skip_half=0.5 * h)
    return BaseMeasureND(dim, cells=cells, gauss_order=gauss_order)


def doubling_pushforward(mu: BaseMeasureND, *, window_lo, window_hi,
                         name: str = "doubling_pushforward", basepoint=None) -> Scenario:
    """Pushforward of a doubling-type base measure with uniform directions.

    Requires a finite positive inverse-distance integral and a support of
    affine rank >= 2 (a collinear support fails the segment-positivity
    bullet).
    """
    t1 = tail1_check(mu)
    if not (0.0 < t1 < math.inf):
        raise ValueError(f"inverse-distance integral {t1:g} must be finite and positive")
    if mu.affine_rank() < 2:
        raise ValueError("support of the base measure is contained in a line")
    lo, hi = as_point(window_lo, mu.dim), as_point(window_hi, mu.dim)
    nu = PositionDirection(mu, UniformDirections(mu.dim))
    return Scenario(
        name=name,
        domain_lo=lo,
        domain_hi=hi,
        measure=nu,
        basepoint=basepoint if basepoint is not None else 0.5 * (lo + hi),
    )


def beurling_ahlfors(mu1d: BaseMeasure1D, *, cap_half_angle: float = PI / 6.0,
                     window_half: float | None = None, height: float = 2.0,
                     name: str = "beurling_ahlfors") -> Scenario:
    """Extension-type family: a line measure with steeply crossing hyperplanes.

    The direction cap is centered on the axis direction of the real line, so
    every hyperplane in the support crosses it at angle >= pi/2 -
    cap_half_angle; with the unnormalized arclength weighting the cap's
    oriented-normal integral along the axis is exactly 1, making the
    embedding restricted to the axis reproduce the measure's interval
    masses.  Atoms inside the query window are rejected: each would carry
    positive hyperplane mass through a single point.
    """
    # arclength weighting: the axis-direction normal integral over the cap
    # is 2 sin(cap_half_angle), equal to 1 at the pi/6 default
    cap = SymmetricCap((1.0, 0.0), cap_half_angle)
    require_positive("height", height)
    s_lo, s_hi = mu1d.support_bounds()
    if window_half is None:
        window_half = 0.1 * max(abs(s_lo), abs(s_hi))
    if mu1d.atoms_in(-window_half, window_half).size:
        raise ValueError("base measure has atoms inside the query window")
    mu = BaseMeasureND.from_axis_measure(mu1d, dim=2, axis=0)
    nu = PositionDirection(mu, cap)
    # near-vertical lines only sweep the cone over the support; keeping the
    # domain above the support keeps every segment's mass positive
    x_lo = max(-window_half, s_lo)
    x_hi = min(window_half, s_hi)
    if x_hi <= x_lo:
        raise ValueError("query window lies outside the base measure's support")
    lo = np.array([x_lo, -height])
    hi = np.array([x_hi, height])
    return Scenario(
        name=name,
        domain_lo=lo,
        domain_hi=hi,
        measure=nu,
        basepoint=np.array([0.5 * (x_lo + x_hi), 0.0]),
    )


def inv_sqrt_density(*, pieces: int = 1024, support: float = 1.0) -> BaseMeasure1D:
    """Staircase approximation of the density |x|^(-1/2) on (0, support]."""
    pieces = require_int("pieces", pieces, 1)
    edges = np.linspace(0.0, require_positive("support", support), pieces + 1)
    lo, hi = edges[:-1], edges[1:]
    # exact average of the density over the piece keeps interval masses honest
    # (np.sqrt is correctly rounded, as math.sqrt is)
    dens = 2.0 * (np.sqrt(hi) - np.sqrt(lo)) / (hi - lo)
    return BaseMeasure1D(pieces=np.column_stack([lo, hi, dens]))


def degenerate_caps(theta0: float, *, window_half: float = 0.4, levels: int = 6,
                    name: str | None = None) -> Scenario:
    """Two symmetric direction caps on perpendicular axes over a wide flat box.

    A single cap concentrates all hyperplanes near one direction family;
    two perpendicular caps keep the measure admissible for every theta0 > 0
    while the transversality ratio on oblique segments decays as theta0
    shrinks (toward the two-direction limit), exhibiting the necessity side
    of the transversality hypothesis.
    """
    if not 0.0 < theta0 <= 0.5 * PI:
        raise ValueError("cap half angle must lie in (0, pi/2]")
    require_positive("window_half", window_half)
    pieces = []
    for center in (0.0, 0.5 * PI):
        pieces.extend((lo, hi, 1.0) for lo, hi in wrap_interval(center - theta0, 2.0 * theta0))
    omega = ArcDensity2D(pieces)
    mu = lebesgue_box_measure(2, inner_half=2.0 * window_half, levels=levels)
    nu = PositionDirection(mu, omega)
    lo = -window_half * np.ones(2)
    return Scenario(
        name=name or f"degenerate_caps_{theta0:g}",
        domain_lo=lo,
        domain_hi=-lo,
        measure=nu,
        basepoint=np.zeros(2),
    )


# ---------------------------------------------------------------------------
# grid export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridImage:
    """Lattice sample of the embedding map with its metadata."""

    dim: int
    resolution: int
    window_lo: np.ndarray
    window_hi: np.ndarray
    points: np.ndarray
    values: np.ndarray

    def to_csv(self, path) -> None:
        n = self.dim
        with open(path, "w", encoding="utf-8") as fh:
            meta = [str(n), str(self.resolution)]
            meta += [f"{v:.17g}" for v in self.window_lo]
            meta += [f"{v:.17g}" for v in self.window_hi]
            fh.write(",".join(meta) + "\n")
            idx = np.stack(np.meshgrid(*([np.arange(self.resolution)] * n),
                                       indexing="ij"), axis=-1).reshape(-1, n)
            for k in range(len(self.points)):
                row = [str(int(v)) for v in idx[k]]
                row += [f"{v:.17g}" for v in self.points[k]]
                row += [f"{v:.17g}" for v in self.values[k]]
                fh.write(",".join(row) + "\n")

    @classmethod
    def from_csv(cls, path) -> "GridImage":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            n = int(header[0])
            resolution = int(header[1])
            window_lo = np.array([float(v) for v in header[2:2 + n]])
            window_hi = np.array([float(v) for v in header[2 + n:2 + 2 * n]])
            pts, vals = [], []
            for line in fh:
                cells = line.strip().split(",")
                pts.append([float(v) for v in cells[n:2 * n]])
                vals.append([float(v) for v in cells[2 * n:3 * n]])
        return cls(n, resolution, window_lo, window_hi,
                   np.asarray(pts), np.asarray(vals))


def grid_export(scenario: Scenario, resolution: int, window_lo, window_hi, *,
                backend=None) -> GridImage:
    """Evaluate the embedding on a lattice; any degenerate or non-finite node fails."""
    lo, hi = as_point(window_lo, scenario.dim), as_point(window_hi, scenario.dim)
    if np.any(lo < scenario.domain_lo) or np.any(hi > scenario.domain_hi):
        raise ValueError("export window must lie inside the scenario domain")
    resolution = require_int("resolution", resolution, 2)
    f = scenario.embedding(backend=backend)
    axes = [np.linspace(lo[k], hi[k], resolution) for k in range(scenario.dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, scenario.dim)
    values = f.eval_many(grid)
    if not np.all(np.isfinite(values)):
        raise ValueError("embedding produced a non-finite value on the grid")
    return GridImage(scenario.dim, resolution, lo, hi, grid, values)
