"""Measures on the space of hyperplanes, assembled from base and direction measures.

Three representations are supported:

* ``PositionDirection`` -- pushforward of mu x omega under (a, v) |->
  {z : <z, v> = <a, v>}, the hyperplane through position a with normal v;
* ``OffsetDirection``   -- hyperplanes {z : <z, v> = p} weighted by
  d omega(v) * d offsets(p);
* ``SamplerMeasure``    -- an opaque seeded generator of weighted
  hyperplanes with a declared bounding region (Monte Carlo only).

``validate`` checks the three admissibility requirements statistically:
points carry no mass, sampled segments have positive mass, and compact
boxes have finite mass.  The report records "no violation found", never a
proof of validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .directions import DirectionMeasure
from .geometry import UNIT_NORM_TOL, as_point, require_int
from .measures import BaseMeasure1D, BaseMeasureND


@dataclass(frozen=True)
class PositionDirection:
    """Pushforward of (position measure) x (direction measure) to hyperplanes."""

    mu: BaseMeasureND
    omega: DirectionMeasure

    def __post_init__(self):
        om_dim = self.omega.dim
        if self.mu.dim != om_dim:
            raise ValueError(f"position/direction dimension mismatch: {self.mu.dim} vs {om_dim}")

    @property
    def dim(self) -> int:
        return self.mu.dim

    def scaled(self, factor: float) -> "PositionDirection":
        return PositionDirection(self.mu.scaled(factor), self.omega)


@dataclass(frozen=True)
class OffsetDirection:
    """Product measure in (normal direction, signed offset) coordinates."""

    omega: DirectionMeasure
    offsets: BaseMeasure1D

    @property
    def dim(self) -> int:
        return self.omega.dim

    def scaled(self, factor: float) -> "OffsetDirection":
        return OffsetDirection(self.omega, self.offsets.scaled(factor))

    def constant_offset_density(self):
        """(density, lo, hi) when the offset measure is one atom-free piece, else None."""
        if self.offsets.atom_positions.size or len(self.offsets.pieces) != 1:
            return None
        lo, hi, dens = self.offsets.pieces[0].tolist()
        return dens, lo, hi


@dataclass(frozen=True)
class SamplerMeasure:
    """Opaque importance sampler of weighted hyperplanes.

    ``sample_fn(rng, size)`` must return (normals, offsets, weights) such
    that mean(w_i * g(H_i)) estimates the nu-integral of g.  A bounding box
    for the hyperplanes' relevance region must be declared.
    """

    dim: int
    sample_fn: Callable[[np.random.Generator, int], tuple]
    bounding_lo: np.ndarray
    bounding_hi: np.ndarray

    def __init__(self, dim, sample_fn, bounding_lo=None, bounding_hi=None):
        dim = require_int("dim", dim, 2)
        if bounding_lo is None or bounding_hi is None:
            raise ValueError("sampler measure requires a declared bounding region")
        lo = np.array(bounding_lo, dtype=float)
        hi = np.array(bounding_hi, dtype=float)
        for key, corner in (("bounding_lo", lo), ("bounding_hi", hi)):
            if corner.shape != (dim,):
                raise ValueError(f"{key} must have shape ({dim},), got {corner.shape}")
            if not np.isfinite(corner).all():
                raise ValueError(f"{key} must be finite")
        if np.any(lo > hi):
            raise ValueError("bounding_lo must not exceed bounding_hi")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "sample_fn", sample_fn)
        object.__setattr__(self, "bounding_lo", lo)
        object.__setattr__(self, "bounding_hi", hi)

    def sample(self, rng: np.random.Generator, size: int) -> tuple:
        """``sample_fn(rng, size)`` as float arrays: k >= 1 unit normals of shape
        ``(k, dim)`` (within ``UNIT_NORM_TOL``), and k offsets and k weights >= 0,
        all finite; anything else is refused with a ValueError naming the field."""
        normals, offsets, weights = (np.asarray(a, dtype=float)
                                     for a in self.sample_fn(rng, size))
        if offsets.ndim != 1 or len(offsets) < 1:
            raise ValueError(f"sampler offsets must have shape (k,) with k >= 1, "
                             f"got {offsets.shape}")
        k = len(offsets)
        for key, arr, shape in (("normals", normals, (k, self.dim)), ("weights", weights, (k,))):
            if arr.shape != shape:
                raise ValueError(f"sampler {key} must have shape {shape}, got {arr.shape}")
        for key, arr in (("normals", normals), ("offsets", offsets), ("weights", weights)):
            if not np.isfinite(arr).all():
                raise ValueError(f"sampler {key} must be finite")
        if np.any(np.abs(np.linalg.norm(normals, axis=1) - 1.0) > UNIT_NORM_TOL):
            raise ValueError(f"sampler normals must be unit length within {UNIT_NORM_TOL}")
        if np.any(weights < 0):
            raise ValueError("sampler weights must be nonnegative")
        return normals, offsets, weights


HyperplaneMeasure = PositionDirection | OffsetDirection | SamplerMeasure


@dataclass(frozen=True)
class ValidationReport:
    """Statistical admissibility check results; absence of evidence only."""

    point_masses: tuple          # (point, mass, flagged) triples
    min_segment_mass: float
    min_segment_witness: tuple   # (x, y)
    region_mass: float
    notes = "statistical detection on finite samples; 'ok' means no violation found"

    @property
    def ok(self) -> bool:
        return not self.violations()

    def violations(self) -> list[str]:
        out = []
        for pt, mass, flagged in self.point_masses:
            if flagged:
                out.append(f"point {np.asarray(pt).tolist()} carries hyperplane mass {mass:g}")
        if not self.min_segment_mass > 0.0:
            out.append(f"segment {self.min_segment_witness} has zero mass")
        if not math.isfinite(self.region_mass):
            out.append("region mass is not finite")
        return out


def validate(nu: HyperplaneMeasure, region_lo, region_hi, *, point_count: int = 32,
             segment_count: int = 64, seed: int = 0) -> ValidationReport:
    """Check the admissibility bullets on sampled points/segments in a box region."""
    from . import evaluate  # deferred: evaluators consume these measure types

    point_count = require_int("point_count", point_count, 1)
    segment_count = require_int("segment_count", segment_count, 1)
    seed = require_int("seed", seed, 0)
    lo, hi = as_point(region_lo, nu.dim), as_point(region_hi, nu.dim)
    if np.any(hi <= lo):
        raise ValueError("validation region must be a nonempty box")
    rng = np.random.default_rng(seed)
    backend = evaluate.default_backend(nu, budget=20000, seed=seed)

    probe_pts = list(lo + rng.random((point_count, lo.size)) * (hi - lo))
    if isinstance(nu, PositionDirection) and nu.mu.atom_points.size:
        inside = np.all((nu.mu.atom_points >= lo) & (nu.mu.atom_points <= hi), axis=1)
        probe_pts.extend(p for p in nu.mu.atom_points[inside])
    point_masses = []
    for p in probe_pts:
        mass = _point_mass(nu, p, rng)
        point_masses.append((tuple(p.tolist()), mass, mass > 0.0))

    min_mass = math.inf
    witness = None
    draws = [lo + rng.random(lo.size) * (hi - lo) for _ in range(2 * segment_count)]
    ends = [(a, b) for a, b in zip(draws[0::2], draws[1::2]) if not np.all(a == b)]
    answers = evaluate.pair_many(backend, nu, [a for a, _ in ends], [b for _, b in ends])
    for (a, b), p in zip(ends, answers):
        if p.mass < min_mass:
            min_mass, witness = p.mass, (tuple(a.tolist()), tuple(b.tolist()))

    region_mass = evaluate.box_mass(nu, lo, hi, backend=backend)
    return ValidationReport(
        point_masses=tuple(point_masses),
        min_segment_mass=float(min_mass),
        min_segment_witness=witness,
        region_mass=float(region_mass),
    )


def _point_mass(nu: HyperplaneMeasure, p: np.ndarray, rng: np.random.Generator) -> float:
    """nu(pi{p}): hyperplane mass through a single point."""
    if isinstance(nu, PositionDirection):
        # direction variants are absolutely continuous, so only a position
        # atom sitting exactly at p produces mass through p
        at_p = nu.mu.atoms_on_segment(p, p)
        return float(np.sum(nu.mu.atom_weights[at_p])) * nu.omega.total_mass()
    if isinstance(nu, OffsetDirection):
        # an offset atom spreads over a sphere-null set of directions per point
        return 0.0
    normals, offsets, weights = nu.sample(rng, 4096)
    gaps = normals @ p - offsets
    return float(np.mean(weights * (gaps == 0.0)))
