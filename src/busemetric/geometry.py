"""Dimension-generic primitives: points, segments, hyperplanes, angles, cubes.

A hyperplane is stored as a unit normal plus a scalar offset, i.e. the set
{z : <z, normal> = offset}.  The pair (normal, offset) and its negation
(-normal, -offset) describe the same hyperplane; every operation here is
invariant under that flip.  All objects are immutable and all functions are
pure, so they can be used concurrently without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

UNIT_NORM_TOL = 1e-12
# largest accepted coordinate magnitude: squared distances between accepted
# points stay far inside the float64 range, which ends near 1.8e308
MAX_COORDINATE = 1e150


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class DegenerateConfigurationError(ValueError):
    """A query is ill-defined (zero vector, point on hyperplane, atom collision)."""


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a float vector of dimension >= 2 (exactly ``dim`` if given) whose
    coordinates are finite and at most ``MAX_COORDINATE`` in magnitude."""
    p = np.asarray(x, dtype=float)
    if dim is not None and p.shape != (dim,):
        raise DimensionMismatchError(f"point of shape {p.shape} in dimension {dim}")
    if p.ndim != 1 or p.size < 2:
        raise ValueError(f"point must be a vector of dimension >= 2, got shape {p.shape}")
    # scalar test: every query passes here, and for a handful of coordinates
    # numpy's per-call overhead is several times the work; NaN fails it too
    if not all(-MAX_COORDINATE <= c <= MAX_COORDINATE for c in p.tolist()):
        raise ValueError(f"point coordinates must be finite and at most {MAX_COORDINATE:g} "
                         "in magnitude")
    return p


def require_int(key: str, value, least: int) -> int:
    """``value`` as an int, refused unless it is an integer (a numpy one too, never a
    bool) of at least ``least``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ValueError(f"{key} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")


@dataclass(frozen=True)
class Hyperplane:
    """The set {z : <z, normal> = offset} with ||normal|| = 1.

    Normals are canonicalized so that the first nonzero coordinate is
    positive, which makes equality and hashing deterministic without
    affecting flip-invariant semantics.
    """

    normal: np.ndarray
    offset: float

    def __init__(self, normal, offset: float):
        v = np.asarray(normal, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("normal must be a vector of dimension >= 2")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"normal must be unit length within {UNIT_NORM_TOL}, got ||v|| = {nrm}")
        off = float(offset)
        # canonical orientation: first nonzero coordinate of the normal positive
        nz = np.nonzero(v)[0]
        if nz.size and v[nz[0]] < 0:
            v = -v
            off = -off
        v.setflags(write=False)
        object.__setattr__(self, "normal", v)
        object.__setattr__(self, "offset", off)

    def flipped(self) -> "Hyperplane":
        """Same hyperplane built from the negated (normal, offset) pair."""
        return Hyperplane(-self.normal, -self.offset)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hyperplane):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(self.normal, other.normal)

    def __hash__(self) -> int:
        return hash((self.normal.tobytes(), self.offset))


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube given by center and edge length."""

    center: np.ndarray = field()
    edge: float = field()

    def __init__(self, center, edge: float):
        c = as_point(center)
        if not edge > 0:
            raise ValueError("cube edge must be positive")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "edge", float(edge))

    @property
    def dim(self) -> int:
        return self.center.size


def signed_gap(h: Hyperplane, x) -> float:
    """<x, normal> - offset.

    The sign flips under the hyperplane flip, so callers must only use
    products or absolute values of gaps.
    """
    p = as_point(x)
    _check_same_dim(p, h.normal)
    return float(p @ h.normal - h.offset)


def hits_segment(h: Hyperplane, a, b) -> bool:
    """Closed-segment hit test: true iff the endpoint gaps have product <= 0.

    Implemented via sign comparison so subnormal gaps cannot underflow the
    product to a spurious zero.
    """
    ga = signed_gap(h, a)
    gb = signed_gap(h, b)
    return ga == 0.0 or gb == 0.0 or (ga > 0.0) != (gb > 0.0)


def alpha(u, h: Hyperplane) -> float:
    """Smaller angle in [0, pi/2] between the line spanned by u and the hyperplane.

    alpha = arcsin(|<u/||u||, normal>|): pi/2 iff u is parallel to the normal,
    0 iff u lies in the hyperplane's direction space.
    """
    v = np.asarray(u, dtype=float)
    _check_same_dim(v, h.normal)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise DegenerateConfigurationError("alpha undefined for the zero vector")
    # clamp guards arcsin against 1e-16 rounding excursions
    s = min(1.0, abs(float(v @ h.normal)) / nrm)
    return float(np.arcsin(s))


def oriented_normal(h: Hyperplane, o) -> np.ndarray:
    """Unit normal to h pointing out of the halfspace containing o.

    Raises DegenerateConfigurationError when o lies on h; integrators treat
    that as a measure-null event and skip the sample.
    """
    g = signed_gap(h, o)
    if g == 0.0:
        raise DegenerateConfigurationError("basepoint lies on the hyperplane")
    return h.normal.copy() if g < 0 else -h.normal


def cube_vertices(q: Cube) -> np.ndarray:
    """All 2**n vertices of the cube, one per row, in lexicographic sign order."""
    n = q.dim
    signs = ((np.arange(2**n)[:, None] >> np.arange(n)[::-1]) & 1) * 2 - 1
    return q.center + 0.5 * q.edge * signs
