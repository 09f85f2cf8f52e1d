"""Points, cubes and the coordinate bound, with the input checks and error types
the other modules share.  Cubes are immutable and the functions pure, so all of
it can be used concurrently without coordination.
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
    """A query is ill-defined (coincident points, an atom on a query segment, no mass)."""


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


def require_positive(key: str, value):
    """``value``, refused unless it is finite and positive."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{key} must be finite and positive, got {value!r}")
    return value


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


def cube_vertices(q: Cube) -> np.ndarray:
    """All 2**n vertices of the cube, one per row, in lexicographic sign order."""
    n = q.dim
    signs = ((np.arange(2**n)[:, None] >> np.arange(n)[::-1]) & 1) * 2 - 1
    return q.center + 0.5 * q.edge * signs
