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
    points, error = as_points((x,), dim)
    if error is not None:
        raise error
    return points[0]


def as_points(rows, dim: int | None = None):
    """The leading ``rows`` that pass ``as_point`` as one C-contiguous (count, dim) array,
    and the error of the first row that does not, or None; a row is coerced alone and its
    shape checked before its coordinates (without ``dim``, the first row's dimension)."""
    try:
        p = np.ascontiguousarray(rows, dtype=float)
    except (TypeError, ValueError):
        p = None
    error = None
    if p is None or p.ndim != 2 or p.shape[1] < 2 or p.shape[1] != (dim or p.shape[1]):
        points = []     # a row is not a vector of the one dimension: stack those before it
        for row in rows:
            try:
                q = np.asarray(row, dtype=float)
                if dim is not None and q.shape != (dim,):
                    raise DimensionMismatchError(f"point of shape {q.shape} in dimension {dim}")
                if q.ndim != 1 or q.size < 2:
                    raise ValueError(
                        f"point must be a vector of dimension >= 2, got shape {q.shape}")
            except (TypeError, ValueError) as exc:
                error = exc
                break
            dim = q.size
            points.append(q)
        p = np.array(points).reshape(len(points), dim or 0)
    inside = np.abs(p) <= MAX_COORDINATE     # NaN fails it too
    if np.count_nonzero(inside) < inside.size:
        p, error = p[:np.flatnonzero(~inside.all(axis=1))[0]], ValueError(
            f"point coordinates must be finite and at most {MAX_COORDINATE:g} in magnitude")
    return p, error


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
        require_positive("cube edge", edge)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "edge", float(edge))

    @property
    def dim(self) -> int:
        return self.center.size


def points_on_segments(points, xs, ys) -> np.ndarray:
    """(rows, points) mask of the ``points`` on each closed segment [xs[k], ys[k]].

    A point is on the segment when it equals its own nearest point there,
    ``x + t (y - x)`` with t clipped to [0, 1], or the endpoint y, which
    ``x + 1.0 * (y - x)`` need not reproduce.  Each row's t is one stacked
    matrix-vector product, with the bits of that row's own.
    """
    d = ys - xs
    dd = np.vecdot(d, d)
    x = xs[:, None, :]
    # where d.d is 0 (x == y), t is +-0: the division is by infinity
    t = np.clip(((points - x) @ d[:, :, None]) / np.where(dd > 0.0, dd, np.inf)[:, None, None],
                0.0, 1.0)
    near, at_y = points - (x + t * d[:, None, :]), points - ys[:, None, :]
    # a gap is zero when its squared norm is, as for the backends' distances; the
    # terms are not negative, so the order of their sum cannot move a zero
    return np.minimum(np.vecdot(near, near), np.vecdot(at_y, at_y)) == 0.0


def cube_vertices(q: Cube) -> np.ndarray:
    """All 2**n vertices of the cube, one per row, in lexicographic sign order."""
    n = q.dim
    signs = ((np.arange(2**n)[:, None] >> np.arange(n)[::-1]) & 1) * 2 - 1
    return q.center + 0.5 * q.edge * signs
