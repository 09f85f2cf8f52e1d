"""Antipodally symmetric direction measures on the unit sphere.

A hyperplane determines its normal only up to sign, so direction measures
live on the projective sphere: for n = 2 they are stored as piecewise
constant densities on the normal angle modulo pi, for n >= 3 as two-sided
symmetric sets.  Three variants are provided:

* ``UniformDirections`` -- normalized volume measure, total mass 1;
* ``SymmetricCap``      -- surface measure restricted to a two-sided cap
  around an axis, with unnormalized arclength/area weighting (one-sided
  total, e.g. 2*theta0 for n = 2);
* ``ArcDensity2D``      -- piecewise constant density on [0, pi), n = 2 only.

Module-level helpers give the closed-form moments of the uniform measure
used by the exact evaluation backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import require_int

PI = math.pi


# ---------------------------------------------------------------------------
# moments of the uniform direction measure
# ---------------------------------------------------------------------------

def abs_moment(n: int) -> float:
    """E|<u, v>| for v uniform on S^(n-1) and any fixed unit u.

    Equals Gamma(n/2) / (sqrt(pi) * Gamma((n+1)/2)); 2/pi for n = 2,
    1/2 for n = 3, which are returned with the bits of the general form.
    """
    if n == 2:
        return 2.0 / PI
    if n == 3:
        return 0.5
    from scipy import special     # imported here: the planar and 3-D runs never load scipy
    return float(math.exp(special.gammaln(n / 2.0) - special.gammaln((n + 1) / 2.0)) / math.sqrt(PI))


def partial_abs_moment(n: int, s: float) -> float:
    """E[|<u, v>| * 1(|<u, v>| >= s)] for v uniform on S^(n-1)."""
    s = min(max(s, 0.0), 1.0)
    return abs_moment(n) * (1.0 - s * s) ** ((n - 1) / 2.0)


def tail_mass(n: int, s: float) -> float:
    """P(|<u, v>| >= s) for v uniform on S^(n-1)."""
    from scipy import special
    s = min(max(s, 0.0), 1.0)
    return float(special.betainc((n - 1) / 2.0, 0.5, 1.0 - s * s))


def unit_kernel_constant(n: int) -> float:
    """Coefficient of the unit-difference embedding kernel for uniform directions.

    For a unit point mass at a, the embedding difference is
    c(n) * (unit(x - a) - unit(y - a)) with c(n) = abs_moment(n) / 2
    (1/pi for n = 2).  Derived, not tabulated: certified against the Monte
    Carlo oracle and the calibration routine in the test suite.
    """
    return 0.5 * abs_moment(n)


# ---------------------------------------------------------------------------
# interval helpers on the projective angle domain [0, pi)
# ---------------------------------------------------------------------------

def normalize_pieces(raw) -> np.ndarray:
    """Sort, validate and merge piecewise densities on [0, pi).

    Accepts (lo, hi, density) triples with 0 <= lo < hi <= pi.  Overlapping
    pieces are resolved by summing densities on the overlap, so unions of
    caps are well defined.  Returns an array of disjoint pieces.
    """
    pieces = np.atleast_2d(np.asarray(raw, dtype=float))
    if pieces.size == 0:
        raise ValueError("direction measure needs at least one density piece")
    if pieces.shape[1] != 3:
        raise ValueError("pieces must be (lo, hi, density) triples")
    # each test is stated so that NaN fails it
    if not np.all((pieces[:, 2] >= 0) & (pieces[:, 2] < math.inf)):
        raise ValueError("densities must be finite and nonnegative")
    if not np.all((pieces[:, 0] >= 0) & (pieces[:, 0] < pieces[:, 1])
                  & (pieces[:, 1] <= PI + 1e-15)):
        raise ValueError("pieces must satisfy 0 <= lo < hi <= pi")
    cuts = np.unique(np.concatenate([pieces[:, 0], pieces[:, 1]]))
    out = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        dens = float(np.sum(pieces[(pieces[:, 0] <= mid) & (mid < pieces[:, 1]), 2]))
        if dens > 0:
            if out and out[-1][1] == lo and out[-1][2] == dens:
                out[-1][1] = hi
            else:
                out.append([lo, hi, dens])
    if not out:
        raise ValueError("direction measure has zero total mass")
    return np.asarray(out, dtype=float)


# up to this many pieces a binary search per key finds the keys' pieces faster
# than sorting the keys, above it the sort is faster: for 100 000 keys on a
# 2-core x86-64 VM with AVX-512, 1.1 against 2.2 ms at 1-3 pieces, 2.0-2.8 ms
# both ways at 10-20, and 9.0 against 2.8 ms at 5632
SEARCH_MAX_PIECES = 16


def piece_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each key's piece under the cumulative weights ``cum``: the number of entries
    of ``cum`` at or below it, clamped to the last piece, which is
    ``np.searchsorted(cum, u, side="right")`` clamped to ``len(cum) - 1``.

    Above ``SEARCH_MAX_PIECES`` pieces the keys are sorted once instead: the first
    ``searchsorted(sorted_u, cum[k], "left")`` sorted keys lie below ``cum[k]``, so
    the sorted keys between the edges ``cum[k - 1]`` and ``cum[k]`` take piece ``k``
    (none where a zero weight repeats an edge), and the last piece takes the rest."""
    if len(cum) <= SEARCH_MAX_PIECES:
        return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    order = np.argsort(u)
    below = np.searchsorted(u[order], cum[:-1], side="left")
    idx = np.empty(len(u), dtype=np.intp)
    idx[order] = np.repeat(np.arange(len(cum)), np.diff(below, prepend=0, append=len(u)))
    return idx


def sample_pieces(weights: np.ndarray, rng: np.random.Generator, size: int):
    """Draw ``size`` pieces with probability proportional to ``weights`` by the
    inverse cdf: each draw's piece index and the fraction of that piece's weight
    below it."""
    cum = np.cumsum(weights)
    u = rng.random(size) * cum[-1]
    idx = piece_index(cum, u)
    return idx, (u - (cum[idx] - weights[idx])) / weights[idx]


def wrap_interval(lo: float, width: float) -> list[tuple[float, float]]:
    """Split [lo, lo+width) (angles mod pi) into non-wrapping subintervals of [0, pi)."""
    lo = lo % PI
    hi = lo + width
    if hi <= PI:
        return [(lo, hi)]
    return [(lo, PI), (0.0, hi - PI)]


# ---------------------------------------------------------------------------
# direction measure variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformDirections:
    """Normalized volume measure on S^(n-1); total mass 1."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", require_int("dim", self.dim, 2))

    def total_mass(self) -> float:
        return 1.0

    def arc_pieces(self) -> np.ndarray:
        if self.dim != 2:
            raise ValueError("arc pieces exist only for n = 2")
        return np.array([[0.0, PI, 1.0 / PI]])

    def sample_normals(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.dim == 2:
            phi = rng.random(size) * PI
            return np.column_stack([np.cos(phi), np.sin(phi)])
        v = rng.standard_normal((size, self.dim))
        return v / np.linalg.norm(v, axis=1, keepdims=True)


@dataclass(frozen=True)
class SymmetricCap:
    """Surface measure on the two-sided cap {v : |<v, axis>| >= cos(half_angle)}.

    Weighting is unnormalized arclength/area; the recorded total is the
    one-sided cap mass, which for n = 2 equals 2 * half_angle.
    """

    axis: np.ndarray
    half_angle: float

    def __init__(self, axis, half_angle: float):
        a = np.asarray(axis, dtype=float)
        nrm = float(np.linalg.norm(a))
        if a.ndim != 1 or a.size < 2 or not 0.0 < nrm < math.inf:
            raise ValueError("cap axis must be a finite nonzero vector of dimension >= 2")
        if not 0.0 < half_angle <= 0.5 * PI:
            raise ValueError("cap half angle must lie in (0, pi/2]")
        a = a / nrm
        a.setflags(write=False)
        object.__setattr__(self, "axis", a)
        object.__setattr__(self, "half_angle", float(half_angle))
        if a.size == 2:
            # built once: the planar exact backend asks for them on every query
            center = math.atan2(a[1], a[0]) % PI
            arc = wrap_interval(center - self.half_angle, 2.0 * self.half_angle)
            pieces = normalize_pieces([(lo, hi, 1.0) for lo, hi in arc])
            pieces.setflags(write=False)
            object.__setattr__(self, "_arc_pieces", pieces)

    @property
    def dim(self) -> int:
        return self.axis.size

    def total_mass(self) -> float:
        n = self.dim
        if n == 2:
            return 2.0 * self.half_angle
        # one-sided cap area: S_n * (1/2) * P(|t| >= cos theta0)
        sphere_area = 2.0 * PI ** (n / 2.0) / math.gamma(n / 2.0)
        return 0.5 * sphere_area * tail_mass(n, math.cos(self.half_angle))

    def arc_pieces(self) -> np.ndarray:
        if self.dim != 2:
            raise ValueError("arc pieces exist only for n = 2")
        return self._arc_pieces

    def sample_normals(self, rng: np.random.Generator, size: int) -> np.ndarray:
        n = self.dim
        if n == 2:
            phi0 = math.atan2(self.axis[1], self.axis[0])
            phi = phi0 + (rng.random(size) * 2.0 - 1.0) * self.half_angle
            return np.column_stack([np.cos(phi), np.sin(phi)])
        from scipy import special
        # |<v, axis>|^2 is Beta(1/2, (n-1)/2) truncated to [cos^2 theta0, 1]
        f_lo = float(special.betainc(0.5, (n - 1) / 2.0, math.cos(self.half_angle) ** 2))
        u = f_lo + rng.random(size) * (1.0 - f_lo)
        t = np.sqrt(special.betaincinv(0.5, (n - 1) / 2.0, u))
        w = rng.standard_normal((size, n))
        w -= np.outer(w @ self.axis, self.axis)
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        return t[:, None] * self.axis + np.sqrt(np.clip(1.0 - t * t, 0.0, 1.0))[:, None] * w


@dataclass(frozen=True)
class ArcDensity2D:
    """Piecewise constant density on the projective angle domain [0, pi); n = 2 only."""

    pieces: np.ndarray

    def __init__(self, pieces):
        p = normalize_pieces(pieces)
        p.setflags(write=False)
        object.__setattr__(self, "pieces", p)

    @property
    def dim(self) -> int:
        return 2

    def total_mass(self) -> float:
        return float(np.sum((self.pieces[:, 1] - self.pieces[:, 0]) * self.pieces[:, 2]))

    def arc_pieces(self) -> np.ndarray:
        return self.pieces

    def sample_normals(self, rng: np.random.Generator, size: int) -> np.ndarray:
        lo, hi = self.pieces[:, 0], self.pieces[:, 1]
        idx, frac = sample_pieces((hi - lo) * self.pieces[:, 2], rng, size)
        phi = lo[idx] + frac * (hi[idx] - lo[idx])
        return np.column_stack([np.cos(phi), np.sin(phi)])


DirectionMeasure = UniformDirections | SymmetricCap | ArcDensity2D
