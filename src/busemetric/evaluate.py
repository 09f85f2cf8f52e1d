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

* ``ClosedForm``  -- offset-direction measures (uniform directions in any
  dimension, arbitrary arc densities for n = 2, caps for n >= 3 via polar
  quadrature) and position-direction measures with uniform directions
  (subtended-angle kernel, valid in all dimensions);
* ``Exact2D``     -- position-direction measures in the plane with any arc
  density: exact per-position arc antiderivatives, query-adaptive
  Gauss-Legendre integration along density segments;
* ``MonteCarlo``  -- any measure; seeded, cached batches shared across
  queries, unbiased estimates with standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import arcs
from .directions import (SymmetricCap, UniformDirections, abs_moment,
                         partial_abs_moment, unit_kernel_constant)
from .geometry import Cube, DegenerateConfigurationError, as_point
from .hyperplane_measures import (HyperplaneMeasure, OffsetDirection, PositionDirection,
                                  SamplerMeasure)

PI = math.pi


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


def _as_pair_points(x, y):
    """Two finite points of equal dimension: query endpoints or box corners."""
    x = as_point(x)
    y = as_point(y)
    if x.shape != y.shape:
        raise ValueError("query needs two points of equal dimension")
    return x, y


def _point_support(mu):
    """Atoms and realized cell nodes of ``mu`` as one weighted point cloud."""
    if not mu.node_points.size:
        return mu.atom_points, mu.atom_weights
    return (np.concatenate([mu.atom_points, mu.node_points]),
            np.concatenate([mu.atom_weights, mu.node_weights]))


def _check_atoms_off_segment(mu, x, y):
    """Reject atoms on the closed query segment (the integrals are ill-defined there)."""
    if not mu.atom_points.size:
        return
    d = y - x
    t = np.clip((mu.atom_points - x) @ d / float(d @ d), 0.0, 1.0)
    nearest = x + t[:, None] * d
    if np.any(np.linalg.norm(mu.atom_points - nearest, axis=1) == 0.0):
        raise DegenerateConfigurationError("mu-atom lies on the closed query segment")


def _degenerate_pair(nu, x, taus):
    """The x == y result: zero, unless an atom at x carries hyperplane mass."""
    if isinstance(nu, PositionDirection) and nu.mu.atoms_near(x).size:
        raise DegenerateConfigurationError(
            "point query coincides with a mu-atom: every direction's hyperplane passes through it")
    t = None if taus is None else np.zeros(len(taus))
    return PairIntegrals(0.0, 0.0, np.zeros(x.size), t)


# ---------------------------------------------------------------------------
# closed-form backend
# ---------------------------------------------------------------------------

class ClosedForm:
    """Formula-based evaluation; see module docstring for the supported pairings."""

    name = "closed_form"

    def supports(self, nu: HyperplaneMeasure) -> bool:
        if isinstance(nu, OffsetDirection):
            if nu.constant_offset_density() is None:
                return False
            return nu.dim == 2 or isinstance(nu.omega, (UniformDirections, SymmetricCap))
        if isinstance(nu, PositionDirection):
            return isinstance(nu.omega, UniformDirections) and not nu.mu.segments
        return False

    # -- pair queries -------------------------------------------------------

    def pair(self, nu, x, y, taus=None) -> PairIntegrals:
        x, y = _as_pair_points(x, y)
        if np.all(x == y):
            return _degenerate_pair(nu, x, taus)
        if isinstance(nu, OffsetDirection):
            return self._offset_pair(nu, x, y, taus)
        if isinstance(nu, PositionDirection):
            return self._position_pair(nu, x, y, taus)
        raise UnsupportedBackendError("closed form supports offset- and position-direction measures")

    def _offset_pair(self, nu, x, y, taus):
        rho, lo, hi = self._covered_density(nu, (x, y))
        delta = x - y
        r = float(np.linalg.norm(delta))
        n = nu.dim
        if isinstance(nu.omega, UniformDirections):
            mass = rho * r * abs_moment(n)
            trans = rho * r / n
            emb = rho * delta / n
            angle = None
            if taus is not None:
                angle = rho * r * np.array([partial_abs_moment(n, math.sin(t)) for t in taus])
            return PairIntegrals(mass, trans, emb, angle, backend=self.name)
        if n == 2:
            return self._offset_pair_2d(nu.omega.arc_pieces(), rho, x, y, taus)
        if isinstance(nu.omega, SymmetricCap):
            return self._offset_pair_cap(nu.omega, rho, x, y, taus)
        raise UnsupportedBackendError("unsupported direction measure for closed-form offsets")

    @staticmethod
    def _covered_density(nu, points):
        const = nu.constant_offset_density()
        if const is None:
            raise UnsupportedBackendError("closed form needs a single constant offset density")
        rho, lo, hi = const
        reach = max(float(np.linalg.norm(p)) for p in points)
        if reach > min(hi, -lo):
            raise UnsupportedBackendError(
                f"offset density span [{lo:g}, {hi:g}] does not cover queries of norm {reach:g}")
        return rho, lo, hi

    def _offset_pair_2d(self, pieces, rho, x, y, taus):
        delta = x - y
        r = float(np.linalg.norm(delta))
        p_d = (math.atan2(delta[1], delta[0]) + 0.5 * PI) % PI
        vt = np.array([math.cos(p_d + 0.5 * PI), math.sin(p_d + 0.5 * PI)])
        s0 = 1.0 if float(vt @ delta) > 0.0 else -1.0
        xi = arcs._wrap_pieces_to_xi(np.asarray(pieces, dtype=float), p_d)
        a, b, dens = xi[:, 0], xi[:, 1], xi[:, 2]

        mass = rho * r * float(np.sum(dens * (np.cos(a) - np.cos(b))))
        trans = rho * r * float(np.sum(dens * (0.5 * (b - a) - 0.25 * (np.sin(2 * b) - np.sin(2 * a)))))

        def emb_anti(xi_v):
            # antiderivative of v(p_d + xi) * sin(xi)
            c0 = -0.25 * np.cos(p_d + 2 * xi_v) - 0.5 * xi_v * math.sin(p_d)
            c1 = 0.5 * xi_v * math.cos(p_d) - 0.25 * np.sin(p_d + 2 * xi_v)
            return c0, c1

        a0, a1 = emb_anti(a)
        b0, b1 = emb_anti(b)
        emb = s0 * rho * r * np.array([float(np.sum(dens * (b0 - a0))), float(np.sum(dens * (b1 - a1)))])

        angle = None
        if taus is not None:
            t = np.asarray(taus, dtype=float)
            blo = np.maximum(a[:, None], t[None, :])
            bhi = np.minimum(b[:, None], PI - t[None, :])
            good = bhi > blo
            seg = np.where(good, np.cos(blo) - np.cos(np.maximum(bhi, blo)), 0.0)
            angle = rho * r * np.einsum("j,jt->t", dens, seg)
        return PairIntegrals(mass, trans, emb, angle, backend=self.name)

    def _offset_pair_cap(self, cap, rho, x, y, taus):
        if taus is not None:
            raise UnsupportedBackendError("angle profiles for caps with n >= 3 need the MC backend")
        delta = x - y
        r = float(np.linalg.norm(delta))
        u = delta / r
        n = cap.dim
        alpha_c, beta_c = _cap_second_moments(n, cap.half_angle)
        along = float(u @ cap.axis)
        trans = rho * r * (alpha_c * along**2 + beta_c * (1.0 - along**2))
        emb = rho * (alpha_c * float(delta @ cap.axis) * cap.axis
                     + beta_c * (delta - float(delta @ cap.axis) * cap.axis))
        mass = rho * r * _cap_abs_moment(n, cap.half_angle, math.acos(np.clip(abs(along), 0.0, 1.0)))
        return PairIntegrals(mass, trans, emb, None, backend=self.name)

    def _position_pair(self, nu, x, y, taus):
        if nu.mu.segments:
            raise UnsupportedBackendError("line densities need the exact-2d or MC backend")
        _check_atoms_off_segment(nu.mu, x, y)
        n = nu.dim
        pts, w = _point_support(nu.mu)
        dx = x - pts
        dy = y - pts
        rx = np.linalg.norm(dx, axis=1)
        ry = np.linalg.norm(dy, axis=1)
        if np.any(rx == 0.0) or np.any(ry == 0.0):
            raise DegenerateConfigurationError("support point coincides with a query endpoint")
        ux = dx / rx[:, None]
        uy = dy / ry[:, None]
        # psi = 2 atan2(|u - w|, |u + w|) is stable at both angle extremes,
        # unlike arccos of the inner product
        diff = np.linalg.norm(ux - uy, axis=1)
        summ = np.linalg.norm(ux + uy, axis=1)
        psi = 2.0 * np.arctan2(diff, summ)
        delta = x - y
        r = float(np.linalg.norm(delta))
        udelta = delta / r
        c_n = unit_kernel_constant(n)

        mass = float(w @ psi) / PI
        kern = ux - uy
        trans = c_n * float(w @ (kern @ udelta))
        emb = c_n * np.einsum("i,ij->j", w, kern)

        angle = None
        if taus is not None:
            dot_u = np.einsum("ij,ij->i", ux, uy)
            sin_psi = 0.5 * diff * summ
            angle = self._position_angle_profile(n, w, rx, ry, dot_u, sin_psi, psi, taus)
        return PairIntegrals(mass, trans, emb, angle, backend=self.name)

    @staticmethod
    def _position_angle_profile(n, w, rx, ry, dot_u, sin_psi, psi, taus):
        # reduce to the plane spanned by (dx, dy): the hit arc sits at
        # xi in [xi_lo, xi_lo + psi] past the normal angle of delta
        dxr = np.stack([rx, np.zeros_like(rx)], axis=1)
        dyr = np.stack([ry * dot_u, ry * sin_psi], axis=1)
        dr = dxr - dyr
        theta_d = np.arctan2(dr[:, 1], dr[:, 0])
        p_d = (theta_d + 0.5 * PI) % PI
        xi_lo = (0.5 * PI - p_d) % PI
        between = psi >= PI
        xi_lo = np.where(between, 0.0, xi_lo)
        xi_hi = np.minimum(xi_lo + psi, PI)
        t = np.asarray(taus, dtype=float)
        lo = np.maximum(xi_lo[:, None], t[None, :])
        hi = np.minimum(xi_hi[:, None], PI - t[None, :])
        if n == 2:
            return np.einsum("i,it->t", w, np.clip(hi - lo, 0.0, None)) / PI
        # P(in-plane radius >= sin tau / sin xi) integrated over the arc
        gx, gw = arcs._gl(24)
        mid = 0.5 * (hi + lo)
        half = np.clip(0.5 * (hi - lo), 0.0, None)
        nodes = mid[:, :, None] + half[:, :, None] * gx[None, None, :]
        ratio = np.sin(t)[None, :, None] / np.maximum(np.sin(nodes), 1e-300)
        surv = np.clip(1.0 - ratio * ratio, 0.0, None) ** ((n - 2) / 2.0)
        inner = np.einsum("itg,g->it", surv, gw) * half
        return np.einsum("i,it->t", w, inner) / PI

    # -- region queries -----------------------------------------------------

    def box_mass(self, nu, lo, hi) -> float:
        lo, hi = _as_pair_points(lo, hi)
        sides = hi - lo
        if isinstance(nu, OffsetDirection):
            corners = np.stack([lo, hi])
            rho, _, _ = self._covered_density(nu, (lo, hi, np.abs(corners).max(axis=0)))
            n = nu.dim
            if isinstance(nu.omega, UniformDirections):
                return rho * float(np.sum(sides)) * abs_moment(n)
            if n == 2:
                return rho * _box_width_integral_2d(nu.omega.arc_pieces(), sides)
            if isinstance(nu.omega, SymmetricCap):
                total = 0.0
                for i in range(n):
                    gamma = math.acos(np.clip(abs(float(nu.omega.axis[i])), 0.0, 1.0))
                    total += sides[i] * _cap_abs_moment(n, nu.omega.half_angle, gamma)
                return rho * total
            raise UnsupportedBackendError("unsupported direction measure for closed-form offsets")
        if isinstance(nu, PositionDirection):
            if nu.dim == 2:
                return Exact2D().box_mass(nu, lo, hi)
            if nu.dim == 3 and isinstance(nu.omega, UniformDirections):
                return _position_box_mass_3d(nu, lo, hi)
            raise UnsupportedBackendError("position-direction box mass needs n = 2 or 3")
        raise UnsupportedBackendError("sampler measures have no closed forms")

    def cube_mass(self, nu, q: Cube) -> float:
        return self.box_mass(nu, q.center - 0.5 * q.edge, q.center + 0.5 * q.edge)


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


def _cap_second_moments(n: int, theta0: float) -> tuple[float, float]:
    """(axis, transverse) second moments of the one-sided cap surface measure."""
    area_eq = 2.0 * PI ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)
    s2 = math.sin(theta0) ** 2

    def sin_int(m: int) -> float:
        b = special.betainc((m + 1) / 2.0, 0.5, s2) * special.beta((m + 1) / 2.0, 0.5)
        return 0.5 * float(b)

    total_axis = area_eq * (sin_int(n - 2) - sin_int(n))
    transverse = area_eq * sin_int(n) / (n - 1)
    return total_axis, transverse


def _cap_abs_moment(n: int, theta0: float, gamma: float) -> float:
    """Integral of |<u, v>| over the one-sided cap, u at angle gamma from the axis."""
    area_eq = 2.0 * PI ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)
    m = n - 2
    theta, wq = arcs._gl_spans(np.linspace(0.0, theta0, 65), 8)
    a = math.cos(gamma) * np.cos(theta)
    b = math.sin(gamma) * np.sin(theta)
    inner = _mean_abs_affine_sphere(m, a, b)
    return area_eq * float(np.sum(wq * np.sin(theta) ** max(m, 0) * inner))


def _mean_abs_affine_sphere(m: int, a, b):
    """E|a + b*s| with s the first coordinate of a uniform point on S^m."""
    a = np.asarray(a, dtype=float)
    b = np.abs(np.asarray(b, dtype=float))
    if m == 0:
        return 0.5 * (np.abs(a + b) + np.abs(a - b))
    if m == 1:
        out = np.abs(a).astype(float)
        inside = b > np.abs(a)
        aa, bb = a[inside], b[inside]
        out[inside] = (2.0 / PI) * (aa * np.arcsin(np.clip(aa / bb, -1.0, 1.0))
                                    + np.sqrt(np.clip(bb * bb - aa * aa, 0.0, None)))
        return out
    cm = math.exp(special.gammaln((m + 1) / 2.0) - special.gammaln(m / 2.0)) / math.sqrt(PI)
    s_star = np.clip(-a / np.where(b == 0.0, np.inf, b), -1.0, 1.0)
    cdf = 0.5 + 0.5 * np.sign(s_star) * special.betainc(0.5, m / 2.0, s_star**2)
    partial = cm * (1.0 - s_star**2) ** (m / 2.0) / m
    return a * (1.0 - 2.0 * cdf) + 2.0 * b * partial


# ---------------------------------------------------------------------------
# exact planar backend
# ---------------------------------------------------------------------------

class Exact2D:
    """Exact arc integration for position-direction measures in the plane."""

    name = "exact2d"

    def supports(self, nu: HyperplaneMeasure) -> bool:
        return isinstance(nu, PositionDirection) and nu.dim == 2

    def pair(self, nu, x, y, taus=None) -> PairIntegrals:
        if not self.supports(nu):
            raise UnsupportedBackendError("exact-2d serves position-direction measures with n = 2")
        x, y = _as_pair_points(x, y)
        if np.all(x == y):
            return _degenerate_pair(nu, x, taus)
        pieces = nu.omega.arc_pieces()
        mass, trans = 0.0, 0.0
        emb = np.zeros(2)
        angle = np.zeros(len(taus)) if taus is not None else None

        def accumulate(points, weights, on_segment):
            nonlocal mass, trans, emb, angle
            if len(points) == 0:
                return
            m, t, e, a = arcs.pair_cloud_integrals(points, weights, pieces, x, y,
                                                   taus=taus, on_segment=on_segment)
            mass += m
            trans += t
            emb += e
            if angle is not None:
                angle += a

        accumulate(nu.mu.atom_points, nu.mu.atom_weights, "error")
        accumulate(nu.mu.node_points, nu.mu.node_weights, "full")
        accumulate(*arcs.segment_pair_nodes(nu.mu.segments, pieces, x, y), "full")
        return PairIntegrals(mass, trans, emb, angle, backend=self.name)

    def box_mass(self, nu, lo, hi) -> float:
        if not self.supports(nu):
            raise UnsupportedBackendError("exact-2d serves position-direction measures with n = 2")
        lo, hi = _as_pair_points(lo, hi)
        pieces = nu.omega.arc_pieces()
        total = 0.0
        if nu.mu.atom_points.size:
            total += arcs.box_cloud_mass(nu.mu.atom_points, nu.mu.atom_weights, pieces, lo, hi)
        if nu.mu.node_points.size:
            total += arcs.box_cloud_mass(nu.mu.node_points, nu.mu.node_weights, pieces, lo, hi)
        for pts, wts in arcs.segment_box_nodes(nu.mu.segments, pieces, lo, hi):
            total += arcs.box_cloud_mass(pts, wts, pieces, lo, hi)
        return float(total)

    def cube_mass(self, nu, q: Cube) -> float:
        return self.box_mass(nu, q.center - 0.5 * q.edge, q.center + 0.5 * q.edge)


def _position_box_mass_3d(nu, lo, hi) -> float:
    """Deterministic sphere quadrature of the box-hitting direction fraction.

    The integrand is an indicator, so this is a fixed-resolution tessellation
    sum rather than a spectrally exact rule; cube-audit margins are orders of
    magnitude wider than its resolution error.
    """
    if nu.mu.segments:
        raise UnsupportedBackendError("line densities are planar only")
    pts, w = _point_support(nu.mu)
    res = 96
    ct, wt = arcs._gl(res)                                 # cos(theta) on [-1, 1]
    phi = (np.arange(2 * res) + 0.5) * PI / res
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
    dirs = np.stack(np.broadcast_arrays(st[:, None] * np.cos(phi)[None, :],
                                        st[:, None] * np.sin(phi)[None, :],
                                        ct[:, None] * np.ones_like(phi)[None, :]),
                    axis=-1).reshape(-1, 3)
    dw = np.repeat(wt, 2 * res) * (PI / res) / (4.0 * PI)  # normalized sphere weights
    center = 0.5 * (lo + hi)
    halfs = 0.5 * (hi - lo)
    reach = np.abs(dirs) @ halfs
    gap = pts @ dirs.T - (dirs @ center)[None, :]
    hit = np.abs(gap) <= reach[None, :]
    return float(w @ (hit @ dw))


# ---------------------------------------------------------------------------
# Monte Carlo backend
# ---------------------------------------------------------------------------

class MonteCarlo:
    """Seeded Monte Carlo estimates with one batch shared across queries.

    For position-direction measures it samples (position, normal) pairs; for
    offset-direction measures it samples normals and integrates the offset
    coordinate analytically; sampler measures supply their own weighted
    hyperplanes.  Identical (budget, seed) reproduce identical batches, and
    every query against one measure object reuses the same batch, so the
    per-sample integrand identities survive in the estimates.
    """

    name = "monte_carlo"

    def __init__(self, budget: int = 100_000, seed: int = 0):
        if budget <= 0:
            raise ValueError("budget must be positive")
        self.budget = int(budget)
        self.seed = int(seed)
        self._batches: dict[int, tuple] = {}

    def supports(self, nu: HyperplaneMeasure) -> bool:
        return isinstance(nu, (PositionDirection, OffsetDirection, SamplerMeasure))

    # -- batch construction -------------------------------------------------

    def _batch(self, nu):
        """The measure's cached batch, one of two kinds.

        ``("hits", normals, offsets, weight)``: sampled hyperplanes, each
        counted with its weight when it separates the query (positions are
        reduced to their offsets <a, v> at build time).  ``("offset",
        normals, base)``: sampled normals, with the offset coordinate
        integrated analytically.
        """
        key = id(nu)
        if key in self._batches:
            return self._batches[key][1]
        rng = np.random.default_rng(self.seed)
        m = self.budget
        if isinstance(nu, PositionDirection):
            pts = _sample_positions(nu.mu, rng, m)
            normals = nu.omega.sample_normals(rng, m)
            weight = nu.mu.total_mass() * nu.omega.total_mass() / m
            batch = ("hits", normals, np.einsum("ij,ij->i", pts, normals), weight)
        elif isinstance(nu, OffsetDirection):
            normals = nu.omega.sample_normals(rng, m)
            base = nu.omega.total_mass() / m
            batch = ("offset", normals, base)
        elif isinstance(nu, SamplerMeasure):
            normals, offsets, weights = nu.sample_fn(rng, m)
            if len(np.atleast_1d(offsets)) == 0:
                raise DegenerateConfigurationError("sampler produced zero effective samples")
            batch = ("hits", np.asarray(normals, dtype=float),
                     np.asarray(offsets, dtype=float), np.asarray(weights, dtype=float) / m)
        else:
            raise UnsupportedBackendError("monte carlo needs a recognizable measure variant")
        self._batches[key] = (nu, batch)
        return batch

    # -- queries -------------------------------------------------------------

    def pair(self, nu, x, y, taus=None) -> PairIntegrals:
        x, y = _as_pair_points(x, y)
        if np.all(x == y):
            return _degenerate_pair(nu, x, taus)
        if isinstance(nu, PositionDirection):
            _check_atoms_off_segment(nu.mu, x, y)
        delta = x - y
        r = float(np.linalg.norm(delta))
        udelta = delta / r
        batch = self._batch(nu)
        normals = batch[1]
        if batch[0] == "hits":
            _, _, offsets, weight = batch
            gx = normals @ x - offsets
            gy = normals @ y - offsets
            mass_i = weight * (gx * gy <= 0.0)
        else:
            px = normals @ x
            py = normals @ y
            mass_i = batch[2] * nu.offsets.mass_many(np.minimum(px, py), np.maximum(px, py))
        vd = normals @ udelta
        trans_i = mass_i * np.abs(vd)
        emb_i = (mass_i * np.sign(vd))[:, None] * normals
        m = len(mass_i)
        scale = float(m)

        def stats(v):
            mean = float(np.sum(v))
            se = math.sqrt(max(float(np.sum(v * v)) * m - mean * mean, 0.0) / max(m - 1, 1))
            return mean, se

        mass, mass_se = stats(mass_i)
        trans, trans_se = stats(trans_i)
        emb = np.sum(emb_i, axis=0)
        emb_sq = np.einsum("ij,ij->j", emb_i, emb_i)
        emb_se = np.sqrt(np.clip(emb_sq * scale - emb * emb, 0.0, None) / max(m - 1, 1))
        angle = angle_se = None
        if taus is not None:
            sel = np.abs(vd)[:, None] >= np.sin(np.asarray(taus))[None, :]
            vals = mass_i[:, None] * sel
            angle = np.sum(vals, axis=0)
            asq = np.einsum("it,it->t", vals, vals)
            angle_se = np.sqrt(np.clip(asq * scale - angle * angle, 0.0, None) / max(m - 1, 1))
        return PairIntegrals(mass, trans, emb, angle, mass_se, trans_se, emb_se, angle_se,
                             backend=self.name)

    def seg_mass_many(self, nu, xs, ys):
        """Segment masses with standard errors for many pairs over one batch.

        Allocation-light bulk path for the common case (offset-direction
        measures with one constant density piece); other measures fall back
        to per-pair evaluation on the same shared batch.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        const = nu.constant_offset_density() if isinstance(nu, OffsetDirection) else None
        if const is None:
            out = np.array([[r.mass, r.mass_se] for r in
                            (self.pair(nu, x, y) for x, y in zip(xs, ys))])
            return out[:, 0], out[:, 1]
        rho, olo, ohi = const
        reach = max(float(np.max(np.linalg.norm(xs, axis=1))),
                    float(np.max(np.linalg.norm(ys, axis=1))))
        if reach > min(ohi, -olo):
            raise UnsupportedBackendError("offset density span does not cover the queries")
        _, normals, base = self._batch(nu)
        m = len(normals)
        scale = base * m * rho     # omega total mass times the offset density
        buf = np.empty(m)
        vals = np.empty(len(xs))
        ses = np.empty(len(xs))
        for k, delta in enumerate(xs - ys):
            np.abs(normals @ delta, out=buf)
            s1 = float(np.einsum("i->", buf))
            s2 = float(buf @ buf)
            mean = s1 / m
            var = max(s2 / m - mean * mean, 0.0)
            vals[k] = scale * mean
            ses[k] = scale * math.sqrt(var / max(m - 1, 1))
        return vals, ses

    def box_mass(self, nu, lo, hi) -> tuple[float, float]:
        lo, hi = _as_pair_points(lo, hi)
        center = 0.5 * (lo + hi)
        halfs = 0.5 * (hi - lo)
        batch = self._batch(nu)
        normals = batch[1]
        reach = np.abs(normals) @ halfs
        mid = normals @ center
        if batch[0] == "hits":
            _, _, offsets, weight = batch
            vals = weight * ((offsets >= mid - reach) & (offsets <= mid + reach))
        else:
            vals = batch[2] * nu.offsets.mass_many(mid - reach, mid + reach)
        m = len(vals)
        mean = float(np.sum(vals))
        se = math.sqrt(max(float(np.sum(vals * vals)) * m - mean * mean, 0.0) / max(m - 1, 1))
        return mean, se

    def cube_mass(self, nu, q: Cube) -> tuple[float, float]:
        return self.box_mass(nu, q.center - 0.5 * q.edge, q.center + 0.5 * q.edge)


def _sample_positions(mu, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample positions from atoms, realized cell nodes, and line densities."""
    blocks = []
    if mu.atom_points.size:
        blocks.append(("atoms", mu.atom_weights))
    if mu.node_points.size:
        blocks.append(("nodes", mu.node_weights))
    seg_masses = np.array([dens * np.linalg.norm(p1 - p0) for p0, p1, dens in mu.segments])
    if seg_masses.size:
        blocks.append(("segments", seg_masses))
    weights = np.concatenate([w for _, w in blocks])
    cum = np.cumsum(weights)
    u = rng.random(size) * cum[-1]
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    frac = (u - (cum[idx] - weights[idx])) / weights[idx]

    out = np.empty((size, mu.dim))
    offset = 0
    for kind, w in blocks:
        sel = (idx >= offset) & (idx < offset + len(w))
        local = idx[sel] - offset
        if kind == "atoms":
            out[sel] = mu.atom_points[local]
        elif kind == "nodes":
            out[sel] = mu.node_points[local]
        else:
            p0s = np.stack([mu.segments[i][0] for i in range(len(mu.segments))])
            p1s = np.stack([mu.segments[i][1] for i in range(len(mu.segments))])
            out[sel] = p0s[local] + frac[sel, None] * (p1s[local] - p0s[local])
        offset += len(w)
    return out


# ---------------------------------------------------------------------------
# dispatch and the embedding map
# ---------------------------------------------------------------------------

_CLOSED = ClosedForm()
_EXACT2D = Exact2D()


def default_backend(nu: HyperplaneMeasure, *, budget: int = 100_000, seed: int = 0):
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


def transversal_integral(nu, x, y, *, backend=None) -> float:
    """Integral of sin(alpha(x - y, H)) over the hyperplanes hitting [x, y]."""
    return pair_integrals(nu, x, y, backend=backend).transversal


def cube_mass(nu, q: Cube, *, backend=None) -> float:
    backend = backend or default_backend(nu)
    out = backend.cube_mass(nu, q)
    return out[0] if isinstance(out, tuple) else out


def box_mass(nu, lo, hi, *, backend=None) -> float:
    backend = backend or default_backend(nu)
    out = backend.box_mass(nu, lo, hi)
    return out[0] if isinstance(out, tuple) else out


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
        o = as_point(basepoint)
        backend = backend or default_backend(measure)
        if not backend.supports(measure):
            raise UnsupportedBackendError(
                f"backend {backend.name} does not support this measure variant")
        if isinstance(measure, PositionDirection) and measure.mu.atoms_near(o).size:
            raise DegenerateConfigurationError("basepoint coincides with a mu-atom")
        o.setflags(write=False)
        object.__setattr__(self, "measure", measure)
        object.__setattr__(self, "basepoint", o)
        object.__setattr__(self, "backend", backend)

    @property
    def dim(self) -> int:
        return self.basepoint.size

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.all(x == self.basepoint):
            return np.zeros(self.dim)
        return self.backend.pair(self.measure, x, self.basepoint).embed

    def eval_many(self, points) -> np.ndarray:
        return np.stack([self.eval(p) for p in np.asarray(points, dtype=float)])

    def pair(self, x, y, taus=None) -> PairIntegrals:
        return self.backend.pair(self.measure, x, y, taus=taus)


# ---------------------------------------------------------------------------
# generic Monte Carlo estimation and kernel-constant calibration
# ---------------------------------------------------------------------------

def mc_estimate(nu, query, budget: int, seed: int):
    """Unbiased seeded estimate of one integral query: (value, standard error).

    ``query`` is a tuple: ("seg_mass", x, y), ("transversal", x, y),
    ("embed", o, x), ("angle_mass", x, y, tau), ("cube_mass", cube) or
    ("box_mass", lo, hi).
    """
    mc = MonteCarlo(budget=budget, seed=seed)
    kind = query[0]
    if kind in ("seg_mass", "transversal", "embed"):
        a, b = (query[1], query[2]) if kind != "embed" else (query[2], query[1])
        res = mc.pair(nu, a, b)
        if kind == "seg_mass":
            return res.mass, res.mass_se
        if kind == "transversal":
            return res.transversal, res.transversal_se
        return res.embed, res.embed_se
    if kind == "angle_mass":
        res = mc.pair(nu, query[1], query[2], taus=[query[3]])
        return float(res.angle[0]), float(res.angle_se[0])
    if kind == "cube_mass":
        return mc.cube_mass(nu, query[1])
    if kind == "box_mass":
        return mc.box_mass(nu, query[1], query[2])
    raise ValueError(f"unknown query kind {kind!r}")


class CalibrationError(RuntimeError):
    """The distance-independence check of the kernel constant failed."""


@dataclass(frozen=True)
class EmbeddingConstant:
    """Coefficient of the unit-difference embedding kernel for uniform directions."""

    dim: int
    value: float
    half_width: float
    provenance: str            # "oracle" or "analytic"
    budget: int = 0
    seed: int = 0
    per_distance: tuple = ()
    warning: bool = False

    @classmethod
    def analytic(cls, dim: int) -> "EmbeddingConstant":
        return cls(dim=dim, value=unit_kernel_constant(dim), half_width=0.0,
                   provenance="analytic")


def calibrate_embedding_constant(n: int, budget: int, seed: int, *,
                                 distances=(2.0, 5.0, 10.0), ball_radius: float = 0.05,
                                 chunk: int = 1 << 20) -> EmbeddingConstant:
    """Estimate the unit-difference kernel constant from the defining integral.

    Samples the pushforward of (uniform ball) x (uniform directions) with the
    basepoint at the ball center and probes far points x with |x| much larger
    than the radius, where the embedding is constant * x/|x|.  The constant
    must come out independent of |x|; disagreement beyond 4 combined sigma is
    an error.  The default ball radius keeps the finite-radius correction,
    of order radius^2 / (8 |x|^2), far below the statistical band.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    rng = np.random.default_rng(seed)
    per = max(int(budget) // len(distances), 1)
    results = []
    for dist in distances:
        xhat = np.zeros(n)
        xhat[0] = 1.0
        total = 0.0
        total_sq = 0.0
        count = 0
        remaining = per
        while remaining > 0:
            m = min(chunk, remaining)
            remaining -= m
            g = rng.standard_normal((m, n))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            radii = ball_radius * rng.random(m) ** (1.0 / n)
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
            count += m
        mean = total / count
        var = max(total_sq / count - mean * mean, 0.0)
        se = math.sqrt(var / count)
        results.append((float(dist), mean, se))
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            gap = abs(results[i][1] - results[j][1])
            lim = 4.0 * math.hypot(results[i][2], results[j][2])
            if gap > lim:
                raise CalibrationError(
                    f"constant at |x|={results[i][0]:g} and |x|={results[j][0]:g} "
                    f"differ by {gap:.3e} > 4 sigma = {lim:.3e}")
    wts = np.array([1.0 / max(se * se, 1e-300) for _, _, se in results])
    vals = np.array([v for _, v, _ in results])
    value = float(np.sum(wts * vals) / np.sum(wts))
    se_comb = float(1.0 / math.sqrt(np.sum(wts)))
    half = 4.0 * se_comb
    return EmbeddingConstant(dim=n, value=value, half_width=half, provenance="oracle",
                             budget=int(budget), seed=int(seed),
                             per_distance=tuple(results),
                             warning=half > 0.05 * abs(value) if value else True)


def embed_unit_kernel(nu: PositionDirection, o, x, constant: EmbeddingConstant | None = None):
    """Embedding via the explicit unit-difference kernel with a supplied constant.

    Alternative route to the same value as the closed-form backend; used to
    certify calibrated constants against the integral evaluators.
    """
    if not isinstance(nu, PositionDirection) or not isinstance(nu.omega, UniformDirections):
        raise UnsupportedBackendError("unit kernel applies to position measures with uniform directions")
    if nu.mu.segments:
        raise UnsupportedBackendError("unit kernel needs atom/node measures")
    constant = constant or EmbeddingConstant.analytic(nu.dim)
    o = np.asarray(o, dtype=float)
    x = np.asarray(x, dtype=float)
    pts, w = _point_support(nu.mu)
    dx = x - pts
    do = o - pts
    rx = np.linalg.norm(dx, axis=1)
    ro = np.linalg.norm(do, axis=1)
    if np.any(rx == 0.0) or np.any(ro == 0.0):
        raise DegenerateConfigurationError("atom coincides with the basepoint or query point")
    kern = dx / rx[:, None] - do / ro[:, None]
    return constant.value * nu.omega.total_mass() * np.einsum("i,ij->j", w, kern)
