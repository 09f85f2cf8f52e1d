import math

import numpy as np
import pytest

from busemetric import (ArcDensity2D, BaseMeasure1D, BaseMeasureND, MonteCarlo,
                        OffsetDirection, PositionDirection, SamplerMeasure, SymmetricCap,
                        UniformDirections, validate)
from busemetric.directions import abs_moment


def test_position_direction_dimension_check():
    mu = BaseMeasureND(2, atoms=[((0.0, 0.0), 1.0)])
    with pytest.raises(ValueError):
        PositionDirection(mu, UniformDirections(3))


def test_sampler_requires_bounding_region():
    with pytest.raises(ValueError):
        SamplerMeasure(2, lambda rng, m: None)


def test_validate_flags_atom_under_probe_point():
    # every direction yields a hyperplane through the atom, so the atom's own
    # location carries positive hyperplane mass: bullet-one violation
    mu = BaseMeasureND(2, atoms=[((0.2, -0.1), 1.0), ((5.0, 5.0), 1.0)])
    nu = PositionDirection(mu, UniformDirections(2))
    report = validate(nu, (-1.0, -1.0), (1.0, 1.0), point_count=8, seed=1)
    assert not report.ok
    assert report.ok is (not report.violations())
    flagged = [pt for pt, mass, f in report.point_masses if f]
    assert (0.2, -0.1) in flagged
    assert any("carries hyperplane mass" in v for v in report.violations())


def test_validate_passes_off_atom_points():
    mu = BaseMeasureND(2, atoms=[((5.0, 5.0), 1.0), ((-4.0, 3.0), 1.0), ((2.0, -6.0), 1.0)])
    nu = PositionDirection(mu, UniformDirections(2))
    report = validate(nu, (-1.0, -1.0), (1.0, 1.0), point_count=16, segment_count=24, seed=2)
    assert report.ok
    assert report.ok is (not report.violations())
    assert report.min_segment_mass > 0.0
    assert math.isfinite(report.region_mass)
    assert "no violation found" in report.notes


def test_validate_offset_direction_region_mass():
    nu = OffsetDirection(UniformDirections(2), BaseMeasure1D.lebesgue(-10, 10, 1.0))
    report = validate(nu, (0.0, 0.0), (1.0, 1.0), point_count=8, segment_count=16, seed=3)
    assert report.ok
    assert report.ok is (not report.violations())
    # oracle: slab-width integral of the unit box is (side0 + side1) * E|v1|
    assert report.region_mass == pytest.approx(2.0 * abs_moment(2), rel=1e-12)
    assert all(mass == 0.0 for _, mass, _ in report.point_masses)


def test_no_spurious_hyperplane_atoms():
    # with uniform directions the pushforward never concentrates on a single
    # hyperplane: sampled hyperplanes through the atom all differ, and none
    # reproduces a prescribed normal
    mu = BaseMeasureND(2, atoms=[((0.3, -0.7), 1.0)])
    nu = PositionDirection(mu, UniformDirections(2))
    rng = np.random.default_rng(8)
    normals = nu.omega.sample_normals(rng, 50_000)
    target = np.array([math.cos(0.4), math.sin(0.4)])
    assert not np.any(np.all(normals == target, axis=1))
    assert len(np.unique(normals, axis=0)) == len(normals)


def test_validate_sampler_measure():
    span = 10.0

    def sample(rng, m):
        phi = rng.random(m) * math.pi
        normals = np.column_stack([np.cos(phi), np.sin(phi)])
        offsets = rng.uniform(-span, span, m)
        weights = np.full(m, 2.0 * span)  # importance weight for the offset proposal
        return normals, offsets, weights

    nu = SamplerMeasure(2, sample, bounding_lo=(-1.0, -1.0), bounding_hi=(1.0, 1.0))
    report = validate(nu, (-1.0, -1.0), (1.0, 1.0), point_count=6, segment_count=12, seed=4)
    assert report.ok
    assert report.ok is (not report.violations())
    mc = MonteCarlo(budget=200_000, seed=5)
    val, se = mc.box_mass(nu, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    # same slab-width oracle as the product-form measure above
    assert abs(val - 2.0 * abs_moment(2)) <= 4.0 * se


def _vertical_lines(rng, m):
    """Lines x = c for c uniform in [-1, 1], each of weight 2."""
    return np.tile([1.0, 0.0], (m, 1)), rng.uniform(-1.0, 1.0, m), np.full(m, 2.0)


def _spoiled(spoil):
    def sample(rng, m):
        return spoil(*_vertical_lines(rng, m))
    return SamplerMeasure(2, sample, bounding_lo=(-1.0, -1.0), bounding_hi=(1.0, 1.0))


# sampler outputs that once gave a silent answer or numpy's own error
# (NaN normals: mass 0.0; weights of -1: mass -0.5; normals of length 3: no error)
SPOILED_SAMPLES = {
    "nan_normals": ("normals", lambda v, p, w: (np.full_like(v, math.nan), p, w)),
    "long_normals": ("normals", lambda v, p, w: (3.0 * v, p, w)),
    "narrow_normals": ("normals", lambda v, p, w: (v[:, :1], p, w)),
    "inf_offsets": ("offsets", lambda v, p, w: (v, np.full_like(p, math.inf), w)),
    "column_offsets": ("offsets", lambda v, p, w: (v, p[:, None], w)),
    "no_samples": ("offsets", lambda v, p, w: (v[:0], p[:0], w[:0])),
    "negative_weights": ("weights", lambda v, p, w: (v, p, -w / 2.0)),
    "short_weights": ("weights", lambda v, p, w: (v, p, w[1:])),
    "nan_weights": ("weights", lambda v, p, w: (v, p, np.full_like(w, math.nan))),
}


@pytest.mark.parametrize("case", list(SPOILED_SAMPLES))
def test_monte_carlo_refuses_bad_sampler_output(case):
    field, spoil = SPOILED_SAMPLES[case]
    with pytest.raises(ValueError, match=f"sampler {field}"):
        MonteCarlo(1000, 0).pair(_spoiled(spoil), [-0.5, 0.0], [0.5, 0.0])


def test_validate_refuses_bad_sampler_output():
    # the point-mass probe draws its own samples, checked the same way
    with pytest.raises(ValueError, match="sampler normals"):
        validate(_spoiled(SPOILED_SAMPLES["nan_normals"][1]), (-1.0, -1.0), (1.0, 1.0),
                 point_count=2, segment_count=2)


def test_sampler_output_passes_through_unchanged():
    nu = SamplerMeasure(2, _vertical_lines, bounding_lo=(-1.0, -1.0), bounding_hi=(1.0, 1.0))
    got = nu.sample(np.random.default_rng(4), 50)
    want = _vertical_lines(np.random.default_rng(4), 50)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert MonteCarlo(1000, 0).pair(nu, [-0.5, 0.0], [0.5, 0.0]).mass == pytest.approx(1.0, rel=0.1)


def _sampler(dim=2, lo=(-1.0, -1.0), hi=(1.0, 1.0)):
    return SamplerMeasure(dim, _vertical_lines, bounding_lo=lo, bounding_hi=hi)


def _validate_counts(lo=(-1.0, -1.0), hi=(1.0, 1.0), **counts):
    nu = PositionDirection(BaseMeasureND(2, atoms=[((5.0, 5.0), 1.0), ((-4.0, 3.0), 1.0)]),
                           UniformDirections(2))
    return validate(nu, lo, hi, **counts)


# constructor and validate arguments that once built a measure or returned a report
# (segment_count=0: ok=True with no segment checked), each with the field its refusal names
BAD_CONSTRUCTIONS = {
    "cap_nan_axis_3d": ("axis", lambda: SymmetricCap([math.nan, 1.0, 0.0], 0.3)),
    "cap_inf_axis_3d": ("axis", lambda: SymmetricCap([math.inf, 1.0, 0.0], 0.3)),
    "cap_nan_axis_2d": ("axis", lambda: SymmetricCap([math.nan, 1.0], 0.3)),
    "arc_inf_density": ("densities", lambda: ArcDensity2D([(0.0, 1.0, math.inf)])),
    "arc_nan_density": ("densities", lambda: ArcDensity2D([(0.0, 1.0, math.nan)])),
    "arc_nan_bound": ("pieces", lambda: ArcDensity2D([(math.nan, 1.0, 1.0)])),
    "uniform_fractional_dim": ("dim", lambda: UniformDirections(2.5)),
    "sampler_dim_1": ("dim", lambda: _sampler(dim=1, lo=(-1.0,), hi=(1.0,))),
    "sampler_nan_corner": ("bounding_lo", lambda: _sampler(lo=(math.nan, -1.0))),
    "sampler_inf_corner": ("bounding_hi", lambda: _sampler(hi=(1.0, math.inf))),
    "sampler_short_corner": ("bounding_hi", lambda: _sampler(hi=(1.0,))),
    "sampler_3d_corner": ("bounding_lo", lambda: _sampler(lo=(-1.0, -1.0, -1.0))),
    "sampler_crossed_corners": ("bounding_lo", lambda: _sampler(lo=(2.0, -1.0))),
    "validate_no_segments": ("segment_count", lambda: _validate_counts(segment_count=0)),
    "validate_negative_points": ("point_count", lambda: _validate_counts(point_count=-1)),
    "validate_fractional_points": ("point_count", lambda: _validate_counts(point_count=2.5)),
    "validate_negative_seed": ("seed", lambda: _validate_counts(seed=-1)),
    # a region of another dimension than the measure's once failed in numpy broadcasting
    "validate_3d_region": ("dimension 2", lambda: _validate_counts(lo=(-1.0, -1.0, -1.0),
                                                                   hi=(1.0, 1.0, 1.0))),
}


@pytest.mark.parametrize("case", list(BAD_CONSTRUCTIONS))
def test_constructors_refuse_bad_fields_by_name(case):
    field, build = BAD_CONSTRUCTIONS[case]
    with pytest.raises(ValueError, match=field):
        build()
