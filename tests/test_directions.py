import math

import numpy as np
import pytest

from busemetric import ArcDensity2D, SymmetricCap, UniformDirections, directions
from busemetric.directions import (SEARCH_MAX_PIECES, abs_moment, normalize_pieces,
                                   partial_abs_moment, piece_index, tail_mass,
                                   unit_kernel_constant, wrap_interval)


def marginal_theta_density(n):
    """Density of theta with <u, v> = sin(theta), v uniform on S^(n-1).

    Equals c_n * cos(theta)^(n-2): the substitution removes the endpoint
    singularity of the t-marginal, so a plain trapezoid oracle converges.
    """
    c = math.gamma(n / 2.0) / (math.sqrt(math.pi) * math.gamma((n - 1) / 2.0))
    return lambda theta: c * np.cos(theta) ** (n - 2)


@pytest.mark.parametrize("n, expected", [(2, 2 / math.pi), (3, 0.5)])
def test_abs_moment_known_values(n, expected):
    assert abs_moment(n) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_moments_against_quadrature(n):
    # oracle: integrate the marginal with t = sin(theta), which removes the
    # endpoint singularity of the density for n = 2
    f = marginal_theta_density(n)

    def integrate(lo, hi, weight):
        theta = np.linspace(lo, hi, 200001)
        return float(np.trapezoid(weight(np.sin(theta)) * f(theta), theta))

    assert integrate(-math.pi / 2, math.pi / 2, np.abs) == pytest.approx(
        abs_moment(n), abs=1e-6)
    s = 0.37
    cut = math.asin(s)
    two_sided = integrate(cut, math.pi / 2, np.abs) + integrate(-math.pi / 2, -cut, np.abs)
    assert two_sided == pytest.approx(partial_abs_moment(n, s), abs=1e-6)
    ones = lambda t: np.ones_like(t)
    mass = integrate(cut, math.pi / 2, ones) + integrate(-math.pi / 2, -cut, ones)
    assert mass == pytest.approx(tail_mass(n, s), abs=1e-6)


def test_unit_kernel_constant():
    assert unit_kernel_constant(2) == pytest.approx(1 / math.pi, rel=1e-14)
    assert unit_kernel_constant(3) == pytest.approx(0.25, rel=1e-14)


def test_uniform_directions():
    u = UniformDirections(2)
    assert u.total_mass() == 1.0
    pieces = u.arc_pieces()
    assert pieces.shape == (1, 3)
    assert pieces[0] == pytest.approx([0.0, math.pi, 1 / math.pi])
    v = u.sample_normals(np.random.default_rng(0), 1000)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0)
    with pytest.raises(ValueError):
        UniformDirections(1)


def test_cap_pieces_and_mass():
    cap = SymmetricCap([1.0, 0.0], math.pi / 6)
    assert cap.total_mass() == pytest.approx(math.pi / 3, rel=1e-14)
    pieces = cap.arc_pieces()
    width = np.sum(pieces[:, 1] - pieces[:, 0])
    assert width == pytest.approx(math.pi / 3, rel=1e-12)
    # wrapping cap away from the axis direction
    cap2 = SymmetricCap([1.0, 1.0], 0.2)
    p2 = cap2.arc_pieces()
    assert np.sum(p2[:, 1] - p2[:, 0]) == pytest.approx(0.4, rel=1e-12)
    with pytest.raises(ValueError):
        SymmetricCap([1.0, 0.0], 0.0)


def test_cap_mass_3d_matches_area():
    cap = SymmetricCap([0.0, 0.0, 1.0], 0.7)
    assert cap.total_mass() == pytest.approx(2 * math.pi * (1 - math.cos(0.7)), rel=1e-12)
    v = cap.sample_normals(np.random.default_rng(1), 5000)
    assert np.all(np.abs(v @ np.array([0.0, 0.0, 1.0])) >= math.cos(0.7) - 1e-12)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0)


def test_arc_density_merge_and_sampling():
    with pytest.raises(ValueError):
        ArcDensity2D([(0.5, 0.2, 1.0)])
    om = ArcDensity2D([(0.0, 1.0, 1.0), (0.5, 1.5, 2.0)])
    # overlap summed: 0.5*1 + 0.5*3 + 0.5*2
    assert om.total_mass() == pytest.approx(3.0, rel=1e-12)
    v = om.sample_normals(np.random.default_rng(2), 4000)
    phi = np.arctan2(v[:, 1], v[:, 0]) % math.pi
    assert np.all((phi >= 0.0) & (phi <= 1.5 + 1e-12))


def _ref_arc_normals(pieces, rng, size):
    """``ArcDensity2D.sample_normals`` with its inverse-cdf draw written out, as the
    reference for the bits of the shared ``sample_pieces``."""
    lengths = (pieces[:, 1] - pieces[:, 0]) * pieces[:, 2]
    cum = np.cumsum(lengths)
    u = rng.random(size) * cum[-1]
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(cum) - 1)
    frac = (u - (cum[idx] - lengths[idx])) / lengths[idx]
    phi = pieces[idx, 0] + frac * (pieces[idx, 1] - pieces[idx, 0])
    return np.column_stack([np.cos(phi), np.sin(phi)])


def test_arc_density_sampling_keeps_the_reference_bits():
    few = ArcDensity2D([(0.0, 0.4, 1.0), (0.9, 1.7, 2.5), (2.0, 3.0, 0.3)])
    # more pieces than SEARCH_MAX_PIECES: the draws find their pieces by sorting
    edges = np.linspace(0.0, math.pi, 41)
    many = ArcDensity2D([(lo, hi, 1.0 + k % 7) for k, (lo, hi) in
                         enumerate(zip(edges[:-1], edges[1:]))])
    assert len(few.pieces) == 3 and len(many.pieces) == 40 > SEARCH_MAX_PIECES
    for om in (few, many):
        for seed in (0, 1, 2):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = om.sample_normals(rng, 5000)
            assert got.tobytes() == _ref_arc_normals(om.pieces, ref_rng, 5000).tobytes()
            assert rng.random() == ref_rng.random()


def _lookup_weights():
    """Weights per case: pieces at, below and above the lookup's cut."""
    rng = np.random.default_rng(0)
    zeros = rng.lognormal(0.0, 1.0, 40)
    zeros[[0, 7, 8, 9, 20, -1]] = 0.0     # ties in cum, first and last pieces included
    return {
        "one": np.array([2.5]),
        "three": np.array([0.5, 0.0, 1.5]),
        "cut": rng.random(SEARCH_MAX_PIECES) + 0.1,
        "cut_plus_one": rng.random(SEARCH_MAX_PIECES + 1) + 0.1,
        "zero_weights": zeros,
        "lognormal": rng.lognormal(0.0, 3.0, 5632),
    }


LOOKUP_WEIGHTS = _lookup_weights()


@pytest.mark.parametrize("route", ["by_size", "sorted"])
@pytest.mark.parametrize("case", list(LOOKUP_WEIGHTS))
def test_piece_index_is_the_clamped_binary_search(monkeypatch, route, case):
    if route == "sorted":
        # every support takes the sorted route, one piece included
        monkeypatch.setattr(directions, "SEARCH_MAX_PIECES", 0)
    rng = np.random.default_rng(7)
    cum = np.cumsum(LOOKUP_WEIGHTS[case])
    # keys on each edge, just below it, at 0 and at the top edge, and drawn between
    u = np.concatenate([cum, np.nextafter(cum, -np.inf), [0.0, cum[-1], cum[-1]],
                        rng.random(3000) * cum[-1]])
    u = u[rng.permutation(len(u))]
    want = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    got = piece_index(cum, u)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert piece_index(cum, u[:0]).size == 0


def test_normalize_pieces_merges_adjacent_runs():
    out = normalize_pieces([(0.0, 0.5, 1.0), (0.5, 1.0, 1.0)])
    assert out.shape == (1, 3)
    assert out[0] == pytest.approx([0.0, 1.0, 1.0])


def test_wrap_interval():
    assert wrap_interval(0.5, 1.0) == [(0.5, 1.5)]
    parts = wrap_interval(3.0, 0.5)
    assert len(parts) == 2
    total = sum(hi - lo for lo, hi in parts)
    assert total == pytest.approx(0.5, rel=1e-12)


def test_abs_moment_constants_keep_the_bits_of_the_gamma_form():
    # n = 2 and n = 3 skip scipy; their constants are the general form's bits
    from scipy import special
    for n, value in ((2, 2.0 / math.pi), (3, 0.5)):
        general = math.exp(special.gammaln(n / 2.0) - special.gammaln((n + 1) / 2.0))
        assert abs_moment(n).hex() == float(general / math.sqrt(math.pi)).hex() == value.hex()
