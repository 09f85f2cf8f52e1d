import math

import numpy as np
import pytest

from busemetric import Cube, cube_vertices


def test_cube_vertices():
    v = cube_vertices(Cube([0.0, 0.0], 2.0))
    assert v.shape == (4, 2)
    assert sorted(map(tuple, v)) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    v3 = cube_vertices(Cube([0.0, 0.0, 0.0], 1.0))
    assert v3.shape == (8, 3)
    d = np.linalg.norm(v3[:, None, :] - v3[None, :, :], axis=2)
    assert d.max() == pytest.approx(math.sqrt(3.0), abs=1e-15)
    q = Cube([0.3, -0.1, 0.4, 1.0], 0.5)
    vs = cube_vertices(q)
    assert vs.shape == (16, 4)
    assert np.max(np.abs(vs - q.center)) == pytest.approx(0.25, abs=1e-15)


def test_cube_refuses_a_zero_edge():
    with pytest.raises(ValueError):
        Cube([0.0, 0.0], 0.0)


@pytest.mark.parametrize("edge", [math.inf, math.nan])
def test_cube_refuses_a_non_finite_edge(edge):
    # an infinite edge was accepted, and its vertices were infinite
    with pytest.raises(ValueError, match="cube edge must be finite and positive"):
        Cube([0.0, 0.0], edge)
