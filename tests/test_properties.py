"""Metric and embedding properties of the exact backends, checked with Hypothesis.

Points come from each bundled config's plan region.  Every property holds
exactly for the integrals and to rounding for the computed values; 1e-12
relative slack is about a thousand times the largest deviation measured.
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from busemetric.cli import build_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SLACK = 1e-12
# config -> the exact backend its default dispatch must pick
CONFIGS = {"crofton2": "closed_form", "doubling_atoms": "closed_form",
           "ba_lebesgue": "exact2d"}


@lru_cache(maxsize=None)
def bundled(name):
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    sc = build_scenario(cfg["scenario"], cfg["seed"])
    backend = sc.backend()
    assert backend.name == CONFIGS[name]
    lo, hi = np.array(cfg["plan"]["region"], dtype=float)
    return sc, backend, lo, hi


def draw_point(data, lo, hi):
    return np.array([data.draw(st.floats(float(a), float(b))) for a, b in zip(lo, hi)])


def separated(x, y, lo, hi):
    # near-coincident endpoints leave only rounding noise in the integrals
    return np.linalg.norm(x - y) >= 1e-3 * np.linalg.norm(hi - lo)


property_settings = settings(derandomize=True, deadline=None, max_examples=30)


@pytest.mark.parametrize("name", list(CONFIGS))
@property_settings
@given(data=st.data())
def test_metric_symmetry_and_triangle(name, data):
    sc, backend, lo, hi = bundled(name)
    nu = sc.measure
    x, y, z = (draw_point(data, lo, hi) for _ in range(3))

    def d(a, b):
        return backend.pair(nu, a, b).mass

    dxy, dyx = d(x, y), d(y, x)
    assert abs(dxy - dyx) <= SLACK * max(dxy, dyx)
    dyz, dxz = d(y, z), d(x, z)
    assert dxz <= (dxy + dyz) * (1.0 + SLACK)


@pytest.mark.parametrize("name", list(CONFIGS))
@property_settings
@given(data=st.data())
def test_embedding_lipschitz_and_identity(name, data):
    sc, backend, lo, hi = bundled(name)
    x, y = draw_point(data, lo, hi), draw_point(data, lo, hi)
    assume(separated(x, y, lo, hi))
    res = sc.embedding(backend=backend).pair(x, y)
    step = res.embed                       # f(x) - f(y)
    assert np.linalg.norm(step) <= res.mass * (1.0 + SLACK)
    lhs = float(step @ (x - y))
    rhs = float(np.linalg.norm(x - y)) * res.transversal
    assert abs(lhs - rhs) <= SLACK * abs(rhs)
