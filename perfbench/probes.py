"""Direct per-layer timings for the traced run: query cost per scenario, Monte
Carlo batches, the arc kernels, direction sampling and offset masses.

Every probe calls public functions of one module on the bundled configs'
scenarios with seeded inputs and reports a median, so a layer's cost can be
compared across commits without the audits around it.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

import workloads  # first: it puts the checkout's src/ on the import path
from busemetric import arcs, evaluate
from busemetric.diagnostics import TAU_GRID

# the per-query table's scenario labels -> bundled config
TABLE = {
    "crofton2": "crofton2",
    "crofton3": "crofton3",
    "atoms": "doubling_atoms",
    "box": "doubling_box",
    "ba_lebesgue": "ba_lebesgue",
    "ba_sqrt": "ba_inv_sqrt",
    "degenerate": "degenerate_caps_02",
}
TABLE_QUERIES = 8
REPEATS = 5
RSS_MEASURES = 6


def _median_us(fn, args_list) -> float:
    times = []
    for args in args_list:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def _pairs(plan, rng, count):
    return [workloads.sample_pair(plan, rng) for _ in range(count)]


def _cubes(plan, rng, count):
    return [workloads.sample_cube(plan, rng) for _ in range(count)]


def query_table(built: dict, seed: int) -> dict:
    """Per-query cost on each scenario's default backend (the ROADMAP baseline table)."""
    out = {}
    for label, name in TABLE.items():
        b = built[name]
        nu, backend = b.scenario.measure, b.backend
        rng = np.random.default_rng(seed)
        pairs = _pairs(b.plan, rng, TABLE_QUERIES)
        cubes = _cubes(b.plan, rng, TABLE_QUERIES)
        out[f"evaluate.pair_us.{label}"] = _median_us(
            lambda x, y: backend.pair(nu, x, y), pairs)
        out[f"evaluate.pair_taus_us.{label}"] = _median_us(
            lambda x, y: backend.pair(nu, x, y, taus=TAU_GRID), pairs)
        out[f"evaluate.cube_us.{label}"] = _median_us(
            lambda q: evaluate.cube_mass(nu, q, backend=backend), [(q,) for q in cubes])
    return out


def monte_carlo(built: dict, seed: int) -> dict:
    """Batch build time, cached pair cost and resident memory per measure.

    Runs first in a traced run, before anything else has raised the peak
    resident set, so the peak's growth over fresh measures is their memory.
    """
    b = built["degenerate_caps_02"]
    (x, y), = _pairs(b.plan, np.random.default_rng(seed), 1)
    mc = evaluate.MonteCarlo(budget=workloads.MC_BUDGET, seed=seed)
    keep, build_ms, pair_us = [], [], []
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for k in range(RSS_MEASURES):
        nu = b.scenario.measure.scaled(1.0 + 0.01 * k)
        keep.append(nu)
        t0 = time.perf_counter()
        mc.pair(nu, x, y)
        t1 = time.perf_counter()
        mc.pair(nu, x, y)
        t2 = time.perf_counter()
        build_ms.append(1e3 * ((t1 - t0) - (t2 - t1)))
        pair_us.append(1e6 * (t2 - t1))
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "evaluate.mc_batch_build_ms": statistics.median(build_ms),
        "evaluate.mc_pair_us": statistics.median(pair_us),
        "evaluate.mc_rss_per_measure_mb": (rss1 - rss0) / 1024.0 / RSS_MEASURES,
    }


def arc_kernels(built: dict, seed: int) -> dict:
    """The arc engine on the bundled support clouds."""
    rng = np.random.default_rng(seed)
    deg = built["degenerate_caps_02"]
    mu, pieces = deg.scenario.measure.mu, deg.scenario.measure.omega.arc_pieces()
    pts, wts = mu.node_points, mu.node_weights
    pairs = _pairs(deg.plan, rng, TABLE_QUERIES)
    pair_us = _median_us(lambda x, y: arcs.pair_cloud_integrals(
        pts, wts, pieces, x, y, taus=TAU_GRID, on_segment="full"), pairs)
    boxes = [(q.center - 0.5 * q.edge, q.center + 0.5 * q.edge)
             for q in _cubes(deg.plan, rng, TABLE_QUERIES)]
    box_us = _median_us(lambda lo, hi: arcs.box_cloud_mass(pts, wts, pieces, lo, hi), boxes)

    ba = built["ba_inv_sqrt"]
    segs = ba.scenario.measure.mu.segments
    ba_pieces = ba.scenario.measure.omega.arc_pieces()
    boundary = [float(v) for lo, hi, _ in ba_pieces for v in (lo, hi)]
    p0s, p1s, dens = [s[0] for s in segs], [s[1] for s in segs], [s[2] for s in segs]

    def nodes(x, y):
        for p0, p1, d in segs:
            arcs.segment_query_nodes(p0, p1, d, x, y, boundary)
        arcs.segment_bulk_nodes(p0s, p1s, dens)

    seg_us = _median_us(nodes, _pairs(ba.plan, rng, REPEATS))
    return {
        "arcs.pair_cloud_us": pair_us,
        "arcs.box_cloud_us": box_us,
        "arcs.segment_nodes_us": seg_us,
        "arcs.points_per_s": len(pts) / (1e-6 * pair_us),
    }


def sampling(built: dict, seed: int) -> dict:
    """Direction sampling and offset-measure masses, the Monte Carlo batch inputs."""
    omega = built["degenerate_caps_02"].scenario.measure.omega
    offsets = built["crofton2"].scenario.measure.offsets
    rng = np.random.default_rng(seed)
    sample_ms = 1e-3 * _median_us(lambda: omega.sample_normals(rng, workloads.MC_BUDGET),
                                  [()] * REPEATS)
    lo, hi = offsets.support_bounds()
    s = lo + rng.random(workloads.MC_BUDGET) * (hi - lo)
    t = s + rng.random(workloads.MC_BUDGET) * (hi - s)
    mass_us = _median_us(lambda: offsets.mass_many(s, t), [()] * REPEATS)
    return {"directions.sample_normals_ms": sample_ms, "measures.mass_many_us": mass_us}


def all_probes(built: dict, seed: int) -> dict:
    out = monte_carlo(built, seed)
    out.update(query_table(built, seed))
    out.update(arc_kernels(built, seed))
    out.update(sampling(built, seed))
    return out
