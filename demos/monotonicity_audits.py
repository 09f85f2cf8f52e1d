#!/usr/bin/env python3
"""Audit the embedding of an atom-cloud pushforward measure.

Shows the quantitative chain on a concrete measure: the inner-product
identity, the two-sided bounds, cyclic monotonicity over random cycles,
and the cube noncollapsing ratio against its dimensional constant.
"""
from busemetric import BaseMeasureND, doubling_pushforward
from busemetric.diagnostics import SamplingPlan, cube_bound, run_diagnostics

mu = BaseMeasureND(2, atoms=[((2.0, 0.3), 1.0), ((-1.1, 1.7), 2.0), ((0.4, -2.2), 1.5)])
sc = doubling_pushforward(mu, window_lo=(-0.35, -0.35), window_hi=(0.35, 0.35),
                          name="three_atoms")
plan = SamplingPlan(region_lo=(-0.35, -0.35), region_hi=(0.35, 0.35),
                    pair_count=200, cycle_count=100, cube_count=50, triple_count=100,
                    scale_range=(0.02, 0.3), seed=3)
report = run_diagnostics(sc.measure, sc.basepoint, plan, name=sc.name)
print(report.render_text())

print("\nworst cycle (normalized sum should be <= 0 up to rounding):")
print(f"  {report.cyclic['worst']:.3e} over {plan.cycle_count} cycles")
print(f"cube ratio {report.cube['worst']:.4f} vs dimensional bound {cube_bound(2):.4f}")
print("\nquasisymmetry envelope (t, max ratio) by bucket:")
for bucket in report.eta["curve"][:8]:
    print(f"  t = {bucket['t']:9.4f} -> {bucket['max_ratio']:9.4f} "
          f"({bucket['count']} triples)")
