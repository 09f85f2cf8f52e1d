#!/usr/bin/env python3
"""Extend a measure on the real axis to a planar embedding.

Hyperplanes through axis positions with steeply crossing directions induce
a map whose restriction to the axis reproduces interval masses exactly;
off the axis it stays quantitatively monotone.  Also exports the image of
a grid to axis_extension_grid.csv in the working directory for external
plotting.
"""
from busemetric import BaseMeasure1D, beurling_ahlfors, grid_export
from busemetric.diagnostics import SamplingPlan, run_diagnostics
from busemetric.scenarios import inv_sqrt_density

for label, mu in (("lebesgue", BaseMeasure1D.lebesgue(-30.0, 30.0, 1.0)),
                  ("inv_sqrt", inv_sqrt_density(pieces=512, support=1.0))):
    sc = beurling_ahlfors(mu, window_half=3.0 if label == "lebesgue" else 1.0,
                          height=1.5 if label == "lebesgue" else 0.6,
                          name=f"ba_{label}")
    f = sc.embedding()
    print(f"--- {label} ---")
    lo, hi = (-2.0, 2.0) if label == "lebesgue" else (0.05, 0.95)
    for s, t in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)):
        gap = f.eval([t, 0.0]) - f.eval([s, 0.0])
        print(f"  f({t:.2f}) - f({s:.2f}) = ({gap[0]:.10f}, {gap[1]:+.1e}), "
              f"mu((s,t]) = {mu.mass(s, t):.10f}")

sc = beurling_ahlfors(BaseMeasure1D.lebesgue(-30.0, 30.0, 1.0), window_half=3.0)
plan = SamplingPlan(region_lo=(-2.0, 0.1), region_hi=(2.0, 1.2), pair_count=120,
                    cycle_count=40, cube_count=20, triple_count=60,
                    scale_range=(0.05, 0.6), seed=7)
report = run_diagnostics(sc.measure, sc.basepoint, plan, name=sc.name)
print("\noff-axis diagnostics:")
print(f"  kappa = {report.kappa_hat:.6f}, delta = {report.delta_hat:.6f}, "
      f"bilip = [{report.bilip['c_low']:.6f}, {report.bilip['c_high']:.6f}]")
print(f"  all audits passed: {report.passed()}")

image = grid_export(sc, 9, (-2.0, -1.0), (2.0, 1.0))
image.to_csv("axis_extension_grid.csv")
print("\ngrid image written to axis_extension_grid.csv in the working directory "
      f"({len(image.points)} nodes)")
