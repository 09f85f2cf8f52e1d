"""Projective metrics from hyperplane measures.

Build a measure on the space of hyperplanes, evaluate the induced projective
metric d(x, y) = nu(hyperplanes crossing [x, y]) and the associated embedding
map, and audit transversality, monotonicity and bi-Lipschitz behavior on
concrete measure families.
"""

from .geometry import (Cube, DegenerateConfigurationError, DimensionMismatchError,
                       cube_vertices)
from .directions import ArcDensity2D, SymmetricCap, UniformDirections
from .measures import BaseMeasure1D, BaseMeasureND, doubling_ratio, tail1_check
from .hyperplane_measures import (OffsetDirection, PositionDirection, SamplerMeasure,
                                  ValidationReport, validate)
from .evaluate import (ClosedForm, EmbeddingConstant, EmbeddingMap, Exact2D, MonteCarlo,
                       PairIntegrals, RegionMass, UnsupportedBackendError, box_mass,
                       calibrate_embedding_constant, cube_mass, default_backend,
                       pair_integrals, seg_mass)
from .diagnostics import DiagnosticsReport, SamplingPlan, run_diagnostics
from .scenarios import (GridImage, Scenario, beurling_ahlfors, crofton, degenerate_caps,
                        doubling_pushforward, grid_export)

__all__ = [
    "ArcDensity2D", "BaseMeasure1D", "BaseMeasureND", "ClosedForm", "Cube",
    "DegenerateConfigurationError", "DiagnosticsReport", "DimensionMismatchError",
    "EmbeddingConstant", "EmbeddingMap", "Exact2D", "GridImage", "MonteCarlo",
    "OffsetDirection", "PairIntegrals", "PositionDirection", "RegionMass",
    "SamplerMeasure", "SamplingPlan", "Scenario", "SymmetricCap", "UniformDirections",
    "UnsupportedBackendError", "ValidationReport", "beurling_ahlfors", "box_mass",
    "calibrate_embedding_constant", "crofton", "cube_mass", "cube_vertices",
    "default_backend", "degenerate_caps", "doubling_pushforward", "doubling_ratio",
    "grid_export", "pair_integrals", "run_diagnostics", "seg_mass", "tail1_check",
    "validate",
]

__version__ = "0.1.0"
