"""Delaunay refinement laboratory: engines, adversarial inputs, analysis."""

from .geom import (
    CircleSide,
    Orientation,
    Point,
    circumcenter,
    encroaches,
    incircle,
    min_angle_deg,
    orient2d,
)
from .pslg import Pslg, Segment, min_input_angle_deg, parse_poly, validate, write_poly
from .cdt import Triangulation
from .generators import (
    ExampleConfig,
    OptimumSolution,
    build_example,
    enclose,
    example2,
    example2_optimized,
    pav,
    pinwheel,
    residuals,
    solve_optimum,
)
from .refine import (
    RefinementConfig,
    RefinementOutcome,
    RefinementTrace,
    audit,
    chew2,
    ruppert,
)
from .analysis import DivergenceVerdict, classify, threshold_scan

__all__ = [
    "Point",
    "Orientation",
    "CircleSide",
    "orient2d",
    "incircle",
    "circumcenter",
    "min_angle_deg",
    "encroaches",
    "Pslg",
    "Segment",
    "validate",
    "min_input_angle_deg",
    "parse_poly",
    "write_poly",
    "Triangulation",
    "ExampleConfig",
    "pav",
    "pinwheel",
    "example2",
    "example2_optimized",
    "enclose",
    "build_example",
    "RefinementConfig",
    "RefinementOutcome",
    "RefinementTrace",
    "ruppert",
    "chew2",
    "audit",
    "OptimumSolution",
    "DivergenceVerdict",
    "residuals",
    "solve_optimum",
    "classify",
    "threshold_scan",
]
