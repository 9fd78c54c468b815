"""Approximation of the matching distance between bi-filtered complexes.

The matching distance compares two bi-filtered simplicial complexes by the
largest bottleneck distance between their persistence diagrams over all
weighted restrictions to lines of positive slope. This package computes it
to any absolute or relative precision by branch-and-bound subdivision of
the slice-parameter space, with three interchangeable bound rules.
"""

from .bottleneck import bottleneck_distance
from .bounds import BoundKind, Reference
from .complexes import (
    BiFiltration,
    CellComplex,
    MonoFiltration,
    lower_star,
    mono_filtration,
    normalize_pair,
    validate_bifiltration,
)
from .generators import GenSpec, generate_random, generate_random_kcritical
from .heatmap import HeatmapGrid, compute_heatmap
from .persistence import Diagram, diagram
from .slices import (
    ParamBox,
    Slice,
    SliceType,
    center,
    initial_boxes,
    restrict,
    subdivide,
    weighted_push,
)
from .solver import (
    ApproxResult,
    SolverConfig,
    approximate,
    eval_reference,
    eval_slice,
    reduction_rate,
)

__all__ = [
    "ApproxResult",
    "BiFiltration",
    "BoundKind",
    "CellComplex",
    "Diagram",
    "GenSpec",
    "HeatmapGrid",
    "MonoFiltration",
    "ParamBox",
    "Reference",
    "Slice",
    "SliceType",
    "SolverConfig",
    "approximate",
    "bottleneck_distance",
    "center",
    "compute_heatmap",
    "diagram",
    "eval_reference",
    "eval_slice",
    "generate_random",
    "generate_random_kcritical",
    "initial_boxes",
    "lower_star",
    "mono_filtration",
    "normalize_pair",
    "reduction_rate",
    "restrict",
    "subdivide",
    "validate_bifiltration",
    "weighted_push",
]

__version__ = "0.1.0"
