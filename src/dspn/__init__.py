"""Spatial-propagation depth refinement: fixed (CSPN-style) and deformable
receptive fields, confidence-weighted sparse replacement, KITTI-style
metrics, hand-derived gradients, and a synthetic evaluation harness."""

from .confidence import ConfidenceConfig, confidence_target, heuristic_confidence, soft_replace
from .cspn import (
    AffinityStencilField,
    NormalizedStencil,
    cspn_refine,
    cspn_step,
    hard_replace,
    neighbor_offsets,
    normalize_stencil,
)
from .deformable import (
    AffinityWeights,
    EmbeddingParams,
    OffsetEstimatorParams,
    OffsetField,
    compute_affinity,
    deformed_neighborhood,
    dspn_refine,
    dspn_step,
    offset_estimator,
)
from .gradcheck import (
    FitParams,
    GradReport,
    dspn_backward,
    finite_diff_grad,
    toy_fit,
)
from .grid import ContinuousPos, Grid, bilinear_sample
from .io import read_grd, read_grid, read_pgm16, write_grd, write_pgm16
from .metrics import LossWeights, MetricReport, eval_metrics
from .synth import (
    Scene,
    SceneSpec,
    SparseSpec,
    build_features,
    coarse_predict,
    gen_scene,
    prepare_scene,
    sample_sparse,
)

__all__ = [
    "AffinityStencilField",
    "AffinityWeights",
    "ConfidenceConfig",
    "ContinuousPos",
    "EmbeddingParams",
    "FitParams",
    "GradReport",
    "Grid",
    "LossWeights",
    "MetricReport",
    "NormalizedStencil",
    "OffsetEstimatorParams",
    "OffsetField",
    "Scene",
    "SceneSpec",
    "SparseSpec",
    "bilinear_sample",
    "build_features",
    "coarse_predict",
    "compute_affinity",
    "confidence_target",
    "cspn_refine",
    "cspn_step",
    "deformed_neighborhood",
    "dspn_backward",
    "dspn_refine",
    "dspn_step",
    "eval_metrics",
    "finite_diff_grad",
    "gen_scene",
    "hard_replace",
    "heuristic_confidence",
    "neighbor_offsets",
    "normalize_stencil",
    "offset_estimator",
    "prepare_scene",
    "read_grd",
    "read_grid",
    "read_pgm16",
    "sample_sparse",
    "soft_replace",
    "toy_fit",
    "write_grd",
    "write_pgm16",
]
