"""The operand contract of the public operators: one row per (operator,
malformed operand, expected error class).

Every row is an input that each rule in ``dspn.grid`` rejects: a count that
is not a whole number (a bool is none) or lies below its floor, a real
setting that is not a finite real, a parameter array with a NaN or an Inf,
a name outside its choices, a pixel that
is not an integer pair, a sampling position that is not a pair of reals,
and a map with more than one channel where an operator reads one. The rest
are rules of their own operators: a fit needs scenes, a stencil a finite
absolute sum, and a score or a fit ground truth.
"""

import numpy as np
import pytest

from dspn import (
    AffinityStencilField,
    EmbeddingParams,
    FitParams,
    Grid,
    OffsetEstimatorParams,
    OffsetField,
    SceneSpec,
    SparseSpec,
    bilinear_sample,
    build_features,
    coarse_predict,
    compute_affinity,
    confidence_target,
    cspn_refine,
    cspn_step,
    deformed_neighborhood,
    dspn_refine,
    dspn_step,
    eval_metrics,
    finite_diff_grad,
    hard_replace,
    heuristic_confidence,
    neighbor_offsets,
    normalize_stencil,
    prepare_scene,
    sample_sparse,
    soft_replace,
    toy_fit,
)
from dspn.cli import RunConfig, TrainConfig, evaluate_suite, refine_scene
from dspn.confidence import ConfidenceConfig
from dspn.errors import EmptyGroundTruth, InvalidAffinity, InvalidConfig, InvalidPosition, ShapeMismatch
from dspn.grid import binary_mask, unit_confidence
from dspn.metrics import LossWeights, valid_gt
from dspn.synth import build_scene

RNG = np.random.default_rng(18)
MAP = Grid(RNG.uniform(1.0, 2.0, (5, 5)))
MASK = Grid((RNG.random((5, 5)) < 0.5).astype(np.float64))
FEATURES = Grid(RNG.uniform(0.0, 1.0, (5, 5, 4)))
EMB = EmbeddingParams.init(4, 4, seed=0)
OFFSETS = OffsetField.zeros(5, 5, 3)
NBRS = deformed_neighborhood((1, 1), 3, OFFSETS)
# channel 0 is a valid map, mask and confidence; channel 1 is none of them
TWO = Grid(np.stack([np.ones((5, 5)), np.full((5, 5), 7.0)], axis=-1))


SCENE = prepare_scene(SceneSpec("slope", 8, 8, 1.0, 5.0), SparseSpec(0.3), 1, 2)
NO_GT = build_scene(None, SCENE.ds, SCENE.m)
PARAMS = FitParams(EmbeddingParams.init(4, 4, seed=0), OffsetEstimatorParams.init(4, 4, 3, seed=0))


NAN_OFFSETS = np.where(np.arange(8)[:, np.newaxis] == 5, np.nan, OFFSETS.delta)
INF_G_PHI = np.where(np.eye(4) == 1.0, np.inf, EMB.g_phi)
NAN_B2 = {name: getattr(PARAMS.estimator, name) for name in OffsetEstimatorParams.__slots__}
NAN_B2["b2"] = np.array([0.0, np.nan, 0.0, 0.0])


def _fit(scenes=(SCENE,), **kwargs):
    return toy_fit(list(scenes), PARAMS, **{"lr": 0.1, "steps": 1, "iters": 1, **kwargs})


def _fd(eps):
    return finite_diff_grad(lambda p: float(p["a"].sum()), {"a": np.zeros(2)}, eps=eps)


CONTRACT = [
    # counts are whole numbers
    ("neighbor_offsets-float-kernel", lambda: neighbor_offsets(3.0), InvalidConfig),
    ("OffsetField.zeros-float-kernel", lambda: OffsetField.zeros(4, 4, 3.0), InvalidConfig),
    ("OffsetEstimatorParams.init-float-kernel", lambda: OffsetEstimatorParams.init(3, 4, 3.0), InvalidConfig),
    ("dspn_step-float-kernel", lambda: dspn_step(MAP, FEATURES, OffsetField(3.0, OFFSETS.delta), EMB), InvalidConfig),
    ("cspn_step-float-kernel",
     lambda: cspn_step(MAP, AffinityStencilField(3.0, np.ones((5, 5, 8)))), InvalidConfig),
    ("cspn_refine-float-iters",
     lambda: cspn_refine(MAP, MAP, MASK, AffinityStencilField.uniform(5, 5), 2.5), InvalidConfig),
    ("dspn_refine-float-iters",
     lambda: dspn_refine(MAP, MAP, MASK, MASK, FEATURES, OFFSETS, EMB, 1.5), InvalidConfig),
    ("toy_fit-float-iters", lambda: _fit(iters=2.5), InvalidConfig),
    ("toy_fit-negative-iters", lambda: _fit(iters=-1), InvalidConfig),
    ("toy_fit-float-steps", lambda: _fit(steps=2.5), InvalidConfig),
    ("EmbeddingParams.init-float-embed-dim", lambda: EmbeddingParams.init(4.0, 4, seed=0), InvalidConfig),
    ("EmbeddingParams.init-zero-channels", lambda: EmbeddingParams.init(4, 0, seed=0), InvalidConfig),
    ("OffsetEstimatorParams.init-float-channels", lambda: OffsetEstimatorParams.init(3.0, 4, 3), InvalidConfig),
    ("OffsetEstimatorParams.init-float-hidden", lambda: OffsetEstimatorParams.init(3, 4.0, 3), InvalidConfig),
    ("build_features-float-channels", lambda: build_features(MAP, MASK, 2.5), InvalidConfig),
    ("build_features-zero-channels", lambda: build_features(MAP, MASK, 0), InvalidConfig),
    ("heuristic_confidence-float-radius",
     lambda: heuristic_confidence(MAP, MASK, ConfidenceConfig(), max_radius=2.5), InvalidConfig),
    ("heuristic_confidence-zero-radius",
     lambda: heuristic_confidence(MAP, MASK, ConfidenceConfig(), max_radius=0), InvalidConfig),
    ("heuristic_confidence-negative-radius",
     lambda: heuristic_confidence(MAP, MASK, ConfidenceConfig(), max_radius=-1), InvalidConfig),
    ("heuristic_confidence-float-neighbours",
     lambda: heuristic_confidence(MAP, MASK, ConfidenceConfig(), min_neighbors=1.5), InvalidConfig),
    ("heuristic_confidence-negative-neighbours",
     lambda: heuristic_confidence(MAP, MASK, ConfidenceConfig(), min_neighbors=-1), InvalidConfig),
    ("Grid.zeros-float-width", lambda: Grid.zeros(4.5, 4), InvalidConfig),
    ("Grid.zeros-zero-width", lambda: Grid.zeros(0, 4), InvalidConfig),
    ("Grid.zeros-negative-height", lambda: Grid.zeros(4, -1), InvalidConfig),
    ("Grid.full-float-channels", lambda: Grid.full(4, 4, 1.0, 2.0), InvalidConfig),
    ("OffsetField.zeros-float-width", lambda: OffsetField.zeros(4.5, 4, 3), InvalidConfig),
    ("OffsetField.zeros-negative-width", lambda: OffsetField.zeros(-1, 4, 3), InvalidConfig),
    ("AffinityStencilField.uniform-float-width", lambda: AffinityStencilField.uniform(4.0, 4, 3), InvalidConfig),
    ("AffinityStencilField.uniform-negative-height",
     lambda: AffinityStencilField.uniform(4, -2, 3), InvalidConfig),
    ("OffsetField.zeros-bool-width", lambda: OffsetField.zeros(True, 4), InvalidConfig),
    ("Grid.full-bool-channels", lambda: Grid.full(4, 4, 1.0, True), InvalidConfig),
    ("SceneSpec-float-width", lambda: SceneSpec(width=8.5), InvalidConfig),
    # a real setting is a finite real
    ("TrainConfig-nan-lr", lambda: TrainConfig(lr=float("nan")), InvalidConfig),
    ("TrainConfig-inf-lr", lambda: TrainConfig(lr=float("inf")), InvalidConfig),
    ("TrainConfig-text-lr", lambda: TrainConfig(lr="x"), InvalidConfig),
    ("SparseSpec-nan-noise-sigma", lambda: SparseSpec(noise_sigma=float("nan")), InvalidConfig),
    ("SparseSpec-inf-outlier-sigma", lambda: SparseSpec(outlier_sigma=float("inf")), InvalidConfig),
    ("SparseSpec-text-density", lambda: SparseSpec(density="x"), InvalidConfig),
    ("RunConfig-inf-gradcheck-eps", lambda: RunConfig(gradcheck_eps=float("inf")), InvalidConfig),
    ("ConfidenceConfig-text-gamma", lambda: ConfidenceConfig("1"), InvalidConfig),
    ("LossWeights-none-refined", lambda: LossWeights(None), InvalidConfig),
    ("Grid.full-text-value", lambda: Grid.full(4, 4, "x"), InvalidConfig),
    ("finite_diff_grad-nan-eps", lambda: _fd(float("nan")), InvalidConfig),
    ("finite_diff_grad-text-eps", lambda: _fd("x"), InvalidConfig),
    # a parameter array holds finite reals
    ("OffsetField-nan-offsets", lambda: OffsetField(3, NAN_OFFSETS), InvalidConfig),
    ("EmbeddingParams-inf-g-phi", lambda: EmbeddingParams(EMB.g_theta, INF_G_PHI), InvalidConfig),
    ("OffsetEstimatorParams-nan-b2", lambda: OffsetEstimatorParams(**NAN_B2), InvalidConfig),
    # a choice is one of its names
    ("refine_scene-unknown-replacement", lambda: refine_scene(SCENE, "dspn", 3, 3, PARAMS, "foo"), InvalidConfig),
    ("refine_scene-unknown-method", lambda: refine_scene(SCENE, "foo", 0, 3), InvalidConfig),
    ("evaluate_suite-unknown-method", lambda: evaluate_suite([SCENE], "foo", 3, 3, PARAMS), InvalidConfig),
    # a fit needs scenes and a real step size
    ("toy_fit-no-scenes", lambda: _fit(scenes=()), InvalidConfig),
    ("toy_fit-text-lr", lambda: _fit(lr="1"), InvalidConfig),
    ("toy_fit-none-lr", lambda: _fit(lr=None), InvalidConfig),
    # a stencil's absolute sum is finite
    ("normalize_stencil-overflowing-sum", lambda: normalize_stencil(np.full(8, 1e308)), InvalidAffinity),
    ("AffinityStencilField-overflowing-sum",
     lambda: AffinityStencilField(3, np.full((5, 5, 8), 1e308)), InvalidAffinity),
    # a score or a fit needs ground truth
    ("valid_gt-none", lambda: valid_gt(None), EmptyGroundTruth),
    ("eval_metrics-no-ground-truth", lambda: eval_metrics(MAP, None), EmptyGroundTruth),
    ("evaluate_suite-no-ground-truth", lambda: evaluate_suite([NO_GT], "none", 0, 3), EmptyGroundTruth),
    ("toy_fit-no-ground-truth", lambda: _fit(scenes=(NO_GT,)), EmptyGroundTruth),
    # a pixel is an integer pair
    ("deformed_neighborhood-fractional-pixel", lambda: deformed_neighborhood((1.5, 2.9), 3, OFFSETS), InvalidPosition),
    ("deformed_neighborhood-short-pixel", lambda: deformed_neighborhood((1,), 3, OFFSETS), InvalidPosition),
    ("compute_affinity-fractional-pixel", lambda: compute_affinity(FEATURES, EMB, (1.9, 1), NBRS), InvalidPosition),
    # a sampling position is a pair of reals
    ("bilinear_sample-short-position", lambda: bilinear_sample(MAP, (1,)), InvalidPosition),
    ("bilinear_sample-text-position", lambda: bilinear_sample(MAP, (1, "a")), InvalidPosition),
    ("compute_affinity-short-neighbour", lambda: compute_affinity(FEATURES, EMB, (1, 1), [(1,)]), InvalidPosition),
    # an operator that reads a map reads one channel
    ("binary_mask-two-channels", lambda: binary_mask(TWO), ShapeMismatch),
    ("unit_confidence-two-channels", lambda: unit_confidence(TWO), ShapeMismatch),
    ("eval_metrics-two-channels", lambda: eval_metrics(TWO, TWO), ShapeMismatch),
    ("valid_gt-two-channels", lambda: valid_gt(TWO), ShapeMismatch),
    ("sample_sparse-two-channels", lambda: sample_sparse(TWO, SparseSpec(), 0), ShapeMismatch),
    ("coarse_predict-two-channels", lambda: coarse_predict(TWO, Grid(np.ones((5, 5, 2)))), ShapeMismatch),
    ("heuristic_confidence-two-channels",
     lambda: heuristic_confidence(TWO, Grid(np.ones((5, 5, 2))), ConfidenceConfig()), ShapeMismatch),
    ("confidence_target-two-channels",
     lambda: confidence_target(TWO, TWO, Grid(np.ones((5, 5, 2))), ConfidenceConfig()), ShapeMismatch),
    ("build_features-two-channels", lambda: build_features(TWO, Grid(np.ones((5, 5, 2))), 6), ShapeMismatch),
    ("hard_replace-two-channels", lambda: hard_replace(TWO, TWO, Grid(np.ones((5, 5, 2)))), ShapeMismatch),
    ("soft_replace-two-channels",
     lambda: soft_replace(TWO, TWO, Grid(np.ones((5, 5, 2))), Grid(np.ones((5, 5, 2)))), ShapeMismatch),
    # operands share one shape
    ("FitParams-channel-mismatch",
     lambda: FitParams(EmbeddingParams.init(6, 4, seed=0), OffsetEstimatorParams.init(6, 4, 3, seed=0)),
     ShapeMismatch),
    ("build_features-mask-of-another-shape", lambda: build_features(MAP, Grid(np.ones((4, 5))), 6), ShapeMismatch),
]


@pytest.mark.parametrize("call,error", [row[1:] for row in CONTRACT], ids=[row[0] for row in CONTRACT])
def test_malformed_operand_raises_its_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("row,operand", [
    ("OffsetField-nan-offsets", "offset field"),
    ("EmbeddingParams-inf-g-phi", "g_phi"),
    ("OffsetEstimatorParams-nan-b2", "b2"),
])
def test_a_non_finite_parameter_array_is_named(row, operand):
    call = next(call for name, call, _ in CONTRACT if name == row)
    with pytest.raises(InvalidConfig, match=f"^{operand} contains NaN or Inf$"):
        call()


def test_numpy_integer_counts_are_whole_numbers():
    k = np.int64(3)
    assert np.array_equal(neighbor_offsets(k), neighbor_offsets(3))
    assert OffsetField.zeros(4, 4, k).delta.shape == (4, 4, 8, 2)
    stencils = AffinityStencilField.uniform(5, 5, k)
    assert cspn_refine(MAP, MAP, MASK, stencils, np.int32(2)).data.tobytes() == (
        cspn_refine(MAP, MAP, MASK, stencils, 2).data.tobytes()
    )
    assert compute_affinity(FEATURES, EMB, (np.int64(1), np.int16(1)), NBRS).self_weight == (
        compute_affinity(FEATURES, EMB, (1, 1), NBRS).self_weight
    )


def test_empty_neighbour_list_gives_self_weight_one():
    w = compute_affinity(FEATURES, EMB, (2, 2), [])
    assert w.self_weight == 1.0
    assert w.neighbor_weights.shape == (0,)
