"""The operand contract of the public operators: one row per (operator,
malformed operand, expected error class).

Every row is an input that each rule in ``dspn.grid`` rejects: a count that
is not a whole number or lies below its floor, a pixel that is not an integer pair, a sampling
position that is not a pair of reals, and a map with more than one channel
where an operator reads one.
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
    hard_replace,
    heuristic_confidence,
    neighbor_offsets,
    prepare_scene,
    sample_sparse,
    soft_replace,
    toy_fit,
)
from dspn.confidence import ConfidenceConfig
from dspn.errors import InvalidConfig, InvalidPosition, ShapeMismatch
from dspn.grid import binary_mask, unit_confidence
from dspn.metrics import valid_gt

RNG = np.random.default_rng(18)
MAP = Grid(RNG.uniform(1.0, 2.0, (5, 5)))
MASK = Grid((RNG.random((5, 5)) < 0.5).astype(np.float64))
FEATURES = Grid(RNG.uniform(0.0, 1.0, (5, 5, 4)))
EMB = EmbeddingParams.init(4, 4, seed=0)
OFFSETS = OffsetField.zeros(5, 5, 3)
NBRS = deformed_neighborhood((1, 1), 3, OFFSETS)
# channel 0 is a valid map, mask and confidence; channel 1 is none of them
TWO = Grid(np.stack([np.ones((5, 5)), np.full((5, 5), 7.0)], axis=-1))


def _fit(**kwargs):
    scene = prepare_scene(SceneSpec("slope", 8, 8, 1.0, 5.0), SparseSpec(0.3), 1, 2)
    init = FitParams(EmbeddingParams.init(4, 4, seed=0), OffsetEstimatorParams.init(4, 4, 3, seed=0))
    return toy_fit([scene], init, **{"lr": 0.1, "steps": 1, "iters": 1, **kwargs})


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
