import dataclasses

import numpy as np
import pytest

from dspn import EmbeddingParams, Grid, OffsetField
from dspn.deformable import (
    OffsetEstimatorParams,
    affinity_forward_batched,
    conv3x3_replicate,
    dspn_refine_forward,
    offset_estimator,
    offset_estimator_backward,
    offset_estimator_forward,
    refine_forward_batched,
)
from dspn.errors import Diverged, EmptyGroundTruth, InvalidConfig, InvalidState, NonFiniteLoss
from dspn.gradcheck import (
    ESTIMATOR_KEYS,
    FitParams,
    _fit_loss_and_grads,
    check_instance_gradients,
    dspn_backward,
    finite_diff_grad,
    make_gradcheck_instance,
    relative_errors,
    toy_fit,
)
from dspn.grid import Taps, edge_pad, fractions, position_gradient
from dspn.synth import SceneSpec, SparseSpec, build_features, prepare_scene


class TestFiniteDiff:
    def test_quadratic(self):
        p = {"p": np.array([0.3, -1.2, 2.0])}
        grad = finite_diff_grad(lambda v: 0.5 * float(v["p"] @ v["p"]), p, eps=1e-5)
        assert np.abs(grad["p"] - p["p"]).max() <= 1e-8

    def test_constant_loss(self):
        p = {"p": np.ones(4)}
        grad = finite_diff_grad(lambda v: 3.5, p)
        assert np.array_equal(grad["p"], np.zeros(4))

    def test_non_finite_loss_raises(self):
        p = {"p": np.zeros(2)}
        with pytest.raises(NonFiniteLoss):
            finite_diff_grad(lambda v: float("nan"), p)


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        inst = make_gradcheck_instance(seed=1)
        _, state = dspn_refine_forward(
            inst.d0, inst.ds, inst.m, inst.conf, inst.features,
            inst.offsets, inst.emb, inst.iters, keep_records=True,
        )
        grads = dspn_backward(np.zeros((8, 8)), state)
        for g in grads.values():
            assert np.array_equal(g, np.zeros_like(g))

    def test_scene_stack_matches_single_scene_calls(self):
        # three different scenes with off-lattice offsets and one shared
        # embedding: map and offset gradients are per scene, embedding
        # gradients sum over the stack
        insts = [make_gradcheck_instance(seed=s) for s in (11, 12, 13)]
        emb = insts[0].emb

        def backward(batch):
            F = np.stack([inst.features.data for inst in batch])
            delta = np.stack([inst.offsets.delta for inst in batch])
            aff = affinity_forward_batched(F, delta, emb, 3)
            state = refine_forward_batched(
                np.stack([inst.d0.channel(0) for inst in batch]),
                np.stack([inst.ds.channel(0) for inst in batch]),
                np.stack([inst.m.channel(0) * inst.conf.channel(0) for inst in batch]),
                aff, 2,
            )
            return dspn_backward(state.out - np.stack([inst.target.channel(0) for inst in batch]), state)

        stacked = backward(insts)
        singles = [backward([inst]) for inst in insts]

        def close(got, want):
            return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        for i, single in enumerate(singles):
            assert close(stacked["h0"][i], single["h0"][0])
            assert close(stacked["offsets"][i], single["offsets"][0])
        for key in ("g_theta", "g_phi"):
            assert close(stacked[key], sum(single[key] for single in singles))

    def test_missing_state_rejected(self):
        with pytest.raises(InvalidState):
            dspn_backward(np.zeros((4, 4)), None)

    def test_row_sums_one_with_detached_weights(self):
        # convex combination: gradients w.r.t. the input map sum to 1 per
        # output pixel when the affinity is treated as constant
        inst = make_gradcheck_instance(seed=2, iters=1)
        zeros = Grid.zeros(8, 8)
        _, state = dspn_refine_forward(
            inst.d0, inst.ds, zeros, inst.conf, inst.features,
            inst.offsets, inst.emb, 1, keep_records=True,
        )
        for (y, x) in [(0, 0), (3, 5), (7, 7), (4, 2)]:
            upstream = np.zeros((8, 8))
            upstream[y, x] = 1.0
            grads = dspn_backward(upstream, state, detach_weights=True)
            assert grads["h0"].sum() == pytest.approx(1.0, abs=1e-12)
            assert np.array_equal(grads["g_theta"], np.zeros_like(grads["g_theta"]))

    def test_constant_features_theta_gradient_vanishes(self):
        # with constant features every logit is identical no matter what
        # g_theta is, so the loss cannot depend on it
        inst = make_gradcheck_instance(seed=3)
        flat = Grid(np.full((8, 8, 4), 0.6))
        _, state = dspn_refine_forward(
            inst.d0, inst.ds, inst.m, inst.conf, flat,
            inst.offsets, inst.emb, inst.iters, keep_records=True,
        )
        rng = np.random.default_rng(5)
        grads = dspn_backward(rng.normal(size=(8, 8)), state)
        assert np.abs(grads["g_theta"]).max() <= 1e-12

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_matches_finite_differences(self, seed):
        inst = make_gradcheck_instance(seed=seed)
        report = check_instance_gradients(inst)
        assert report.max_rel_err <= 1e-4

    def test_group_breakdown_covers_all_params(self):
        inst = make_gradcheck_instance(seed=14)
        report = check_instance_gradients(inst)
        assert set(report.per_group()) == {"h0", "g_theta", "g_phi", "offsets"}


class TestEstimatorGradients:
    def _estimator_instance(self, seed):
        rng = np.random.default_rng(seed)
        inst = make_gradcheck_instance(seed=seed, feature_channels=3, iters=1)
        params = OffsetEstimatorParams.init(3, hidden_channels=4, kernel_size=3, seed=seed)
        # randomise the final layer too; a zero final layer blocks gradient
        # flow into the earlier layers
        params = OffsetEstimatorParams(
            params.w1, rng.normal(0.0, 0.2, params.b1.shape),
            params.w2, rng.normal(0.0, 0.2, params.b2.shape),
            rng.normal(0.0, 0.3, params.w3.shape), rng.normal(0.0, 0.1, params.b3.shape),
            kernel_size=3,
        )
        return inst, params

    def _loss(self, inst, params):
        delta, _ = offset_estimator_forward(inst.features.data, params)
        refined, _ = dspn_refine_forward(
            inst.d0, inst.ds, inst.m, inst.conf, inst.features,
            OffsetField(3, delta), inst.emb, inst.iters, keep_records=False,
        )
        diff = refined.channel(0) - inst.target.channel(0)
        return float(np.mean(diff * diff))

    def test_conv_parameter_gradients_match_fd(self):
        inst, params = self._estimator_instance(26)
        delta, cache = offset_estimator_forward(inst.features.data, params)
        # keep ReLU kinks away from the finite-difference probes
        pre1 = conv3x3_replicate(inst.features.data, params.w1, params.b1)
        pre2 = conv3x3_replicate(cache.act1, params.w2, params.b2)
        assert min(np.abs(pre1).min(), np.abs(pre2).min()) > 2e-3

        _, state = dspn_refine_forward(
            inst.d0, inst.ds, inst.m, inst.conf, inst.features,
            OffsetField(3, delta), inst.emb, inst.iters, keep_records=True,
        )
        resid = state.out[0] - inst.target.channel(0)
        upstream = 2.0 * resid / resid.size
        d_delta = dspn_backward(upstream, state)["offsets"]
        analytic = offset_estimator_backward(d_delta, cache, params)

        def loss_fn(p):
            return self._loss(inst, OffsetEstimatorParams(**p, kernel_size=3))

        fd = finite_diff_grad(loss_fn, {k: getattr(params, k) for k in ESTIMATOR_KEYS}, eps=1e-5)
        assert max(relative_errors(analytic[k], fd[k]).max() for k in ESTIMATOR_KEYS) <= 1e-4

    def test_zero_final_layer_blocks_early_gradients(self):
        inst, _ = self._estimator_instance(22)
        params = OffsetEstimatorParams.init(3, hidden_channels=4, kernel_size=3, seed=22)
        delta, cache = offset_estimator_forward(inst.features.data, params)
        assert np.array_equal(delta, np.zeros_like(delta))
        _, state = dspn_refine_forward(
            inst.d0, inst.ds, inst.m, inst.conf, inst.features,
            OffsetField(3, delta), inst.emb, inst.iters, keep_records=True,
        )
        d_delta = dspn_backward(np.ones((8, 8)), state)["offsets"]
        grads = offset_estimator_backward(d_delta, cache, params)
        assert np.array_equal(grads["w1"], np.zeros_like(grads["w1"]))
        assert np.array_equal(grads["w2"], np.zeros_like(grads["w2"]))
        assert np.abs(grads["w3"]).max() > 0.0


def test_lattice_position_gradient_is_right_sided():
    values = np.array([[0.0, 1.0, 3.0], [0.0, 1.0, 3.0]])
    px, py = np.array([1.0]), np.array([0.0])
    taps = Taps.at(px, py, 3, 2)
    ddx, ddy = position_gradient(taps.corners(edge_pad(values[np.newaxis])), fractions(px, py))
    assert ddx[0] == 2.0  # slope of the right cell, not the centred 1.5
    assert ddy[0] == 0.0


@pytest.fixture(scope="module")
def scenes():
    scene, sparse = SceneSpec("step", 12, 12, 1.0, 5.0), SparseSpec(0.25, 0.0, 0.0, 0.0)
    return [prepare_scene(scene, sparse, s, s + 50) for s in range(2)]


class TestToyFit:
    def _init(self, scenes, seed=7):
        return FitParams(
            emb=EmbeddingParams.init(4, 4, seed=seed),
            estimator=OffsetEstimatorParams.init(4, hidden_channels=4, kernel_size=3, seed=seed),
        )

    def test_missing_init_rejected(self, scenes):
        # the fitter draws no parameters of its own
        with pytest.raises(InvalidConfig):
            toy_fit(scenes, None, lr=0.1, steps=1)

    def test_zero_steps_rejected(self, scenes):
        with pytest.raises(InvalidConfig):
            toy_fit(scenes, self._init(scenes), lr=0.1, steps=0)

    def test_single_step_is_exact_gradient_update(self, scenes):
        init = self._init(scenes)
        lr = 0.05
        _, grads = _fit_loss_and_grads(init, scenes, iters=2, weight=1.0, kernel_size=3)
        fitted, trace = toy_fit(scenes, init, lr=lr, steps=1, iters=2)
        start, end = init.arrays(), fitted.arrays()
        assert set(grads) == set(start) == {"g_theta", "g_phi", *ESTIMATOR_KEYS}
        for name, g in grads.items():
            assert np.array_equal(end[name], start[name] - lr * g)
        assert len(trace) == 2

    def test_zero_lr_keeps_params_and_flat_trace(self, scenes):
        init = self._init(scenes)
        fitted, trace = toy_fit(scenes, init, lr=0.0, steps=3, iters=2)
        assert np.array_equal(fitted.emb.g_theta, init.emb.g_theta)
        assert np.array_equal(fitted.estimator.w1, init.estimator.w1)
        assert trace == [trace[0]] * 4

    def test_divergence_detected(self, scenes):
        # the refine output is range-bounded, so divergence shows up as
        # parameter overflow breaking the forward pass, not an infinite loss
        with pytest.raises(Diverged):
            toy_fit(scenes, self._init(scenes), lr=1e200, steps=3, iters=2)

    def test_deterministic(self, scenes):
        a, trace_a = toy_fit(scenes, self._init(scenes), lr=0.05, steps=3, iters=2)
        b, trace_b = toy_fit(scenes, self._init(scenes), lr=0.05, steps=3, iters=2)
        assert trace_a == trace_b
        assert np.array_equal(a.emb.g_theta, b.emb.g_theta)

    def test_loss_decreases_with_small_lr(self, scenes):
        _, trace = toy_fit(scenes, self._init(scenes), lr=0.05, steps=10, iters=2)
        assert trace[-1] < trace[0]

    def test_scenes_of_different_sizes_train_together(self):
        sparse = SparseSpec(0.25, 0.0, 0.0, 0.0)
        mixed = [
            prepare_scene(SceneSpec("step", 12, 12, 1.0, 5.0), sparse, 3, 53),
            prepare_scene(SceneSpec("composite", 16, 10, 1.0, 5.0), sparse, 4, 54),
        ]
        init = self._init(mixed)
        singles = [_fit_loss_and_grads(init, [s], iters=2, weight=1.0, kernel_size=3) for s in mixed]
        loss, grads = _fit_loss_and_grads(init, mixed, iters=2, weight=1.0, kernel_size=3)
        assert loss == (singles[0][0] + singles[1][0]) / 2
        for name, g in grads.items():
            assert np.array_equal(g, (singles[0][1][name] + singles[1][1][name]) / 2)
        lr = 0.05
        fitted, trace = toy_fit(mixed, init, lr=lr, steps=1, iters=2)
        assert trace[0] == loss
        for name, arr in fitted.arrays().items():
            assert np.array_equal(arr, init.arrays()[name] - lr * grads[name])

    def test_loss_is_mse_over_valid_ground_truth(self, scenes):
        # gt 0 marks a missing pixel: the left half carries no loss
        gt = scenes[0].dstar.channel(0).copy()
        gt[:, :6] = 0.0
        scene = dataclasses.replace(scenes[0], dstar=Grid(gt))
        init = self._init(scenes)
        loss, _ = _fit_loss_and_grads(init, [scene], iters=2, weight=1.0, kernel_size=3, compute_grads=False)
        features = build_features(scene.d0, scene.m, init.feature_channels)
        refined, _ = dspn_refine_forward(
            scene.d0, scene.ds, scene.m, scene.conf, features,
            offset_estimator(features, init.estimator), init.emb, 2, keep_records=False,
        )
        diff = (refined.channel(0) - gt)[:, 6:]
        assert loss == pytest.approx(float(np.mean(diff * diff)), rel=1e-12)

    def test_scene_without_ground_truth_rejected(self, scenes):
        scene = dataclasses.replace(scenes[0], dstar=Grid.zeros(12, 12))
        with pytest.raises(EmptyGroundTruth):
            toy_fit([scenes[1], scene], self._init(scenes), lr=0.05, steps=1, iters=2)
