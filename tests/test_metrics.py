import numpy as np
import pytest

from dspn import Grid, LossWeights, eval_metrics
from dspn.errors import EmptyGroundTruth, InvalidConfig, ShapeMismatch

from oracles import metrics_ref


class TestEvalMetrics:
    def test_perfect_prediction_all_zero(self):
        rng = np.random.default_rng(0)
        gt = Grid(rng.uniform(1.0, 10.0, (8, 8)))
        r = eval_metrics(gt, gt)
        assert (r.rmse, r.mae, r.irmse, r.imae) == (0.0, 0.0, 0.0, 0.0)
        assert r.valid_count == 64

    def test_single_pixel_hand_case(self):
        r = eval_metrics(Grid([[2.0]]), Grid([[1.0]]))
        # 1 m error is 1000 mm; 1/2 - 1/1 = -0.5 1/m = 500 1/km
        assert r.rmse == pytest.approx(1000.0, abs=1e-9)
        assert r.mae == pytest.approx(1000.0, abs=1e-9)
        assert r.irmse == pytest.approx(500.0, abs=1e-9)
        assert r.imae == pytest.approx(500.0, abs=1e-9)

    def test_two_pixel_plus_minus(self):
        r = eval_metrics(Grid([[3.0, 1.0]]), Grid([[2.0, 2.0]]))
        assert r.mae == pytest.approx(1000.0, abs=1e-9)
        assert r.rmse == pytest.approx(1000.0, abs=1e-9)

    def test_rms_dominates_mean(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            gt = Grid(rng.uniform(0.5, 10.0, (6, 6)))
            pred = Grid(rng.uniform(0.5, 10.0, (6, 6)))
            r = eval_metrics(pred, gt)
            assert r.rmse >= r.mae - 1e-12
            assert r.irmse >= r.imae - 1e-12

    def test_invalid_gt_pixels_excluded(self):
        gt = np.array([[1.0, 0.0], [2.0, 0.0]])
        pred_a = np.array([[1.5, 100.0], [2.5, -3.0]])
        pred_b = np.array([[1.5, 0.0], [2.5, 0.0]])
        ra = eval_metrics(Grid(pred_a), Grid(gt))
        rb = eval_metrics(Grid(pred_b), Grid(gt))
        assert ra == rb
        assert ra.valid_count == 2

    def test_nonpositive_pred_floored_for_inverse_only(self):
        r = eval_metrics(Grid([[0.0]]), Grid([[1.0]]))
        assert r.rmse == pytest.approx(1000.0)
        assert r.irmse == pytest.approx((1.0 / 1e-3 - 1.0) * 1000.0)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(2)
        gt_vals = np.where(rng.random((7, 7)) < 0.7, rng.uniform(0.5, 9.0, (7, 7)), 0.0)
        pred = rng.uniform(0.5, 9.0, (7, 7))
        r = eval_metrics(Grid(pred), Grid(gt_vals))
        rmse, mae, irmse, imae = metrics_ref(pred, gt_vals)
        assert r.rmse == pytest.approx(rmse, rel=1e-12)
        assert r.mae == pytest.approx(mae, rel=1e-12)
        assert r.irmse == pytest.approx(irmse, rel=1e-12)
        assert r.imae == pytest.approx(imae, rel=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        gt = rng.uniform(1.0, 5.0, 24)
        pred = rng.uniform(1.0, 5.0, 24)
        perm = rng.permutation(24)
        a = eval_metrics(Grid(pred.reshape(4, 6)), Grid(gt.reshape(4, 6)))
        b = eval_metrics(Grid(pred[perm].reshape(4, 6)), Grid(gt[perm].reshape(4, 6)))
        assert a.rmse == pytest.approx(b.rmse, rel=1e-12)
        assert a.mae == pytest.approx(b.mae, rel=1e-12)

    def test_no_valid_gt_raises(self):
        with pytest.raises(EmptyGroundTruth):
            eval_metrics(Grid.zeros(3, 3), Grid.zeros(3, 3))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            eval_metrics(Grid.zeros(3, 3), Grid.zeros(4, 4))


class TestLosses:
    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidConfig):
            LossWeights(refined=-0.1)
