import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dspn import ConfidenceConfig, Grid, confidence, confidence_target, hard_replace, heuristic_confidence, soft_replace
from dspn.errors import InvalidConfidence, InvalidConfig, InvalidMask, ShapeMismatch

from oracles import heuristic_confidence_ref, soft_replace_ref


class TestTarget:
    def test_zero_residual_full_confidence(self):
        d = Grid.full(3, 3, 4.0)
        out = confidence_target(d, d, Grid.full(3, 3, 1.0), ConfidenceConfig(0.1))
        assert np.array_equal(out.channel(0), np.ones((3, 3)))

    def test_gamma_residual_hits_inverse_e(self):
        # gamma and the residual chosen binary-exact so |D* - Ds| / gamma == 1.0
        gamma = 0.25
        dstar = Grid.full(2, 2, 5.0)
        ds = Grid.full(2, 2, 5.25)
        out = confidence_target(dstar, ds, Grid.full(2, 2, 1.0), ConfidenceConfig(gamma))
        assert np.all(out.channel(0) == np.exp(-1.0))

    def test_masked_out_pixels_are_zero(self):
        dstar = Grid.full(2, 2, 1.0)
        ds = Grid.full(2, 2, 9.0)
        out = confidence_target(dstar, ds, Grid.zeros(2, 2), ConfidenceConfig(0.5))
        assert np.array_equal(out.channel(0), np.zeros((2, 2)))

    def test_range_and_monotonicity(self):
        gamma = 0.2
        resids = np.linspace(0.0, 5.0, 50)
        dstar = Grid(resids[np.newaxis, :].copy())
        ds = Grid(np.zeros((1, 50)))
        out = confidence_target(dstar, ds, Grid(np.ones((1, 50))), ConfidenceConfig(gamma)).channel(0)[0]
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.all(np.diff(out) <= 0.0)

    def test_invalid_gamma(self):
        with pytest.raises(InvalidConfig):
            ConfidenceConfig(0.0)
        with pytest.raises(InvalidConfig):
            ConfidenceConfig(-1.0)


class TestSoftReplace:
    def test_full_confidence_reduces_to_hard(self):
        rng = np.random.default_rng(0)
        H = Grid(rng.uniform(0.0, 1.0, (5, 5)))
        Hs = Grid(rng.uniform(0.0, 1.0, (5, 5)))
        m = Grid((rng.random((5, 5)) < 0.5).astype(np.float64))
        ones = Grid(np.ones((5, 5)))
        soft = soft_replace(H, Hs, m, ones)
        hard = hard_replace(H, Hs, m)
        assert np.array_equal(soft.channel(0), hard.channel(0))

    def test_zero_confidence_keeps_input(self):
        H = Grid.full(3, 3, 2.0)
        Hs = Grid.full(3, 3, 4.0)
        out = soft_replace(H, Hs, Grid.full(3, 3, 1.0), Grid.zeros(3, 3))
        assert np.array_equal(out.channel(0), H.channel(0))

    def test_midpoint_blend(self):
        H = Grid.full(2, 2, 2.0)
        Hs = Grid.full(2, 2, 4.0)
        out = soft_replace(H, Hs, Grid.full(2, 2, 1.0), Grid.full(2, 2, 0.5))
        assert np.all(out.channel(0) == 3.0)

    def test_convex_combination_identity(self):
        rng = np.random.default_rng(1)
        H = rng.uniform(0.0, 9.0, (6, 6))
        Hs = rng.uniform(0.0, 9.0, (6, 6))
        m = (rng.random((6, 6)) < 0.6).astype(np.float64)
        M = rng.uniform(0.0, 1.0, (6, 6))
        out = soft_replace(Grid(H), Grid(Hs), Grid(m), Grid(M)).channel(0)
        lhs = np.abs(out - H) + np.abs(out - Hs)
        assert np.abs(lhs - np.abs(H - Hs)).max() <= 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        H = rng.uniform(0.0, 9.0, (4, 4))
        Hs = rng.uniform(0.0, 9.0, (4, 4))
        m = (rng.random((4, 4)) < 0.5).astype(np.float64)
        M = rng.uniform(0.0, 1.0, (4, 4))
        out = soft_replace(Grid(H), Grid(Hs), Grid(m), Grid(M)).channel(0)
        assert np.abs(out - soft_replace_ref(H, Hs, m, M)).max() <= 1e-15

    def test_out_of_range_confidence_rejected(self):
        g = Grid.zeros(2, 2)
        with pytest.raises(InvalidConfidence):
            soft_replace(g, g, Grid.full(2, 2, 1.0), Grid.full(2, 2, 1.5))
        with pytest.raises(InvalidConfidence):
            soft_replace(g, g, Grid.full(2, 2, 1.0), Grid.full(2, 2, -0.1))

    def test_non_binary_mask_rejected(self):
        g = Grid.zeros(2, 2)
        with pytest.raises(InvalidMask):
            soft_replace(g, g, Grid.full(2, 2, 0.7), Grid.full(2, 2, 1.0))


class TestHeuristic:
    def test_outlier_scored_low_inliers_high(self):
        # a cluster of consistent measurements plus one wild value
        vals = np.zeros((9, 9))
        mask = np.zeros((9, 9))
        for y, x in [(1, 1), (1, 4), (1, 7), (4, 1), (4, 7), (7, 1), (7, 4), (7, 7)]:
            vals[y, x] = 5.0
            mask[y, x] = 1.0
        vals[4, 4] = 9.0  # outlier among 5.0 readings
        mask[4, 4] = 1.0
        out = heuristic_confidence(Grid(vals), Grid(mask), ConfidenceConfig(0.1), Grid.zeros(9, 9)).channel(0)
        assert out[4, 4] < 0.01
        assert out[1, 1] > 0.9
        assert np.all(out[mask == 0.0] == 0.0)

    def test_range(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(1.0, 10.0, (16, 16))
        mask = (rng.random((16, 16)) < 0.2).astype(np.float64)
        ds = Grid(np.where(mask == 1.0, vals, 0.0))
        out = heuristic_confidence(ds, Grid(mask), ConfidenceConfig(0.1), Grid.zeros(16, 16)).channel(0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_isolated_measurement_keeps_full_confidence(self):
        vals = np.zeros((8, 8))
        mask = np.zeros((8, 8))
        vals[3, 3] = 2.0
        mask[3, 3] = 1.0
        out = heuristic_confidence(Grid(vals), Grid(mask), ConfidenceConfig(0.1), Grid.zeros(8, 8)).channel(0)
        assert out[3, 3] == 1.0

    def test_mismatched_shapes_rejected(self):
        g = Grid.full(6, 6, 1.0)
        with pytest.raises(ShapeMismatch):
            heuristic_confidence(g, Grid.full(5, 6, 1.0), ConfidenceConfig(0.1), g)
        for coarse in (Grid.full(4, 4, 2.0), Grid.full(8, 8, 2.0)):
            with pytest.raises(ShapeMismatch):
                heuristic_confidence(g, g, ConfidenceConfig(0.1), coarse)


def _sparse(rng, h, w, density):
    mask = (rng.random((h, w)) < density).astype(np.float64)
    vals = np.where(mask == 1.0, rng.uniform(1.0, 10.0, (h, w)), 0.0)
    return vals, mask


def _assert_matches_ref(vals, mask, gamma=0.1, coarse=None, min_neighbors=3, max_radius=8):
    """The walk under the given constants equals the oracle bit for bit;
    no coarse map means a flat one, whose gradient slack is 0."""
    if coarse is None:
        coarse = np.full(vals.shape, 4.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(confidence, "MIN_NEIGHBORS", min_neighbors)
        patch.setattr(confidence, "MAX_RADIUS", max_radius)
        out = heuristic_confidence(Grid(vals), Grid(mask), ConfidenceConfig(gamma), Grid(coarse)).channel(0)
    ref = heuristic_confidence_ref(
        vals, mask, gamma, coarse=coarse, min_neighbors=min_neighbors, max_radius=max_radius
    )
    assert np.array_equal(out, ref)
    return out


class TestHeuristicOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_without_coarse(self, seed):
        rng = np.random.default_rng(100 + seed)
        vals, mask = _sparse(rng, 14, 17, 0.15)
        _assert_matches_ref(vals, mask)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_with_coarse(self, seed):
        rng = np.random.default_rng(200 + seed)
        vals, mask = _sparse(rng, 15, 13, 0.2)
        coarse = rng.uniform(1.0, 10.0, (15, 13))
        _assert_matches_ref(vals, mask, gamma=0.3, coarse=coarse)

    def test_border_measurements(self):
        # every measurement sits on the border, so every window is clipped
        rng = np.random.default_rng(5)
        vals = rng.uniform(1.0, 10.0, (9, 11))
        mask = np.zeros((9, 11))
        mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = 1.0
        vals = np.where(mask == 1.0, vals, 0.0)
        _assert_matches_ref(vals, mask)
        _assert_matches_ref(vals, mask, coarse=rng.uniform(1.0, 10.0, (9, 11)))

    def test_max_radius_fallback(self):
        # two measurements 3 apart: with max_radius 3 neither finds
        # min_neighbors, so each is scored against the other at r == 3
        vals = np.zeros((8, 8))
        mask = np.zeros((8, 8))
        vals[2, 2], vals[2, 5] = 4.0, 4.5
        mask[2, 2] = mask[2, 5] = 1.0
        out = _assert_matches_ref(vals, mask, max_radius=3)
        assert 0.0 < out[2, 2] < 1.0 and out[2, 2] == out[2, 5]
        # at max_radius 2 they cannot see each other: both isolated
        out = _assert_matches_ref(vals, mask, max_radius=2)
        assert out[2, 2] == 1.0 and out[2, 5] == 1.0

    @pytest.mark.parametrize("min_neighbors", [0, 1, 5])
    def test_non_default_min_neighbors(self, min_neighbors):
        rng = np.random.default_rng(7)
        vals, mask = _sparse(rng, 12, 12, 0.25)
        coarse = rng.uniform(1.0, 10.0, (12, 12))
        _assert_matches_ref(vals, mask, min_neighbors=min_neighbors, max_radius=4)
        _assert_matches_ref(vals, mask, coarse=coarse, min_neighbors=min_neighbors, max_radius=4)

    def test_isolated_and_invalid(self):
        vals = np.zeros((6, 6))
        mask = np.zeros((6, 6))
        vals[0, 0], mask[0, 0] = 3.0, 1.0
        out = _assert_matches_ref(vals, mask)
        assert out[0, 0] == 1.0
        assert np.all(out[mask == 0.0] == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        density=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
        min_neighbors=st.integers(0, 4),
        max_radius=st.integers(1, 4),
        with_coarse=st.booleans(),
    )
    def test_property_matches_ref(self, h, w, density, seed, min_neighbors, max_radius, with_coarse):
        rng = np.random.default_rng(seed)
        vals, mask = _sparse(rng, h, w, density)
        coarse = rng.uniform(1.0, 10.0, (h, w)) if with_coarse else None
        _assert_matches_ref(
            vals, mask, coarse=coarse, min_neighbors=min_neighbors, max_radius=max_radius
        )
