import numpy as np
import pytest

from dspn import (
    AffinityStencilField,
    Grid,
    cspn_refine,
    cspn_step,
    hard_replace,
    normalize_stencil,
)
from dspn.errors import InvalidAffinity, InvalidConfig, InvalidMask, ShapeMismatch

from oracles import cspn_refine_ref, cspn_step_ref, hard_replace_ref


def rand_instance(seed, h=5, w=5, k=3):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 10.0, (h, w))
    raw = rng.normal(0.0, 1.0, (h, w, k * k - 1))
    return values, raw


class TestNormalize:
    def test_uniform_ones(self):
        ns = normalize_stencil(np.ones(8))
        assert np.allclose(ns.weights, 1.0 / 8.0)
        assert ns.self_weight == 0.0

    def test_signed_example(self):
        ns = normalize_stencil([4.0, 4.0, -4.0, -4.0, 4.0, 4.0, -4.0, -4.0])
        expected = [0.125, 0.125, -0.125, -0.125, 0.125, 0.125, -0.125, -0.125]
        assert np.array_equal(ns.weights, expected)
        assert ns.self_weight == 1.0

    def test_all_zero_degrades_to_identity(self):
        ns = normalize_stencil(np.zeros(8))
        assert np.array_equal(ns.weights, np.zeros(8))
        assert ns.self_weight == 1.0

    def test_abs_sum_is_one_for_nonzero(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            raw = rng.normal(0.0, 2.0, 8)
            ns = normalize_stencil(raw)
            assert abs(np.abs(ns.weights).sum() - 1.0) <= 1e-12

    def test_self_weight_identity_exact(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(0.0, 1.0, (4, 4, 8))
        ns = normalize_stencil(raw)
        assert np.array_equal(ns.self_weight, 1.0 - ns.weights.sum(axis=-1))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidAffinity):
            normalize_stencil([1.0, np.nan, 0.0])


class TestStep:
    def test_constant_preserved(self):
        H = Grid.full(4, 4, 7.0)
        st = AffinityStencilField.uniform(4, 4, 3)
        out = cspn_step(H, st)
        assert np.array_equal(out.channel(0), H.channel(0))

    def test_center_becomes_neighbor_mean(self):
        vals = np.full((3, 3), 5.0)
        vals[1, 1] = 0.0
        out = cspn_step(Grid(vals), AffinityStencilField.uniform(3, 3, 3))
        assert out.channel(0)[1, 1] == pytest.approx(5.0, abs=1e-12)

    def test_zero_stencils_identity(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0.0, 9.0, (5, 6))
        st = AffinityStencilField(3, np.zeros((5, 6, 8)))
        out = cspn_step(Grid(vals), st)
        assert np.array_equal(out.channel(0), vals)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scalar_oracle(self, seed):
        values, raw = rand_instance(seed)
        out = cspn_step(Grid(values), AffinityStencilField(3, raw))
        ref = cspn_step_ref(values, raw, 3)
        assert np.abs(out.channel(0) - ref).max() <= 1e-12

    def test_field_keeps_the_stencil_it_was_built_from(self):
        # the field normalises once, so it must not alias the caller's array
        values, raw = rand_instance(3)
        st = AffinityStencilField(3, raw)
        original = raw.copy()
        raw[...] = 0.0
        out = cspn_step(Grid(values), st)
        assert np.array_equal(st.raw, original)
        assert np.abs(out.channel(0) - cspn_step_ref(values, original, 3)).max() <= 1e-12

    def test_k5_matches_scalar_oracle(self):
        values, raw = rand_instance(77, h=7, w=6, k=5)
        out = cspn_step(Grid(values), AffinityStencilField(5, raw))
        ref = cspn_step_ref(values, raw, 5)
        assert np.abs(out.channel(0) - ref).max() <= 1e-12

    def test_max_principle_for_nonnegative_stencils(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.uniform(-3.0, 3.0, (6, 6))
            raw = rng.uniform(0.0, 2.0, (6, 6, 8))
            out = cspn_step(Grid(values), AffinityStencilField(3, raw)).channel(0)
            assert out.min() >= values.min() - 1e-12
            assert out.max() <= values.max() + 1e-12

    def test_signed_stencils_inf_norm_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            values = rng.uniform(-4.0, 4.0, (6, 6))
            raw = rng.normal(0.0, 1.0, (6, 6, 8))
            out = cspn_step(Grid(values), AffinityStencilField(3, raw)).channel(0)
            bound = 3.0 * np.abs(values).max()
            assert np.abs(out).max() <= bound + 1e-9

    def test_linear_in_values(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(0.0, 1.0, (5, 5, 8))
        st = AffinityStencilField(3, raw)
        v1 = rng.uniform(0.0, 5.0, (5, 5))
        v2 = rng.uniform(0.0, 5.0, (5, 5))
        a, b = 0.6, -1.2
        lhs = cspn_step(Grid(a * v1 + b * v2), st).channel(0)
        rhs = a * cspn_step(Grid(v1), st).channel(0) + b * cspn_step(Grid(v2), st).channel(0)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_shape_mismatch(self):
        st = AffinityStencilField.uniform(4, 4, 3)
        with pytest.raises(ShapeMismatch):
            cspn_step(Grid.zeros(5, 5), st)
        with pytest.raises(ShapeMismatch):
            cspn_step(Grid.zeros(4, 4, channels=2), st)


class TestReplace:
    def test_all_ones_mask(self):
        H, Hs = Grid.full(3, 3, 1.0), Grid.full(3, 3, 9.0)
        m = Grid.full(3, 3, 1.0)
        assert np.array_equal(hard_replace(H, Hs, m).channel(0), Hs.channel(0))

    def test_all_zeros_mask(self):
        H, Hs = Grid.full(3, 3, 1.0), Grid.full(3, 3, 9.0)
        m = Grid.zeros(3, 3)
        assert np.array_equal(hard_replace(H, Hs, m).channel(0), H.channel(0))

    def test_per_pixel_select(self):
        out = hard_replace(Grid([[1.0, 2.0]]), Grid([[9.0, 9.0]]), Grid([[1.0, 0.0]]))
        assert out.channel(0).tolist() == [[9.0, 2.0]]

    def test_replacement_bit_exact(self):
        rng = np.random.default_rng(8)
        H = Grid(rng.uniform(0.0, 1.0, (6, 6)))
        Hs = Grid(rng.uniform(0.0, 1.0, (6, 6)))
        mask = (rng.random((6, 6)) < 0.4).astype(np.float64)
        out = hard_replace(H, Hs, Grid(mask)).channel(0)
        assert np.array_equal(out[mask == 1.0], Hs.channel(0)[mask == 1.0])
        assert np.array_equal(out[mask == 0.0], H.channel(0)[mask == 0.0])

    def test_non_binary_mask_rejected(self):
        with pytest.raises(InvalidMask):
            hard_replace(Grid.zeros(2, 2), Grid.zeros(2, 2), Grid.full(2, 2, 0.5))

    def test_matches_oracle(self):
        rng = np.random.default_rng(9)
        H = rng.uniform(0.0, 1.0, (5, 5))
        Hs = rng.uniform(0.0, 1.0, (5, 5))
        mask = (rng.random((5, 5)) < 0.5).astype(np.float64)
        out = hard_replace(Grid(H), Grid(Hs), Grid(mask)).channel(0)
        assert np.array_equal(out, hard_replace_ref(H, Hs, mask))


class TestRefine:
    def _instance(self, seed, h=5, w=5):
        rng = np.random.default_rng(seed)
        d0 = rng.uniform(0.0, 8.0, (h, w))
        ds = rng.uniform(0.0, 8.0, (h, w))
        mask = (rng.random((h, w)) < 0.3).astype(np.float64)
        raw = rng.normal(0.0, 1.0, (h, w, 8))
        return d0, ds, mask, raw

    def test_zero_iters_returns_input(self):
        d0, ds, mask, raw = self._instance(20)
        out = cspn_refine(Grid(d0), Grid(ds), Grid(mask), AffinityStencilField(3, raw), 0)
        assert np.array_equal(out.channel(0), d0)

    def test_one_iter_zero_stencil_is_replacement(self):
        d0, ds, mask, _ = self._instance(21)
        st = AffinityStencilField(3, np.zeros((5, 5, 8)))
        out = cspn_refine(Grid(d0), Grid(ds), Grid(mask), st, 1)
        expected = hard_replace(Grid(d0), Grid(ds), Grid(mask))
        assert np.array_equal(out.channel(0), expected.channel(0))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_oracle(self, seed):
        d0, ds, mask, raw = self._instance(seed + 30)
        out = cspn_refine(Grid(d0), Grid(ds), Grid(mask), AffinityStencilField(3, raw), 3)
        ref = cspn_refine_ref(d0, ds, mask, raw, 3, 3)
        assert np.abs(out.channel(0) - ref).max() <= 1e-12

    def test_sparse_preserved_after_each_iteration(self):
        d0, ds, mask, raw = self._instance(40)
        st = AffinityStencilField(3, raw)
        current = Grid(d0)
        for _ in range(4):
            current = cspn_refine(current, Grid(ds), Grid(mask), st, 1)
            vals = current.channel(0)
            assert np.array_equal(vals[mask == 1.0], ds[mask == 1.0])

    def test_negative_iters_rejected(self):
        d0, ds, mask, raw = self._instance(41)
        with pytest.raises(InvalidConfig):
            cspn_refine(Grid(d0), Grid(ds), Grid(mask), AffinityStencilField(3, raw), -1)
