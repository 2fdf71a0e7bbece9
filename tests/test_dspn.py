import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from dspn import (
    AffinityStencilField,
    EmbeddingParams,
    Grid,
    OffsetEstimatorParams,
    OffsetField,
    compute_affinity,
    cspn_step,
    deformed_neighborhood,
    dspn_refine,
    dspn_step,
    offset_estimator,
)
from dspn import cspn, deformable, grid
from dspn.deformable import (
    affinity_forward,
    affinity_forward_batched,
    conv3x3_replicate,
    conv3x3_replicate_backward,
    dspn_step_forward,
    refine_forward_batched,
)
from dspn.errors import InvalidPosition, ShapeMismatch
from dspn.gradcheck import dspn_backward

from oracles import (
    affinity_ref,
    conv3x3_replicate_backward_ref,
    conv3x3_replicate_ref,
    dspn_refine_ref,
    dspn_step_ref,
    ring_offsets,
)


def rand_setup(seed, h=6, w=6, d_f=4, d_e=4, k=3, offset_mag=0.45):
    rng = np.random.default_rng(seed)
    n = k * k - 1
    features = Grid(rng.uniform(0.0, 1.0, (h, w, d_f)))
    emb = EmbeddingParams(
        rng.normal(0.0, 0.4, (d_e, d_f)), rng.normal(0.0, 0.4, (d_e, d_f))
    )
    offsets = OffsetField(k, rng.uniform(-offset_mag, offset_mag, (h, w, n, 2)))
    values = rng.uniform(0.0, 10.0, (h, w))
    return values, features, offsets, emb, rng


class TestNeighborhood:
    def test_zero_offsets_give_integer_ring(self):
        off = OffsetField.zeros(12, 12, 3)
        nbrs = deformed_neighborhood((5, 5), 3, off)
        expected = [(5 + dx, 5 + dy) for dx, dy in ring_offsets(3)]
        assert [(p.x, p.y) for p in nbrs] == expected

    def test_uniform_translation(self):
        delta = np.zeros((8, 8, 8, 2))
        delta[:, :, :, 0] = 0.5
        nbrs = deformed_neighborhood((4, 4), 3, OffsetField(3, delta))
        expected = [(4 + dx + 0.5, 4 + dy) for dx, dy in ring_offsets(3)]
        assert [(p.x, p.y) for p in nbrs] == pytest.approx(expected)

    def test_corner_positions_may_leave_image(self):
        nbrs = deformed_neighborhood((0, 0), 3, OffsetField.zeros(8, 8, 3))
        assert any(p.x < 0 or p.y < 0 for p in nbrs)


class TestAffinity:
    def test_constant_features_uniform_weights(self):
        features = Grid(np.full((5, 5, 3), 0.7))
        emb = EmbeddingParams(np.ones((3, 3)), np.full((3, 3), 0.5))
        nbrs = deformed_neighborhood((2, 2), 3, OffsetField.zeros(5, 5, 3))
        w = compute_affinity(features, emb, (2, 2), nbrs)
        assert np.allclose(w.neighbor_weights, 1.0 / 9.0, atol=1e-12)
        assert w.self_weight == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_zero_theta_uniform_weights(self):
        _, features, offsets, emb, _ = rand_setup(0)
        emb_zero = EmbeddingParams(np.zeros_like(emb.g_theta), emb.g_phi)
        nbrs = deformed_neighborhood((3, 3), 3, offsets)
        w = compute_affinity(features, emb_zero, (3, 3), nbrs)
        assert np.allclose(w.neighbor_weights, 1.0 / 9.0, atol=1e-12)

    def test_two_neighbor_scalar_softmax(self):
        features = Grid(np.array([[[0.2, 0.9], [0.5, 0.1]], [[0.8, 0.4], [0.3, 0.6]]]))
        emb = EmbeddingParams(np.array([[1.0, -0.5], [0.25, 0.75]]),
                              np.array([[0.5, 0.5], [-1.0, 0.25]]))
        nbrs = [(1.25, 0.5), (0.0, 1.0)]
        w = compute_affinity(features, emb, (0, 0), nbrs)
        ref_w, ref_self = affinity_ref(features.data, emb.g_theta, emb.g_phi, 0, 0, nbrs)
        assert np.abs(np.asarray(ref_w) - w.neighbor_weights).max() <= 1e-12
        assert w.self_weight == pytest.approx(ref_self, abs=1e-12)

    def test_distribution_sums_to_one_strictly_positive(self):
        for seed in range(30):
            values, features, offsets, emb, _ = rand_setup(seed)
            nbrs = deformed_neighborhood((2, 3), 3, offsets)
            w = compute_affinity(features, emb, (2, 3), nbrs)
            assert w.neighbor_weights.min() > 0.0
            assert w.self_weight > 0.0
            assert w.neighbor_weights.sum() < 1.0
            total = w.neighbor_weights.sum() + w.self_weight
            assert abs(total - 1.0) <= 1e-9

    def test_field_matches_per_pixel_op(self):
        values, features, offsets, emb, _ = rand_setup(5)
        state = affinity_forward(features.data, offsets.delta, emb, 3)
        for (x, y) in [(0, 0), (3, 2), (5, 5), (1, 4)]:
            nbrs = deformed_neighborhood((x, y), 3, offsets)
            w = compute_affinity(features, emb, (x, y), nbrs)
            assert np.abs(state.w_nb[0, y, x] - w.neighbor_weights).max() <= 1e-12
            assert abs(state.w_self[0, y, x] - w.self_weight) <= 1e-12

    def test_scene_stack_matches_single_scene_calls(self):
        # three different scenes in one stack: a wrong flat stack index in a
        # gather would read another scene's features
        setups = [rand_setup(seed) for seed in (7, 8, 9)]
        emb = setups[0][3]
        F = np.stack([features.data for _, features, _, _, _ in setups])
        delta = np.stack([offsets.delta for _, _, offsets, _, _ in setups])
        stacked = affinity_forward_batched(F, delta, emb, 3)
        for i in range(3):
            single = affinity_forward_batched(F[i : i + 1], delta[i : i + 1], emb, 3)
            for got, want in ((stacked.w_nb[i], single.w_nb[0]), (stacked.w_self[i], single.w_self[0])):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_max_shift_equals_naive_softmax(self):
        values, features, offsets, emb, _ = rand_setup(6)
        nbrs = deformed_neighborhood((4, 1), 3, offsets)
        w = compute_affinity(features, emb, (4, 1), nbrs)
        naive_w, naive_self = affinity_ref(
            features.data, emb.g_theta, emb.g_phi, 4, 1, nbrs, shift=False
        )
        assert np.abs(w.neighbor_weights - np.asarray(naive_w)).max() <= 1e-12
        assert abs(w.self_weight - naive_self) <= 1e-12

    @pytest.mark.parametrize("pixel", [(-1, 0), (0, -1), (9, 0), (0, 4), (4, 0)])
    def test_pixel_outside_grid_rejected(self, pixel):
        # a negative index must not wrap round to the far border
        _, features, offsets, emb, _ = rand_setup(0, h=4, w=4)
        with pytest.raises(InvalidPosition):
            deformed_neighborhood(pixel, 3, offsets)
        nbrs = deformed_neighborhood((1, 1), 3, offsets)
        with pytest.raises(InvalidPosition):
            compute_affinity(features, emb, pixel, nbrs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_neighbour_rejected(self, bad, axis):
        # a non-finite position is an invalid input (a DspnError, exit 2),
        # never a NaN weight; bilinear_sample runs the same check
        _, features, offsets, emb, _ = rand_setup(0, h=4, w=4)
        nbrs = [tuple(p) for p in deformed_neighborhood((1, 1), 3, offsets)]
        nbrs[5] = (bad, 1.0) if axis == 0 else (1.0, bad)
        with pytest.raises(InvalidPosition):
            compute_affinity(features, emb, (1, 1), nbrs)


class TestStep:
    def test_constant_map_preserved_exactly(self):
        _, features, offsets, emb, _ = rand_setup(1)
        H = Grid(np.full((6, 6), 3.25))
        out = dspn_step(H, features, offsets, emb)
        assert np.array_equal(out.channel(0), H.channel(0))

    def test_zero_offsets_constant_features_box_mean(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0.0, 9.0, (7, 7))
        features = Grid(np.full((7, 7, 4), 0.4))
        emb = EmbeddingParams(rng.normal(0, 1, (4, 4)), rng.normal(0, 1, (4, 4)))
        out = dspn_step(Grid(values), features, OffsetField.zeros(7, 7, 3), emb).channel(0)
        padded = np.pad(values, 1, mode="edge")
        box = sum(padded[dy : dy + 7, dx : dx + 7] for dy in range(3) for dx in range(3)) / 9.0
        assert np.abs(out - box).max() <= 1e-12

    def test_box_mean_relates_to_uniform_cspn(self):
        # same setup as above: the fixed-stencil step excludes the center
        # (self-weight 0), the deformable one includes it at 1/9
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 9.0, (6, 6))
        features = Grid(np.full((6, 6, 2), 1.0))
        emb = EmbeddingParams(np.ones((2, 2)), np.ones((2, 2)))
        dspn_out = dspn_step(Grid(values), features, OffsetField.zeros(6, 6, 3), emb).channel(0)
        cspn_out = cspn_step(Grid(values), AffinityStencilField.uniform(6, 6, 3)).channel(0)
        assert np.abs(dspn_out - (8.0 * cspn_out + values) / 9.0).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_oracle(self, seed):
        values, features, offsets, emb, _ = rand_setup(seed, h=5, w=5)
        out = dspn_step(Grid(values), features, offsets, emb).channel(0)
        ref = dspn_step_ref(values, features.data, offsets.delta, emb.g_theta, emb.g_phi, 3)
        assert np.abs(out - ref).max() <= 1e-12

    def test_maximum_principle(self):
        for seed in range(30):
            values, features, offsets, emb, _ = rand_setup(seed, offset_mag=1.5)
            out = dspn_step(Grid(values), features, offsets, emb).channel(0)
            assert out.min() >= values.min()
            assert out.max() <= values.max()

    def test_offset_equivariance_under_integer_shift(self):
        # the same 10x10 patch placed at two integer positions of a larger
        # canvas yields identically shifted outputs at patch-interior pixels
        # (the receptive radius is ring 1 + |offset| 0.45 + bilinear 1 < 3)
        values, features, offsets, emb, rng = rand_setup(9, h=10, w=10)
        sx, sy = 2, 1
        big = 16

        def canvas(oy, ox):
            v = rng.uniform(0.0, 10.0, (big, big))
            f = rng.uniform(0.0, 1.0, (big, big, 4))
            d = rng.uniform(-0.4, 0.4, (big, big, 8, 2))
            v[oy : oy + 10, ox : ox + 10] = values
            f[oy : oy + 10, ox : ox + 10] = features.data
            d[oy : oy + 10, ox : ox + 10] = offsets.delta
            return dspn_step(Grid(v), Grid(f), OffsetField(3, d), emb).channel(0)

        out_a = canvas(0, 0)
        out_b = canvas(sy, sx)
        inner_a = out_a[3:7, 3:7]
        inner_b = out_b[3 + sy : 7 + sy, 3 + sx : 7 + sx]
        assert np.abs(inner_a - inner_b).max() <= 1e-12

    def test_swapping_embeddings_changes_result(self):
        values, features, offsets, emb, _ = rand_setup(10)
        out = dspn_step(Grid(values), features, offsets, emb).channel(0)
        swapped = EmbeddingParams(emb.g_phi, emb.g_theta)
        out_swapped = dspn_step(Grid(values), features, offsets, swapped).channel(0)
        assert np.abs(out - out_swapped).max() > 1e-6

    def test_shape_checks(self):
        values, features, offsets, emb, _ = rand_setup(11)
        with pytest.raises(ShapeMismatch):
            dspn_step(Grid.zeros(4, 4), features, offsets, emb)
        bad_emb = EmbeddingParams(np.zeros((4, 7)), np.zeros((4, 7)))
        with pytest.raises(ShapeMismatch):
            dspn_step(Grid(values), features, offsets, bad_emb)


class TestConv:
    # the flat-shift form computes outputs on the pad columns and drops
    # them; 1-pixel-wide maps have nothing but edges
    SHAPES = pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (5, 7), (2, 5, 7)])
    CHANNELS = pytest.mark.parametrize("c_in,c_out", [(1, 3), (6, 8), (8, 16)])

    @staticmethod
    def _draw(shape, c_in, c_out):
        rng = np.random.default_rng(sum(shape) + c_in)
        x = rng.standard_normal(shape + (c_in,))
        w = rng.standard_normal((c_out, c_in, 3, 3))
        b = rng.standard_normal(c_out)
        return rng, x, w, b

    @SHAPES
    @CHANNELS
    def test_matches_scalar_oracle(self, shape, c_in, c_out):
        _, x, w, b = self._draw(shape, c_in, c_out)
        out = conv3x3_replicate(x, w, b)
        assert out.shape == shape + (c_out,)
        scenes = x.reshape((-1,) + x.shape[-3:])
        ref = np.stack([conv3x3_replicate_ref(s, w, b) for s in scenes]).reshape(out.shape)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    @SHAPES
    @CHANNELS
    @pytest.mark.parametrize("band_rows", [1, 2, 3])
    def test_row_bands_change_nothing(self, monkeypatch, shape, c_in, c_out, band_rows):
        # bands of at most band_rows rows, split evenly: 9 rows run as
        # 2+2+2+2+1 or 3+3+3, 5 rows as 2+2+1 or 3+2, and each scene of the
        # (2, 5, 7) stack starts a band of its own; a one-row band of a
        # 1-wide map has a single valid output, whose GEMM must still give
        # the same bits
        _, x, w, b = self._draw(shape, c_in, c_out)
        height, width = shape[-2:]
        monkeypatch.setattr(deformable, "BAND_TAPS", 10**9)
        whole = conv3x3_replicate(x, w, b)
        monkeypatch.setattr(deformable, "BAND_TAPS", band_rows * width * c_in)
        assert len(list(deformable._row_bands(height, width, c_in))) == -(-height // band_rows)
        banded = conv3x3_replicate(x, w, b)
        assert np.array_equal(banded, whole)
        scenes = x.reshape((-1,) + x.shape[-3:])
        ref = np.stack([conv3x3_replicate_ref(s, w, b) for s in scenes]).reshape(banded.shape)
        np.testing.assert_allclose(banded, ref, rtol=1e-12, atol=1e-12)

    def test_forward_peak_is_its_input_output_and_one_band(self):
        # one 176x608 8 -> 16 layer, traced: the edge-padded input, the
        # output (with the pad columns that its returned view drops) and one
        # band's GEMM term, with 128 KiB for the weights and numpy's 64 KiB
        # ufunc buffer (the bias broadcasts); a whole-map accumulator or term
        # (13.9 MB) would overshoot
        h, w, c_in, c_out = 176, 608, 8, 16
        rng = np.random.default_rng(8)
        x = rng.standard_normal((h, w, c_in))
        weights = rng.standard_normal((c_out, c_in, 3, 3))
        bias = rng.standard_normal(c_out)
        band = next(deformable._row_bands(h, w, c_in))
        padded = (h + 2) * (w + 2) * c_in * 8
        output = h * (w + 2) * c_out * 8
        term = band.stop * (w + 2) * c_out * 8
        tracemalloc.start()
        try:
            out = conv3x3_replicate(x, weights, bias)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (h, w, c_out)
        assert peak <= padded + output + term + 131072

    @SHAPES
    @CHANNELS
    def test_backward_matches_scalar_oracle(self, shape, c_in, c_out):
        rng, x, w, _ = self._draw(shape, c_in, c_out)
        d_out = rng.standard_normal(shape + (c_out,))
        d_w, d_b, d_x = conv3x3_replicate_backward(x, w, d_out)
        assert (d_w.shape, d_b.shape, d_x.shape) == (w.shape, (c_out,), x.shape)
        scenes = zip(x.reshape((-1,) + x.shape[-3:]), d_out.reshape((-1,) + d_out.shape[-3:]))
        refs = [conv3x3_replicate_backward_ref(s, w, g) for s, g in scenes]
        np.testing.assert_allclose(d_w, sum(r[0] for r in refs), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(d_b, sum(r[1] for r in refs), rtol=1e-12, atol=1e-12)
        ref_x = np.stack([r[2] for r in refs]).reshape(x.shape)
        np.testing.assert_allclose(d_x, ref_x, rtol=1e-12, atol=1e-12)


class TestBands:
    """Row bands change no pixel's arithmetic: one band, one-row bands and a
    ragged last band give bit-identical results."""

    # 7 rows of 5 pixels, in step bands of the given height; the affinity's
    # bands hold half as many taps: one band each, one-row bands, and step
    # bands of 6 and 1 rows with affinity bands of 3, 3 and 1
    BAND_ROWS = {"one band": 14, "one-row bands": 1, "ragged": 6}

    def _run(self, monkeypatch, band_rows, k):
        s, h, w, n = 2, 7, 5, k * k - 1
        monkeypatch.setattr(deformable, "BAND_TAPS", band_rows * w * n)
        rng = np.random.default_rng(40 + k)
        feats = rng.uniform(0.0, 1.0, (s, h, w, 4))
        delta = rng.uniform(-1.5, 1.5, (s, h, w, n, 2))
        emb = EmbeddingParams(rng.normal(0.0, 0.4, (4, 4)), rng.normal(0.0, 0.4, (4, 4)))
        aff = affinity_forward_batched(feats, delta, emb, k)
        state = refine_forward_batched(
            rng.uniform(0.0, 10.0, (s, h, w)), rng.uniform(0.0, 10.0, (s, h, w)),
            rng.uniform(0.0, 1.0, (s, h, w)) * (rng.random((s, h, w)) < 0.3), aff, 3,
        )
        arrays = {"w_nb": aff.w_nb, "w_self": aff.w_self, "out": state.out}
        for name in ("index", "weights"):
            arrays["taps." + name] = getattr(aff.taps, name)
        for i, h_in in enumerate(state.inputs):
            arrays[f"h_in{i}"] = h_in
        for name, g in dspn_backward(rng.standard_normal((s, h, w)), state).items():
            arrays["d_" + name] = g
        return arrays

    @pytest.mark.parametrize("k", [3, 5])
    def test_band_height_changes_nothing(self, monkeypatch, k):
        runs = {label: self._run(monkeypatch, rows, k) for label, rows in self.BAND_ROWS.items()}
        base = runs.pop("one band")
        for label, arrays in runs.items():
            for name, arr in base.items():
                assert np.array_equal(arrays[name], arr), (label, name)

    def test_multi_band_step_matches_scalar_oracle(self, monkeypatch):
        # 6x6 at k=3 with 96 taps per band: three bands of two rows
        monkeypatch.setattr(deformable, "BAND_TAPS", 2 * 6 * 8)
        values, features, offsets, emb, _ = rand_setup(50, offset_mag=1.5)
        out = dspn_step(Grid(values), features, offsets, emb).channel(0)
        ref = dspn_step_ref(values, features.data, offsets.delta, emb.g_theta, emb.g_phi, 3)
        assert np.abs(out - ref).max() <= 1e-12

    @pytest.mark.parametrize("k,bands", [(3, 1), (5, 4)])
    def test_bands_are_sized_in_taps(self, k, bands):
        # a 64x64 training scene is one band at k=3; at k=5 it has three
        # times the taps per row, so it splits
        assert len(list(deformable._row_bands(64, 64, k * k - 1))) == bands
        assert len(list(deformable._row_bands(176, 608, 8))) == 30  # 6 rows each


class TestCores:
    """The affinity's and the steps' bands share the process's cores: the
    outputs are bit-identical for any number of helper threads, and no layer
    that a tracer may wrap runs off the calling thread."""

    @staticmethod
    def _outputs(k):
        # TestBands' shape, 2 scenes of 7 rows of 5 pixels; the tests set the bands
        s, h, w, n = 2, 7, 5, k * k - 1
        rng = np.random.default_rng(60 + k)
        feats = rng.uniform(0.0, 1.0, (s, h, w, 4))
        delta = rng.uniform(-1.5, 1.5, (s, h, w, n, 2))
        emb = EmbeddingParams(rng.normal(0.0, 0.4, (4, 4)), rng.normal(0.0, 0.4, (4, 4)))
        maps = rng.uniform(0.0, 10.0, (3, s, h, w))
        aff = affinity_forward_batched(feats, delta, emb, k)
        refined = dspn_refine(
            Grid(maps[0, 0]), Grid(maps[1, 0]), Grid((maps[2, 0] < 3.0).astype(np.float64)),
            Grid(maps[2, 0] / 10.0), Grid(feats[0]), OffsetField(k, delta[0]), emb, 3,
        )
        return {
            "w_nb": aff.w_nb, "w_self": aff.w_self, "taps.index": aff.taps.index,
            "taps.weights": aff.taps.weights, "step": dspn_step_forward(maps[0], aff),
            "refined": refined.data,
        }

    @pytest.mark.parametrize("k", [3, 5])
    def test_worker_count_changes_nothing(self, monkeypatch, runner, k):
        monkeypatch.setattr(deformable, "BAND_TAPS", 5 * (k * k - 1))
        runs = {}
        for helpers in (0, 1, 3):
            runner(helpers)
            runs[helpers] = self._outputs(k)
        for helpers in (1, 3):
            for name, arr in runs[0].items():
                assert np.array_equal(runs[helpers][name], arr), (helpers, name)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch, runner):
        # every band writes rows that start out as np.empty garbage, so a
        # band lost or run twice into another's rows breaks the equality;
        # the rounds run on a thread of their own, joined with a timeout.
        # The cap on helpers bounds memory, not correctness, so it is lifted
        monkeypatch.setattr(deformable, "BAND_TAPS", 5 * 8)
        runner(0)
        want = self._outputs(3)
        helpers = 2 * os.cpu_count() + 1
        monkeypatch.setattr(deformable, "MAX_HELPERS", helpers)
        assert runner(helpers).helpers == helpers
        results, done = [], []

        def rounds():
            deadline = time.monotonic() + 2.0
            while len(results) < 50 and (len(results) < 3 or time.monotonic() < deadline):
                results.append(self._outputs(3))
            done.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=rounds)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and done
        for got in results:
            for name, arr in want.items():
                assert np.array_equal(got[name], arr), name

    def test_bands_reach_a_helper_and_layers_stay_on_the_caller(self, monkeypatch, runner):
        # every layer function a tracer may wrap records its thread; so do
        # the bands, through the taps' row views, and the caller's first
        # band waits until a helper has taken one
        caller = threading.get_ident()
        layer_threads, band_threads = set(), set()
        helper_took = threading.Event()

        def recorded(fn):
            def call(*args, **kwargs):
                layer_threads.add(threading.get_ident())
                return fn(*args, **kwargs)
            return call

        for owner, name in [
            (deformable, "conv3x3_replicate"), (deformable, "offset_estimator_forward"),
            (deformable, "affinity_forward_batched"), (deformable, "dspn_step_forward"),
            (deformable, "refine_forward_batched"), (deformable, "dspn_refine_forward"),
            (cspn, "cspn_step"), (cspn, "hard_replace"), (grid.Grid, "__init__"),
        ]:
            monkeypatch.setattr(owner, name, recorded(getattr(owner, name)))
        rows = grid.Taps.rows

        def rows_recorded(taps, band):
            band_threads.add(threading.get_ident())
            if threading.get_ident() == caller:
                helper_took.wait(timeout=30)
            else:
                helper_took.set()
            return rows(taps, band)

        monkeypatch.setattr(grid.Taps, "rows", rows_recorded)
        monkeypatch.setattr(deformable, "BAND_TAPS", 5 * 8)
        runner(1)
        self._outputs(3)
        assert helper_took.is_set() and layer_threads == {caller}
        assert caller in band_threads and len(band_threads) == 2

    def test_a_helpers_exception_arrives_after_every_band(self, runner):
        # the caller's first band waits until the helper's band has failed,
        # so the caller still has bands to run when the exception is raised
        bands = list(range(12))
        finished, running, raised = [], [], []
        helper_failed = threading.Event()

        def body(band):
            running.append(band)
            if threading.get_ident() != caller and not raised:
                raised.append(band)
                running.remove(band)
                helper_failed.set()
                raise ValueError(f"band {band}")
            if threading.get_ident() == caller:
                helper_failed.wait(timeout=30)
            finished.append(band)
            running.remove(band)

        caller = threading.get_ident()
        with pytest.raises(ValueError, match=r"^band \d+$"):
            runner(1).run(bands, body)
        assert len(raised) == 1 and not running
        assert sorted(finished + raised) == bands

    @pytest.mark.parametrize("bands", [1, deformable.SHARED_BANDS - 1])
    def test_a_map_of_few_bands_runs_on_the_caller_and_starts_no_thread(self, bands):
        # below SHARED_BANDS a handoff costs more than it gains: every
        # 64x64 affinity and step at k = 3 and 5 stays on the caller
        assert len(list(deformable._row_bands(64, 64, 2 * 24))) < deformable.SHARED_BANDS
        threads = []
        r = deformable._BandRunner(3)
        try:
            r.run(range(bands), lambda band: threads.append(threading.get_ident()))
            assert threads == [threading.get_ident()] * bands and r._pool is None
        finally:
            r.close()

    @staticmethod
    def _python(code):
        """Run ``code`` in a fresh interpreter that imports this checkout's package."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_importing_the_package_starts_no_thread(self):
        assert self._python("import threading, dspn.cli; print(threading.active_count())") == "1"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_forked_child_starts_helpers_of_its_own(self):
        # the child inherits the started pool but not its threads; a
        # multi-band step there must still finish, and give the same bits
        code = (
            "import os, signal, numpy as np\n"
            "from dspn import deformable\n"
            "deformable.BAND_TAPS, deformable.SHARED_BANDS = 40, 2\n"
            "rng = np.random.default_rng(1)\n"
            "feats, delta = rng.uniform(size=(1, 7, 5, 4)), rng.uniform(-1.5, 1.5, (1, 7, 5, 8, 2))\n"
            "emb = deformable.EmbeddingParams(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))\n"
            "want = deformable.affinity_forward_batched(feats, delta, emb, 3).w_nb\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(20)  # a child that hangs ends, and its status says so\n"
            "    got = deformable.affinity_forward_batched(feats, delta, emb, 3).w_nb\n"
            "    os._exit(0 if np.array_equal(got, want) else 3)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        assert self._python(code) == "0"


class TestEstimator:
    def test_zero_initialized_final_layer_gives_zero_offsets(self):
        rng = np.random.default_rng(12)
        features = Grid(rng.uniform(0.0, 1.0, (9, 9, 6)))
        params = OffsetEstimatorParams.init(6, hidden_channels=8, kernel_size=3, seed=1)
        out = offset_estimator(features, params)
        assert np.array_equal(out.delta, np.zeros((9, 9, 8, 2)))

    def test_output_shape(self):
        rng = np.random.default_rng(13)
        features = Grid(rng.uniform(0.0, 1.0, (5, 7, 4)))
        params = OffsetEstimatorParams.init(4, hidden_channels=5, kernel_size=3, seed=2)
        # 2 * (k^2 - 1) = 16 output channels for k = 3
        assert params.w3.shape[0] == 16
        out = offset_estimator(features, params)
        assert out.delta.shape == (5, 7, 8, 2)

    def test_channel_mismatch_rejected(self):
        params = OffsetEstimatorParams.init(4, hidden_channels=16, kernel_size=3, seed=3)
        with pytest.raises(ShapeMismatch):
            offset_estimator(Grid.zeros(5, 5, channels=3), params)


class TestRefine:
    def _instance(self, seed, h=8, w=8):
        values, features, offsets, emb, rng = rand_setup(seed, h=h, w=w)
        ds = rng.uniform(0.0, 10.0, (h, w))
        mask = (rng.random((h, w)) < 0.3).astype(np.float64)
        conf = rng.uniform(0.0, 1.0, (h, w))
        return values, ds, mask, conf, features, offsets, emb

    def test_zero_iters_returns_input(self):
        values, ds, mask, conf, features, offsets, emb = self._instance(20)
        out = dspn_refine(
            Grid(values), Grid(ds), Grid(mask), Grid(conf), features, offsets, emb, 0
        )
        assert np.array_equal(out.channel(0), values)

    def test_full_confidence_pixels_pinned_to_sparse(self):
        values, ds, mask, conf, features, offsets, emb = self._instance(21)
        conf = np.where(mask == 1.0, 1.0, conf)
        current = Grid(values)
        for _ in range(3):
            current = dspn_refine(
                current, Grid(ds), Grid(mask), Grid(conf), features, offsets, emb, 1
            )
            assert np.array_equal(current.channel(0)[mask == 1.0], ds[mask == 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_oracle(self, seed):
        values, ds, mask, conf, features, offsets, emb = self._instance(seed + 30)
        out = dspn_refine(
            Grid(values), Grid(ds), Grid(mask), Grid(conf), features, offsets, emb, 3
        ).channel(0)
        ref = dspn_refine_ref(
            values, ds, mask, conf, features.data, offsets.delta, emb.g_theta, emb.g_phi, 3, 3
        )
        assert np.abs(out - ref).max() <= 1e-12
