import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dspn import (
    Grid,
    SceneSpec,
    SparseSpec,
    build_features,
    coarse_predict,
    gen_scene,
    sample_sparse,
)
from dspn.errors import EmptySparse, InvalidConfig, InvalidMask, ShapeMismatch
from dspn.synth import _nearest_valid_fill, box_blur3, build_scene, prepare_scene, suite_seeds

from oracles import coarse_predict_ref, nearest_fill_ref


class TestScenes:
    def test_plane_is_constant_midrange(self):
        g = gen_scene(SceneSpec("plane", 16, 16, 4.0, 6.0), seed=0)
        assert np.all(g.channel(0) == 5.0)

    def test_same_seed_bit_identical(self):
        a = gen_scene(SceneSpec("composite", 32, 32, 1.0, 10.0), seed=9)
        b = gen_scene(SceneSpec("composite", 32, 32, 1.0, 10.0), seed=9)
        assert np.array_equal(a.channel(0), b.channel(0))

    def test_step_scene_two_exact_depths(self):
        spec = SceneSpec("step", 24, 24, 2.0, 7.0)
        vals = gen_scene(spec, seed=3).channel(0)
        assert set(np.unique(vals)) == {2.0, 7.0}

    def test_step_scene_has_axis_aligned_and_diagonal_boundaries(self):
        vals = gen_scene(SceneSpec("step", 24, 24, 2.0, 7.0), seed=4).channel(0)
        # boundary column per row: constant in the top half, marching by one
        # per row below (until the diagonal leaves the image)
        has_both = (vals == 7.0).any(axis=1) & (vals == 2.0).any(axis=1)
        cols = np.argmax(vals == 7.0, axis=1)
        top = cols[: 24 // 2]
        bottom = cols[24 // 2 :][has_both[24 // 2 :]]
        assert np.all(top == top[0])
        assert np.all(np.diff(bottom) == 1) and bottom.size > 3

    @pytest.mark.parametrize("kind", ["plane", "step", "slope", "sphere-cap", "composite"])
    def test_depths_within_declared_range(self, kind):
        spec = SceneSpec(kind, 20, 18, 1.5, 8.0)
        vals = gen_scene(spec, seed=11).channel(0)
        assert vals.min() >= 1.5 and vals.max() <= 8.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidConfig):
            SceneSpec("plane", 4, 16, 1.0, 2.0)
        with pytest.raises(InvalidConfig):
            SceneSpec("plane", 16, 16, -1.0, 2.0)
        with pytest.raises(InvalidConfig):
            SceneSpec("tetrahedron", 16, 16, 1.0, 2.0)
        with pytest.raises(InvalidConfig):
            SparseSpec(density=0.0)
        with pytest.raises(InvalidConfig):
            SparseSpec(outlier_fraction=1.0)


class TestSampling:
    def test_full_density_no_noise_is_identity(self):
        dstar = gen_scene(SceneSpec("composite", 16, 16, 1.0, 9.0), seed=1)
        ds, m = sample_sparse(dstar, SparseSpec(1.0, 0.0, 0.0, 0.0), seed=2)
        assert np.array_equal(ds.channel(0), dstar.channel(0))
        assert np.all(m.channel(0) == 1.0)

    def test_mask_reproducible_and_seed_sensitive(self):
        dstar = gen_scene(SceneSpec("slope", 32, 32, 1.0, 9.0), seed=5)
        _, m1 = sample_sparse(dstar, SparseSpec(0.1, 0.0, 0.0, 0.0), seed=7)
        _, m2 = sample_sparse(dstar, SparseSpec(0.1, 0.0, 0.0, 0.0), seed=7)
        _, m3 = sample_sparse(dstar, SparseSpec(0.1, 0.0, 0.0, 0.0), seed=8)
        assert np.array_equal(m1.channel(0), m2.channel(0))
        assert not np.array_equal(m1.channel(0), m3.channel(0))

    def test_unnoised_kept_pixels_match_ground_truth(self):
        dstar = gen_scene(SceneSpec("composite", 24, 24, 1.0, 9.0), seed=6)
        ds, m = sample_sparse(dstar, SparseSpec(0.2, 0.0, 0.0, 0.0), seed=9)
        mask = m.channel(0)
        assert np.array_equal(ds.channel(0)[mask == 1.0], dstar.channel(0)[mask == 1.0])
        assert np.all(ds.channel(0)[mask == 0.0] == 0.0)

    def test_empirical_density(self):
        dstar = gen_scene(SceneSpec("plane", 64, 64, 4.0, 6.0), seed=0)
        fractions = [
            sample_sparse(dstar, SparseSpec(0.05, 0.0, 0.0, 0.0), seed=s)[1].channel(0).mean()
            for s in range(100)
        ]
        assert abs(np.mean(fractions) - 0.05) <= 0.01

    def test_outliers_only_on_kept_pixels(self):
        dstar = gen_scene(SceneSpec("plane", 32, 32, 4.0, 6.0), seed=0)
        ds, m = sample_sparse(dstar, SparseSpec(0.3, 0.0, 0.5, 2.0), seed=4)
        mask = m.channel(0)
        assert np.all(ds.channel(0)[mask == 0.0] == 0.0)
        # roughly half of the kept pixels moved
        moved = ds.channel(0)[mask == 1.0] != dstar.channel(0)[mask == 1.0]
        assert 0.2 < moved.mean() < 0.8


class TestCoarse:
    def test_full_mask_reduces_to_double_blur(self):
        dstar = gen_scene(SceneSpec("composite", 16, 16, 1.0, 9.0), seed=2)
        ds, m = sample_sparse(dstar, SparseSpec(1.0, 0.0, 0.0, 0.0), seed=3)
        d0 = coarse_predict(ds, m)
        expected = box_blur3(box_blur3(dstar.channel(0)))
        assert np.abs(d0.channel(0) - expected).max() <= 1e-15

    def test_single_valid_pixel_gives_constant(self):
        vals = np.zeros((10, 10))
        mask = np.zeros((10, 10))
        vals[4, 7] = 3.5
        mask[4, 7] = 1.0
        d0 = coarse_predict(Grid(vals), Grid(mask))
        assert np.allclose(d0.channel(0), 3.5, atol=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(13)
        vals = rng.uniform(1.0, 9.0, (10, 10))
        mask = (rng.random((10, 10)) < 0.15).astype(np.float64)
        if not mask.any():
            mask[0, 0] = 1.0
        ds = np.where(mask == 1.0, vals, 0.0)
        d0 = coarse_predict(Grid(ds), Grid(mask))
        ref = coarse_predict_ref(ds, mask)
        assert np.abs(d0.channel(0) - ref).max() <= 1e-12

    def test_all_invalid_rejected(self):
        with pytest.raises(EmptySparse):
            coarse_predict(Grid.zeros(8, 8), Grid.zeros(8, 8))
        with pytest.raises(InvalidMask):
            coarse_predict(Grid.zeros(8, 8), Grid.full(8, 8, 0.5))
        with pytest.raises(ShapeMismatch):
            coarse_predict(Grid.zeros(4, 4), Grid.full(5, 5, 1.0))
        with pytest.raises(ShapeMismatch):
            coarse_predict(Grid.full(4, 4, 2.0), Grid.full(3, 3, 1.0))

    def test_output_within_valid_range(self):
        dstar = gen_scene(SceneSpec("composite", 24, 24, 1.0, 9.0), seed=8)
        ds, m = sample_sparse(dstar, SparseSpec(0.1, 0.02, 0.0, 0.0), seed=9)
        d0 = coarse_predict(ds, m).channel(0)
        valid = ds.channel(0)[m.channel(0) == 1.0]
        assert d0.min() >= valid.min() - 1e-12
        assert d0.max() <= valid.max() + 1e-12


def _assert_fill_matches_ref(mask):
    # every pixel holds its own value, so picking the wrong one of two tied
    # valid pixels changes the output
    mask = np.asarray(mask, dtype=np.float64)
    vals = np.arange(1.0, mask.size + 1.0).reshape(mask.shape)
    ds = np.where(mask == 1.0, vals, 0.0)
    assert np.array_equal(_nearest_valid_fill(ds, mask), nearest_fill_ref(ds, mask))


def _mask_with(h, w, points):
    mask = np.zeros((h, w))
    for y, x in points:
        mask[y, x] = 1.0
    return mask


class TestNearestFill:
    @pytest.mark.parametrize("stride", [2, 3, 4])
    @pytest.mark.parametrize("phase", [(0, 0), (1, 0), (1, 2)])
    def test_lattice(self, stride, phase):
        mask = np.zeros((13, 11))
        mask[phase[0] % stride :: stride, phase[1] % stride :: stride] = 1.0
        _assert_fill_matches_ref(mask)

    @pytest.mark.parametrize(
        "points",
        [
            [(4, 1), (4, 7)],  # horizontal pair: column 4 is equidistant
            [(1, 4), (7, 4)],  # vertical pair: row 4 is equidistant
            [(2, 2), (6, 6)],  # diagonal pair
            [(2, 6), (6, 2)],  # anti-diagonal pair
            [(2, 2), (2, 6), (6, 2), (6, 6)],  # four-way tie at the centre
            [(0, 4), (4, 0), (4, 8), (8, 4)],  # ties along both diagonals
        ],
    )
    def test_symmetric_pairs(self, points):
        _assert_fill_matches_ref(_mask_with(9, 9, points))

    @pytest.mark.parametrize("shape", [(7, 9), (8, 8), (9, 7), (2, 2)])
    def test_one_pixel_per_corner(self, shape):
        h, w = shape
        _assert_fill_matches_ref(_mask_with(h, w, [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)]))

    @pytest.mark.parametrize("points", [[(0, 3)], [(0, 0), (0, 8)], [(0, 2), (0, 4), (0, 5)]])
    def test_single_row(self, points):
        _assert_fill_matches_ref(_mask_with(1, 9, points))

    @pytest.mark.parametrize("points", [[(3, 0)], [(0, 0), (8, 0)], [(2, 0), (4, 0), (5, 0)]])
    def test_single_column(self, points):
        _assert_fill_matches_ref(_mask_with(9, 1, points))

    def test_single_pixel_grid(self):
        _assert_fill_matches_ref(np.ones((1, 1)))

    def test_full_mask(self):
        _assert_fill_matches_ref(np.ones((6, 7)))

    def test_empty_columns(self):
        mask = _mask_with(8, 12, [(0, 4), (7, 4), (3, 5), (5, 7), (2, 7)])
        _assert_fill_matches_ref(mask)
        alternate = np.zeros((7, 10))
        alternate[::2, 1::2] = 1.0
        _assert_fill_matches_ref(alternate)
        edge = np.zeros((6, 9))
        edge[:, 8] = 1.0
        _assert_fill_matches_ref(edge)

    @settings(max_examples=150, deadline=None)
    @given(
        h=st.integers(1, 10),
        w=st.integers(1, 10),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_random_masks(self, h, w, density, seed):
        rng = np.random.default_rng(seed)
        mask = (rng.random((h, w)) < density).astype(np.float64)
        if not mask.any():
            mask[rng.integers(h), rng.integers(w)] = 1.0
        _assert_fill_matches_ref(mask)

    @settings(max_examples=200, deadline=None)
    @given(
        sides=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        orientation=st.sampled_from(["wide", "tall", "square"]),
        lattice=st.none() | st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(0, 3)),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_both_orientations(self, sides, orientation, lattice, density, seed):
        # a wide map is filled as its transpose and a tall or square one as
        # it stands; lattice masks put many pixels at equal distance from
        # two or four valid ones
        short, long = sorted(sides)
        h, w = {"wide": (short, long), "tall": (long, short), "square": (long, long)}[orientation]
        rng = np.random.default_rng(seed)
        if lattice is None:
            mask = (rng.random((h, w)) < density).astype(np.float64)
        else:
            stride, dy, dx = lattice
            mask = np.zeros((h, w))
            mask[dy % stride :: stride, dx % stride :: stride] = 1.0
        if not mask.any():
            mask[rng.integers(h), rng.integers(w)] = 1.0
        _assert_fill_matches_ref(mask)


class TestFeatures:
    def test_constant_map_zero_gradient_channels(self):
        d0 = Grid.full(12, 12, 5.0)
        m = Grid.zeros(12, 12)
        f = build_features(d0, m, feature_channels=6).data
        assert np.all(f[:, :, 1] == 0.0) and np.all(f[:, :, 2] == 0.0)
        assert np.all(f[:, :, 0] == 0.5)  # degenerate range falls back to 0.5

    def test_step_gradients_nonzero_only_near_discontinuity(self):
        vals = np.where(np.arange(16)[np.newaxis, :] < 8, 2.0, 6.0) * np.ones((16, 1))
        f = build_features(Grid(vals), Grid.zeros(16, 16), feature_channels=6).data
        gx = f[:, :, 1]
        assert np.all(gx[:, [7, 8]] > 0.0)
        assert np.all(gx[:, :6] == 0.0) and np.all(gx[:, 10:] == 0.0)

    @pytest.mark.parametrize("d_f", [5, 6, 16])
    def test_channel_count_matches_request(self, d_f):
        d0 = Grid.full(9, 9, 2.0)
        f = build_features(d0, Grid.zeros(9, 9), feature_channels=d_f)
        assert f.channels == d_f

    def test_all_pipeline_outputs_finite(self):
        scene = prepare_scene(
            SceneSpec("composite", 32, 32, 1.0, 10.0),
            SparseSpec(0.05, 0.02, 0.1, 1.0),
            scene_seed=3,
            sparse_seed=4,
        )
        features = build_features(scene.d0, scene.m, 16)
        for g in (scene.dstar, scene.ds, scene.m, scene.d0, features, scene.conf):
            assert np.isfinite(g.data).all()

    def test_measurements_without_ground_truth_get_the_generated_front_end(self):
        # the file-input path: same coarse map and confidence as a generated
        # scene, and no ground truth
        spec, sparse = SceneSpec("step", 16, 16, 1.0, 10.0), SparseSpec(0.2, 0.02, 0.2, 1.0)
        ref = prepare_scene(spec, sparse, scene_seed=5, sparse_seed=6)
        scene = build_scene(None, ref.ds, ref.m)
        for name in ("d0", "conf"):
            assert np.array_equal(getattr(scene, name).data, getattr(ref, name).data)
        assert scene.dstar is None

    def test_scene_holds_no_feature_planes(self):
        # features are formed where they are read, so a scene holds its five
        # single-channel maps and nothing else
        scene = prepare_scene(SceneSpec("composite", 24, 16, 1.0, 10.0), SparseSpec(), scene_seed=3, sparse_seed=4)
        held = sum(g.data.nbytes for g in vars(scene).values() if isinstance(g, Grid))
        assert held <= 5 * 24 * 16 * 8

    def test_ground_truth_of_another_shape_rejected(self):
        ds, m = Grid.full(8, 8, 2.0), Grid.full(8, 8, 1.0)
        with pytest.raises(ShapeMismatch):
            build_scene(Grid.full(8, 6, 2.0), ds, m)


def test_suite_specs_are_distinct_and_deterministic():
    a = suite_seeds(5, base_seed=42)
    b = suite_seeds(5, base_seed=42)
    assert [sc for sc, _ in a] == [sc for sc, _ in b]
    assert len({sc for sc, _ in a}) == 5
