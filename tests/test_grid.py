import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dspn import Grid, bilinear_sample
from dspn.errors import InvalidGrid, InvalidPosition, ShapeMismatch
from dspn.grid import Taps, edge_fold, edge_pad, fractions, position_gradient

from oracles import bilinear_ref


@pytest.fixture
def quad():
    return Grid([[0.0, 4.0], [8.0, 12.0]])


@pytest.mark.parametrize(
    "pos,expected",
    [
        ((1.0, 0.0), 4.0),  # integer position returns the stored value
        ((0.5, 0.5), 6.0),  # center of four values is their mean
        ((0.25, 0.75), 7.0),
        ((-3.0, 0.0), 0.0),  # border clamp to (0, 0)
    ],
)
def test_bilinear_examples(quad, pos, expected):
    assert bilinear_sample(quad, pos) == pytest.approx(expected, abs=1e-12)


def test_integer_positions_match_direct_indexing():
    rng = np.random.default_rng(0)
    g = Grid(rng.uniform(0.0, 10.0, (7, 9)))
    for y in range(7):
        for x in range(9):
            assert bilinear_sample(g, (float(x), float(y))) == g.channel(0)[y, x]


def test_sample_within_neighbor_hull():
    rng = np.random.default_rng(1)
    g = Grid(rng.uniform(-5.0, 5.0, (6, 6)))
    vals = g.channel(0)
    for _ in range(500):
        px, py = rng.uniform(-2.0, 7.0, 2)
        x0, y0 = int(np.floor(px)), int(np.floor(py))
        corners = [
            vals[min(max(y, 0), 5), min(max(x, 0), 5)]
            for y in (y0, y0 + 1)
            for x in (x0, x0 + 1)
        ]
        s = bilinear_sample(g, (px, py))
        assert min(corners) <= s <= max(corners)


def test_sample_matches_scalar_reference():
    rng = np.random.default_rng(2)
    g = Grid(rng.uniform(0.0, 3.0, (5, 8)))
    for _ in range(200):
        px, py = rng.uniform(-1.5, 9.0), rng.uniform(-1.5, 6.0)
        assert bilinear_sample(g, (px, py)) == pytest.approx(
            bilinear_ref(g.channel(0), px, py), abs=1e-12
        )


def test_linearity_in_grid_values():
    rng = np.random.default_rng(3)
    v1 = rng.uniform(0.0, 4.0, (6, 6))
    v2 = rng.uniform(0.0, 4.0, (6, 6))
    a, b = 1.7, -0.4
    combo = Grid(a * v1 + b * v2)
    g1, g2 = Grid(v1), Grid(v2)
    for _ in range(100):
        px, py = rng.uniform(-1.0, 7.0, 2)
        lhs = bilinear_sample(combo, (px, py))
        rhs = a * bilinear_sample(g1, (px, py)) + b * bilinear_sample(g2, (px, py))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_non_finite_position_rejected(quad):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidPosition):
            bilinear_sample(quad, (bad, 0.0))
        with pytest.raises(InvalidPosition):
            bilinear_sample(quad, (0.0, bad))


def test_grid_validation():
    with pytest.raises(InvalidGrid):
        Grid(np.empty((0, 3)))
    with pytest.raises(InvalidGrid):
        Grid([[1.0, np.nan]])
    with pytest.raises(InvalidGrid):
        Grid(np.zeros(4))  # 1-D is not a grid


def test_grid_shape_accessors():
    g = Grid.zeros(width=5, height=3, channels=2)
    assert (g.width, g.height, g.channels) == (5, 3, 2)
    assert g.data.shape == (3, 5, 2)
    assert g.channel(1).shape == (3, 5)
    with pytest.raises(InvalidGrid):
        g.channel(2)


def test_grid_channels_default_single():
    g = Grid(np.ones((4, 4)))
    assert g.channels == 1
    assert g.data.shape == (4, 4, 1)


# -- the bilinear taps type -------------------------------------------------

stacks = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 3),  # scenes S
    st.integers(1, 6),  # height
    st.integers(1, 6),  # width
    st.integers(1, 12),  # taps per scene
)


def _random_taps(seed, s, h, w, k, margin=2.0):
    rng = np.random.default_rng(seed)
    px = rng.uniform(-margin, w - 1 + margin, (s, k))
    py = rng.uniform(-margin, h - 1 + margin, (s, k))
    return rng, px, py, Taps.at(px, py, w, h)


@settings(max_examples=60, deadline=None)
@given(stacks)
def test_taps_scatter_is_adjoint_of_lerp(case):
    seed, s, h, w, k = case
    rng, _, _, taps = _random_taps(seed, s, h, w, k)
    v = rng.uniform(-5.0, 5.0, (s, h, w))
    g = rng.uniform(-5.0, 5.0, (s, k))
    lhs = float((taps.lerp(taps.corners(edge_pad(v))) * g).sum())
    rhs = float((v * taps.scatter(g)).sum())
    scale = float((np.abs(v).max() * np.abs(g).sum()))
    assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(4))
def test_taps_lerp_is_the_left_to_right_sum_bit_for_bit(seed):
    # the propagation step samples through lerp band by band and the
    # backward re-blends the same corners whole-map, so the blend's bits
    # must not depend on the call: any reordered or fused (FMA) sum of the
    # four products differs from this one on some of the taps
    rng = np.random.default_rng(seed)
    s, h, w, n = 2, 9, 11, 8
    px = rng.integers(-2, w + 1, (s, h, w, n)) + rng.uniform(0.01, 0.99, (s, h, w, n))
    py = rng.integers(-2, h + 1, (s, h, w, n)) + rng.uniform(0.01, 0.99, (s, h, w, n))
    taps = Taps.at(px, py, w, h)
    padded = edge_pad(rng.uniform(-5.0, 5.0, (s, h, w)) * 10.0 ** rng.uniform(-3, 3, (s, h, w)))

    def left_to_right(part, c):
        wt = part.weights
        return wt[0] * c[0] + wt[1] * c[1] + wt[2] * c[2] + wt[3] * c[3]

    corners = taps.corners(padded)
    assert np.array_equal(taps.lerp(corners), left_to_right(taps, corners))
    for band in (slice(0, 4), slice(4, 9), slice(3, 4)):
        part = taps.rows(band)
        c = part.corners(padded)
        out = np.empty(part.index.shape)
        assert part.lerp(c, out=out) is out
        assert np.array_equal(out, left_to_right(part, c)), band


# H = 1 or W = 1 folds both pad rows (or columns) onto one edge row (column)
@settings(max_examples=80, deadline=None)
@given(stacks, st.sampled_from([(), (3,)]))
def test_edge_fold_is_adjoint_of_edge_pad(case, values):
    seed, s, h, w, _ = case
    rng = np.random.default_rng(seed)
    v = rng.uniform(-5.0, 5.0, (s, h, w) + values)
    u = rng.uniform(-5.0, 5.0, (s, h + 2, w + 2) + values)
    lhs = float((edge_pad(v) * u).sum())
    rhs = float((v * edge_fold(u.copy())).sum())
    assert abs(lhs - rhs) <= 1e-12 * float(np.abs(edge_pad(v) * u).sum())


@settings(max_examples=60, deadline=None)
@given(stacks)
def test_taps_sample_within_corner_hull(case):
    seed, s, h, w, k = case
    rng, px, py, taps = _random_taps(seed, s, h, w, k)
    v = rng.uniform(-5.0, 5.0, (s, h, w))
    out = taps.sample(edge_pad(v))
    x0, y0 = np.floor(px).astype(np.int64), np.floor(py).astype(np.int64)
    for i in range(s):
        for j in range(k):
            corners = [
                v[i, min(max(y, 0), h - 1), min(max(x, 0), w - 1)]
                for y in (y0[i, j], y0[i, j] + 1)
                for x in (x0[i, j], x0[i, j] + 1)
            ]
            assert min(corners) <= out[i, j] <= max(corners)


@settings(max_examples=60, deadline=None)
@given(stacks)
def test_taps_position_gradient_matches_central_difference(case):
    seed, s, h, w, k = case
    rng = np.random.default_rng(seed)
    # off-lattice: fractional parts stay clear of the probe width
    px = rng.integers(-2, w + 1, (s, k)) + rng.uniform(0.01, 0.99, (s, k))
    py = rng.integers(-2, h + 1, (s, k)) + rng.uniform(0.01, 0.99, (s, k))
    v = rng.uniform(-5.0, 5.0, (s, h, w))

    def read(qx, qy):
        probe = Taps.at(qx, qy, w, h)
        return probe.lerp(probe.corners(edge_pad(v)))

    taps = Taps.at(px, py, w, h)
    ddx, ddy = position_gradient(taps.corners(edge_pad(v)), fractions(px, py))
    eps = 1e-6
    fd_x = (read(px + eps, py) - read(px - eps, py)) / (2.0 * eps)
    fd_y = (read(px, py + eps) - read(px, py - eps)) / (2.0 * eps)
    assert np.abs(ddx - fd_x).max() <= 1e-6
    assert np.abs(ddy - fd_y).max() <= 1e-6


@settings(max_examples=60, deadline=None)
@given(stacks, st.integers(0, 6), st.integers(1, 6))
def test_taps_rows_are_views_equal_to_taps_of_those_rows(case, top, rows):
    # positions shaped like a map, (S, rows, cols, taps); the grid read is
    # the padded (S, h, w) stack, so the band's index still addresses all of it
    seed, s, h, w, k = case
    rng = np.random.default_rng(seed)
    px = rng.uniform(-2.0, w + 1.0, (s, 6, 3, k))
    py = rng.uniform(-2.0, h + 1.0, (s, 6, 3, k))
    band = slice(top, top + rows)
    full = Taps.at(px, py, w, h)
    part = full.rows(band)
    whole = Taps.at(px[:, band], py[:, band], w, h)
    for name in ("index", "weights"):
        view = getattr(part, name)
        assert np.array_equal(view, getattr(whole, name)), name
        assert view.size == 0 or np.shares_memory(view, getattr(full, name)), name
    v = edge_pad(rng.uniform(-5.0, 5.0, (s, h, w)))
    assert np.array_equal(part.sample(v), whole.sample(v))


@settings(max_examples=60, deadline=None)
@given(stacks)
def test_place_returns_the_fractions_of_its_positions(case):
    # the backward pass re-derives the fractions from the positions, so
    # they must match what place built the weights from bit for bit
    seed, s, h, w, k = case
    _, px, py, _ = _random_taps(seed, s, h, w, k, margin=50.0)
    taps = Taps(px.shape, w, h)
    placed = taps.place(px, py)
    fx, fy, gx, gy = fractions(px, py)
    for got, want in zip(placed, (fx, fy, gx, gy)):
        assert np.array_equal(got, want)
    assert np.array_equal(taps.weights, np.stack([gx * gy, fx * gy, gx * fy, fx * fy]))


far = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([-1e300, 1e300, -1e6, 1e6, -1.0, 0.0]),
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 2),
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(st.tuples(far, far), min_size=1, max_size=8),
)
def test_taps_clamp_positions_far_outside_the_map(seed, s, h, w, points):
    # one padded base index must reproduce the border clamp of all four
    # corners, for positions up to 1e300 outside grids as small as 1x1
    rng = np.random.default_rng(seed)
    v = rng.uniform(-5.0, 5.0, (s, h, w))
    px = np.array([[p[0] for p in points]] * s)
    py = np.array([[p[1] for p in points]] * s)
    taps = Taps.at(px, py, w, h)
    corners = taps.corners(edge_pad(v))
    samples = taps.sample(edge_pad(v))
    for j, (x, y) in enumerate(points):
        x0, y0 = np.floor(x), np.floor(y)
        cols = [int(np.clip(c, 0, w - 1)) for c in (x0, x0 + 1.0)]
        rows = [int(np.clip(r, 0, h - 1)) for r in (y0, y0 + 1.0)]
        for i in range(s):
            expected = [v[i, r, c] for r in rows for c in cols]
            assert [corners[c, i, j] for c in range(4)] == expected
            assert abs(samples[i, j] - bilinear_ref(v[i], x, y)) <= 1e-12


def test_taps_reject_an_unpadded_stack():
    v = np.zeros((1, 4, 5))
    taps = Taps.at(np.array([[1.5]]), np.array([[2.5]]), 5, 4)
    with pytest.raises(ShapeMismatch):
        taps.corners(v)
    assert taps.sample(edge_pad(v))[0, 0] == 0.0
