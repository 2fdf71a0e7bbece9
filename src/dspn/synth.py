"""Synthetic scenes, sparse sampling, and stand-ins for the prediction network.

Scenes are deterministic functions of their seed (numpy PCG64 via
``default_rng``; every operation draws full-grid arrays in a fixed order, so
a seed always yields the same fields). The coarse predictor and hand-crafted
feature maps replace the learned network: features carry the depth value,
its horizontal/vertical gradient magnitudes, the validity mask, and the
normalised pixel coordinates, which is enough for feature similarity to
tell flat regions from discontinuities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confidence import ConfidenceConfig, heuristic_confidence
from .errors import EmptySparse, InvalidConfig, InvalidGrid
from .grid import Grid, binary_mask, check_same_shape, count, gradient_magnitudes, one_of, real, single_channel

SCENE_KINDS = ("plane", "step", "slope", "sphere-cap", "composite")


@dataclass
class SceneSpec:
    kind: str = "composite"
    width: int = 64
    height: int = 64
    depth_min: float = 1.0
    depth_max: float = 10.0

    def __post_init__(self):
        one_of(self.kind, "scene kind", SCENE_KINDS)
        count(self.width, "scene width", 8)
        count(self.height, "scene height", 8)
        if not 0.0 < real(self.depth_min, "depth_min") <= real(self.depth_max, "depth_max"):
            raise InvalidConfig(f"bad depth range [{self.depth_min}, {self.depth_max}]")


@dataclass
class SparseSpec:
    density: float = 0.05
    noise_sigma: float = 0.02
    outlier_fraction: float = 0.10
    outlier_sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 < real(self.density, "density") <= 1.0:
            raise InvalidConfig(f"density must be in (0, 1], got {self.density}")
        if real(self.noise_sigma, "noise_sigma") < 0.0 or real(self.outlier_sigma, "outlier_sigma") < 0.0:
            raise InvalidConfig("noise sigmas must be >= 0")
        if not 0.0 <= real(self.outlier_fraction, "outlier_fraction") < 1.0:
            raise InvalidConfig(f"outlier fraction must be in [0, 1), got {self.outlier_fraction}")


def _coords(spec: SceneSpec):
    ys, xs = np.mgrid[0 : spec.height, 0 : spec.width].astype(np.float64)
    return xs, ys


def _slope(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    xs, ys = _coords(spec)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    proj = xs * np.cos(angle) + ys * np.sin(angle)
    lo, hi = proj.min(), proj.max()
    t = (proj - lo) / (hi - lo) if hi > lo else np.zeros_like(proj)
    return spec.depth_min + (spec.depth_max - spec.depth_min) * t


def _step(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    # vertical boundary in the top half continuing diagonally below, so one
    # scene exercises both axis-aligned and diagonal discontinuities
    xs, ys = _coords(spec)
    x0 = rng.integers(spec.width // 3, 2 * spec.width // 3)
    boundary = np.where(ys < spec.height / 2.0, x0, x0 + (ys - spec.height / 2.0))
    return np.where(xs < boundary, spec.depth_min, spec.depth_max)


def _sphere_cap(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    xs, ys = _coords(spec)
    radius = rng.uniform(0.2, 0.4) * min(spec.width, spec.height)
    cx = rng.uniform(0.3, 0.7) * spec.width
    cy = rng.uniform(0.3, 0.7) * spec.height
    r2 = ((xs - cx) ** 2 + (ys - cy) ** 2) / (radius * radius)
    bump = np.sqrt(np.clip(1.0 - r2, 0.0, 1.0))
    return spec.depth_max - (spec.depth_max - spec.depth_min) * bump


def _composite(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    xs, ys = _coords(spec)
    depth = _slope(spec, rng)
    lo, hi = spec.depth_min, spec.depth_max

    def rand_depth():
        return rng.uniform(lo, hi)

    # one guaranteed axis-aligned rectangle and one diagonal band, then a
    # seeded mix of extra rectangles and discs
    x0, y0 = rng.integers(0, spec.width // 2), rng.integers(0, spec.height // 2)
    bw = rng.integers(spec.width // 4, spec.width // 2)
    bh = rng.integers(spec.height // 4, spec.height // 2)
    rect = (xs >= x0) & (xs < x0 + bw) & (ys >= y0) & (ys < y0 + bh)
    depth = np.where(rect, rand_depth(), depth)

    c = rng.uniform(-0.5, 0.5) * spec.width
    width = rng.uniform(0.1, 0.25) * spec.width
    band = np.abs(xs - ys - c) < width
    depth = np.where(band, rand_depth(), depth)

    for _ in range(int(rng.integers(2, 5))):
        if rng.random() < 0.5:
            rx0, ry0 = rng.integers(0, spec.width - 4), rng.integers(0, spec.height - 4)
            rw = rng.integers(3, max(4, spec.width // 3))
            rh = rng.integers(3, max(4, spec.height // 3))
            shape = (xs >= rx0) & (xs < rx0 + rw) & (ys >= ry0) & (ys < ry0 + rh)
        else:
            cx, cy = rng.uniform(0, spec.width), rng.uniform(0, spec.height)
            rr = rng.uniform(0.05, 0.2) * min(spec.width, spec.height)
            shape = (xs - cx) ** 2 + (ys - cy) ** 2 < rr * rr
        depth = np.where(shape, rand_depth(), depth)
    return depth


def gen_scene(spec: SceneSpec, seed: int) -> Grid:
    """Dense ground-truth depth for a scene spec; bit-identical per seed."""
    rng = np.random.default_rng(count(seed, "scene seed"))
    if spec.kind == "plane":
        depth = np.full((spec.height, spec.width), 0.5 * (spec.depth_min + spec.depth_max))
    elif spec.kind == "slope":
        depth = _slope(spec, rng)
    elif spec.kind == "step":
        depth = _step(spec, rng)
    elif spec.kind == "sphere-cap":
        depth = _sphere_cap(spec, rng)
    else:
        depth = _composite(spec, rng)
    return Grid(depth)


# raw sensor depths are clamped here after noise injection so a valid pixel
# can never collide with the 0 == missing encoding
MIN_SENSOR_DEPTH = 1e-3


def sample_sparse(dstar: Grid, spec: SparseSpec, seed: int):
    """Independent per-pixel sampling with Gaussian noise and sparse outliers.

    Returns (Ds, m): measurements (0 where missing) and the binary mask.
    All random fields are drawn full-grid in a fixed order, so the mask does
    not depend on the noise settings.
    """
    rng = np.random.default_rng(count(seed, "sparse seed"))
    h, w = dstar.height, dstar.width
    keep = rng.random((h, w)) < spec.density
    base_noise = rng.standard_normal((h, w))
    outlier_pick = rng.random((h, w)) < spec.outlier_fraction
    outlier_noise = rng.standard_normal((h, w))
    values = single_channel(dstar, "ground truth") + spec.noise_sigma * base_noise
    values = values + np.where(outlier_pick, spec.outlier_sigma * outlier_noise, 0.0)
    values = np.maximum(values, MIN_SENSOR_DEPTH)
    mask = keep.astype(np.float64)
    return Grid(np.where(keep, values, 0.0)), Grid(mask)


def _nearest_valid_fill(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each pixel takes the value of its nearest valid pixel.

    Distance is exact squared Euclidean; ties resolve to the valid pixel with
    the smallest raster index, matching the scalar reference exactly. The
    fill is the separable exact distance transform of Felzenszwalb and
    Huttenlocher ("Distance Transforms of Sampled Functions", 2012), carrying
    the argmin, in O(H*W) whatever the density:

    1. Per column, the nearest valid row above and below each pixel (running
       max/min), keeping the upper row on a tie.
    2. Per row, the lower envelope over the non-empty columns x' of the
       parabolas ``n*(x - x')**2 + n*g(x')**2 + raster(x')``, with g the
       pass-1 row distance and n = H*W. Every key is an exact int64 and no
       two are equal at an integer x, so the raster tie-break rides in the
       key and floor-division breakpoints are exact. The stack pushes loop
       over columns and run vectorised across rows.

    A map wider than tall is filled as its transpose, so the loop runs over
    the short axis. The key's raster term stays the map's own raster index
    (its strides over the transpose's rows and columns are 1 and the
    transpose's height), so ties resolve as before: of two tied rows of the
    transpose in pass 1, the upper one still has the smaller raster index.
    """
    n = values.size
    flip = values.shape[1] > values.shape[0]
    valid = np.ascontiguousarray((mask.T if flip else mask) == 1.0)
    h, w = valid.shape
    stride = (1, h) if flip else (w, 1)
    every_row = np.arange(h)
    rows = every_row[:, np.newaxis]

    above = np.maximum.accumulate(np.where(valid, rows, -2 * h), axis=0)
    below = np.minimum.accumulate(np.where(valid, rows, 3 * h)[::-1], axis=0)[::-1]
    take_above = rows - above <= below - rows
    near_row = np.where(take_above, above, below)
    gap = np.where(take_above, rows - above, below - rows)
    key = n * gap * gap + near_row * stride[0] + np.arange(w) * stride[1]

    cols = np.flatnonzero(valid.any(axis=0))
    stack = np.empty((h, cols.size), dtype=np.int64)  # envelope columns
    start = np.empty((h, cols.size), dtype=np.int64)  # column j owns x > start[:, j]
    stack[:, 0] = cols[0]
    start[:, 0] = np.iinfo(np.int64).min
    top = np.zeros(h, dtype=np.int64)

    def crossing(r, q):
        # the last integer x at which column stack[r, top[r]] beats column q
        p = stack[r, top[r]]
        return (n * (q * q - p * p) + key[r, q] - key[r, p]) // (2 * n * (q - p))

    for q in cols[1:]:
        s = crossing(every_row, q)
        popping = np.flatnonzero(s <= start[every_row, top])
        while popping.size:
            top[popping] -= 1
            s[popping] = crossing(popping, q)
            popping = popping[s[popping] <= start[popping, top[popping]]]
        top += 1
        stack[every_row, top] = q
        start[every_row, top] = s

    # column j of a row's stack owns x in (start[j], start[j + 1]]: count the
    # breakpoints below each x with one scatter and a running sum
    live = np.arange(cols.size) <= top[:, np.newaxis]
    live[:, 0] = False
    first_x = np.clip(start + 1, 0, w)
    counts = np.bincount(
        (rows * (w + 1) + first_x)[live], minlength=h * (w + 1)
    ).reshape(h, w + 1)
    owner = stack[rows, np.cumsum(counts, axis=1)[:, :w]]
    source = near_row[rows, owner] * stride[0] + owner * stride[1]  # raster index
    return np.take(values, source.T if flip else source)


def box_blur3(values: np.ndarray) -> np.ndarray:
    """3x3 box blur with border-clamped reads."""
    h, w = values.shape
    padded = np.pad(values, 1, mode="edge")
    acc = np.zeros_like(values)
    for dy in range(3):
        for dx in range(3):
            acc += padded[dy : dy + h, dx : dx + w]
    return acc / 9.0


def coarse_predict(ds: Grid, m: Grid) -> Grid:
    """Deterministic coarse-depth stand-in: nearest-valid fill, blurred twice."""
    check_same_shape(sparse_map=ds, mask=m)
    mask = binary_mask(m)
    if not mask.any():
        raise EmptySparse("no valid sparse measurements")
    filled = _nearest_valid_fill(single_channel(ds, "sparse map"), mask)
    return Grid(box_blur3(box_blur3(filled)))


def build_features(d0: Grid, m: Grid, feature_channels: int) -> Grid:
    """Hand-crafted feature stand-in, tiled to the requested channel count.

    Base channels: depth normalised to [0, 1] over its own range (0.5 when
    the range is degenerate), |d/dx|, |d/dy| (central differences with
    clamped borders), the mask, and x/width, y/height ramps.
    """
    feature_channels = count(feature_channels, "feature_channels", 1)
    check_same_shape(coarse_map=d0, mask=m)
    depth = single_channel(d0, "coarse map")
    h, w = depth.shape
    lo, hi = depth.min(), depth.max()
    norm = np.full((h, w), 0.5) if hi == lo else (depth - lo) / (hi - lo)
    gx, gy = gradient_magnitudes(depth)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    base = np.stack([norm, gx, gy, single_channel(m, "mask"), xs / w, ys / h], axis=-1)
    reps = -(-feature_channels // base.shape[2])
    tiled = np.tile(base, (1, 1, reps))[:, :, :feature_channels]
    return Grid(tiled)


@dataclass
class Scene:
    """A prepared depth-completion problem; its readers form the features."""

    dstar: Grid | None  # None without ground truth: the scene is refined, not scored
    ds: Grid
    m: Grid
    d0: Grid
    conf: Grid  # heuristic confidence for soft replacement


def build_scene(
    dstar: Grid | None,
    ds: Grid,
    m: Grid,
    conf_cfg: ConfidenceConfig | None = None,
) -> Scene:
    """The front end: coarse depth and heuristic confidence for sparse
    measurements ``ds`` with mask ``m``. Without ground truth (``dstar``
    None) the scene can be refined but not scored or fitted. Every input map
    must be single-channel, and no depth may be negative: 0 marks a missing
    pixel."""
    for name, g in (("ground truth", dstar), ("sparse map", ds), ("mask", m)):
        if g is not None:
            single_channel(g, name)
    for name, g in (("ground truth", dstar), ("sparse map", ds)):
        if g is not None and g.data.min() < 0.0:
            raise InvalidGrid(f"{name} holds a negative depth ({g.data.min():g}); 0 marks a missing pixel")
    check_same_shape(ground_truth=dstar, sparse_map=ds)
    d0 = coarse_predict(ds, m)
    conf = heuristic_confidence(ds, m, conf_cfg or ConfidenceConfig(), d0)
    return Scene(dstar=dstar, ds=ds, m=m, d0=d0, conf=conf)


def prepare_scene(
    scene_spec: SceneSpec,
    sparse_spec: SparseSpec,
    scene_seed: int,
    sparse_seed: int,
    conf_cfg: ConfidenceConfig | None = None,
) -> Scene:
    dstar = gen_scene(scene_spec, scene_seed)
    ds, m = sample_sparse(dstar, sparse_spec, sparse_seed)
    return build_scene(dstar, ds, m, conf_cfg)


def suite_seeds(num_scenes: int, base_seed: int = 0) -> list:
    """Seed scheme for a scene suite: scene i takes a (scene, sparse) seed
    pair derived from (base_seed, i) for the geometry and (base_seed, i, 1)
    for the sampling."""
    base_seed = count(base_seed, "base seed")
    return [
        (
            int(np.random.SeedSequence([base_seed, i]).generate_state(1)[0]),
            int(np.random.SeedSequence([base_seed, i, 1]).generate_state(1)[0]),
        )
        for i in range(count(num_scenes, "scene count"))
    ]
