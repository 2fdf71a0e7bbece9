"""Seeded inputs for the benchmark workloads.

The generator belongs to the benchmark, not to the program under test, so a
change to ``dspn.synth`` cannot change what the benchmark feeds the program.
It follows the program's default synthetic settings: composite scenes (a
slope, one rectangle, one diagonal band and two to four extra rectangles or
discs), depths 1-10 m, 5 % sampling density, 2 cm sensor noise and 10 %
outliers with 1 m noise.

Every array is a pure function of the seed and its place in the run, so the
same seed always yields the same files and a second seed gives held-out
inputs.
"""

from __future__ import annotations

import numpy as np

DEPTH_MIN, DEPTH_MAX = 1.0, 10.0
DENSITY = 0.05
NOISE_SIGMA = 0.02
OUTLIER_FRACTION = 0.10
OUTLIER_SIGMA = 1.0
DEPTH_SCALE = 256.0  # PGM raw units per metre (KITTI convention)
PGM_MAXVAL = 65535

# tags keep the streams of different input kinds independent
FRAME_TAG = 1
SUITE_TAG = 2
FRAME_TILES = (8, 2)  # columns, rows of composite tiles in one frame


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def composite_depth(width: int, height: int, rng: np.random.Generator) -> np.ndarray:
    """Dense ground-truth depth in metres, shape (height, width)."""
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    proj = xs * np.cos(angle) + ys * np.sin(angle)
    depth = DEPTH_MIN + (DEPTH_MAX - DEPTH_MIN) * (proj - proj.min()) / (proj.max() - proj.min())

    def paint(shape):
        return np.where(shape, rng.uniform(DEPTH_MIN, DEPTH_MAX), depth)

    x0, y0 = rng.integers(0, width // 2), rng.integers(0, height // 2)
    bw = rng.integers(width // 4, width // 2)
    bh = rng.integers(height // 4, height // 2)
    depth = paint((xs >= x0) & (xs < x0 + bw) & (ys >= y0) & (ys < y0 + bh))
    c = rng.uniform(-0.5, 0.5) * width
    band = rng.uniform(0.1, 0.25) * width
    depth = paint(np.abs(xs - ys - c) < band)
    for _ in range(int(rng.integers(2, 5))):
        if rng.random() < 0.5:
            rx0, ry0 = rng.integers(0, width - 4), rng.integers(0, height - 4)
            rw = rng.integers(3, max(4, width // 3))
            rh = rng.integers(3, max(4, height // 3))
            shape = (xs >= rx0) & (xs < rx0 + rw) & (ys >= ry0) & (ys < ry0 + rh)
        else:
            cx, cy = rng.uniform(0, width), rng.uniform(0, height)
            rr = rng.uniform(0.05, 0.2) * min(width, height)
            shape = (xs - cx) ** 2 + (ys - cy) ** 2 < rr * rr
        depth = paint(shape)
    return depth


def sensor_raw(depth: np.ndarray, rng: np.random.Generator):
    """16-bit raw sparse measurements and ground truth (0 means missing).

    A kept measurement is clamped to raw 1 so quantisation never turns it
    into a missing pixel.
    """
    h, w = depth.shape
    keep = rng.random((h, w)) < DENSITY
    noise = NOISE_SIGMA * rng.standard_normal((h, w))
    outlier = rng.random((h, w)) < OUTLIER_FRACTION
    noise += np.where(outlier, OUTLIER_SIGMA * rng.standard_normal((h, w)), 0.0)
    raw = np.clip(np.round((depth + noise) * DEPTH_SCALE), 1, PGM_MAXVAL)
    sparse = np.where(keep, raw, 0).astype(np.uint16)
    gt = np.clip(np.round(depth * DEPTH_SCALE), 1, PGM_MAXVAL).astype(np.uint16)
    return sparse, gt


def write_pgm16(raw: np.ndarray, path) -> None:
    """Binary P5 file with maxval 65535 and big-endian samples."""
    h, w = raw.shape
    blob = f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii") + raw.astype(">u2").tobytes()
    with open(path, "wb") as f:
        f.write(blob)


def frame_raw(seed: int, index: int, width: int, height: int):
    """The ``index``-th frame of a run: (sparse raw, ground-truth raw).

    A frame is a mosaic of independent composite tiles (8 x 2 at 608 x 176,
    so 76 x 88 each, close to the suite's 64 x 64 scenes): it holds as many
    surfaces as a street scene, and its error varies less from seed to seed
    than one scene stretched over the whole frame would.
    """
    cols, rows = FRAME_TILES
    tw, th = width // cols, height // rows
    depth = np.block(
        [
            [composite_depth(tw, th, _rng(seed, FRAME_TAG, index, 1 + r * cols + c)) for c in range(cols)]
            for r in range(rows)
        ]
    )
    return sensor_raw(depth, _rng(seed, FRAME_TAG, index, 0))


def suite_seed(seed: int) -> int:
    """Config seed of the scene suite that the train and sweep workloads use."""
    return int(np.random.SeedSequence([seed, SUITE_TAG]).generate_state(1)[0] >> 1)
