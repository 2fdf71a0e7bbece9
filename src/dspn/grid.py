"""Dense 2-D grid container, the mask and confidence checks on grids, and
the bilinear taps type behind every continuous (sampled) read.

Coordinate convention, used everywhere in this package: ``x`` is the column
index, ``y`` is the row index, origin at the top-left pixel. Grid data is
stored row-major as a float64 array of shape ``(height, width, channels)``.
All arithmetic is 64-bit internally; file I/O may narrow to 32-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfidence, InvalidGrid, InvalidMask, InvalidPosition


class ContinuousPos(NamedTuple):
    """Real-valued pixel position. May lie outside the grid; sampling clamps."""

    x: float
    y: float


class Grid:
    """Dense scalar/vector field over a pixel grid.

    Wraps a ``(height, width, channels)`` float64 array. A 2-D array is
    accepted and treated as single-channel. Values must be finite; a raw
    sensor grid encodes "missing" as 0, which is still finite.
    """

    __slots__ = ("data",)

    def __init__(self, data, copy: bool = False):
        arr = np.array(data, dtype=np.float64, copy=copy) if copy else np.asarray(data, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3 or arr.size == 0:
            raise InvalidGrid(f"expected a non-empty (height, width[, channels]) array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidGrid("grid contains NaN or Inf")
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def channel(self, c: int = 0) -> np.ndarray:
        """2-D view of one channel."""
        if not 0 <= c < self.channels:
            raise InvalidGrid(f"channel {c} out of range for {self.channels}-channel grid")
        return self.data[:, :, c]

    def copy(self) -> "Grid":
        return Grid(self.data, copy=True)

    @classmethod
    def zeros(cls, width: int, height: int, channels: int = 1) -> "Grid":
        return cls(np.zeros((height, width, channels)))

    @classmethod
    def full(cls, width: int, height: int, value: float, channels: int = 1) -> "Grid":
        return cls(np.full((height, width, channels), float(value)))

    def __repr__(self) -> str:
        return f"Grid(width={self.width}, height={self.height}, channels={self.channels})"


def same_shape(a: Grid, b: Grid) -> bool:
    return a.data.shape == b.data.shape


def binary_mask(m: Grid) -> np.ndarray:
    """Channel 0 of a validity mask, which must hold only 0 and 1."""
    mask = m.channel(0)
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise InvalidMask("mask must contain only 0 and 1")
    return mask


def pixel_index(x_i, width: int, height: int) -> tuple:
    """Integer (x, y) of a pixel, which must lie inside a width x height grid."""
    x, y = int(x_i[0]), int(x_i[1])
    if not (0 <= x < width and 0 <= y < height):
        raise InvalidPosition(f"pixel ({x}, {y}) lies outside the {width}x{height} grid")
    return x, y


def unit_confidence(M: Grid) -> np.ndarray:
    """Channel 0 of a confidence grid, which must lie in [0, 1]."""
    conf = M.channel(0)
    if conf.min() < 0.0 or conf.max() > 1.0:
        raise InvalidConfidence("confidence must lie in [0, 1]")
    return conf


@dataclass
class Taps:
    """Bilinear taps over a stack of ``(S, h, w)`` grids: the one primitive
    behind every sampled read.

    Sampling positions carry the stack index as their leading axis. Each tap
    holds the four border-clamped corner indices into the stack flattened to
    ``(S*h*w,)``, so every gather is a cheap 1-D take, plus the fractional
    parts of the unclamped position: a position fully outside the grid
    degrades to a constant border read with zero spatial derivative.
    Corner naming is ``(x, y)``: ``flat10`` is one column right of ``flat00``.
    """

    flat00: np.ndarray
    flat10: np.ndarray
    flat01: np.ndarray
    flat11: np.ndarray
    fx: np.ndarray
    fy: np.ndarray

    @classmethod
    def at(cls, px: np.ndarray, py: np.ndarray, width: int, height: int) -> "Taps":
        """Taps for positions of shape (S, ...) over an (S, height, width) stack."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        x0 = np.floor(px)
        y0 = np.floor(py)
        # clip before the int cast so huge floats cannot overflow int64
        ix0 = np.clip(x0, 0, width - 1).astype(np.int64)
        ix1 = np.clip(x0 + 1.0, 0, width - 1).astype(np.int64)
        iy0 = np.clip(y0, 0, height - 1).astype(np.int64)
        iy1 = np.clip(y0 + 1.0, 0, height - 1).astype(np.int64)
        s = px.shape[0]
        stack = (np.arange(s, dtype=np.int64) * height).reshape((s,) + (1,) * (px.ndim - 1))
        row0 = (stack + iy0) * width
        row1 = (stack + iy1) * width
        return cls(row0 + ix0, row0 + ix1, row1 + ix0, row1 + ix1, px - x0, py - y0)

    def corners(self, values: np.ndarray):
        """The four corner reads of (S, h, w) or (S, h, w, c) values.

        Each read has the taps' shape, plus the trailing channel axis if any.
        """
        flat = values.reshape((-1,) + values.shape[3:])
        idx = (self.flat00, self.flat10, self.flat01, self.flat11)
        return tuple(np.take(flat, i, axis=0) for i in idx)

    def lerp(self, corners) -> np.ndarray:
        """Bilinear combination of corner reads (no clamping)."""
        v00, v10, v01, v11 = corners
        extra = (1,) * (v00.ndim - self.fx.ndim)  # broadcast over channels
        fx = self.fx.reshape(self.fx.shape + extra)
        fy = self.fy.reshape(self.fy.shape + extra)
        return (
            (1.0 - fx) * (1.0 - fy) * v00
            + fx * (1.0 - fy) * v10
            + (1.0 - fx) * fy * v01
            + fx * fy * v11
        )

    def sample(self, values: np.ndarray) -> np.ndarray:
        """Bilinear samples of (S, h, w) values, clamped into the hull of
        their four corners so the convex-combination bound holds exactly,
        not just to roundoff."""
        corners = self.corners(values)
        out = self.lerp(corners)
        v00, v10, v01, v11 = corners
        lo = np.minimum(np.minimum(v00, v10), np.minimum(v01, v11))
        hi = np.maximum(np.maximum(v00, v10), np.maximum(v01, v11))
        return np.clip(out, lo, hi)

    def position_gradient(self, corners, upstream: np.ndarray | None = None):
        """d(lerp)/d(position) as (d/dx, d/dy), from cached corner reads.

        Exact wherever the fractional parts are strictly inside (0, 1); at
        lattice points floor() puts the position at fx=0 of the right cell,
        so the result is the right-sided derivative. Fully clamped reads have
        both corners equal and the derivative correctly vanishes.

        With ``upstream`` (shaped like the channelled corner reads) each
        corner difference is contracted with it over the channel axis, so no
        per-channel gradient tensor is built.
        """
        v00, v10, v01, v11 = corners

        def diff(a, b):
            return a - b if upstream is None else (upstream * (a - b)).sum(axis=-1)

        fx, fy = self.fx, self.fy
        ddx = (1.0 - fy) * diff(v10, v00) + fy * diff(v11, v01)
        ddy = (1.0 - fx) * diff(v01, v00) + fx * diff(v11, v10)
        return ddx, ddy

    def scatter(self, grad: np.ndarray, shape) -> np.ndarray:
        """Adjoint of :meth:`lerp` for scalar values: accumulate per-tap
        gradients into an (S, h, w) ``shape`` stack."""
        fx, fy = self.fx, self.fy
        w00 = (1.0 - fx) * (1.0 - fy) * grad
        w10 = fx * (1.0 - fy) * grad
        w01 = (1.0 - fx) * fy * grad
        w11 = fx * fy * grad
        flat = np.concatenate(
            [self.flat00.ravel(), self.flat10.ravel(), self.flat01.ravel(), self.flat11.ravel()]
        )
        weights = np.concatenate([w00.ravel(), w10.ravel(), w01.ravel(), w11.ravel()])
        return np.bincount(flat, weights=weights, minlength=int(np.prod(shape))).reshape(shape)


def bilinear_sample(g: Grid, p, c: int = 0) -> float:
    """Sample one channel of ``g`` at a real-valued position.

    Integer source coordinates are clamped to the border, so out-of-range
    positions read the nearest edge pixel. The result always lies within
    [min, max] of the four contributing values.
    """
    px, py = float(p[0]), float(p[1])
    if not (np.isfinite(px) and np.isfinite(py)):
        raise InvalidPosition(f"non-finite position ({px}, {py})")
    taps = Taps.at(np.array([px]), np.array([py]), g.width, g.height)
    return float(taps.sample(g.channel(c)[np.newaxis])[0])
