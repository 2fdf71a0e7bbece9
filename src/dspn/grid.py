"""Dense 2-D grid container, the mask and confidence checks on grids, and
the bilinear taps type behind every continuous (sampled) read.

Coordinate convention, used everywhere in this package: ``x`` is the column
index, ``y`` is the row index, origin at the top-left pixel. Grid data is
stored row-major as a float64 array of shape ``(height, width, channels)``.
All arithmetic is 64-bit internally; file I/O may narrow to 32-bit.
"""

from __future__ import annotations

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


class Taps:
    """Bilinear taps over a stack of ``(S, h, w)`` grids: the one primitive
    behind every sampled read.

    Sampling positions carry the stack index as their leading axis. ``index``
    holds the four border-clamped corner indices into the stack flattened to
    ``(S*h*w,)``, stacked in corner order 00, 10, 01, 11 along a leading axis
    of length 4, so every gather is a cheap 1-D take and ``index.ravel()`` is
    the concatenated scatter index. ``fx`` and ``fy`` are the fractional
    parts of the unclamped position: a position fully outside the grid
    degrades to a constant border read with zero spatial derivative. Corner
    naming is ``(x, y)``: corner 10 is one column right of corner 00.

    Everything that does not depend on the values read (``1 - fx``,
    ``1 - fy`` and the four bilinear ``weights``, stacked like ``index``) is
    built once here, so a propagation step that reads through the same taps
    many times only gathers and blends.
    """

    __slots__ = ("index", "fx", "fy", "gx", "gy", "weights")

    def __init__(self, index: np.ndarray, fx: np.ndarray, fy: np.ndarray):
        self.index = index
        self.fx = fx
        self.fy = fy
        self.gx = 1.0 - fx
        self.gy = 1.0 - fy
        self.weights = np.empty(index.shape)
        np.multiply(self.gx, self.gy, out=self.weights[0])
        np.multiply(fx, self.gy, out=self.weights[1])
        np.multiply(self.gx, fy, out=self.weights[2])
        np.multiply(fx, fy, out=self.weights[3])

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
        index = np.empty((4,) + px.shape, dtype=np.int64)
        np.add(row0, ix0, out=index[0])
        np.add(row0, ix1, out=index[1])
        np.add(row1, ix0, out=index[2])
        np.add(row1, ix1, out=index[3])
        return cls(index, px - x0, py - y0)

    def rows(self, band: slice) -> "Taps":
        """The taps of rows ``band`` of (S, h, w, ...) positions, as views.

        Corner indices still address the whole flattened stack, so a band
        of taps reads values from any row.
        """
        part = object.__new__(Taps)
        part.index = self.index[:, :, band]
        part.weights = self.weights[:, :, band]
        for name in ("fx", "fy", "gx", "gy"):
            setattr(part, name, getattr(self, name)[:, band])
        return part

    def corners(self, values: np.ndarray) -> np.ndarray:
        """The four corner reads of (S, h, w) values, stacked like ``index``."""
        return np.take(values.reshape(-1), self.index)

    def lerp(self, corners, out: np.ndarray | None = None) -> np.ndarray:
        """Bilinear blend of four scalar corner reads (no clamping)."""
        out = np.multiply(self.weights[0], corners[0], out=out)
        term = np.empty_like(out)
        for w, v in zip(self.weights[1:], corners[1:]):
            out += np.multiply(w, v, out=term)
        return out

    def sample(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Bilinear samples of (S, h, w) values, clamped into the hull of
        their four corners so the convex-combination bound holds exactly,
        not just to roundoff."""
        corners = self.corners(values)
        out = self.lerp(corners, out=out)
        return np.clip(out, corners.min(axis=0), corners.max(axis=0), out=out)

    def position_gradient(self, corners):
        """d(lerp)/d(position) as (d/dx, d/dy), from four scalar corner reads.

        Exact wherever the fractional parts are strictly inside (0, 1); at
        lattice points floor() puts the position at fx=0 of the right cell,
        so the result is the right-sided derivative. Fully clamped reads have
        both corners equal and the derivative correctly vanishes.
        """
        v00, v10, v01, v11 = corners
        ddx = self.gy * (v10 - v00)
        ddx += self.fy * (v11 - v01)
        ddy = self.gx * (v01 - v00)
        ddy += self.fx * (v11 - v10)
        return ddx, ddy

    def scatter(self, grad: np.ndarray, shape) -> np.ndarray:
        """Adjoint of :meth:`lerp`: accumulate per-tap gradients into an
        (S, h, w) ``shape`` stack."""
        weights = self.weights * grad
        return np.bincount(
            self.index.ravel(), weights=weights.ravel(), minlength=int(np.prod(shape))
        ).reshape(shape)


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
