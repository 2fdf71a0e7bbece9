"""Dense 2-D grid container, the one home of every operand rule, and the
bilinear taps type behind every continuous (sampled) read.

Coordinate convention, used everywhere in this package: ``x`` is the column
index, ``y`` is the row index, origin at the top-left pixel. Grid data is
stored row-major as a float64 array of shape ``(height, width, channels)``.
All arithmetic is 64-bit internally; file I/O may narrow to 32-bit.
"""

from __future__ import annotations

import contextlib
import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfidence, InvalidConfig, InvalidGrid, InvalidMask, InvalidPosition, ShapeMismatch


class ContinuousPos(NamedTuple):
    """Real-valued pixel position. May lie outside the grid; sampling clamps."""

    x: float
    y: float


class Grid:
    """Dense scalar/vector field over a pixel grid.

    Wraps a ``(height, width, channels)`` float64 array. A 2-D array is
    accepted and treated as single-channel. Values must be finite reals
    (:func:`real_array`); a raw sensor grid encodes "missing" as 0, which is
    still finite.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = real_array(data, "grid", InvalidGrid)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3 or arr.size == 0:
            raise InvalidGrid(f"expected a non-empty (height, width[, channels]) array, got shape {arr.shape}")
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
        """2-D view of one channel; ``c`` is a :func:`count`."""
        c = count(c, "channel")
        if c >= self.channels:
            raise InvalidGrid(f"channel {c} out of range for {self.channels}-channel grid")
        return self.data[:, :, c]

    @classmethod
    def zeros(cls, width: int, height: int, channels: int = 1) -> "Grid":
        return cls.full(width, height, 0.0, channels)

    @classmethod
    def full(cls, width: int, height: int, value: float, channels: int = 1) -> "Grid":
        shape = (count(height, "height", 1), count(width, "width", 1), count(channels, "channels", 1))
        return cls(np.full(shape, real(value, "fill value")))

    def __repr__(self) -> str:
        return f"Grid(width={self.width}, height={self.height}, channels={self.channels})"


def check_same_shape(**grids) -> None:
    """Raise ShapeMismatch unless the grids given (None skipped) share one
    shape; the message names each operand (underscores read as spaces)."""
    given = {name.replace("_", " "): g for name, g in grids.items() if g is not None}
    if len({g.data.shape for g in given.values()}) > 1:
        sizes = ", ".join(f"{name} is {g.width}x{g.height}" + f"x{g.channels}" * (g.channels > 1)
                          for name, g in given.items())
        raise ShapeMismatch(f"operands must share one shape: {sizes}")


def single_channel(g: Grid, name: str = "map") -> np.ndarray:
    """The (h, w) values of a map, which must have one channel: the one read
    behind every operator that takes a map."""
    if g.channels != 1:
        raise ShapeMismatch(f"{name} must be single-channel, got {g.channels} channels")
    return g.data[:, :, 0]


def check_feature_channels(F: Grid, params) -> None:
    """Raise ShapeMismatch unless the features have the channel count of
    ``params`` (embedding or estimator parameters)."""
    if F.channels != params.feature_channels:
        raise ShapeMismatch(f"features have {F.channels} channels, parameters expect {params.feature_channels}")


def count(value, name: str, low: int = 0) -> int:
    """A whole number at least ``low``, as an int: Python and numpy integers
    pass, as in :func:`operator.index`, and floats and bools do not."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvalidConfig(f"{name} must be a whole number, got {value!r}")
    value = operator.index(value)
    if value < low:
        raise InvalidConfig(f"{name} must be >= {low}, got {value}")
    return value


def real(value, name: str) -> float:
    """A finite real as a float: Python and numpy integers and floats pass, bools do not."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # a Python int beyond the float range
            if math.isfinite(value):
                return float(value)
    raise InvalidConfig(f"{name} must be a finite real, got {value!r}")


def real_array(value, name: str, error: type = InvalidConfig) -> np.ndarray:
    """An array of finite reals as float64, not copied if it is one: the
    rule for parameter arrays (offsets, embeddings, estimator weights), and
    for a map's values and a raw stencil, whose owners (:class:`Grid`,
    ``cspn.normalize_stencil``) pass their own ``error`` class. Booleans,
    integers and floats pass; text, a ragged nesting, complex numbers,
    other objects, NaN and Inf raise ``error``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        raise error(f"{name} is not a rectangular array of numbers") from None
    if arr.dtype.kind not in "biuf":
        raise error(f"{name} must hold real numbers, got {arr.dtype} values")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise error(f"{name} contains NaN or Inf")
    return arr


def one_of(value, name: str, allowed: tuple) -> str:
    """A name from ``allowed``, the strings a choice (a mode, a refinement
    method, a replacement) may take."""
    if not (isinstance(value, str) and value in allowed):
        raise InvalidConfig(f"{name} must be one of {allowed}, got {value!r}")
    return value


def binary_mask(m: Grid) -> np.ndarray:
    """The values of a validity mask, which must hold only 0 and 1."""
    mask = single_channel(m, "mask")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise InvalidMask("mask must contain only 0 and 1")
    return mask


def pixel_index(x_i, width: int, height: int) -> tuple:
    """(x, y) of a pixel, a pair of integers inside a width x height grid."""
    try:
        x, y = map(operator.index, x_i)
    except (TypeError, ValueError):
        raise InvalidPosition(f"a pixel is a pair of integers, got {x_i!r}") from None
    if not (0 <= x < width and 0 <= y < height):
        raise InvalidPosition(f"pixel ({x}, {y}) lies outside the {width}x{height} grid")
    return x, y


def unit_confidence(M: Grid) -> np.ndarray:
    """The values of a confidence map, which must lie in [0, 1]."""
    conf = single_channel(M, "confidence")
    if conf.min() < 0.0 or conf.max() > 1.0:
        raise InvalidConfidence("confidence must lie in [0, 1]")
    return conf


def sample_positions(points):
    """(px, py), two (n,) float64 arrays, of n >= 0 sampling positions, each
    a pair of finite reals: the one parser behind the per-position reads
    (``bilinear_sample`` and the per-pixel affinity)."""
    try:
        pos = np.array([(x, y) for x, y in points], dtype=np.float64).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError):
        raise InvalidPosition(f"positions must be (x, y) pairs of reals, got {points!r}") from None
    if not np.isfinite(pos).all():
        raise InvalidPosition(f"sampling positions must be finite, got {points!r}")
    return pos[:, 0], pos[:, 1]


def gradient_magnitudes(values: np.ndarray):
    """(|d/dx|, |d/dy|) of an (h, w) map: halved central differences with
    border-clamped reads, the slope behind the features and the confidence
    slack."""
    padded = np.pad(values, 1, mode="edge")
    return (np.abs(padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0,
            np.abs(padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0)


def edge_pad(values: np.ndarray) -> np.ndarray:
    """An (S, H, W, ...) stack with its rows and columns padded by one
    replicated edge pixel, shape (S, H + 2, W + 2, ...): the stack every
    :class:`Taps` read addresses."""
    s, h, w = values.shape[:3]
    out = np.empty((s, h + 2, w + 2) + values.shape[3:], dtype=values.dtype)
    out[:, 1:-1, 1:-1] = values
    out[:, 0, 1:-1] = values[:, 0]
    out[:, -1, 1:-1] = values[:, -1]
    out[:, :, 0] = out[:, :, 1]
    out[:, :, -1] = out[:, :, -2]
    return out


def edge_fold(padded: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`edge_pad`, in place on an (S, H + 2, W + 2, ...)
    stack: pad rows add onto the edge rows, then pad columns onto the edge
    columns, so the corners fold through both. Returns the interior view."""
    padded[:, 1] += padded[:, 0]
    padded[:, -2] += padded[:, -1]
    padded[:, :, 1] += padded[:, :, 0]
    padded[:, :, -2] += padded[:, :, -1]
    return padded[:, 1:-1, 1:-1]


def _fractions(px, py, x0, y0):
    fx = px - x0
    fy = py - y0
    return fx, fy, 1.0 - fx, 1.0 - fy


def fractions(px, py):
    """``(fx, fy, 1 - fx, 1 - fy)`` of sampling positions: the fractional
    parts of the unclamped positions and their complements, which make up
    the bilinear weights and position gradients. Exactly what
    :meth:`Taps.place` forms, so a caller that keeps the positions need not
    keep the fractions."""
    return _fractions(px, py, np.floor(px), np.floor(py))


def position_gradient(corners, frac) -> np.ndarray:
    """d(lerp)/d(position), stacked as (d/dx, d/dy) along a leading axis of
    2, from four scalar corner reads and their taps' :func:`fractions`.

    Exact wherever the fractional parts are strictly inside (0, 1); at
    lattice points floor() puts the position at fx=0 of the right cell, so
    the result is the right-sided derivative. Fully clamped reads have both
    corners equal and the derivative correctly vanishes.
    """
    v00, v10, v01, v11 = corners
    fx, fy, gx, gy = frac
    out = np.empty((2,) + np.shape(v00))
    ddx = np.multiply(gy, v10 - v00, out=out[0])
    ddx += fy * (v11 - v01)
    ddy = np.multiply(gx, v01 - v00, out=out[1])
    ddy += fx * (v11 - v10)
    return out


class Taps:
    """Bilinear taps over a stack of ``(S, h, w)`` grids: the one primitive
    behind every sampled read.

    Sampling positions carry the stack index as their leading axis. Reads
    address the stack edge-padded by one pixel (:func:`edge_pad`), flattened:
    ``index`` holds one int64 per tap, the top-left corner of its 2x2 block,
    at row ``clip(floor(y), -1, h-1) + 1`` and column
    ``clip(floor(x), -1, w-1) + 1`` of the padded stack. The four corners
    then sit at ``index + (0, 1, w+2, w+3)``, in corner order 00, 10, 01, 11,
    and the padding makes each one the border-clamped read. The weights come
    from the fractional parts of the unclamped position (:func:`fractions`):
    a position fully outside the grid degrades to a constant border read
    with zero spatial derivative. Corner naming is ``(x, y)``: corner 10 is
    one column right of corner 00.

    The four bilinear ``weights``, stacked along a leading axis of length 4,
    are built once here, so a propagation step that reads through the same
    taps many times only gathers and blends. The fractions themselves are
    not kept: :meth:`place` hands them back for the caller's own use.
    """

    __slots__ = ("stack_shape", "index", "weights")

    def __init__(self, shape, width: int, height: int):
        """Unfilled taps for positions of shape (S, ...) over an
        (S, height, width) stack; see :meth:`place`."""
        self.stack_shape = (shape[0], height, width)
        self.index = np.empty(shape, dtype=np.int64)
        self.weights = np.empty((4,) + tuple(shape))

    @classmethod
    def at(cls, px: np.ndarray, py: np.ndarray, width: int, height: int) -> "Taps":
        """Taps for positions of shape (S, ...) over an (S, height, width) stack."""
        px = np.asarray(px, dtype=np.float64)
        taps = cls(px.shape, width, height)
        taps.place(px, py)
        return taps

    def place(self, px: np.ndarray, py: np.ndarray):
        """Fill these taps in place for positions shaped like them; a
        :meth:`rows` view fills one band. Returns the positions'
        :func:`fractions`."""
        s, height, width = self.stack_shape
        x0 = np.floor(px)
        y0 = np.floor(py)
        frac = fx, fy, gx, gy = _fractions(px, py, x0, y0)
        # clip before the int cast so huge floats cannot overflow int64
        col = np.clip(x0, -1, width - 1, out=x0).astype(np.int64)
        row = np.clip(y0, -1, height - 1, out=y0).astype(np.int64)
        # flat index of padded pixel (1, 1) of each scene
        origin = (np.arange(s, dtype=np.int64) * (height + 2) + 1) * (width + 2) + 1
        np.multiply(row, width + 2, out=self.index)
        self.index += col
        self.index += origin.reshape((s,) + (1,) * (px.ndim - 1))
        np.multiply(gx, gy, out=self.weights[0])
        np.multiply(fx, gy, out=self.weights[1])
        np.multiply(gx, fy, out=self.weights[2])
        np.multiply(fx, fy, out=self.weights[3])
        return frac

    def rows(self, band: slice) -> "Taps":
        """The taps of rows ``band`` of (S, h, w, ...) positions, as views.

        The index still addresses the whole padded stack, so a band of taps
        reads values from any row.
        """
        part = object.__new__(Taps)
        part.stack_shape = self.stack_shape
        part.index = self.index[:, band]
        part.weights = self.weights[:, :, band]
        return part

    def corner(self, padded: np.ndarray, c: int, out: np.ndarray | None = None) -> np.ndarray:
        """Corner ``c``'s reads (0..3, in corner order) of an edge-padded
        (S, h+2, w+2, ...) stack; trailing value axes follow the tap axes."""
        s, height, width = self.stack_shape
        if padded.shape[:3] != (s, height + 2, width + 2):
            raise ShapeMismatch(f"taps read a padded {(s, height + 2, width + 2)} stack, got shape {padded.shape}")
        flat = padded.reshape((-1,) + padded.shape[3:])[self._offsets()[c]:]
        # every shifted index is in range; "clip" lets take write straight into out
        return np.take(flat, self.index, axis=0, out=out, mode="clip")

    def corners(self, padded: np.ndarray) -> np.ndarray:
        """The four corner reads of an edge-padded (S, h+2, w+2) stack,
        stacked along a leading axis of 4 in corner order."""
        out = np.empty((4,) + self.index.shape, dtype=padded.dtype)
        for c in range(4):
            self.corner(padded, c, out=out[c])
        return out

    def _offsets(self) -> tuple:
        """The four corners' offsets from the base index, in corner order."""
        return (0, 1, self.stack_shape[2] + 2, self.stack_shape[2] + 3)

    def lerp(self, corners, out: np.ndarray | None = None) -> np.ndarray:
        """Bilinear blend of four scalar corner reads (no clamping): one
        contraction over the corner axis, which sums the four products in
        corner order, bit for bit ``w0*c0 + w1*c1 + w2*c2 + w3*c3``."""
        return np.einsum("c...,c...->...", self.weights, corners, out=out)

    def blend(self, corners: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Bilinear samples from the four (4, ...) corner reads of these
        taps, clamped into the hull of those corners so the
        convex-combination bound holds exactly, not just to roundoff."""
        out = self.lerp(corners, out=out)
        # np.clip with array bounds is several times slower than these two
        np.maximum(out, corners.min(axis=0), out=out)
        return np.minimum(out, corners.max(axis=0), out=out)

    def sample(self, padded: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Bilinear samples of an edge-padded (S, h+2, w+2) stack: the
        :meth:`blend` of its :meth:`corners`."""
        return self.blend(self.corners(padded), out=out)

    def scatter(self, grad: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`lerp` through :meth:`corners`: accumulate
        per-tap gradients into the edge-padded stack at the taps' own corner
        indices and fold it onto the (S, h, w) stack (:func:`edge_fold`)."""
        s, height, width = self.stack_shape
        shape = (s, height + 2, width + 2)
        index = np.add.outer(self._offsets(), self.index)
        padded = np.bincount(index.ravel(), weights=(self.weights * grad).ravel(), minlength=int(np.prod(shape)))
        return edge_fold(padded.reshape(shape))


def bilinear_sample(g: Grid, p, c: int = 0) -> float:
    """Sample one channel of ``g`` at a real-valued position.

    Integer source coordinates are clamped to the border, so out-of-range
    positions read the nearest edge pixel. The result always lies within
    [min, max] of the four contributing values.
    """
    taps = Taps.at(*sample_positions([p]), g.width, g.height)
    return float(taps.sample(edge_pad(g.channel(c)[np.newaxis]))[0])
