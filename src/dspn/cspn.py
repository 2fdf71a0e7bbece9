"""Fixed-receptive-field spatial propagation with sparse replacement.

One step turns each pixel into a weighted combination of itself and its
k x k neighbours (center excluded from the stencil); the self-weight is
whatever is left after abs-normalising the raw stencil. After every step
the valid sparse measurements are written back over the propagated map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidAffinity, InvalidConfig, ShapeMismatch
from .grid import Grid, binary_mask, check_same_shape, count, real_array, single_channel


def check_kernel_size(kernel_size) -> int:
    """The kernel size as an int, odd and >= 3 so the window has a center pixel."""
    kernel_size = count(kernel_size, "kernel size", 3)
    if kernel_size % 2 == 0:
        raise InvalidConfig(f"kernel size must be odd, got {kernel_size}")
    return kernel_size


def neighbor_offsets(kernel_size: int) -> np.ndarray:
    """(k*k-1, 2) integer (dx, dy) offsets in raster order, center excluded."""
    r = check_kernel_size(kernel_size) // 2
    offs = [
        (dx, dy)
        for dy in range(-r, r + 1)
        for dx in range(-r, r + 1)
        if not (dx == 0 and dy == 0)
    ]
    return np.array(offs, dtype=np.int64)


class AffinityStencilField:
    """Per-pixel affinities over the k x k ring, shape (h, w, k*k-1).

    ``weights`` is the abs-normalised stencil, formed once here because
    every propagation step reads the same weights. It is a new array, so a
    caller changing its raw stencil later cannot leave it stale.
    """

    __slots__ = ("kernel_size", "weights")

    def __init__(self, kernel_size: int, raw):
        n = check_kernel_size(kernel_size) ** 2 - 1
        arr = real_array(raw, "stencil", InvalidAffinity)
        if arr.ndim != 3 or arr.shape[2] != n:
            raise InvalidAffinity(f"expected stencil shape (h, w, {n}), got {arr.shape}")
        self.kernel_size = kernel_size
        self.weights = normalize_stencil(arr).weights

    @classmethod
    def uniform(cls, width: int, height: int, kernel_size: int = 3) -> "AffinityStencilField":
        n = check_kernel_size(kernel_size) ** 2 - 1
        return cls(kernel_size, np.broadcast_to(1.0, (count(height, "height", 1), count(width, "width", 1), n)))


@dataclass
class NormalizedStencil:
    """Abs-normalised neighbour weights plus the implied self-weight.

    ``weights`` has the raw stencil's shape; ``self_weight`` drops the last
    axis. Satisfies self_weight == 1 - weights.sum(-1) exactly.
    """

    weights: np.ndarray
    self_weight: np.ndarray


def normalize_stencil(raw) -> NormalizedStencil:
    """Divide by the sum of absolute entries; self-weight takes the remainder.

    An all-zero stencil cannot be normalised and degrades to identity
    propagation (zero neighbour weights, self-weight 1). A stencil whose
    absolute sum overflows cannot be normalised either and raises
    InvalidAffinity.
    """
    arr = real_array(raw, "stencil", InvalidAffinity)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise InvalidAffinity("empty stencil")
    with np.errstate(over="ignore"):
        denom = np.abs(arr).sum(axis=-1, keepdims=True)
    if not np.isfinite(denom).all():
        raise InvalidAffinity("the stencil's absolute sum overflows")
    weights = arr / np.where(denom == 0.0, 1.0, denom)
    self_weight = 1.0 - weights.sum(axis=-1)
    return NormalizedStencil(weights=weights, self_weight=self_weight)


def _shifted_views(padded: np.ndarray, offs: np.ndarray, height: int, width: int, r: int):
    for dx, dy in offs:
        yield padded[r + dy : r + dy + height, r + dx : r + dx + width]


def cspn_step(H: Grid, stencils: AffinityStencilField) -> Grid:
    """One propagation step. Out-of-image neighbours read the clamped border.

    Computed in difference form, H + sum_j w_j * (H_j - H), which keeps the
    all-zero-stencil case bit-identical to the input and makes the maximum
    principle for nonnegative stencils robust.
    """
    arr = single_channel(H, "propagated map")
    h, w = arr.shape
    if stencils.weights.shape[:2] != (h, w):
        raise ShapeMismatch(f"stencil field {stencils.weights.shape[:2]} does not match grid {(h, w)}")
    r = stencils.kernel_size // 2
    padded = np.pad(arr, r, mode="edge")
    offs = neighbor_offsets(stencils.kernel_size)
    acc = np.zeros_like(arr)
    for j, nb in enumerate(_shifted_views(padded, offs, h, w, r)):
        acc += stencils.weights[:, :, j] * (nb - arr)
    return Grid(arr + acc)


def hard_replace(H: Grid, Hs: Grid, m: Grid) -> Grid:
    """Overwrite propagated values with sparse measurements where m == 1."""
    check_same_shape(H=H, Hs=Hs, m=m)
    return Grid(np.where(binary_mask(m) == 1.0, single_channel(Hs), single_channel(H)))


def cspn_refine(D0: Grid, Ds: Grid, m: Grid, stencils: AffinityStencilField, iters: int) -> Grid:
    """Iterate (step, replace) from D0. iters == 0 returns D0 unchanged."""
    current = D0
    for _ in range(count(iters, "iteration count")):
        current = hard_replace(cspn_step(current, stencils), Ds, m)
    return current
