"""Confidence supervision target and confidence-weighted sparse replacement.

Sensor measurements are only trusted in proportion to a per-pixel confidence
in [0, 1]; the supervision target decays exponentially with the measurement
error at a tolerance of gamma metres.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .grid import Grid, binary_mask, check_same_shape, count, real, single_channel, unit_confidence

AGREEMENT_SLACK = 0.12
GRADIENT_SLACK = 1.0


@dataclass
class ConfidenceConfig:
    """gamma: tolerance factor in metres; confidence hits e^-1 at that error."""

    gamma: float = 0.1

    def __post_init__(self):
        if real(self.gamma, "gamma") <= 0.0:
            raise InvalidConfig(f"gamma must be > 0, got {self.gamma}")


def confidence_target(dstar: Grid, ds: Grid, m: Grid, cfg: ConfidenceConfig) -> Grid:
    """Ground-truth confidence: m * exp(-|D* - Ds| / gamma), zero off-mask."""
    check_same_shape(ground_truth=dstar, sparse_map=ds, mask=m)
    mask = binary_mask(m)
    resid = np.abs(single_channel(dstar, "ground truth") - single_channel(ds, "sparse map"))
    return Grid(mask * np.exp(-resid / cfg.gamma))


def soft_replace(H: Grid, Hs: Grid, m: Grid, M: Grid) -> Grid:
    """Blend propagated values toward measurements by m * M.

    With M == 1 everywhere this reduces bit-exactly to hard replacement;
    the output always lies between H and Hs per pixel.
    """
    check_same_shape(H=H, Hs=Hs, m=m, M=M)
    a = binary_mask(m) * unit_confidence(M)
    return Grid((1.0 - a) * single_channel(H) + a * single_channel(Hs))


def heuristic_confidence(
    ds: Grid,
    m: Grid,
    cfg: ConfidenceConfig,
    coarse: Grid | None = None,
    min_neighbors: int = 3,
    max_radius: int = 8,
) -> Grid:
    """Predicted-confidence stand-in from the sparse map alone.

    Each measurement is scored by how well it agrees with its best-matching
    nearby measurement: M = exp(-max(0, min_j(|Ds - Ds_j| - slack_j)) / gamma).
    The window grows from 3x3 until it holds ``min_neighbors`` other valid
    pixels (or hits ``max_radius``, at least 1; ``min_neighbors`` 0 keeps
    every window 3x3). Best-match agreement rather than the window median
    keeps measurements near depth discontinuities trusted as long as one
    same-surface neighbour exists, while an outlier disagrees with every
    neighbour.

    The per-neighbour slack absorbs sensor noise (``AGREEMENT_SLACK`` m)
    plus, when a coarse depth map is supplied, the disagreement explained by
    local scene structure (``GRADIENT_SLACK`` times gradient magnitude times
    neighbour distance), so measurements on slopes and near boundaries are
    not mistaken for outliers. A measurement with no neighbours at all keeps
    full confidence, since there is no evidence against it. Invalid pixels
    get 0.
    """
    min_neighbors = count(min_neighbors, "min_neighbors")
    max_radius = count(max_radius, "max_radius", 1)
    check_same_shape(sparse_map=ds, mask=m, coarse_map=coarse)
    mask = binary_mask(m)
    values = single_channel(ds, "sparse map")
    h, w = values.shape
    gmag = np.zeros((h, w))  # no coarse map: the noise slack alone
    if coarse is not None:
        pad = np.pad(single_channel(coarse, "coarse map"), 1, mode="edge")
        gmag = (np.abs(pad[1:-1, 2:] - pad[1:-1, :-2]) + np.abs(pad[2:, 1:-1] - pad[:-2, 1:-1])) / 2.0
    out = np.zeros((h, w))
    ys, xs = np.nonzero(mask)

    # window radius per measurement: the neighbour count of every clipped
    # window comes from one integral image, smallest sufficient radius wins
    integral = np.zeros((h + 1, w + 1), dtype=np.int64)
    integral[1:, 1:] = mask.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
    radius = np.full(ys.size, max_radius)
    found = np.zeros(ys.size, dtype=np.int64)
    for r in range(max_radius, 0, -1):
        y0, y1 = np.maximum(ys - r, 0), np.minimum(ys + r + 1, h)
        x0, x1 = np.maximum(xs - r, 0), np.minimum(xs + r + 1, w)
        c = integral[y1, x1] - integral[y0, x1] - integral[y1, x0] + integral[y0, x0] - 1
        stop = (c >= min_neighbors) | (r == max_radius)
        radius[stop] = r
        found[stop] = c[stop]
    isolated = found == 0
    out[ys[isolated], xs[isolated]] = 1.0

    # best-match score: a running minimum over the window offsets, ring by
    # ring; sorted by radius, the measurements whose window reaches a ring
    # are a prefix
    order = np.argsort(-radius[~isolated], kind="stable")
    ys, xs, radius = ys[~isolated][order], xs[~isolated][order], radius[~isolated][order]
    padded_mask = np.pad(mask, max_radius).ravel()
    padded_values = np.pad(values, max_radius).ravel()
    stride = w + 2 * max_radius
    centre = (ys + max_radius) * stride + xs + max_radius
    own = values[ys, xs]
    grad_slack = GRADIENT_SLACK * gmag[ys, xs]
    score = np.full(ys.size, np.inf)
    for ring in range(1, max_radius + 1):
        k = np.count_nonzero(radius >= ring)
        for dy in range(-ring, ring + 1):
            for dx in range(-ring, ring + 1):
                if max(abs(dy), abs(dx)) != ring:
                    continue
                nb = centre[:k] + (dy * stride + dx)
                hit = np.flatnonzero(padded_mask[nb] == 1.0)
                slack = AGREEMENT_SLACK + grad_slack[hit] * np.sqrt(dy**2.0 + dx**2.0)
                term = np.abs(padded_values[nb[hit]] - own[hit]) - slack
                score[hit] = np.minimum(score[hit], term)
    out[ys, xs] = np.exp(-np.maximum(score, 0.0) / cfg.gamma)
    return Grid(out)
