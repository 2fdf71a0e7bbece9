"""Confidence supervision target and confidence-weighted sparse replacement.

Sensor measurements are only trusted in proportion to a per-pixel confidence
in [0, 1]; the supervision target decays exponentially with the measurement
error at a tolerance of gamma metres.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, ShapeMismatch
from .grid import Grid, binary_mask, same_shape, unit_confidence


@dataclass
class ConfidenceConfig:
    """gamma: tolerance factor in metres; confidence hits e^-1 at that error."""

    gamma: float = 0.1

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise InvalidConfig(f"gamma must be a positive finite number, got {self.gamma}")


def confidence_target(dstar: Grid, ds: Grid, m: Grid, cfg: ConfidenceConfig) -> Grid:
    """Ground-truth confidence: m * exp(-|D* - Ds| / gamma), zero off-mask."""
    if not (same_shape(dstar, ds) and same_shape(dstar, m)):
        raise ShapeMismatch("confidence_target operands must share one shape")
    mask = binary_mask(m)
    resid = np.abs(dstar.channel(0) - ds.channel(0))
    return Grid(mask * np.exp(-resid / cfg.gamma))


def soft_replace(H: Grid, Hs: Grid, m: Grid, M: Grid) -> Grid:
    """Blend propagated values toward measurements by m * M.

    With M == 1 everywhere this reduces bit-exactly to hard replacement;
    the output always lies between H and Hs per pixel.
    """
    if not (same_shape(H, Hs) and same_shape(H, m) and same_shape(H, M)):
        raise ShapeMismatch("soft_replace operands must share one shape")
    a = (binary_mask(m) * unit_confidence(M))[:, :, np.newaxis]
    return Grid((1.0 - a) * H.data + a * Hs.data)


def heuristic_confidence(
    ds: Grid,
    m: Grid,
    cfg: ConfidenceConfig,
    coarse: Grid | None = None,
    min_neighbors: int = 3,
    max_radius: int = 8,
    agreement_slack: float = 0.12,
    gradient_slack: float = 1.0,
) -> Grid:
    """Predicted-confidence stand-in from the sparse map alone.

    Each measurement is scored by how well it agrees with its best-matching
    nearby measurement: M = exp(-max(0, min_j(|Ds - Ds_j| - slack_j)) / gamma).
    The window grows from 3x3 until it holds ``min_neighbors`` other valid
    pixels (or hits ``max_radius``). Best-match agreement rather than the
    window median keeps measurements near depth discontinuities trusted as
    long as one same-surface neighbour exists, while an outlier disagrees
    with every neighbour.

    The per-neighbour slack absorbs sensor noise plus, when a coarse depth
    map is supplied, the disagreement explained by local scene structure
    (gradient magnitude times neighbour distance), so measurements on
    slopes and near boundaries are not mistaken for outliers. A measurement
    with no neighbours at all keeps full confidence, since there is no
    evidence against it. Invalid pixels get 0.
    """
    if not same_shape(ds, m):
        raise ShapeMismatch("sparse map and mask must share one shape")
    mask = binary_mask(m)
    values = ds.channel(0)
    h, w = values.shape
    gmag = None
    if coarse is not None:
        pad = np.pad(coarse.channel(0), 1, mode="edge")
        gmag = (
            np.abs(pad[1:-1, 2:] - pad[1:-1, :-2]) + np.abs(pad[2:, 1:-1] - pad[:-2, 1:-1])
        ) / 2.0
    out = np.zeros((h, w))
    ys, xs = np.nonzero(mask)
    for y, x in zip(ys, xs):
        found = None
        for r in range(1, max_radius + 1):
            y0, y1 = max(0, y - r), min(h, y + r + 1)
            x0, x1 = max(0, x - r), min(w, x + r + 1)
            win_mask = mask[y0:y1, x0:x1].copy()
            win_mask[y - y0, x - x0] = 0.0
            if win_mask.sum() >= min_neighbors or r == max_radius:
                if win_mask.sum() > 0:
                    yy, xx = np.nonzero(win_mask)
                    nb = values[y0:y1, x0:x1][yy, xx]
                    dist = np.sqrt((yy + y0 - y) ** 2.0 + (xx + x0 - x) ** 2.0)
                    found = (nb, dist)
                break
        if found is None:
            out[y, x] = 1.0
            continue
        nb, dist = found
        slack = agreement_slack
        if gmag is not None:
            slack = slack + gradient_slack * gmag[y, x] * dist
        score = (np.abs(nb - values[y, x]) - slack).min()
        out[y, x] = np.exp(-max(score, 0.0) / cfg.gamma)
    return Grid(out)
