"""Confidence supervision target and confidence-weighted sparse replacement.

Sensor measurements are only trusted in proportion to a per-pixel confidence
in [0, 1]; the supervision target decays exponentially with the measurement
error at a tolerance of gamma metres.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .grid import Grid, binary_mask, check_same_shape, gradient_magnitudes, real, single_channel, unit_confidence

AGREEMENT_SLACK = 0.12
GRADIENT_SLACK = 1.0
# heuristic confidence's ring walk stops at the first ring that brings this
# many neighbours, or after ring MAX_RADIUS
MIN_NEIGHBORS = 3
MAX_RADIUS = 8


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


def heuristic_confidence(ds: Grid, m: Grid, cfg: ConfidenceConfig, coarse: Grid) -> Grid:
    """Predicted-confidence stand-in: each measurement's best agreement with
    its neighbours j, M = exp(-max(0, min_j(|Ds - Ds_j| - slack_j)) / gamma).

    The neighbours come from one walk over the Chebyshev rings r = 1, 2, ...
    around the measurement, which stops after the first ring that brings
    their count to ``MIN_NEIGHBORS``, or after ring ``MAX_RADIUS``. Best
    match, not the median, keeps a measurement near a depth discontinuity
    trusted while one same-surface neighbour exists; an outlier disagrees
    with every neighbour. The slack absorbs sensor noise (``AGREEMENT_SLACK``
    m) plus the disagreement the scene's slope explains (``GRADIENT_SLACK``
    times the coarse map's gradient magnitude times the neighbour distance).
    A measurement with no neighbour scores 1, as nothing speaks against it;
    an invalid pixel scores 0.
    """
    check_same_shape(sparse_map=ds, mask=m, coarse_map=coarse)
    mask = binary_mask(m)
    values = single_channel(ds, "sparse map")
    gx, gy = gradient_magnitudes(single_channel(coarse, "coarse map"))
    ys, xs = np.nonzero(mask)
    own = values[ys, xs]
    grad_slack = GRADIENT_SLACK * (gx + gy)[ys, xs]

    # the walk reads the maps zero-padded by MAX_RADIUS, flattened, so every
    # ring offset is one index shift and a padding pixel is no neighbour
    padded_mask = np.pad(mask == 1.0, MAX_RADIUS).ravel()
    padded_values = np.pad(values, MAX_RADIUS).ravel()
    stride = values.shape[1] + 2 * MAX_RADIUS
    centre = (ys + MAX_RADIUS) * stride + xs + MAX_RADIUS
    score = np.full(ys.size, np.inf)
    found = np.zeros(ys.size, dtype=np.int64)
    walking = np.arange(ys.size)
    for ring in range(1, MAX_RADIUS + 1):
        at = centre[walking]
        for dy in range(-ring, ring + 1):
            for dx in range(-ring, ring + 1) if abs(dy) == ring else (-ring, ring):
                nb = at + (dy * stride + dx)
                hit = np.flatnonzero(padded_mask[nb])
                j = walking[hit]
                slack = AGREEMENT_SLACK + grad_slack[j] * np.sqrt(dy**2.0 + dx**2.0)
                term = np.abs(padded_values[nb[hit]] - own[j]) - slack
                score[j] = np.minimum(score[j], term)
                found[j] += 1
        walking = walking[found[walking] < MIN_NEIGHBORS]

    out = np.zeros(values.shape)
    out[ys, xs] = np.where(found == 0, 1.0, np.exp(-np.maximum(score, 0.0) / cfg.gamma))
    return Grid(out)
