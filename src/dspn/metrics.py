"""KITTI-convention error metrics and the training-loss weight.

Depth metrics are reported in millimetres, inverse-depth metrics in 1/km.
Ground truth of 0 marks a missing pixel (KITTI ground truth is semi-dense),
so evaluation, the training loss and the error map read only the pixels
that :func:`valid_gt` selects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroundTruth, InvalidConfig
from .grid import Grid, check_same_shape, single_channel

# metre floor applied to predictions before inversion; KITTI ground truth is
# always positive so only predictions need it
INVERSE_DEPTH_FLOOR = 1e-3


@dataclass(frozen=True)
class MetricReport:
    rmse: float  # mm
    mae: float  # mm
    irmse: float  # 1/km
    imae: float  # 1/km
    valid_count: int


@dataclass
class LossWeights:
    """Weight of the refined-depth loss, the one loss the fitter trains."""

    refined: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.refined) and self.refined >= 0.0):
            raise InvalidConfig(f"loss weight refined must be finite and >= 0, got {self.refined}")


def valid_gt(gt: Grid) -> np.ndarray:
    """The (h, w) mask of pixels with ground truth: those with positive depth.

    Raises EmptyGroundTruth when no pixel has any.
    """
    valid = single_channel(gt, "ground truth") > 0.0
    if not valid.any():
        raise EmptyGroundTruth("no pixels with positive ground truth")
    return valid


def eval_metrics(pred: Grid, gt: Grid) -> MetricReport:
    check_same_shape(prediction=pred, ground_truth=gt)
    valid = valid_gt(gt)
    count = int(valid.sum())
    p = single_channel(pred, "prediction")[valid]
    g = single_channel(gt, "ground truth")[valid]
    diff = p - g
    rmse = float(np.sqrt(np.mean(diff * diff)) * 1000.0)
    mae = float(np.mean(np.abs(diff)) * 1000.0)
    inv_diff = 1.0 / np.maximum(p, INVERSE_DEPTH_FLOOR) - 1.0 / g
    irmse = float(np.sqrt(np.mean(inv_diff * inv_diff)) * 1000.0)
    imae = float(np.mean(np.abs(inv_diff)) * 1000.0)
    return MetricReport(rmse=rmse, mae=mae, irmse=irmse, imae=imae, valid_count=count)
