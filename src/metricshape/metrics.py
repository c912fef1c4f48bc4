"""Evaluation metrics for depth, intrinsics (FoV), and recovered 3D shape."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import DepthMap, Intrinsics, PointCloud
from .errors import EmptyCloudError, EmptyOverlapError, ShapeMismatchError
from .losses import _mutual_nearest

DEFAULT_F1_THRESHOLDS = (0.05, 0.1, 0.3, 0.5, 0.75)


@dataclass(frozen=True)
class DepthMetrics:
    delta1: float
    delta2: float
    delta3: float
    a_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    log10: float
    n_valid: int


@dataclass(frozen=True)
class FovErrorStats:
    mean: float
    median: float
    per_sample: tuple[float, ...]


@dataclass(frozen=True)
class ShapeMetrics:
    f1: dict[float, float]
    chamfer: float


def depth_metrics(pred: DepthMap, gt: DepthMap, cap: float | None = None) -> DepthMetrics:
    """Standard per-pixel depth error metrics over the jointly valid region.

    delta_i is the fraction of pixels whose symmetric ratio
    max(pred/gt, gt/pred) is below 1.25^i. ``cap`` removes ground-truth
    pixels deeper than cap meters from the mask (capping restricts the
    mask; values are never clamped).
    """
    if pred.values.shape != gt.values.shape:
        raise ShapeMismatchError(
            f"depth shapes differ: {pred.values.shape} vs {gt.values.shape}"
        )
    joint = pred.valid & gt.valid
    if cap is not None:
        joint = joint & (gt.values <= cap)
    n = int(joint.sum())
    if n == 0:
        raise EmptyOverlapError("no jointly valid pixels (after capping)")
    d = pred.values[joint]
    g = gt.values[joint]
    ratio = np.maximum(d / g, g / d)
    diff = d - g
    log_diff = np.log(d) - np.log(g)
    return DepthMetrics(
        delta1=float((ratio < 1.25).mean()),
        delta2=float((ratio < 1.25**2).mean()),
        delta3=float((ratio < 1.25**3).mean()),
        a_rel=float((np.abs(diff) / g).mean()),
        sq_rel=float((diff * diff / g).mean()),
        rmse=float(np.sqrt((diff * diff).mean())),
        rmse_log=float(np.sqrt((log_diff * log_diff).mean())),
        log10=float(np.abs(np.log10(d) - np.log10(g)).mean()),
        n_valid=n,
    )


def fov_error_stats(
    pred: Sequence[Intrinsics], gt: Sequence[Intrinsics], axis: str = "both"
) -> FovErrorStats:
    """Angular FoV error statistics over paired camera lists, in degrees.

    axis="x" or "y" uses that image axis alone; "both" averages the two
    axes' errors per sample.
    """
    if len(pred) != len(gt):
        raise ShapeMismatchError(f"list lengths differ: {len(pred)} vs {len(gt)}")
    if len(pred) == 0:
        raise ValueError("need at least one camera pair")
    if axis not in ("x", "y", "both"):
        raise ValueError(f"axis must be 'x', 'y' or 'both', got {axis!r}")
    errors = []
    for kp, kg in zip(pred, gt):
        ex = abs(kp.fov_x() - kg.fov_x())
        ey = abs(kp.fov_y() - kg.fov_y())
        if axis == "x":
            errors.append(ex)
        elif axis == "y":
            errors.append(ey)
        else:
            errors.append(0.5 * (ex + ey))
    arr = np.array(errors)
    return FovErrorStats(
        mean=float(arr.mean()), median=float(np.median(arr)), per_sample=tuple(errors)
    )


def f1_at_threshold(p: PointCloud, q: PointCloud, tau: float) -> float:
    """Point-cloud F1: harmonic mean of precision and recall at radius tau.

    Precision is the fraction of P within tau meters of some point of Q,
    recall the fraction of Q within tau of some point of P; matching runs
    in raw metric coordinates (no cloud normalization).
    """
    return shape_metrics(p, q, (tau,)).f1[float(tau)]


def shape_metrics(
    p: PointCloud,
    q: PointCloud,
    thresholds: Sequence[float] = DEFAULT_F1_THRESHOLDS,
) -> ShapeMetrics:
    """F1 across thresholds plus the Chamfer distance, sharing one NN pass."""
    if len(p) == 0 or len(q) == 0:
        raise EmptyCloudError("shape metrics need two non-empty clouds")
    _, d2_pq, _, d2_qp = _mutual_nearest(p.points, q.points)
    f1 = {}
    for tau in thresholds:
        if not tau > 0.0:
            raise ValueError(f"tau must be positive, got {tau}")
        precision = float((d2_pq <= tau * tau).mean())
        recall = float((d2_qp <= tau * tau).mean())
        f1[float(tau)] = (
            0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
        )
    chamfer = float(d2_pq.mean()) + float(d2_qp.mean())
    return ShapeMetrics(f1=f1, chamfer=chamfer)
