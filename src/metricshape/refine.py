"""Joint refinement of a depth grid and intrinsic parameters by gradient descent.

A desk-scale demonstration that the combined objective really is
differentiable end to end: the four intrinsic parameters enter through the
incidence field, the field and the depth grid build the point cloud, and
gradient descent with a backtracking line search drives all of it downhill
together. No network is involved; this is the mechanism, not a trained
model.

Parameterization: focal lengths live in log space so positivity needs no
constraint handling; the principal point stays in raw pixels; depth is
optimized as log-depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .camera import DepthMap, Intrinsics
from .errors import InvalidInitializationError
from .incidence import (
    SINGULARITY_EPS,
    CanonicalCamera,
    IncidenceField,
    canonical_field,
    extract_residual,
    field_from_intrinsics,
    unproject_with_field,
)
from .losses import LossWeights, total_loss
from .metrics import (
    DepthMetrics,
    FovErrorStats,
    ShapeMetrics,
    depth_metrics,
    fov_error_stats,
    shape_metrics,
)
from .solver import DistanceConstraint, _coefficient_matrix, _residuals_and_jacobian

ARMIJO_C = 1e-4
BACKTRACK_SHRINK = 0.5
MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class RefineState:
    """Optimization state: log-depth grid and (log fx, log fy, cx, cy)."""

    log_depth: np.ndarray
    theta: np.ndarray

    def __post_init__(self) -> None:
        log_depth = np.array(self.log_depth, dtype=np.float64)
        theta = np.array(self.theta, dtype=np.float64)
        if log_depth.ndim != 2:
            raise ValueError(f"log_depth must be a 2-d grid, got {log_depth.shape}")
        if theta.shape != (4,):
            raise ValueError(f"theta must have 4 entries, got {theta.shape}")
        if not (np.all(np.isfinite(log_depth)) and np.all(np.isfinite(theta))):
            raise ValueError("state must be finite")
        log_depth.setflags(write=False)
        theta.setflags(write=False)
        object.__setattr__(self, "log_depth", log_depth)
        object.__setattr__(self, "theta", theta)

    @classmethod
    def from_maps(cls, depth: DepthMap, k: Intrinsics) -> "RefineState":
        log_depth = np.where(depth.valid, np.log(np.where(depth.valid, depth.values, 1.0)), 0.0)
        theta = np.array([math.log(k.fx), math.log(k.fy), k.cx, k.cy])
        return cls(log_depth=log_depth, theta=theta)

    def to_intrinsics(self, width: int, height: int) -> Intrinsics:
        return _intrinsics(self.theta, width, height)

    def to_depth_map(self, valid: np.ndarray) -> DepthMap:
        return _depth_map(self.log_depth, valid)


def _intrinsics(theta: np.ndarray, width: int, height: int) -> Intrinsics:
    return Intrinsics(
        math.exp(theta[0]), math.exp(theta[1]), float(theta[2]), float(theta[3]), width, height
    )


def _depth_map(log_depth: np.ndarray, valid: np.ndarray) -> DepthMap:
    return DepthMap(np.where(valid, np.exp(log_depth), 0.0), valid)


@dataclass(frozen=True)
class RefineConfig:
    """Step sizes, stops and the objective: the full ground truth when
    ``constraints`` is None, otherwise only those distance constraints."""

    weights: LossWeights = field(default_factory=LossWeights)
    depth_lr: float = 0.1
    theta_lr: float = 0.5
    max_steps: int = 200
    tol: float = 0.0
    constraints: tuple[DistanceConstraint, ...] | None = None

    def __post_init__(self) -> None:
        if not (self.depth_lr > 0.0 and self.theta_lr > 0.0):
            raise ValueError("learning rates must be positive")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.constraints is not None and not self.constraints:
            raise ValueError("constraints must be None (full ground truth) or non-empty")


@dataclass(frozen=True)
class RefineReport:
    depth: DepthMetrics
    fov: FovErrorStats
    shape: ShapeMetrics


def _full_gt_objective(
    gt_depth: DepthMap,
    gt_field: IncidenceField,
    cano: CanonicalCamera,
    weights: LossWeights,
):
    """Objective closure returning (loss, grad_log_depth, grad_theta)."""
    h, w = gt_depth.height, gt_depth.width
    cano_grid = canonical_field(cano, w, h)
    valid = gt_depth.valid
    keep_x = np.abs(cano_grid.x) > SINGULARITY_EPS
    keep_y = np.abs(cano_grid.y) > SINGULARITY_EPS

    def evaluate(log_depth: np.ndarray, theta: np.ndarray):
        depth = _depth_map(log_depth, valid)
        k = _intrinsics(theta, w, h)
        res, _ = extract_residual(field_from_intrinsics(k), cano_grid)
        lv = total_loss(depth, gt_depth, res, cano_grid, gt_field, weights)

        grad_log_depth = lv.gradients["depth"] * depth.values
        gf = lv.gradients["field"]
        # where a component was divided it is res_x = (u - cx)/(fx * cano_x),
        # so d res_x / d log fx = -res_x and d res_x / d cx = -1/(fx * cano_x);
        # singular components are pinned to 1 and do not move with theta
        gx = gf[..., 0][keep_x]
        gy = gf[..., 1][keep_y]
        grad_theta = np.array(
            [
                -float((gx * res.x[keep_x]).sum()),
                -float((gy * res.y[keep_y]).sum()),
                -float((gx / (k.fx * cano_grid.x[keep_x])).sum()),
                -float((gy / (k.fy * cano_grid.y[keep_y])).sum()),
            ]
        )
        return lv.value, grad_log_depth, grad_theta

    return evaluate


def _constraints_objective(constraints: tuple[DistanceConstraint, ...]):
    """Sum of squared scaled constraint residuals as a function of theta."""
    rows, weights = _coefficient_matrix(list(constraints))

    def evaluate(log_depth: np.ndarray, theta: np.ndarray):
        fx, fy = math.exp(theta[0]), math.exp(theta[1])
        r_x, r_y = 1.0 / fx, 1.0 / fy
        t_x, t_y = float(theta[2]) * r_x, float(theta[3]) * r_y
        f, jac = _residuals_and_jacobian(np.array([t_x, t_y, r_x, r_y]), rows, weights)
        # d loss / d (t_x, t_y, r_x, r_y), then chain into theta:
        # t_x = cx * r_x and r_x = exp(-log fx), so d/d log fx = -(t_x d_tx + r_x d_rx)
        d_tx, d_ty, d_rx, d_ry = 2.0 * (jac.T @ f)
        grad_theta = np.array(
            [
                -(t_x * d_tx + r_x * d_rx),
                -(t_y * d_ty + r_y * d_ry),
                d_tx * r_x,
                d_ty * r_y,
            ]
        )
        return float(f @ f), np.zeros_like(log_depth), grad_theta

    return evaluate


def refine_joint(
    init: RefineState,
    gt_depth: DepthMap,
    gt_field: IncidenceField,
    cano: CanonicalCamera,
    cfg: RefineConfig,
) -> tuple[RefineState, list[float]]:
    """Gradient descent with backtracking line search on the combined loss.

    Accepted steps never increase the loss, so the returned trace (one
    entry per accepted step, first entry the initial loss) is monotonically
    non-increasing. Stops at max_steps, at a stationary point, when the
    line search fails, or when the achieved decrease drops below cfg.tol.
    """
    if init.log_depth.shape != gt_depth.values.shape:
        raise ValueError(
            f"state grid {init.log_depth.shape} does not match depth {gt_depth.values.shape}"
        )
    if cfg.constraints is None:
        evaluate = _full_gt_objective(gt_depth, gt_field, cano, cfg.weights)
    else:
        evaluate = _constraints_objective(cfg.constraints)

    log_depth = init.log_depth.copy()
    theta = init.theta.copy()
    loss, grad_d, grad_t = evaluate(log_depth, theta)
    if not math.isfinite(loss):
        raise InvalidInitializationError(f"loss at the initial state is {loss}")
    trace = [loss]

    for _ in range(cfg.max_steps):
        dir_d = cfg.depth_lr * grad_d
        dir_t = cfg.theta_lr * grad_t
        descent = float((grad_d * dir_d).sum() + grad_t @ dir_t)
        if descent == 0.0:
            break
        t = 1.0
        accepted = False
        for _bt in range(MAX_BACKTRACKS):
            cand_d = log_depth - t * dir_d
            cand_t = theta - t * dir_t
            cand_loss, cand_gd, cand_gt = evaluate(cand_d, cand_t)
            if math.isfinite(cand_loss) and cand_loss <= loss - ARMIJO_C * t * descent:
                accepted = True
                break
            t *= BACKTRACK_SHRINK
        if not accepted:
            break
        decrease = loss - cand_loss
        log_depth, theta = cand_d, cand_t
        loss, grad_d, grad_t = cand_loss, cand_gd, cand_gt
        trace.append(loss)
        if decrease < cfg.tol:
            break

    return RefineState(log_depth=log_depth, theta=theta), trace


def refine_report(
    state: RefineState,
    gt_depth: DepthMap,
    gt_k: Intrinsics,
) -> RefineReport:
    """Depth, FoV, and shape metrics of a refined state against ground truth."""
    refined_depth = state.to_depth_map(gt_depth.valid)
    refined_k = state.to_intrinsics(gt_k.width, gt_k.height)
    cloud_pred = unproject_with_field(field_from_intrinsics(refined_k), refined_depth)
    cloud_gt = unproject_with_field(field_from_intrinsics(gt_k), gt_depth)
    return RefineReport(
        depth=depth_metrics(refined_depth, gt_depth),
        fov=fov_error_stats([refined_k], [gt_k]),
        shape=shape_metrics(cloud_pred, cloud_gt),
    )
