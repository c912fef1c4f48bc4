"""Joint refinement of a depth grid and intrinsic parameters by gradient descent.

A desk-scale demonstration that the combined objective really is
differentiable end to end: the four intrinsic parameters enter through the
incidence field, the field and the depth grid build the point cloud, and
gradient descent with a backtracking line search drives all of it downhill
together. No network is involved; this is the mechanism, not a trained
model.

Step rule: each step's first trial is the Barzilai-Borwein step
s^T y / y^T P y (Barzilai & Borwein, "Two-point step size gradient methods",
IMA J. Numer. Anal. 1988) in the metric of P = diag(depth_lr, theta_lr),
capped so that no log depth and no log focal moves by more than 1, and
Armijo backtracking halves it from there. A trial that leaves float64 has an
infinite loss and is rejected like any other.

Parameterization: focal lengths live in log space so positivity needs no
constraint handling; the principal point stays in raw pixels; depth is
optimized as log-depth.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .camera import DepthMap, Intrinsics, _freeze, _made, _require_integer
from .errors import (
    DegenerateFieldError,
    InvalidInitializationError,
    InvalidIntrinsicsError,
    InvalidSettingError,
    ShapeMismatchError,
)
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

ARMIJO_C = 1e-4
BACKTRACK_SHRINK = 0.5
MAX_BACKTRACKS = 40
# bounds of the Barzilai-Borwein first trial step
MIN_FIRST_TRIAL = 1e-6
MAX_FIRST_TRIAL = 1e6


@dataclass(frozen=True)
class RefineState:
    """Optimization state: log-depth grid and (log fx, log fy, cx, cy)."""

    log_depth: np.ndarray
    theta: np.ndarray

    def __post_init__(self) -> None:
        log_depth = np.array(self.log_depth, dtype=np.float64)
        theta = np.array(self.theta, dtype=np.float64)
        if log_depth.ndim != 2:
            raise ShapeMismatchError(f"log_depth must be a 2-d grid, got {log_depth.shape}")
        if theta.shape != (4,):
            raise ShapeMismatchError(f"theta must have 4 entries, got {theta.shape}")
        if not (np.all(np.isfinite(log_depth)) and np.all(np.isfinite(theta))):
            raise InvalidInitializationError("state must be finite")
        _freeze(self, log_depth=log_depth, theta=theta)

    @classmethod
    def from_maps(cls, depth: DepthMap, k: Intrinsics) -> "RefineState":
        log_depth = np.where(depth.valid, np.log(np.where(depth.valid, depth.values, 1.0)), 0.0)
        theta = np.array([math.log(k.fx), math.log(k.fy), k.cx, k.cy])
        return cls(log_depth=log_depth, theta=theta)

    def to_intrinsics(self, width: int, height: int) -> Intrinsics:
        log_fx, log_fy, cx, cy = self.theta
        return Intrinsics(_focal(log_fx), _focal(log_fy), float(cx), float(cy), width, height)

    def to_depth_map(self, valid: np.ndarray) -> DepthMap:
        return DepthMap(np.where(valid, np.exp(self.log_depth), 0.0), valid)


def _focal(log_f: float) -> float:
    """exp(log f), an overflow taken as inf."""
    try:
        return math.exp(log_f)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RefineConfig:
    """Loss weights, step sizes and stops of the full-ground-truth descent."""

    weights: LossWeights = field(default_factory=LossWeights)
    depth_lr: float = 0.1
    theta_lr: float = 0.5
    max_steps: int = 200
    tol: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.weights, LossWeights):
            raise InvalidSettingError(f"weights must be a LossWeights, got {self.weights!r}")
        for name in ("depth_lr", "theta_lr"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0.0):
                raise InvalidSettingError(f"{name} must be finite and positive, got {value}")
        _require_integer("max_steps", self.max_steps, 0)
        tol = self.tol
        # a NaN or negative tol would never stop the descent, silently
        if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0.0):
            raise InvalidSettingError(f"tol must be finite and non-negative, got {tol!r}")


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
    """Objective closure returning (loss, grad_log_depth, grad_theta).

    A state whose depths, focal lengths, rays or residual rays leave float64
    (or whose depths or focals reach 0) has loss inf and no gradients; so
    does one whose loss overflows on the way.
    """
    h, w = gt_depth.height, gt_depth.width
    cano_grid = canonical_field(cano, w, h)
    valid = gt_depth.valid
    keep_x = np.abs(cano_grid.x) > SINGULARITY_EPS
    keep_y = np.abs(cano_grid.y) > SINGULARITY_EPS
    cano_x, cano_y = cano_grid.x[keep_x], cano_grid.y[keep_y]

    @np.errstate(over="ignore", invalid="ignore")
    def evaluate(log_depth: np.ndarray, theta: np.ndarray):
        depths = np.where(valid, np.exp(log_depth), 1.0)
        # no NaN can pass: every comparison with NaN is false
        if not (0.0 < depths.min() and depths.max() < math.inf):
            return math.inf, None, None
        try:
            fx, fy = _focal(theta[0]), _focal(theta[1])
            k = Intrinsics(fx, fy, float(theta[2]), float(theta[3]), w, h)
            res, _ = extract_residual(field_from_intrinsics(k), cano_grid)
        except (InvalidIntrinsicsError, DegenerateFieldError):
            # a focal length at 0 or inf, a non-finite theta, or a ray or residual
            # component out of float64
            return math.inf, None, None
        # the depths were just tested finite and positive
        depth = _made(DepthMap, values=np.where(valid, depths, 0.0), valid=valid)
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
                -float((gx / (k.fx * cano_x)).sum()),
                -float((gy / (k.fy * cano_y)).sum()),
            ]
        )
        return lv.value, grad_log_depth, grad_theta

    return evaluate


@np.errstate(over="ignore", invalid="ignore")
def refine_joint(
    init: RefineState,
    gt_depth: DepthMap,
    gt_field: IncidenceField,
    cano: CanonicalCamera,
    cfg: RefineConfig,
) -> tuple[RefineState, list[float]]:
    """Gradient descent with backtracking line search on the combined loss.

    Each step's first trial is the capped Barzilai-Borwein step of the
    module docstring; a trial whose loss is not finite fails the Armijo test
    like any other. Accepted steps never increase the loss, so the returned
    trace (one entry per accepted step, first entry the initial loss) is
    monotonically non-increasing. Stops at max_steps, at a stationary point,
    when the line search fails, or when the achieved decrease drops below
    cfg.tol.

    Every evaluation passes ``total_loss`` the same ``gt_depth``, ``gt_field``
    and canonical field, and a prediction on ``gt_depth``'s own mask, so the
    ground truth's terms are computed once per run (see ``losses``).
    """
    if init.log_depth.shape != gt_depth.values.shape:
        raise ShapeMismatchError(
            f"state grid {init.log_depth.shape} does not match depth {gt_depth.values.shape}"
        )
    evaluate = _full_gt_objective(gt_depth, gt_field, cano, cfg.weights)

    log_depth, theta = init.log_depth, init.theta
    loss, grad_d, grad_t = evaluate(log_depth, theta)
    if not math.isfinite(loss):
        raise InvalidInitializationError(f"loss at the initial state is {loss}")
    trace = [loss]
    step_d = step_t = prev_gd = prev_gt = None  # the last accepted step, the gradient before it

    for _ in range(cfg.max_steps):
        dir_d = cfg.depth_lr * grad_d
        dir_t = cfg.theta_lr * grad_t
        descent = float((grad_d * dir_d).sum() + grad_t @ dir_t)
        if descent == 0.0:
            break
        t = 1.0
        if step_d is not None:
            # Barzilai-Borwein: s = the last step, y = the change of gradient it made
            y_d, y_t = grad_d - prev_gd, grad_t - prev_gt
            sy = float((step_d * y_d).sum() + step_t @ y_t)
            ypy = float(cfg.depth_lr * (y_d * y_d).sum() + cfg.theta_lr * (y_t @ y_t))
            if sy > 0.0 and ypy > 0.0:
                t = min(max(sy / ypy, MIN_FIRST_TRIAL), MAX_FIRST_TRIAL)
        # no log depth and no log focal moves by more than 1 in a trial
        largest = max(float(np.abs(dir_d).max()), abs(dir_t[0]), abs(dir_t[1]))
        if t * largest > 1.0:
            t = 1.0 / largest
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
        step_d, step_t = cand_d - log_depth, cand_t - theta
        prev_gd, prev_gt = grad_d, grad_t
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
