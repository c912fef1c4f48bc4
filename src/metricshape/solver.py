"""Recover 4-DoF intrinsics from a depth map plus pixel-pair distance constraints.

Each constraint is two pixels with known depths d1, d2 and the Euclidean
3D separation L of their unprojections (the physical size of some
reference object). Squaring the separation and substituting

    t_x = cx / fx,   t_y = cy / fy,   r_x = 1 / fx,   r_y = 1 / fy

turns each constraint into one polynomial equation

    (a1*r_x + a2*t_x)^2 + (a3*r_y + a4*t_y)^2 + a5 = 0

with per-pair constants a1 = d1*u1 - d2*u2, a2 = a4 = d2 - d1,
a3 = d1*v1 - d2*v2, a5 = (d1 - d2)^2 - L^2; then fx = 1/r_x, fy = 1/r_y,
cx = t_x/r_x, cy = t_y/r_y. Because a2 = a4, each equation is linear in
m = (r_x^2, r_x*t_x, r_y^2, r_y*t_y, t_x^2 + t_y^2). Four pairs (the minimal
problem) leave a line m0 + lambda*n, on which cameras satisfy
m5*m1*m3 = m2^2*m3 + m4^2*m1: a cubic in lambda whose real roots with
m1, m3 > 0 are every exact solution. More pairs, the Huber loss and the
polish of a minimal root minimize the sum of squared equation values with
Levenberg-Marquardt.

Each equation is divided by L^2 before stacking so the system is
dimensionless and large-L constraints do not dominate.

Degeneracy: when every pair has d1 == d2 the a2, a4 coefficients vanish
and t_x, t_y drop out of every equation, so the principal point is
unobservable; coplanar points likewise leave a family of cameras. Exact
rank loss of the monomial system (four pairs) or of the Jacobian (more
pairs) raises DegenerateConstraintsError; a merely ill-conditioned
Jacobian sets ``condition_warning`` on the report.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .camera import Intrinsics
from .errors import (
    DegenerateConstraintsError,
    InfeasibleConstraintError,
    InvalidIntrinsicsError,
    InvalidSettingError,
)
from .incidence import CANONICAL_FOV_DEG, CanonicalCamera

# Levenberg-Marquardt schedule. Convergence is declared when the scaled
# residual norm drops below TOL_ABS, when an accepted step is shorter than
# TOL_STEP, or when every gradient component |J_j^T f| is below
# TOL_GRAD * |J_j| * |f| (first-order stationarity, tested each iteration);
# the solve gives up unconverged when the damping exceeds DAMPING_MAX or
# after MAX_ITER iterations. SolveReport.stop_reason names which ended it.
DAMPING_INIT = 1e-3
DAMPING_FACTOR = 10.0
DAMPING_MAX = 1e16
MAX_ITER = 200
TOL_ABS = 1e-14
TOL_STEP = 1e-12
TOL_GRAD = 1e-6
# smallest-to-largest singular value ratio below which a solve is flagged
CONDITION_RATIO = 1e-8
# enumerate_solutions keeps roots whose scaled residual norm is below this
ROOT_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class DistanceConstraint:
    """Two pixels, their depths in meters, and their 3D separation in meters."""

    u1: float
    v1: float
    u2: float
    v2: float
    d1: float
    d2: float
    distance: float

    def __post_init__(self) -> None:
        for name in ("u1", "v1", "u2", "v2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InfeasibleConstraintError(f"{name} must be finite, got {value}")
        if (self.u1, self.v1) == (self.u2, self.v2):
            raise InfeasibleConstraintError("constraint pixels must differ")
        for name in ("d1", "d2", "distance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InfeasibleConstraintError(f"{name} must be finite and positive, got {value}")
        a1, a2, a3, a5 = _pair_coefficients(
            self.u1, self.v1, self.u2, self.v2, self.d1, self.d2, self.distance
        )
        # the row weight 1/L^2 (_coefficient_matrix), and a5 and the products
        # _minimal_roots forms from a1 and a3 once weighted, must be finite
        squared = self.distance * self.distance
        if not (squared > 0.0 and math.isfinite(1.0 / squared)):
            raise InfeasibleConstraintError(
                f"row weight 1/L^2 overflows float64: distance {self.distance} out of range"
            )
        weight = 1.0 / squared
        for name, fields, square, cross in (
            ("a1", "u1, u2", a1 * a1, 2.0 * a1 * a2),
            ("a3", "v1, v2", a3 * a3, 2.0 * a3 * a2),
            ("a5", "distance", a5, a5),
        ):
            if not (math.isfinite(square * weight) and math.isfinite(cross * weight)):
                raise InfeasibleConstraintError(
                    f"coefficient {name} overflows float64: {fields} out of range"
                )
        if self.distance < abs(self.d1 - self.d2):
            raise InfeasibleConstraintError(
                f"distance {self.distance} is smaller than the depth separation "
                f"|d1 - d2| = {abs(self.d1 - self.d2)}; no camera can realize this pair"
            )


@dataclass(frozen=True)
class ConstraintCoefficients:
    """Constants of one re-parameterized distance equation."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float


@dataclass(frozen=True)
class SolverParams:
    """Solver unknowns (t_x, t_y, r_x, r_y) = (cx/fx, cy/fy, 1/fx, 1/fy)."""

    t_x: float
    t_y: float
    r_x: float
    r_y: float

    def __post_init__(self) -> None:
        if not (self.r_x > 0.0 and self.r_y > 0.0):
            raise InvalidIntrinsicsError(
                f"r_x and r_y must be positive, got {self.r_x}, {self.r_y}"
            )

    @classmethod
    def from_intrinsics(cls, k: Intrinsics) -> "SolverParams":
        return cls(t_x=k.cx / k.fx, t_y=k.cy / k.fy, r_x=1.0 / k.fx, r_y=1.0 / k.fy)

    def to_intrinsics(self, width: int, height: int) -> Intrinsics:
        return Intrinsics(
            fx=1.0 / self.r_x,
            fy=1.0 / self.r_y,
            cx=self.t_x / self.r_x,
            cy=self.t_y / self.r_y,
            width=width,
            height=height,
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.t_x, self.t_y, self.r_x, self.r_y])


@dataclass(frozen=True)
class SolveReport:
    """Solve outcome: recovered intrinsics plus convergence diagnostics."""

    intrinsics: Intrinsics
    final_residual_norm: float
    iterations: int
    converged: bool
    condition_warning: bool
    # tol_abs, tol_step, tol_grad (converged), damping_max, max_iter (not
    # converged), or root for an exact root from enumerate_solutions
    stop_reason: str


def canonical_params(width: int, height: int, fov_deg: float = CANONICAL_FOV_DEG) -> SolverParams:
    """Initialization from the canonical prior: given FoV, centered principal point."""
    cano = CanonicalCamera.for_image(width, height, fov_deg)
    return SolverParams.from_intrinsics(cano.intrinsics(width, height))


def _pair_coefficients(u1, v1, u2, v2, d1, d2, distance):
    """(a1, a2, a3, a5) of one pair, or element-wise of arrays of pairs; a4 = a2.

    Squares are products, which round correctly (Python's ``x**2`` goes
    through libm ``pow`` and can be 1 ulp off).
    """
    a2 = d2 - d1
    return d1 * u1 - d2 * u2, a2, d1 * v1 - d2 * v2, a2 * a2 - distance * distance


def coefficients_from_constraint(c: DistanceConstraint) -> ConstraintCoefficients:
    """Constants a1..a5 of the constraint's re-parameterized equation."""
    a1, a2, a3, a5 = _pair_coefficients(c.u1, c.v1, c.u2, c.v2, c.d1, c.d2, c.distance)
    return ConstraintCoefficients(a1=a1, a2=a2, a3=a3, a4=a2, a5=a5)


def constraint_residual(coef: ConstraintCoefficients, params: SolverParams) -> float:
    """Left-hand side of the constraint equation; zero iff exactly satisfied."""
    f, _ = _residuals_and_jacobian(params.as_array(), np.array([astuple(coef)]), np.ones(1))
    return float(f[0])


def constraint_gradient(coef: ConstraintCoefficients, params: SolverParams) -> np.ndarray:
    """Gradient of the residual w.r.t. (t_x, t_y, r_x, r_y)."""
    _, jac = _residuals_and_jacobian(params.as_array(), np.array([astuple(coef)]), np.ones(1))
    return jac[0]


def _coefficient_matrix(constraints: list[DistanceConstraint]) -> tuple[np.ndarray, np.ndarray]:
    """Stack coefficients into an (N, 5) matrix plus per-row weights 1/L^2."""
    fields = [(c.u1, c.v1, c.u2, c.v2, c.d1, c.d2, c.distance) for c in constraints]
    u1, v1, u2, v2, d1, d2, dist = np.array(fields, dtype=np.float64).reshape(-1, 7).T
    a1, a2, a3, a5 = _pair_coefficients(u1, v1, u2, v2, d1, d2, dist)
    return np.stack([a1, a2, a3, a2, a5], 1), 1.0 / (dist * dist)


def _residuals_and_jacobian(
    theta: np.ndarray, rows: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted constraint values f (N,) and their Jacobian (N, 4).

    ``theta`` is (t_x, t_y, r_x, r_y) and ``rows`` holds a1..a5 per pair;
    the Jacobian columns follow theta's order.
    """
    t_x, t_y, r_x, r_y = theta
    sx = rows[:, 0] * r_x + rows[:, 1] * t_x
    sy = rows[:, 2] * r_y + rows[:, 3] * t_y
    f = (sx * sx + sy * sy + rows[:, 4]) * weights
    jac = np.stack(
        [
            2.0 * sx * rows[:, 1],
            2.0 * sy * rows[:, 3],
            2.0 * sx * rows[:, 0],
            2.0 * sy * rows[:, 2],
        ],
        axis=1,
    ) * weights[:, None]
    return f, jac


def _huber_weights(f: np.ndarray) -> np.ndarray:
    """IRLS weights for the Huber loss, threshold from the median absolute residual."""
    absf = np.abs(f)
    delta = 1.345 * float(np.median(absf)) / 0.6745
    w = np.ones_like(f)
    big = absf > delta
    with np.errstate(divide="ignore", invalid="ignore"):
        w[big] = delta / absf[big]
    return w


def _rank_and_condition(jac: np.ndarray) -> tuple[int, bool]:
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[0] == 0.0:
        return 0, True
    tol = sv[0] * max(jac.shape) * np.finfo(np.float64).eps
    rank = int((sv > tol).sum())
    return rank, bool(sv[-1] < CONDITION_RATIO * sv[0])


def _solve_lm(
    constraints: list[DistanceConstraint],
    init: SolverParams,
    width: int,
    height: int,
    robust: bool,
) -> SolveReport:
    rows, weights = _coefficient_matrix(constraints)
    theta = init.as_array()
    mu = DAMPING_INIT
    iterations = 0
    stop_reason = "max_iter"

    f, jac = _residuals_and_jacobian(theta, rows, weights)
    for it in range(MAX_ITER):
        if robust:
            rw = _huber_weights(f)
            sqrt_w = np.sqrt(rw)
            fw, jw = f * sqrt_w, jac * sqrt_w[:, None]
        else:
            fw, jw = f, jac
        if float(np.linalg.norm(fw)) < TOL_ABS:
            stop_reason = "tol_abs"
            break
        grad = jw.T @ fw
        if np.all(
            np.abs(grad) <= TOL_GRAD * np.linalg.norm(jw, axis=0) * np.linalg.norm(fw)
        ):
            stop_reason = "tol_grad"
            break
        iterations = it + 1

        jtj = jw.T @ jw
        scale = np.diag(np.diag(jtj))
        try:
            step = np.linalg.solve(jtj + mu * scale, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jtj + mu * scale, -grad, rcond=None)[0]

        candidate = theta + step
        cost = float(fw @ fw)
        accepted = False
        if candidate[2] > 0.0 and candidate[3] > 0.0:
            f_new, jac_new = _residuals_and_jacobian(candidate, rows, weights)
            if robust:
                new_cost = float((f_new * rw) @ f_new)
            else:
                new_cost = float(f_new @ f_new)
            if math.isfinite(new_cost) and new_cost < cost:
                accepted = True
        if accepted:
            theta = candidate
            f, jac = f_new, jac_new
            mu /= DAMPING_FACTOR
            if float(np.linalg.norm(step)) < TOL_STEP:
                stop_reason = "tol_step"
                break
        else:
            mu *= DAMPING_FACTOR
            if mu > DAMPING_MAX:
                stop_reason = "damping_max"
                break

    rank, condition_warning = _rank_and_condition(jac)
    if rank < 4:
        raise DegenerateConstraintsError(
            "constraint set leaves some intrinsic parameters unobservable "
            f"(Jacobian rank {rank} < 4; e.g. all pairs share equal depths)"
        )
    params = SolverParams(*theta)
    return SolveReport(
        intrinsics=params.to_intrinsics(width, height),
        final_residual_norm=float(np.linalg.norm(f)),
        iterations=iterations,
        converged=stop_reason in ("tol_abs", "tol_step", "tol_grad"),
        condition_warning=condition_warning,
        stop_reason=stop_reason,
    )


def _minimal_roots(constraints: list[DistanceConstraint]) -> list[SolverParams]:
    """Every real solution of exactly four constraints, from the monomial cubic."""
    if len(constraints) != 4:
        raise InvalidSettingError(
            f"minimal solve needs exactly 4 constraints, got {len(constraints)}"
        )
    rows, weights = _coefficient_matrix(constraints)
    a1, a2, a3, _, a5 = rows.T
    mono = np.stack([a1 * a1, 2.0 * a1 * a2, a3 * a3, 2.0 * a3 * a2, a2 * a2], 1) * weights[:, None]
    scale = np.linalg.norm(mono, axis=0)
    scale[scale == 0.0] = 1.0
    mono /= scale
    rank, _ = _rank_and_condition(mono)
    if rank < 4:
        raise DegenerateConstraintsError(
            "constraint set leaves some intrinsic parameters unobservable (monomial "
            f"system rank {rank} < 4; e.g. coplanar points or all pairs at equal depths)"
        )
    m0 = np.linalg.lstsq(mono, -a5 * weights, rcond=None)[0] / scale
    n = np.linalg.svd(mono)[2][-1] / scale
    m1, m2, m3, m4, m5 = (np.array([nj, mj]) for nj, mj in zip(n, m0))
    mul = np.convolve
    cubic = mul(mul(m5, m1), m3) - (mul(mul(m2, m2), m3) + mul(mul(m4, m4), m1))
    roots = []
    for lam in np.roots(cubic):
        m = m0 + lam.real * n
        if lam.imag == 0.0 and m[0] > 0.0 and m[2] > 0.0:
            r_x, r_y = math.sqrt(m[0]), math.sqrt(m[2])
            roots.append(SolverParams(t_x=m[1] / r_x, t_y=m[3] / r_y, r_x=r_x, r_y=r_y))
    return roots


def solve_minimal(
    constraints: list[DistanceConstraint],
    width: int,
    height: int,
    init: SolverParams | None = None,
) -> SolveReport:
    """Solve intrinsics from exactly 4 distance constraints.

    Polishes the exact solution nearest ``init`` (the canonical prior by
    default; t compared absolutely, r relatively) with Levenberg-Marquardt,
    or starts from ``init`` when no camera satisfies all four exactly.
    """
    init = init if init is not None else canonical_params(width, height)
    theta0, unit = init.as_array(), np.array([1.0, 1.0, init.r_x, init.r_y])
    roots = _minimal_roots(constraints)
    start = min(roots, key=lambda p: np.linalg.norm((p.as_array() - theta0) / unit), default=init)
    return _solve_lm(list(constraints), start, width, height, robust=False)


def solve_overdetermined(
    constraints: list[DistanceConstraint],
    width: int,
    height: int,
    init: SolverParams | None = None,
    loss: str = "squared",
) -> SolveReport:
    """Solve intrinsics from N >= 4 constraints, optionally Huber-robustified.

    loss="huber" reweights residuals each iteration, with the threshold
    derived from the median absolute residual, so no noise scale is needed.
    """
    if len(constraints) < 4:
        raise InvalidSettingError(f"need at least 4 constraints, got {len(constraints)}")
    if loss not in ("squared", "huber"):
        raise InvalidSettingError(f"loss must be 'squared' or 'huber', got {loss!r}")
    return _solve_lm(
        list(constraints),
        init if init is not None else canonical_params(width, height),
        width,
        height,
        robust=(loss == "huber"),
    )


def enumerate_solutions(
    constraints: list[DistanceConstraint],
    width: int,
    height: int,
) -> list[SolveReport]:
    """Every exact solution of 4 constraints: the admissible real roots of one
    cubic whose scaled residual norm is below ``ROOT_RESIDUAL_TOL``.

    Callers should apply their own plausibility prior (FoV range, principal
    point near the image center) to the result; a constraint set is only
    trustworthy when exactly one solution survives.
    """
    rows, weights = _coefficient_matrix(constraints)
    found = []
    for root in _minimal_roots(constraints):
        f, jac = _residuals_and_jacobian(root.as_array(), rows, weights)
        norm = float(np.linalg.norm(f))
        if norm < ROOT_RESIDUAL_TOL:
            ill = _rank_and_condition(jac)[1]
            found.append(SolveReport(root.to_intrinsics(width, height), norm, 0, True, ill, "root"))
    return found
