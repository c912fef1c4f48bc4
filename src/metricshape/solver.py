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
m = (r_x^2, r_x*t_x, r_y^2, r_y*t_y, t_x^2 + t_y^2), and one SVD of that
linear system gives its rank, its least-squares m0 and its null direction n;
an m with m1, m3 > 0 is the camera (t_x, t_y, r_x, r_y) = (m2/sqrt(m1),
m4/sqrt(m3), sqrt(m1), sqrt(m3)). At rank 4 (four pairs, the minimal problem)
cameras lie on the line m0 + lambda*n and satisfy m5*m1*m3 = m2^2*m3 + m4^2*m1:
a cubic in lambda whose admissible real roots are every exact solution. More
pairs and a minimal root's polish minimize the sum of squared equation values
with Levenberg-Marquardt; a Huber solve goes on to minimize their Huber loss at
a threshold fixed from it. Without an ``init``, a rank-5 system starts LM from
m0's camera, which is the camera itself for exact pairs; the canonical prior is
the start at rank < 5, when m1 or m3 is not positive, or when the start leaves
float64.

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

import functools
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
        squared = self.distance * self.distance
        if not (squared > 0.0 and math.isfinite(1.0 / squared)):
            raise InfeasibleConstraintError(
                f"row weight 1/L^2 overflows float64: distance {self.distance} out of range"
            )
        weight = 1.0 / squared
        mono = _monomials(a1, a2, a3, weight)
        for name, fields, products in (
            ("a1", "u1, u2", mono[:2]),
            ("a3", "v1, v2", mono[2:4]),
            ("a5", "distance", (a5 * weight,)),
        ):
            if not all(map(math.isfinite, products)):
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
        for name in ("t_x", "t_y", "r_x", "r_y"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidIntrinsicsError(f"{name} must be finite, got {value}")
        for name in ("r_x", "r_y"):
            value = getattr(self, name)
            if not value > 0.0:
                raise InvalidIntrinsicsError(f"{name} must be positive, got {value}")

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


def _monomials(a1, a2, a3, weight):
    """Weighted coefficients of the monomials m in one pair's equation, or in arrays of pairs."""
    return (a1 * a1 * weight, 2.0 * a1 * a2 * weight, a3 * a3 * weight,
            2.0 * a3 * a2 * weight, a2 * a2 * weight)


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


def _residuals(
    theta: np.ndarray, rows: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted constraint values f (N,) and the per-pair sums sx, sy they square.

    ``theta`` is (t_x, t_y, r_x, r_y) and ``rows`` holds a1..a5 per pair.
    """
    t_x, t_y, r_x, r_y = theta
    sx = rows[:, 0] * r_x + rows[:, 1] * t_x
    sy = rows[:, 2] * r_y + rows[:, 3] * t_y
    return (sx * sx + sy * sy + rows[:, 4]) * weights, sx, sy


def _jacobian(rows: np.ndarray, weights: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Jacobian (N, 4) of ``_residuals``' f from its sx, sy; columns follow theta's order."""
    two_sx, two_sy = 2.0 * sx, 2.0 * sy
    jac = np.empty((len(rows), 4))
    jac[:, 0] = two_sx * rows[:, 1]
    jac[:, 1] = two_sy * rows[:, 3]
    jac[:, 2] = two_sx * rows[:, 0]
    jac[:, 3] = two_sy * rows[:, 2]
    jac *= weights[:, None]
    return jac


def _residuals_and_jacobian(
    theta: np.ndarray, rows: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted constraint values f (N,) and their Jacobian (N, 4)."""
    f, sx, sy = _residuals(theta, rows, weights)
    return f, _jacobian(rows, weights, sx, sy)


def _huber_weights(f: np.ndarray, delta: float) -> np.ndarray:
    """IRLS weights min(1, delta/|f|) of the Huber loss at a finite threshold ``delta``."""
    absf = np.abs(f)
    w = np.ones_like(f)
    big = absf > delta
    w[big] = delta / absf[big]
    return w


def _rank_and_condition(sv: np.ndarray, shape: tuple[int, int]) -> tuple[int, bool]:
    """Rank and ill-conditioning of a matrix of ``shape`` from its singular values ``sv``."""
    if sv[0] == 0.0:
        return 0, True
    tol = sv[0] * max(shape) * np.finfo(np.float64).eps
    rank = int((sv > tol).sum())
    return rank, bool(sv[-1] < CONDITION_RATIO * sv[0])


def _within_float64(solve):
    """``solve`` with numpy's floating-point events raised: a constraint system
    that leaves float64 is an InfeasibleConstraintError."""

    @functools.wraps(solve)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return solve(*args, **kwargs)
        except FloatingPointError as exc:
            raise InfeasibleConstraintError(f"the solve leaves float64's range ({exc})") from None

    return checked


def _solve_lm(rows: np.ndarray, weights: np.ndarray, theta: np.ndarray, f: np.ndarray,
              jac: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, str]:
    """Levenberg-Marquardt on the Huber loss at ``delta`` (least squares at inf) from ``theta``
    and its ``f``, ``jac``. An accepted step lowers the cost weighted at its base point, which
    lies above the Huber loss plus a constant and touches it there, so it lowers that loss too."""
    mu = DAMPING_INIT
    iterations = 0
    stop_reason = "max_iter"
    robust = delta < math.inf
    for it in range(MAX_ITER):
        if robust:
            rw = _huber_weights(f, delta)
            sqrt_w = np.sqrt(rw)
            fw, jw = f * sqrt_w, jac * sqrt_w[:, None]
        else:
            fw, jw = f, jac  # unit weights: the products with 1.0 are exact
        cost = float(fw @ fw)
        norm = math.sqrt(cost)
        if norm < TOL_ABS:
            stop_reason = "tol_abs"
            break
        grad = jw.T @ fw
        if np.all(np.abs(grad) <= TOL_GRAD * np.linalg.norm(jw, axis=0) * norm):
            stop_reason = "tol_grad"
            break
        iterations = it + 1

        jtj = jw.T @ jw
        damped = jtj.copy()
        damped.flat[::5] += mu * jtj.flat[::5]  # Marquardt: mu times J^T J's own (4x4) diagonal
        try:
            step = np.linalg.solve(damped, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(damped, -grad, rcond=None)[0]

        # a trial forms residuals only; J is formed at accepted points
        candidate = theta + step
        accepted = False
        if candidate[2] > 0.0 and candidate[3] > 0.0:
            f_new, sx, sy = _residuals(candidate, rows, weights)
            new_cost = float((f_new * rw) @ f_new) if robust else float(f_new @ f_new)
            accepted = math.isfinite(new_cost) and new_cost < cost
        if accepted:
            theta, f = candidate, f_new
            jac = _jacobian(rows, weights, sx, sy)
            mu /= DAMPING_FACTOR
            if math.sqrt(step @ step) < TOL_STEP:
                stop_reason = "tol_step"
                break
        else:
            mu *= DAMPING_FACTOR
            if mu > DAMPING_MAX:
                stop_reason = "damping_max"
                break
    return theta, f, jac, iterations, stop_reason


def _fit(rows: np.ndarray, weights: np.ndarray, theta: np.ndarray, loss: str):
    """Least-squares LM from ``theta``, then for loss="huber" the Huber LM at a delta
    fixed from that fit; ``_solve_lm``'s tuple, with the iterations of both stages."""
    f, jac = _residuals_and_jacobian(theta, rows, weights)
    theta, f, jac, iterations, stop_reason = _solve_lm(rows, weights, theta, f, jac, math.inf)
    delta = 1.345 * float(np.median(np.abs(f))) / 0.6745 if loss == "huber" else 0.0
    if delta > 0.0:
        theta, f, jac, more, stop_reason = _solve_lm(rows, weights, theta, f, jac, delta)
        iterations += more
    return theta, f, jac, iterations, stop_reason


def _report(theta, f, jac, iterations, stop_reason, width, height) -> SolveReport:
    """The report of an LM solve that ended at ``theta``; rank loss of ``jac`` is degenerate."""
    rank, condition_warning = _rank_and_condition(np.linalg.svd(jac, compute_uv=False), jac.shape)
    if rank < 4:
        raise DegenerateConstraintsError(
            "constraint set leaves some intrinsic parameters unobservable "
            f"(Jacobian rank {rank} < 4; e.g. all pairs share equal depths)"
        )
    return SolveReport(
        intrinsics=SolverParams(*theta).to_intrinsics(width, height),
        final_residual_norm=float(np.linalg.norm(f)),
        iterations=iterations,
        converged=stop_reason in ("tol_abs", "tol_step", "tol_grad"),
        condition_warning=condition_warning,
        stop_reason=stop_reason,
    )


def _monomial_cameras(rows: np.ndarray, weights: np.ndarray) -> tuple[int, np.ndarray]:
    """The rank of the weighted rows' system in m and its cameras, one theta per row. One
    SVD of the equilibrated system gives the rank and the minimum-norm least-squares m0 at
    the rank's cut-off; the cameras are m0's at rank 5, those on m0 + lambda*n at the
    cubic's real roots at rank 4, and none below. Only an m with m1, m3 > 0 is a camera."""
    a1, a2, a3, _, a5 = rows.T
    mono = np.stack(_monomials(a1, a2, a3, weights), 1)
    scale = np.linalg.norm(mono, axis=0)
    scale[scale == 0.0] = 1.0
    mono /= scale
    # full_matrices for four rows only: vt is then 5x5 either way, without an (N, N) u
    u, sv, vt = np.linalg.svd(mono, full_matrices=len(mono) < 5)
    rank, _ = _rank_and_condition(sv, mono.shape)
    if rank < 4:
        return rank, np.empty((0, 4))
    m0 = vt[:rank].T @ ((u[:, :rank].T @ (-a5 * weights)) / sv[:rank]) / scale
    m = m0[None]
    if rank == 4:
        n = vt[-1] / scale
        m1, m2, m3, m4, m5 = (np.array([nj, mj]) for nj, mj in zip(n, m0))
        mul = np.convolve
        cubic = mul(mul(m5, m1), m3) - (mul(mul(m2, m2), m3) + mul(mul(m4, m4), m1))
        if not np.isfinite(cubic).all():  # np.convolve overflows without a floating-point error
            raise FloatingPointError("overflow in the cubic's coefficients")
        lam = np.roots(cubic)
        m = m0 + lam.real[lam.imag == 0.0, None] * n
    m = m[(m[:, 0] > 0.0) & (m[:, 2] > 0.0)]
    r_x, r_y = np.sqrt(m[:, 0]), np.sqrt(m[:, 2])
    return rank, np.stack([m[:, 1] / r_x, m[:, 3] / r_y, r_x, r_y], 1)


def _minimal_roots(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Every real solution (t_x, t_y, r_x, r_y) of exactly four weighted rows,
    one per row of the result, from the monomial cubic."""
    if len(rows) != 4:
        raise InvalidSettingError(f"minimal solve needs exactly 4 constraints, got {len(rows)}")
    rank, roots = _monomial_cameras(rows, weights)
    if rank < 4:
        raise DegenerateConstraintsError(
            "constraint set leaves some intrinsic parameters unobservable (monomial "
            f"system rank {rank} < 4; e.g. coplanar points or all pairs at equal depths)"
        )
    return roots


@_within_float64
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
    rows, weights = _coefficient_matrix(constraints)
    roots = _minimal_roots(rows, weights)
    start = min(roots, key=lambda theta: np.linalg.norm((theta - theta0) / unit), default=theta0)
    return _report(*_fit(rows, weights, start, "squared"), width, height)


@_within_float64
def solve_overdetermined(
    constraints: list[DistanceConstraint],
    width: int,
    height: int,
    init: SolverParams | None = None,
    loss: str = "squared",
) -> SolveReport:
    """Solve intrinsics from N >= 4 constraints, optionally Huber-robustified.

    LM starts from ``init`` when given. Otherwise it starts from the camera of the
    least-squares m of the column-equilibrated monomial system, and from the canonical
    prior when that system has rank < 5 (four pairs, coplanar points, two exact
    cameras), m1 or m3 is not positive, or the start or a solve from it leaves float64.

    loss="huber" fixes delta = 1.345 * median|f| / 0.6745 once from the squared
    fit's equation values f, so no noise scale is needed, and goes on to minimize
    the Huber loss of f at delta; an exact fit (delta = 0) is returned as it is.
    """
    if len(constraints) < 4:
        raise InvalidSettingError(f"need at least 4 constraints, got {len(constraints)}")
    if loss not in ("squared", "huber"):
        raise InvalidSettingError(f"loss must be 'squared' or 'huber', got {loss!r}")
    rows, weights = _coefficient_matrix(constraints)
    fit = None
    if init is None:
        try:
            rank, cameras = _monomial_cameras(rows, weights)
        except (FloatingPointError, np.linalg.LinAlgError):
            rank = 0  # forming the system left float64: no start
        if rank == 5 and len(cameras) and np.isfinite(cameras[0]).all():
            try:
                fit = _fit(rows, weights, cameras[0], loss)
            except FloatingPointError:
                pass  # a solve from this start leaves float64; the prior's decides
    if fit is None:
        init = init if init is not None else canonical_params(width, height)
        fit = _fit(rows, weights, init.as_array(), loss)
    return _report(*fit, width, height)


@_within_float64
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
    for theta in _minimal_roots(rows, weights):
        f, jac = _residuals_and_jacobian(theta, rows, weights)
        norm = float(np.linalg.norm(f))
        if norm < ROOT_RESIDUAL_TOL:
            k = SolverParams(*theta).to_intrinsics(width, height)
            ill = _rank_and_condition(np.linalg.svd(jac, compute_uv=False), jac.shape)[1]
            found.append(SolveReport(k, norm, 0, True, ill, "root"))
    return found
