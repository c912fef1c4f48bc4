"""Distance-constraint solver: coefficients, residuals, recovery, degeneracy.

Exact constraint sets are built by forward-projecting known 3D point pairs
through a ground-truth camera (the oracle), so recovery can be asserted at
tight tolerances.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import RICH_SCENE
from metricshape.camera import Intrinsics, project_point, unproject_pixel
from metricshape import solver
from metricshape.errors import (
    DegenerateConstraintsError,
    InfeasibleConstraintError,
    InvalidIntrinsicsError,
)
from metricshape.solver import (
    DistanceConstraint,
    SolverParams,
    canonical_params,
    coefficients_from_constraint,
    constraint_gradient,
    constraint_residual,
    _coefficient_matrix,
    _huber_weights,
    _jacobian,
    _residuals,
    enumerate_solutions,
    solve_minimal,
    solve_overdetermined,
)
from metricshape.synthetic import (
    NoiseSpec, Plane, SceneSpec, make_camera, perturb, render_depth, sample_constraints,
)

GT = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def constraint_from_points(k, p1, p2):
    """Forward-model oracle: project two 3D points, keep their true separation."""
    u1, v1 = project_point(k, *p1)
    u2, v2 = project_point(k, *p2)
    return DistanceConstraint(
        u1=u1, v1=v1, u2=u2, v2=v2, d1=p1[2], d2=p2[2],
        distance=math.dist(p1, p2),
    )


def scene_pairs(camera_seed, n, rng_seed, center_jitter=0.0):
    """n pairs sampled from the multi-primitive scene at 640x480."""
    k = make_camera(camera_seed, 640, 480, center_jitter=center_jitter)
    return k, sample_constraints(render_depth(RICH_SCENE, k), k, n, rng_seed=rng_seed)


def same_camera(a, b, rel):
    return all(
        getattr(a, name) == pytest.approx(getattr(b, name), rel=rel)
        for name in ("fx", "fy", "cx", "cy")
    )


def random_exact_constraints(k, n, seed, min_ratio=1.2):
    """n constraints from random 3D point pairs with depth ratio >= min_ratio."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        z1 = rng.uniform(1.0, 4.0)
        z2 = rng.uniform(1.0, 4.0)
        if max(z1, z2) / min(z1, z2) < min_ratio:
            continue
        p1 = (rng.uniform(-1.5, 1.5), rng.uniform(-1.2, 1.2), z1)
        p2 = (rng.uniform(-1.5, 1.5), rng.uniform(-1.2, 1.2), z2)
        out.append(constraint_from_points(k, p1, p2))
    return out


def noisy_huber_sets():
    """Camera 9's four pairs at 160x120 with 1 % distance noise, as `synth --camera 9
    --constraints 4 --noise 0.01` writes them; then 100 pairs with 1 % noise and 10
    outliers (x1.5-3), and their first 12."""
    k = make_camera(9, 160, 120)
    depth = render_depth(RICH_SCENE, k)
    four = perturb(sample_constraints(depth, k, 4, rng_seed=0), depth,
                   NoiseSpec(distance_sigma_rel=0.01, seed=0))[0]
    rng = np.random.default_rng(5)
    many = [
        dataclasses.replace(c, distance=c.distance * (1.0 + 0.01 * rng.standard_normal()))
        for c in random_exact_constraints(GT, 100, seed=5)
    ]
    for i in rng.choice(100, 10, replace=False):
        many[i] = dataclasses.replace(many[i], distance=many[i].distance * rng.uniform(1.5, 3.0))
    return [(four, 160, 120), (many[:12], 640, 480), (many, 640, 480)]


class TestCoefficients:
    def test_equal_depth_pair(self):
        """a1 = 2*320 - 2*420 = -200; a2 = a4 = 0; a5 = 0 - 0.4^2."""
        c = DistanceConstraint(u1=320, v1=240, u2=420, v2=240, d1=2.0, d2=2.0, distance=0.4)
        coef = coefficients_from_constraint(c)
        assert coef.a1 == -200.0
        assert coef.a2 == 0.0
        assert coef.a3 == 0.0
        assert coef.a4 == 0.0
        assert coef.a5 == pytest.approx(-0.16, abs=1e-15)

    def test_a2_equals_a4(self):
        c = DistanceConstraint(u1=10, v1=20, u2=30, v2=40, d1=1.5, d2=2.5, distance=3.0)
        coef = coefficients_from_constraint(c)
        assert coef.a2 == coef.a4 == 1.0

    def test_axial_pair_zero_residual_with_zero_a1_a3(self):
        """u1*d1 == u2*d2 and v1*d1 == v2*d2 with L = |d1-d2| is the
        purely-axial limit: a1 = a3 = 0, a5 = 0, and the residual vanishes
        at the consistent camera (principal point at the pixel origin)."""
        c = DistanceConstraint(u1=20.0, v1=10.0, u2=10.0, v2=5.0, d1=1.0, d2=2.0, distance=1.0)
        coef = coefficients_from_constraint(c)
        assert coef.a1 == 0.0 and coef.a3 == 0.0 and coef.a5 == 0.0
        origin_pp = SolverParams(t_x=0.0, t_y=0.0, r_x=1e-3, r_y=1e-3)
        assert constraint_residual(coef, origin_pp) == 0.0

    @pytest.mark.parametrize("n", [1, 4, 100])
    def test_matrix_rows_equal_per_pair_coefficients_bit_for_bit(self, n):
        cons = random_exact_constraints(GT, n, seed=n)
        rows, weights = _coefficient_matrix(cons)
        expected = np.array([dataclasses.astuple(coefficients_from_constraint(c)) for c in cons])
        assert rows.shape == (n, 5)
        assert np.array_equal(rows, expected)
        assert np.array_equal(weights, [1.0 / (c.distance * c.distance) for c in cons])


class TestResidual:
    def test_zero_at_ground_truth(self):
        """Projected pair (0,0,2)-(0.4,0,2.5): pixels (320,240) and (400,240),
        separation sqrt(0.41)."""
        c = constraint_from_points(GT, (0.0, 0.0, 2.0), (0.4, 0.0, 2.5))
        assert c.u2 == pytest.approx(400.0, abs=1e-12)
        assert c.distance == pytest.approx(math.sqrt(0.41), abs=1e-15)
        res = constraint_residual(coefficients_from_constraint(c), SolverParams.from_intrinsics(GT))
        assert abs(res) < 1e-12

    def test_constant_term_only(self):
        from metricshape.solver import ConstraintCoefficients

        coef = ConstraintCoefficients(a1=0.0, a2=0.0, a3=0.0, a4=0.0, a5=-0.16)
        params = SolverParams(t_x=1.0, t_y=2.0, r_x=0.5, r_y=0.25)
        assert constraint_residual(coef, params) == -0.16

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = random_exact_constraints(GT, 1, rng.integers(1 << 30))[0]
            coef = coefficients_from_constraint(c)
            theta = np.array([rng.uniform(0.3, 1.0), rng.uniform(0.2, 0.8),
                              rng.uniform(5e-4, 5e-3), rng.uniform(5e-4, 5e-3)])
            params = SolverParams(*theta)
            grad = constraint_gradient(coef, params)
            for j in range(4):
                h = 1e-6 * max(abs(theta[j]), 1e-3)
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fd = (constraint_residual(coef, SolverParams(*tp))
                      - constraint_residual(coef, SolverParams(*tm))) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestParams:
    def test_back_map_round_trip(self):
        params = SolverParams.from_intrinsics(GT)
        assert params.t_x == pytest.approx(0.64)
        assert params.r_x == pytest.approx(0.002)
        k = params.to_intrinsics(640, 480)
        assert (k.fx, k.fy, k.cx, k.cy) == pytest.approx((500.0, 500.0, 320.0, 240.0))

    def test_positive_r_required(self):
        with pytest.raises(ValueError):
            SolverParams(t_x=0.0, t_y=0.0, r_x=-1e-3, r_y=1e-3)

    @pytest.mark.parametrize("fields, name", [
        ((math.nan, 0.0, 0.01, 0.01), "t_x"),
        ((math.inf, 0.0, 0.01, 0.01), "t_x"),
        ((0.0, 0.0, math.inf, 0.01), "r_x"),
    ])
    def test_non_finite_params_rejected(self, fields, name):
        """A NaN or infinite start is the caller's error: not numpy's
        LinAlgError, nor an InfeasibleConstraintError blaming the constraints."""
        with pytest.raises(InvalidIntrinsicsError, match=f"{name} must be finite"):
            SolverParams(*fields)

    def test_canonical_init_is_60_deg(self):
        params = canonical_params(640, 480)
        assert 1.0 / params.r_x == pytest.approx(554.2562584220407, rel=1e-12)
        assert params.t_x / params.r_x == pytest.approx(320.0, rel=1e-12)


class TestConstraintValidation:
    def test_identical_pixels_rejected(self):
        with pytest.raises(ValueError):
            DistanceConstraint(u1=5, v1=5, u2=5, v2=5, d1=1.0, d2=2.0, distance=1.5)

    def test_infeasible_distance_rejected(self):
        """The z-gap alone is |d1-d2| = 1, so L = 0.5 is impossible."""
        with pytest.raises(InfeasibleConstraintError):
            DistanceConstraint(u1=0, v1=0, u2=9, v2=9, d1=1.0, d2=2.0, distance=0.5)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError):
            DistanceConstraint(u1=0, v1=0, u2=1, v2=1, d1=0.0, d2=2.0, distance=2.5)
        with pytest.raises(ValueError):
            DistanceConstraint(u1=0, v1=0, u2=1, v2=1, d1=1.0, d2=2.0, distance=-1.0)

    @pytest.mark.parametrize("name", ["u1", "v1", "u2", "v2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_pixel_rejected(self, name, value):
        fields = dict(u1=0.0, v1=0.0, u2=9.0, v2=9.0, d1=1.0, d2=2.0, distance=1.5)
        fields[name] = value
        with pytest.raises(ValueError, match=name):
            DistanceConstraint(**fields)

    @pytest.mark.parametrize(
        "fields, name",
        [
            (dict(u1=1e308, u2=-1e308, v1=0.0, v2=0.0, distance=1.5), "a1"),
            (dict(u1=0.0, u2=0.0, v1=-1e308, v2=1e308, distance=1.5), "a3"),
            (dict(u1=0.0, u2=9.0, v1=0.0, v2=9.0, distance=1e200), "a5"),
            # a1 (a3) is finite, but a1*a1 (a3*a3), which the closed-form
            # solver forms, overflows
            (dict(u1=1e200, u2=0.0, v1=0.0, v2=0.0, distance=1.5), "a1"),
            (dict(u1=0.0, u2=0.0, v1=1e300, v2=0.0, distance=1.5), "a3"),
        ],
    )
    def test_overflowing_coefficient_rejected(self, fields, name):
        with pytest.raises(ValueError, match=name):
            DistanceConstraint(d1=2.0, d2=3.0, **fields)

    @pytest.mark.parametrize(
        "distance, match",
        [
            (1e-300, "row weight"),  # L*L underflows to 0
            (1e-160, "row weight"),  # 1/(L*L) overflows
            (1e-154, "a1"),  # the weight is finite, a1*a1/L^2 is not
        ],
    )
    def test_overflowing_row_weight_rejected(self, distance, match):
        """Rows are scaled by 1/L^2; equal depths admit any L, so a tiny L
        reached the solver and ended in numpy's "SVD did not converge"."""
        with pytest.raises(InfeasibleConstraintError, match=match):
            DistanceConstraint(u1=0.0, v1=0.0, u2=5.0, v2=0.0, d1=2.0, d2=2.0, distance=distance)


class TestSolveMinimal:
    def test_recovers_ground_truth_from_exact_pairs(self):
        cons = random_exact_constraints(GT, 4, seed=7)
        report = solve_minimal(cons, 640, 480)
        assert report.converged
        k = report.intrinsics
        assert k.fx == pytest.approx(GT.fx, rel=1e-6)
        assert k.fy == pytest.approx(GT.fy, rel=1e-6)
        assert k.cx == pytest.approx(GT.cx, rel=1e-6)
        assert k.cy == pytest.approx(GT.cy, rel=1e-6)

    def test_zero_residual_at_init_converges_immediately(self):
        cons = random_exact_constraints(GT, 4, seed=11)
        init = SolverParams.from_intrinsics(GT)
        report = solve_minimal(cons, 640, 480, init=init)
        assert report.converged
        assert report.iterations <= 1
        assert report.intrinsics.fx == pytest.approx(GT.fx, rel=1e-12)

    def test_requires_exactly_four(self):
        cons = random_exact_constraints(GT, 5, seed=1)
        with pytest.raises(ValueError):
            solve_minimal(cons, 640, 480)

    def test_equal_depth_pairs_are_degenerate(self):
        """d1 == d2 zeroes a2 and a4, so the principal point never enters
        the residual and the Jacobian loses rank."""
        rng = np.random.default_rng(5)
        cons = []
        for _ in range(4):
            u1, v1, u2, v2 = rng.uniform(10, 600, 4)
            p1 = unproject_pixel(GT, u1, v1, 2.0)
            p2 = unproject_pixel(GT, u2, v2, 2.0)
            cons.append(DistanceConstraint(u1=u1, v1=v1, u2=u2, v2=v2,
                                           d1=2.0, d2=2.0, distance=math.dist(p1, p2)))
        with pytest.raises(DegenerateConstraintsError):
            solve_minimal(cons, 640, 480)

    def test_each_root_is_kept_from_a_start_at_it(self):
        """The polish runs from the exact root nearest the start, so starting
        on either of two roots returns that root."""
        _, cons = scene_pairs(117, 4, rng_seed=117)
        roots = enumerate_solutions(cons, 640, 480)
        assert len(roots) == 2
        assert not same_camera(roots[0].intrinsics, roots[1].intrinsics, rel=1e-3)
        for root in roots:
            init = SolverParams.from_intrinsics(root.intrinsics)
            report = solve_minimal(cons, 640, 480, init=init)
            assert report.converged
            assert same_camera(report.intrinsics, root.intrinsics, rel=1e-9)

    def test_reprojection_closure(self):
        """Unprojecting the constraint pixels with the recovered intrinsics
        reproduces each stated separation."""
        cons = random_exact_constraints(GT, 4, seed=23)
        k = solve_minimal(cons, 640, 480).intrinsics
        for c in cons:
            p1 = unproject_pixel(k, c.u1, c.v1, c.d1)
            p2 = unproject_pixel(k, c.u2, c.v2, c.d2)
            assert math.dist(p1, p2) == pytest.approx(c.distance, rel=1e-6)


class TestSolveOverdetermined:
    def test_many_exact_constraints(self):
        cons = random_exact_constraints(GT, 100, seed=2)
        report = solve_overdetermined(cons, 640, 480)
        assert report.converged
        assert report.intrinsics.fx == pytest.approx(GT.fx, rel=1e-6)
        assert report.intrinsics.cy == pytest.approx(GT.cy, rel=1e-6)

    def test_requires_at_least_four(self):
        cons = random_exact_constraints(GT, 3, seed=2)
        with pytest.raises(ValueError):
            solve_overdetermined(cons, 640, 480)

    @pytest.mark.montecarlo
    def test_huber_beats_squared_on_gross_outlier(self):
        """One doubled separation among 100 exact pairs: the robust loss
        downweights it to irrelevance while plain least squares absorbs it."""
        wins = 0
        for seed in range(10):
            cons = random_exact_constraints(GT, 100, seed=100 + seed)
            cons[0] = dataclasses.replace(cons[0], distance=2.0 * cons[0].distance)
            ks = solve_overdetermined(cons, 640, 480, loss="squared").intrinsics
            kh = solve_overdetermined(cons, 640, 480, loss="huber").intrinsics
            err_s = abs(ks.fx - GT.fx) / GT.fx + abs(ks.fy - GT.fy) / GT.fy
            err_h = abs(kh.fx - GT.fx) / GT.fx + abs(kh.fy - GT.fy) / GT.fy
            wins += err_h < err_s
        assert wins == 10

    def test_scale_invariance(self):
        """Scaling every depth and separation by s leaves the recovered
        intrinsics unchanged (the scaled residual is invariant)."""
        cons = random_exact_constraints(GT, 12, seed=9)
        base = solve_overdetermined(cons, 640, 480).intrinsics
        for s in (0.37, 4.2):
            scaled = [
                dataclasses.replace(c, d1=s * c.d1, d2=s * c.d2, distance=s * c.distance)
                for c in cons
            ]
            k = solve_overdetermined(scaled, 640, 480).intrinsics
            assert k.fx == pytest.approx(base.fx, rel=1e-8)
            assert k.fy == pytest.approx(base.fy, rel=1e-8)
            assert k.cx == pytest.approx(base.cx, rel=1e-8)
            assert k.cy == pytest.approx(base.cy, rel=1e-8)

    def test_noisy_pairs_converge(self):
        """With 1 % distance noise the residual cannot vanish; LM stalls at
        a stationary point of the cost, which counts as converged."""
        rng = np.random.default_rng(1)
        cons = [
            dataclasses.replace(c, distance=c.distance * (1.0 + 0.01 * rng.standard_normal()))
            for c in random_exact_constraints(GT, 12, seed=1)
        ]
        report = solve_overdetermined(cons, 640, 480)
        assert report.final_residual_norm > 1e-6
        assert report.converged
        assert report.stop_reason == "tol_grad"

    def test_huber_stops_at_first_order_point(self):
        """100 pairs with 1 % distance noise and 10 outliers (x1.5-3): the
        Huber solve stops on the gradient test once stationary, instead of
        raising the damping through rejected steps until DAMPING_MAX."""
        rng = np.random.default_rng(5)
        cons = [
            dataclasses.replace(c, distance=c.distance * (1.0 + 0.01 * rng.standard_normal()))
            for c in random_exact_constraints(GT, 100, seed=5)
        ]
        for i in rng.choice(100, 10, replace=False):
            cons[i] = dataclasses.replace(cons[i], distance=cons[i].distance * rng.uniform(1.5, 3.0))
        report = solve_overdetermined(cons, 640, 480, loss="huber")
        assert report.stop_reason == "tol_grad" and report.converged
        assert report.iterations <= 20
        assert same_camera(report.intrinsics, GT, rel=0.05)

    def test_huber_on_four_noisy_pairs_stops_before_max_iter(self):
        """Camera 9's four pairs with 1 % distance noise have no admissible
        root. With the threshold re-derived from the median every iteration,
        the cost moved under LM and the solve cycled until MAX_ITER."""
        cons, width, height = noisy_huber_sets()[0]
        report = solve_overdetermined(cons, width, height, loss="huber")
        assert report.stop_reason != "max_iter"
        assert report.converged

    def test_unknown_loss_rejected(self):
        cons = random_exact_constraints(GT, 4, seed=2)
        with pytest.raises(ValueError):
            solve_overdetermined(cons, 640, 480, loss="cauchy")


class TestLinearStart:
    """Without an ``init``, five or more pairs start LM from the least-squares
    solution of the equilibrated monomial system; the canonical prior is the
    start only when that system has rank < 5 or gives no camera."""

    @staticmethod
    def jittered_pairs(camera, n, noise=None):
        k, cons = scene_pairs(camera, n, rng_seed=camera, center_jitter=20.0)
        if noise is not None:
            depth = render_depth(RICH_SCENE, k)
            cons = perturb(cons, depth, noise)[0]
        return k, cons

    @staticmethod
    def prior_fit(cons, loss="squared"):
        return solve_overdetermined(cons, 640, 480, init=canonical_params(640, 480), loss=loss)

    @pytest.mark.parametrize("n", [5, 6, 12])
    @pytest.mark.parametrize("camera", [2, 3, 5, 6])
    def test_exact_sets_start_at_the_truth(self, camera, n):
        k, cons = self.jittered_pairs(camera, n)
        for loss in ("squared", "huber"):
            report = solve_overdetermined(cons, 640, 480, loss=loss)
            assert (report.iterations, report.stop_reason) == (0, "tol_abs")
            assert same_camera(report.intrinsics, k, rel=1e-9)

    def test_many_exact_pairs_start_at_the_truth(self):
        report = solve_overdetermined(random_exact_constraints(GT, 100, seed=2), 640, 480)
        assert (report.iterations, report.stop_reason) == (0, "tol_abs")
        assert same_camera(report.intrinsics, GT, rel=1e-9)

    @pytest.mark.parametrize("camera, n", [(132, 12), (46, 6)])
    def test_exact_sets_the_prior_start_misses(self, camera, n):
        """From the 60-degree prior, LM stops at a stationary point of a wrong
        camera (camera 132: fx 524.2 against 664.8)."""
        k, cons = self.jittered_pairs(camera, n)
        assert not same_camera(self.prior_fit(cons).intrinsics, k, rel=1e-3)
        report = solve_overdetermined(cons, 640, 480)
        assert report.final_residual_norm < 1e-14
        assert same_camera(report.intrinsics, k, rel=1e-9)

    def test_noisy_camera_132_reaches_the_lower_minimum(self):
        """Twelve pairs with 1 % distance noise: the prior's solve ends at cost
        0.0183 with the FoV 40 degrees off; the linear start reaches 0.0036."""
        k, cons = self.jittered_pairs(132, 12, NoiseSpec(distance_sigma_rel=0.01, seed=132))
        prior = self.prior_fit(cons)
        assert prior.final_residual_norm ** 2 == pytest.approx(0.0183, abs=1e-4)
        report = solve_overdetermined(cons, 640, 480)
        assert report.converged
        assert report.final_residual_norm ** 2 == pytest.approx(0.00362, abs=1e-5)
        assert report.intrinsics.fx == pytest.approx(k.fx, rel=0.1)
        assert report.intrinsics.fy == pytest.approx(k.fy, rel=0.1)

    @pytest.mark.parametrize("loss", ["squared", "huber"])
    @pytest.mark.parametrize("camera", [55, 59])
    def test_rank_four_sets_start_from_the_prior(self, camera, loss):
        """All twelve pairs but one on one plane: the monomial system has rank 4
        and two exact cameras, the cubic's roots, so the solve is the prior's."""
        k, cons = self.jittered_pairs(camera, 12)
        rank, cameras = solver._monomial_cameras(*_coefficient_matrix(cons))
        assert rank == 4 and len(cameras) == 2
        truth = SolverParams.from_intrinsics(k).as_array()
        assert any(np.allclose(theta, truth, rtol=1e-9, atol=0.0) for theta in cameras)
        assert solve_overdetermined(cons, 640, 480, loss=loss) == self.prior_fit(cons, loss)

    def test_coplanar_set_fails_as_the_prior_does(self):
        """Camera 15's twelve exact pairs lie on one plane: rank < 5, so the
        prior's solve runs and its Jacobian rank loss raises."""
        _, cons = self.jittered_pairs(15, 12)
        assert solver._monomial_cameras(*_coefficient_matrix(cons))[0] < 5
        with pytest.raises(DegenerateConstraintsError) as default:
            solve_overdetermined(cons, 640, 480)
        with pytest.raises(DegenerateConstraintsError) as prior:
            self.prior_fit(cons)
        assert str(default.value) == str(prior.value)

    def test_given_init_is_the_start(self, monkeypatch):
        """An explicit init never consults the linear system, and four pairs
        (rank 4 at most) always start from the prior."""
        _, cons = self.jittered_pairs(3, 12)
        _, four = self.jittered_pairs(3, 4)
        expected = [self.prior_fit(cons), self.prior_fit(cons, "huber"), self.prior_fit(four)]

        def no_system(rows, weights):
            raise AssertionError("the monomial system was formed")

        monkeypatch.setattr(solver, "_monomial_cameras", no_system)
        assert [self.prior_fit(cons), self.prior_fit(cons, "huber"), self.prior_fit(four)] == expected
        monkeypatch.undo()
        assert solve_overdetermined(four, 640, 480) == expected[2]

    def test_floating_point_event_in_the_start_means_no_start(self, monkeypatch):
        _, cons = self.jittered_pairs(3, 12)
        for error in (FloatingPointError("overflow"), np.linalg.LinAlgError("SVD did not converge")):

            def failing(rows, weights):
                raise error

            monkeypatch.setattr(solver, "_monomial_cameras", failing)
            assert solve_overdetermined(cons, 640, 480) == self.prior_fit(cons)

    @pytest.mark.parametrize("start", [[0.0, 0.0, math.inf, 1.0], [math.nan, 0.0, 1.0, 1.0]])
    def test_start_that_is_not_finite_falls_back_to_the_prior(self, monkeypatch, start):
        _, cons = self.jittered_pairs(3, 12)
        monkeypatch.setattr(solver, "_monomial_cameras", lambda rows, weights: (5, np.array([start])))
        assert solve_overdetermined(cons, 640, 480) == self.prior_fit(cons)

    def test_start_that_leaves_float64_falls_back_to_the_prior(self, monkeypatch):
        """A start whose residuals overflow is an InfeasibleConstraintError for an
        explicit init; without one, the prior's solve runs instead."""
        _, cons = self.jittered_pairs(3, 12)
        far = np.array([0.0, 0.0, 1e200, 1e200])
        with pytest.raises(InfeasibleConstraintError):
            solve_overdetermined(cons, 640, 480, init=SolverParams(*far))
        monkeypatch.setattr(solver, "_monomial_cameras", lambda rows, weights: (5, far[None]))
        for loss in ("squared", "huber"):
            assert solve_overdetermined(cons, 640, 480, loss=loss) == self.prior_fit(cons, loss)

    @staticmethod
    def lstsq_start(rows, weights):
        """The start as ``lstsq`` gives it: theta of the least-squares m of the
        column-equilibrated system."""
        a1, a2, a3, _, a5 = rows.T
        mono = np.stack([a1 * a1, 2.0 * a1 * a2, a3 * a3, 2.0 * a3 * a2, a2 * a2], 1) * weights[:, None]
        scale = np.linalg.norm(mono, axis=0)
        m = np.linalg.lstsq(mono / scale, -a5 * weights, rcond=None)[0] / scale
        r_x, r_y = math.sqrt(m[0]), math.sqrt(m[2])
        return np.array([m[1] / r_x, m[3] / r_y, r_x, r_y])

    @pytest.mark.parametrize("camera, n", [(c, n) for c in (2, 3, 5, 6) for n in (5, 6, 12)]
                             + [(132, 12), (46, 6), (None, 100)])
    def test_start_matches_lstsq(self, camera, n):
        """One SVD gives the least-squares start lstsq gave on the exact sets."""
        if camera is None:
            cons = random_exact_constraints(GT, n, seed=2)
        else:
            _, cons = self.jittered_pairs(camera, n)
        rows, weights = _coefficient_matrix(cons)
        rank, cameras = solver._monomial_cameras(rows, weights)
        assert rank == 5 and len(cameras) == 1
        np.testing.assert_allclose(cameras[0], self.lstsq_start(rows, weights), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", ["4-pairs", "12-pairs-rank-4", "100-pairs"])
    def test_one_svd_and_no_lstsq_per_solve(self, monkeypatch, case):
        """Each public solve factors the (N, 5) monomial system once, with one SVD
        that gives its rank, start and roots; lstsq never factors it again."""
        if case == "4-pairs":
            _, cons = self.jittered_pairs(3, 4)
            solves = [solve_minimal, enumerate_solutions, solve_overdetermined]
        elif case == "12-pairs-rank-4":
            _, cons = self.jittered_pairs(55, 12)
            solves = [solve_overdetermined]
        else:
            cons = random_exact_constraints(GT, 100, seed=2)
            solves = [solve_overdetermined]
        factored = []
        svd, lstsq = np.linalg.svd, np.linalg.lstsq

        def counted_svd(a, *args, **kwargs):
            factored.append(("svd", a.shape))
            return svd(a, *args, **kwargs)

        def counted_lstsq(a, *args, **kwargs):
            factored.append(("lstsq", a.shape))
            return lstsq(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        for solve in solves:
            factored.clear()
            solve(cons, 640, 480)
            assert [made for made in factored if made[1][1] == 5] == [("svd", (len(cons), 5))]


def huber_loss(f, delta):
    """Sum of the Huber loss rho_delta: f^2/2 up to delta, delta*|f| - delta^2/2 beyond."""
    absf = np.abs(f)
    return float(np.where(absf <= delta, 0.5 * f * f, delta * absf - 0.5 * delta * delta).sum())


class TestLevenbergMarquardtMechanism:
    @pytest.mark.parametrize("case", range(3), ids=["4-pairs", "12-pairs", "100-pairs"])
    def test_accepted_huber_steps_lower_the_huber_loss(self, monkeypatch, case):
        """The least-squares fit runs at delta = inf. Its values fix delta
        once, and each point the Huber fit moves to lowers sum rho_delta(f)."""
        cons, width, height = noisy_huber_sets()[case]
        bases, ends, report = [], [], solver._report

        def recorded_weights(f, delta):
            bases.append((f, delta))
            return _huber_weights(f, delta)

        def recorded_report(theta, f, *rest):
            ends.append(f)
            return report(theta, f, *rest)

        monkeypatch.setattr(solver, "_huber_weights", recorded_weights)
        monkeypatch.setattr(solver, "_report", recorded_report)
        solve_overdetermined(cons, width, height, loss="huber")

        huber = [f for f, delta in bases if delta < math.inf]
        assert [delta for _, delta in bases] == [math.inf] * (len(bases) - len(huber)) + [
            1.345 * float(np.median(np.abs(huber[0]))) / 0.6745] * len(huber)
        delta = bases[-1][1]
        seen = huber + ends
        points = [f for i, f in enumerate(seen) if i == 0 or f is not seen[i - 1]]
        assert len(points) > 1
        losses = [huber_loss(f, delta) for f in points]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_jacobian_is_formed_at_accepted_points_only(self, monkeypatch):
        """Each trial step forms residuals only. The Jacobian is formed at the
        start and once per accepted step, from that trial's sx, sy, in both
        fits of a Huber solve; the Huber fit starts from the squared fit's end.
        It starts from the prior, whose least-squares fit rejects a trial (the
        default linear start leaves none to reject)."""
        _, cons = scene_pairs(1, 12, rng_seed=1)
        cons[0] = dataclasses.replace(cons[0], distance=cons[0].distance * 2.5)
        calls = []

        def counted_residuals(theta, rows, weights):
            out = _residuals(theta, rows, weights)
            calls.append(("f", out))
            return out

        def counted_jacobian(rows, weights, sx, sy):
            calls.append(("J", (sx, sy)))
            return _jacobian(rows, weights, sx, sy)

        def counted_weights(f, delta):
            calls.append(("w", delta))
            return _huber_weights(f, delta)

        monkeypatch.setattr(solver, "_residuals", counted_residuals)
        monkeypatch.setattr(solver, "_jacobian", counted_jacobian)
        monkeypatch.setattr(solver, "_huber_weights", counted_weights)
        report = solve_overdetermined(cons, 640, 480, init=canonical_params(640, 480), loss="huber")

        # each trial is made at the threshold of the weights formed before it;
        # the least-squares fit forms none, its unit weights are left implicit
        assert all(out < math.inf for kind, out in calls if kind == "w")
        trials, delta = [], math.inf
        for kind, out in calls[1:]:
            if kind == "w":
                delta = out
            elif kind == "f":
                trials.append((out[0], delta))
        assert len(trials) == report.iterations
        assert trials[0][1] == math.inf and 0.0 < trials[-1][1] < math.inf
        # a trial is accepted when it lowers the cost weighted at its base
        base, expected = calls[0][1][0], ["f", "J"]
        for f, delta in trials:
            w = _huber_weights(base, delta)
            accepted = (f * w) @ f < (base * w) @ base
            expected += ["f", "J"] if accepted else ["f"]
            base = f if accepted else base
        made = [(kind, out) for kind, out in calls if kind != "w"]
        assert [kind for kind, _ in made] == expected
        assert expected.count("J") < expected.count("f")
        for (_, made_out), (kind, used) in zip(made, made[1:]):
            if kind == "J":
                assert used[0] is made_out[1] and used[1] is made_out[2]


class TestLevenbergMarquardtPaths:
    """The LM branches that sound constraint sets never reach."""

    @staticmethod
    def equal_depth_pairs(n):
        """n pairs on the plane z = 2, so every pair has d1 == d2."""
        k = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
        depth = render_depth(SceneSpec((Plane(point=(0, 0, 2.0), normal=(0, 0, -1.0)),)), k)
        return sample_constraints(depth, k, n, rng_seed=0, min_depth_ratio=1.0)

    @pytest.mark.parametrize("loss", ["squared", "huber"])
    @pytest.mark.parametrize("n", [5, 6, 12])
    def test_equal_depths_fall_back_to_lstsq_then_are_degenerate(self, monkeypatch, n, loss):
        """The damped normal matrix is singular in the principal-point
        columns, so each step comes from lstsq; the final Jacobian has rank 2."""
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        with pytest.raises(DegenerateConstraintsError, match="Jacobian rank 2 < 4"):
            solve_overdetermined(self.equal_depth_pairs(n), 64, 48, loss=loss)
        assert calls

    @pytest.mark.parametrize("loss", ["squared", "huber"])
    def test_gives_up_at_damping_max(self, loss):
        """Four pairs whose separations are all 1e150 m fit no camera near
        the start: every step is rejected until the damping passes DAMPING_MAX."""
        cons = [dataclasses.replace(c, distance=1e150) for c in random_exact_constraints(GT, 4, 7)]
        report = solve_overdetermined(cons, 640, 480, loss=loss)
        assert report.stop_reason == "damping_max"
        assert not report.converged
        assert report.intrinsics == canonical_params(640, 480).to_intrinsics(640, 480)


class TestFloat64Range:
    """A solve whose system leaves float64 raises InfeasibleConstraintError;
    numpy warned and then raised LinAlgError, or filed it as degenerate."""

    def test_huge_distances_in_the_minimal_solve(self):
        """Every L at 1e150: the cubic's coefficients overflow."""
        cons = [dataclasses.replace(c, distance=1e150) for c in random_exact_constraints(GT, 4, 7)]
        for solve in (enumerate_solutions, solve_minimal):
            with pytest.raises(InfeasibleConstraintError, match="float64"):
                solve(cons, 640, 480)

    def test_cubic_that_overflows_without_a_floating_point_error(self):
        """Separations near 1e81: np.convolve overflows the cubic's coefficients
        but raises no floating-point error, and np.roots raised LinAlgError."""
        pairs = [((0, 0, 1, 0), 3.0, 1.0, 7.280109889280518e81),
                 ((0, 1, 0, 0), 3.0, 1.0, 6.5e81),
                 ((1, 0, 0, 0), 1.0, 2.0, 4.12310562561766e81),
                 ((0, 1, 0, 0), 2.0, 1.0, 3.3166247903553997e81)]
        cons = [DistanceConstraint(*uv, d1, d2, distance) for uv, d1, d2, distance in pairs]
        for solve in (enumerate_solutions, solve_minimal):
            with pytest.raises(InfeasibleConstraintError, match="cubic"):
                solve(cons, 4, 6)

    @pytest.mark.parametrize("loss", ["squared", "huber"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_one_equal_depth_pair_at_a_tiny_distance(self, n, loss):
        """Its weight 1/L^2 = 1e200 is finite, but the Jacobian products
        overflow; the Jacobian rank then read 1, as if every pair were equal-depth."""
        cons = random_exact_constraints(GT, n, 7)
        cons[0] = dataclasses.replace(cons[0], d2=cons[0].d1, distance=1e-100)
        solves = [lambda: solve_overdetermined(cons, 640, 480, loss=loss)]
        if n == 4:
            solves += [lambda: solve_minimal(cons, 640, 480),
                       lambda: enumerate_solutions(cons, 640, 480)]
        for solve in solves:
            with pytest.raises(InfeasibleConstraintError, match="float64"):
                solve()


class TestEnumerateSolutions:
    def test_contains_ground_truth_root(self):
        cons = random_exact_constraints(GT, 4, seed=31)
        sols = enumerate_solutions(cons, 640, 480)
        assert len(sols) >= 1
        hit = any(
            s.intrinsics.fx == pytest.approx(GT.fx, rel=1e-6)
            and s.intrinsics.cy == pytest.approx(GT.cy, rel=1e-6)
            for s in sols
        )
        assert hit
        for s in sols:
            assert s.final_residual_norm < 1e-10

    def test_contains_ground_truth_on_camera_117(self):
        """A non-coplanar scene set on which starting LM from a ladder of
        per-axis FoVs finds no root; the cubic finds both."""
        k, cons = scene_pairs(117, 4, rng_seed=117)
        sols = enumerate_solutions(cons, 640, 480)
        assert any(same_camera(s.intrinsics, k, rel=1e-6) for s in sols)

    def test_coplanar_points_are_degenerate(self):
        _, cons = scene_pairs(1, 4, rng_seed=1, center_jitter=20.0)
        with pytest.raises(DegenerateConstraintsError):
            enumerate_solutions(cons, 640, 480)
        with pytest.raises(DegenerateConstraintsError):
            solve_minimal(cons, 640, 480)

    @pytest.mark.parametrize("n", [3, 5])
    def test_requires_exactly_four(self, n):
        cons = random_exact_constraints(GT, n, seed=1)
        with pytest.raises(ValueError):
            enumerate_solutions(cons, 640, 480)
