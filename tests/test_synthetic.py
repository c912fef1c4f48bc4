"""Analytic renderer, constraint sampling, noise injection, camera draws."""

import math

import numpy as np
import pytest

from metricshape.camera import Intrinsics, unproject_depth_map, unproject_pixel
from metricshape.errors import DegenerateSceneError, InvalidSettingError, SamplingFailureError
from metricshape.solver import SolverParams, coefficients_from_constraint, constraint_residual
from metricshape.synthetic import (
    Box,
    NoiseSpec,
    Plane,
    SceneSpec,
    Sphere,
    make_camera,
    perturb,
    render_depth,
    sample_constraints,
)

K = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)


class TestRenderDepth:
    def test_frontal_plane_constant_depth(self):
        scene = SceneSpec((Plane(point=(0, 0, 2.0), normal=(0, 0, -1.0)),))
        depth = render_depth(scene, K)
        assert depth.valid.all()
        np.testing.assert_array_equal(depth.values, 2.0)

    def test_sphere_on_axis(self):
        """Sphere center (0,0,5), radius 1: principal ray enters at z=4."""
        scene = SceneSpec((Sphere(center=(0, 0, 5.0), radius=1.0),))
        depth = render_depth(scene, K)
        assert depth.valid[24, 32]
        assert depth.values[24, 32] == pytest.approx(4.0, abs=1e-12)

    def test_rays_missing_sphere_are_invalid(self):
        scene = SceneSpec((Sphere(center=(0, 0, 5.0), radius=0.2),))
        depth = render_depth(scene, K)
        assert not depth.valid[0, 0]
        assert depth.valid[24, 32]

    def test_box_front_face(self):
        scene = SceneSpec((Box(min_corner=(-1, -1, 2.0), max_corner=(1, 1, 3.0)),))
        depth = render_depth(scene, K)
        assert depth.values[24, 32] == pytest.approx(2.0, abs=1e-12)

    def test_backfacing_plane_is_invisible(self):
        scene = SceneSpec((Plane(point=(0, 0, 2.0), normal=(0, 0, 1.0)),))
        depth = render_depth(scene, K)
        assert not depth.valid.any()

    def test_nearest_primitive_wins(self):
        scene = SceneSpec(
            (
                Plane(point=(0, 0, 5.0), normal=(0, 0, -1.0)),
                Sphere(center=(0, 0, 3.0), radius=0.5),
            )
        )
        depth = render_depth(scene, K)
        assert depth.values[24, 32] == pytest.approx(2.5, abs=1e-12)
        assert depth.values[0, 0] == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("make", [
        lambda v: Plane(point=(0, 0, v), normal=(0, 0, -1.0)),
        lambda v: Plane(point=(0, 0, 2.0), normal=(0, v, -1.0)),
        lambda v: Sphere(center=(v, 0, 5.0), radius=1.0),
        lambda v: Sphere(center=(0, 0, 5.0), radius=abs(v)),
        lambda v: Box(min_corner=(-1, -1, 2.0), max_corner=(1, 1, v)),
        lambda v: Box(min_corner=(-v, -1, 2.0), max_corner=(1, 1, 3.0)),
    ], ids=["plane-point", "plane-normal", "sphere-center", "sphere-radius", "box-max",
            "box-min"])
    @pytest.mark.parametrize("value", [1e150, 3.5e38, math.inf, math.nan])
    def test_values_beyond_float32_are_rejected(self, make, value):
        """Past float32's range numpy's products in the renderer overflowed,
        and depths could leave the range of the PFM a render is written to."""
        with pytest.raises(DegenerateSceneError, match="float32"):
            make(value)
        make(3.4e38)

    def test_camera_inside_primitive(self):
        with pytest.raises(DegenerateSceneError):
            render_depth(SceneSpec((Sphere(center=(0, 0, 0.1), radius=1.0),)), K)
        with pytest.raises(DegenerateSceneError):
            render_depth(
                SceneSpec((Box(min_corner=(-1, -1, -1), max_corner=(1, 1, 1)),)), K
            )

    def test_plane_equation_satisfied_after_unprojection(self):
        """Every valid rendered pixel unprojects onto the source plane."""
        normal = np.array([0.3, -0.4, -1.0])
        point = np.array([0.1, 0.0, 2.5])
        scene = SceneSpec((Plane(point=tuple(point), normal=tuple(normal)),))
        depth = render_depth(scene, K)
        assert depth.valid.any()
        cloud = unproject_depth_map(K, depth)
        residuals = (cloud.points - point) @ normal
        assert np.abs(residuals).max() < 1e-9


def _reference_hit(prim, x, y):
    """Ray parameter of the nearest front-facing hit of ray (x, y, 1), in
    render_depth's order of operations, with Python floats."""
    if isinstance(prim, Plane):
        (n0, n1, n2), (p0, p1, p2) = prim.normal, prim.point
        denom = n0 * x + n1 * y + n2
        if denom < 0.0:
            t = (n0 * p0 + n1 * p1 + n2 * p2) / denom
            if t > 0.0:
                return t
        return math.inf
    if isinstance(prim, Sphere):
        (c0, c1, c2), r = prim.center, prim.radius
        a = x * x + y * y + 1.0
        b = 2.0 * (c0 * x + c1 * y + c2)
        disc = b * b - 4.0 * a * (c0 * c0 + c1 * c1 + c2 * c2 - r * r)
        if disc >= 0.0:
            t = (b - math.sqrt(disc)) / (2.0 * a)
            if t > 0.0:
                return t
        return math.inf
    t_near, t_far = -math.inf, math.inf
    for lo, hi, d in zip(prim.min_corner, prim.max_corner, (x, y, 1.0)):
        if d == 0.0:
            if not lo <= 0.0 <= hi:
                return math.inf
            continue
        t1, t2 = lo / d, hi / d
        t_near, t_far = max(t_near, min(t1, t2)), min(t_far, max(t1, t2))
    return t_near if t_near <= t_far and t_near > 0.0 else math.inf


def _reference_render(scene, k):
    values = np.zeros((k.height, k.width))
    for v in range(k.height):
        y = (v - k.cy) / k.fy
        for u in range(k.width):
            x = (u - k.cx) / k.fx
            values[v, u] = min(_reference_hit(prim, x, y) for prim in scene.primitives)
    valid = np.isfinite(values)
    values[~valid] = 0.0
    return values, valid


MIXED = (
    Plane(point=(0.0, 0.0, 6.0), normal=(0.2, -0.3, -1.0)),
    Sphere(center=(0.4, -0.2, 3.0), radius=0.8),
    # x slab holds 0 and y slab does not, then the other way round: the ray
    # column and row with a zero component take both of the d == 0 rules
    Box(min_corner=(-0.2, 0.2, 1.5), max_corner=(0.3, 0.6, 2.0)),
    Box(min_corner=(-0.9, -0.5, 2.0), max_corner=(-0.1, 0.4, 2.8)),
)
REFERENCE_SCENES = {
    "mixed": MIXED,
    **{f"mixed-{i}": (prim,) for i, prim in enumerate(MIXED)},
    # a floor seen edge-on along the principal row, a wall almost along the rays
    "grazing": (Plane(point=(0.0, 0.5, 0.0), normal=(0.0, -1.0, 0.0)),
                Plane(point=(0.3, 0.0, 0.0), normal=(-1.0, 0.0, 1e-3))),
    # spans z = -0.4 ... 0.6 and clears the camera
    "behind": (Sphere(center=(0.6, 0.1, 0.1), radius=0.5),
               Plane(point=(0.0, 0.0, 4.0), normal=(0.0, 0.0, -1.0))),
}


class TestRenderMatchesPerPixelCast:
    """At an integer principal point the ray column and row with a zero
    component exist; at a fractional one they do not."""

    @pytest.mark.parametrize("cx, cy", [(32.0, 24.0), (31.37, 23.61)], ids=["integer", "fractional"])
    @pytest.mark.parametrize("name", REFERENCE_SCENES)
    def test_bit_for_bit(self, name, cx, cy):
        k = Intrinsics(fx=40.0, fy=36.0, cx=cx, cy=cy, width=64, height=48)
        scene = SceneSpec(REFERENCE_SCENES[name])
        values, valid = _reference_render(scene, k)
        depth = render_depth(scene, k)
        assert valid.any()
        np.testing.assert_array_equal(depth.valid, valid)
        assert depth.values.tobytes() == values.tobytes()


class TestSampleConstraints:
    def setup_method(self):
        self.scene = SceneSpec((Plane(point=(0, 0, 2.0), normal=(0.0, 1.0, -1.0)),))
        self.depth = render_depth(self.scene, K)

    def test_zero_residual_at_ground_truth(self):
        cons = sample_constraints(self.depth, K, 6, rng_seed=0, min_depth_ratio=1.2)
        params = SolverParams.from_intrinsics(K)
        for c in cons:
            res = constraint_residual(coefficients_from_constraint(c), params)
            assert abs(res) / c.distance**2 < 1e-10

    def test_pairs_do_not_share_pixels(self):
        cons = sample_constraints(self.depth, K, 8, rng_seed=1, min_depth_ratio=1.2)
        pixels = [(c.u1, c.v1) for c in cons] + [(c.u2, c.v2) for c in cons]
        assert len(set(pixels)) == 16

    def test_depth_ratio_respected(self):
        cons = sample_constraints(self.depth, K, 8, rng_seed=2, min_depth_ratio=1.5)
        for c in cons:
            assert max(c.d1, c.d2) / min(c.d1, c.d2) >= 1.5

    def test_deterministic_for_fixed_seed(self):
        a = sample_constraints(self.depth, K, 5, rng_seed=33, min_depth_ratio=1.2)
        b = sample_constraints(self.depth, K, 5, rng_seed=33, min_depth_ratio=1.2)
        assert a == b

    def test_constant_depth_cannot_meet_ratio(self):
        flat = render_depth(SceneSpec((Plane(point=(0, 0, 2.0), normal=(0, 0, -1.0)),)), K)
        with pytest.raises(SamplingFailureError):
            sample_constraints(flat, K, 4, rng_seed=0, min_depth_ratio=1.2)

    @pytest.mark.parametrize("ratio", [math.nan, 0.5, -math.inf])
    def test_ratio_below_one_or_nan_is_rejected(self, ratio):
        """A NaN ratio fails every comparison, so unguarded it would admit
        the equal-depth pairs of a fronto-parallel plane."""
        flat = render_depth(SceneSpec((Plane(point=(0, 0, 2.0), normal=(0, 0, -1.0)),)), K)
        with pytest.raises(ValueError, match="min_depth_ratio"):
            sample_constraints(flat, K, 4, rng_seed=0, min_depth_ratio=ratio)

    @pytest.mark.parametrize("count, rng_seed, match", [(-3, 0, "count"), (0, 0, "count"),
                                                       (4, -1, "rng_seed")])
    def test_bad_count_or_seed_is_rejected(self, count, rng_seed, match):
        with pytest.raises(InvalidSettingError, match=match):
            sample_constraints(self.depth, K, count, rng_seed=rng_seed)

    def test_separation_comes_from_unprojection(self):
        cons = sample_constraints(self.depth, K, 3, rng_seed=4, min_depth_ratio=1.2)
        for c in cons:
            p1 = unproject_pixel(K, c.u1, c.v1, c.d1)
            p2 = unproject_pixel(K, c.u2, c.v2, c.d2)
            assert c.distance == pytest.approx(math.dist(p1, p2), rel=1e-15)


class TestNoiseSpec:
    def test_negative_seed_is_rejected(self):
        """numpy's own message ("expected non-negative integer") names no setting."""
        with pytest.raises(InvalidSettingError, match="seed must be a non-negative integer"):
            NoiseSpec(seed=-1)


class TestPerturb:
    def setup_method(self):
        scene = SceneSpec((Plane(point=(0, 0, 2.0), normal=(0.0, 1.0, -1.0)),))
        self.depth = render_depth(scene, K)
        self.cons = sample_constraints(self.depth, K, 6, rng_seed=7, min_depth_ratio=1.2)

    def test_zero_sigma_is_identity(self):
        pert, depth_out = perturb(self.cons, self.depth, NoiseSpec(seed=1))
        assert pert == self.cons
        assert depth_out is self.depth

    def test_same_seed_same_output(self):
        spec = NoiseSpec(depth_sigma_rel=0.02, distance_sigma_rel=0.01, seed=42)
        a, da = perturb(self.cons, self.depth, spec)
        b, db = perturb(self.cons, self.depth, spec)
        assert a == b
        np.testing.assert_array_equal(da.values, db.values)

    def test_outputs_stay_feasible(self):
        spec = NoiseSpec(depth_sigma_rel=0.05, distance_sigma_rel=0.05, seed=3)
        pert, _ = perturb(self.cons, self.depth, spec)
        for c in pert:
            assert c.distance >= abs(c.d1 - c.d2)

    @pytest.mark.montecarlo
    def test_log_noise_standard_deviation(self):
        """Sample std of ln(L'/L) over ~10^4 draws lands within 5% of sigma."""
        sigma = 0.02
        logs = []
        for seed in range(1700):
            pert, _ = perturb(self.cons, self.depth, NoiseSpec(distance_sigma_rel=sigma, seed=seed))
            logs.extend(math.log(p.distance / c.distance) for p, c in zip(pert, self.cons))
        assert len(logs) >= 10_000
        assert np.std(logs) == pytest.approx(sigma, rel=0.05)


class TestMakeCamera:
    def test_fixed_fov_and_no_jitter(self):
        """FoV 90 on width 640 means fx = 320 and cx = 320."""
        k = make_camera(0, 640, 480, fov_range=(90.0, 90.0), center_jitter=0.0)
        assert k.fx == pytest.approx(320.0, rel=1e-9)
        assert k.cx == 320.0
        assert k.cy == 240.0

    @pytest.mark.montecarlo
    def test_fov_range_respected(self):
        for seed in range(1000):
            k = make_camera(seed, 640, 480)
            assert 40.0 <= k.fov_x() <= 120.0
            assert 40.0 <= k.fov_y() <= 120.0

    def test_jitter_bounds(self):
        for seed in range(100):
            k = make_camera(seed, 640, 480, center_jitter=20.0)
            assert abs(k.cx - 320.0) <= 20.0
            assert abs(k.cy - 240.0) <= 20.0

    def test_seed_reproducibility(self):
        a = make_camera(123, 640, 480, center_jitter=15.0)
        b = make_camera(123, 640, 480, center_jitter=15.0)
        assert a == b

    @pytest.mark.parametrize("jitter", [math.nan, -1.0, math.inf, 1.7976931348623157e308])
    def test_bad_center_jitter(self, jitter):
        """The largest double used to overflow numpy's uniform draw."""
        with pytest.raises(ValueError, match="center_jitter"):
            make_camera(0, 640, 480, center_jitter=jitter)

    def test_jitter_that_puts_rays_beyond_float32_is_rejected(self):
        """FoV 170 on width 2 gives fx = 0.087: a principal point past 3e37
        pixels makes rays no field file can hold."""
        with pytest.raises(InvalidSettingError, match="center_jitter .* float32"):
            make_camera(0, 2, 2, fov_range=(170.0, 170.0), center_jitter=3.4e38)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(InvalidSettingError, match="camera seed"):
            make_camera(-3, 640, 480)

    def test_bad_fov_range(self):
        with pytest.raises(ValueError):
            make_camera(0, 640, 480, fov_range=(0.0, 120.0))
        with pytest.raises(ValueError):
            make_camera(0, 640, 480, fov_range=(100.0, 40.0))
