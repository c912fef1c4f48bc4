"""Analytic renderer, constraint sampling, noise injection, camera draws."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import metricshape.synthetic as synthetic
from conftest import RICH_SCENE
from metricshape.camera import (
    DepthMap,
    Intrinsics,
    focal_from_fov,
    unproject_depth_map,
    unproject_pixel,
)
from metricshape.errors import DegenerateSceneError, InvalidSettingError, SamplingFailureError
from metricshape.incidence import _ray_axes
from metricshape.solver import (
    DistanceConstraint,
    SolverParams,
    coefficients_from_constraint,
    constraint_residual,
)
from metricshape.synthetic import (
    MIN_DEPTH_RATIO,
    SAMPLING_ATTEMPTS_MIN,
    SAMPLING_ATTEMPTS_PER_PAIR,
    Box,
    NoiseSpec,
    Plane,
    SceneSpec,
    Sphere,
    _box_hits,
    _camera_inside,
    _plane_hits,
    _sphere_hits,
    _window,
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
    # reaches past the right and bottom borders
    "cut-sphere": (Sphere(center=(2.3, 1.4, 3.0), radius=0.6),),
    # projects wholly left of the image: its window is empty
    "outside": (Box(min_corner=(-9.0, -1.0, 2.0), max_corner=(-6.0, 1.0, 3.0)),
                Plane(point=(0.0, 0.0, 5.0), normal=(0.0, 0.0, -1.0))),
    # spans z = -1 ... 2 beside the camera, so its window is the whole image
    "straddling": (Box(min_corner=(0.3, -0.4, -1.0), max_corner=(1.2, 0.2, 2.0)),),
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


def _full_grid_render(scene, k):
    """The element-wise minimum of every primitive's hits on every pixel."""
    xs, ys = _ray_axes(k)
    hits = {Plane: _plane_hits, Sphere: _sphere_hits, Box: _box_hits}
    values = np.full((k.height, k.width), np.inf)
    for prim in scene.primitives:
        np.minimum(values, hits[type(prim)](prim, xs, ys), out=values)
    valid = np.isfinite(values)
    values[~valid] = 0.0
    return values, valid


def _assert_renders_as_full_grid(scene, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        depth = render_depth(scene, k)
    values, valid = _full_grid_render(scene, k)
    np.testing.assert_array_equal(depth.valid, valid)
    assert depth.values.tobytes() == values.tobytes()
    return depth


def _sweep_camera(rng):
    w, h = (int(n) for n in rng.integers(2, 41, size=2))
    fx = focal_from_fov(rng.uniform(20.0, 170.0), w)
    fy = focal_from_fov(rng.uniform(20.0, 170.0), h)
    if rng.random() < 0.5:
        # a ray column and row with a zero component, which faces on the
        # x = 0 and y = 0 planes project onto exactly
        cx, cy = float(rng.integers(0, w)), float(rng.integers(0, h))
    else:
        cx, cy = float(rng.uniform(-w, 2 * w)), float(rng.uniform(-h, 2 * h))
    return Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h)


def _sweep_primitive(rng, k):
    """A sphere or box near the view cone, sometimes tangent to or bounded by
    the x = 0 or y = 0 plane, sometimes reaching behind the camera."""
    z = float(rng.uniform(0.3, 20.0))
    # centre ratios over the image's ray extent and a little past it
    x = z * (rng.uniform(-0.2, 1.2) * k.width - k.cx) / k.fx
    y = z * (rng.uniform(-0.2, 1.2) * k.height - k.cy) / k.fy
    size = z * float(rng.uniform(0.01, 0.6))
    on_plane = rng.random() < 0.3
    if rng.random() < 0.5:
        if on_plane:
            x = math.copysign(size, x)
        return Sphere(center=(x, y, z), radius=size)
    half = size * rng.uniform(0.2, 1.0, size=3)
    lo = [x - half[0], y - half[1], z - half[2]]
    hi = [x + half[0], y + half[1], z + half[2]]
    if on_plane:
        axis, side = int(rng.integers(2)), int(rng.integers(2))
        (lo, hi)[side][axis] = 0.0
        if not lo[axis] < hi[axis]:
            lo[axis], hi[axis] = hi[axis], lo[axis]
    if rng.random() < 0.15:
        lo[2] = -z * float(rng.uniform(0.0, 1.0))
    return Box(min_corner=tuple(map(float, lo)), max_corner=tuple(map(float, hi)))


def _sweep_scenes(seed):
    """The (scene, camera) cases of the window sweep with this seed."""
    rng = np.random.default_rng(2300 + seed)
    for _ in range(200):
        k = _sweep_camera(rng)
        prims = [_sweep_primitive(rng, k) for _ in range(int(rng.integers(1, 4)))]
        prims = [p for p in prims if not _camera_inside(p)]
        if rng.random() < 0.2:
            prims.append(Plane(point=(0.0, 0.0, 25.0), normal=(0.1, -0.2, -1.0)))
        if prims:
            yield SceneSpec(tuple(prims)), k


class TestRenderWindow:
    """`render_depth` intersects a sphere or box only inside its projected
    pixel window; outside it no ray hits, so the depths must be those of
    intersecting every primitive at every pixel, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_renders_as_full_grid(self, seed):
        windows = {"empty": 0, "narrowed": 0, "whole": 0}
        for scene, k in _sweep_scenes(seed):
            _assert_renders_as_full_grid(scene, k)
            for prim in scene.primitives:
                rows, cols = _window(prim, k)
                size = (rows.stop - rows.start) * (cols.stop - cols.start)
                kind = "empty" if size == 0 else "whole" if size == k.width * k.height else "narrowed"
                windows[kind] += 1
        # the sweep reaches every kind of window
        assert min(windows.values()) >= 10, windows

    def test_corner_beyond_float_range_renders_whole_image(self):
        """fx * x / z overflows to -inf at the near corners: pixel coordinates
        cannot be floored, and every ray enters the box at z = 1e-30."""
        k = Intrinsics(fx=1e300, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
        scene = SceneSpec((Box(min_corner=(-1.0, -1.0, 1e-30), max_corner=(1.0, 1.0, 1.0)),))
        depth = _assert_renders_as_full_grid(scene, k)
        assert depth.valid.all()
        np.testing.assert_array_equal(depth.values, 1e-30)

    def test_far_principal_point_renders_whole_image(self):
        """At cx = 1e17 every column's ray rounds to one of a few, so pixel
        coordinates computed from a corner cannot tell the columns apart."""
        k = Intrinsics(fx=1e17, fy=10.0, cx=1e17, cy=10.0, width=20, height=20)
        scene = SceneSpec((Box(min_corner=(-2.5, -1.0, 1.0), max_corner=(-2.0, 1.0, 2.0)),))
        assert _assert_renders_as_full_grid(scene, k).n_valid == 99

    def test_sphere_finer_than_rounding_renders_whole_image(self):
        """At fx = 1e17 the rays of a whole row round to the one that grazes
        the sphere, far past its window's one-pixel margin."""
        k = Intrinsics(fx=1e17, fy=1e17, cx=10.0, cy=10.0, width=20, height=20)
        scene = SceneSpec((Sphere(center=(-1.0, 0.0, 5.0), radius=1.0),))
        assert _assert_renders_as_full_grid(scene, k).valid.all()


def _cut_sphere_split(k):
    """A band of rows whose first edge falls inside the cut sphere's window."""
    rows, _ = _window(REFERENCE_SCENES["cut-sphere"][0], k)
    assert rows.stop - rows.start >= 2
    return (rows.start + (rows.stop - rows.start) // 2) * k.width


# band sizes in pixels for a camera: one pixel; one under and one over a row
# (one row per band either way); one under three rows (two rows per band);
# and one whose band edge splits the cut sphere's window rows
BANDS = {
    "one-pixel": lambda k: 1,
    "row-less-one": lambda k: k.width - 1,
    "row-plus-one": lambda k: k.width + 1,
    "three-rows-less-one": lambda k: 3 * k.width - 1,
    "cut-sphere-split": _cut_sphere_split,
}


class TestRenderBands:
    """`render_depth` fills the map in bands of rows; no band size may move a
    bit, whether a band edge falls inside a window or not."""

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("cx, cy", [(32.0, 24.0), (31.37, 23.61)], ids=["integer", "fractional"])
    def test_reference_scenes_render_as_full_grid(self, band, cx, cy, monkeypatch):
        k = Intrinsics(fx=40.0, fy=36.0, cx=cx, cy=cy, width=64, height=48)
        monkeypatch.setattr(synthetic, "_BLOCK_ENTRIES", BANDS[band](k))
        for prims in REFERENCE_SCENES.values():
            _assert_renders_as_full_grid(SceneSpec(prims), k)

    @pytest.mark.parametrize("band", [b for b in BANDS if b != "cut-sphere-split"])
    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_renders_as_full_grid(self, band, seed, monkeypatch):
        for scene, k in _sweep_scenes(seed):
            monkeypatch.setattr(synthetic, "_BLOCK_ENTRIES", BANDS[band](k))
            _assert_renders_as_full_grid(scene, k)

    def test_returned_arrays_are_read_only(self):
        depth = render_depth(SceneSpec(MIXED), K)
        for array in (depth.values, depth.valid):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = array[0, 0]


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


def _reference_sample(depth, k, count, rng_seed):
    """`sample_constraints` as it was when it drew from an array of the valid
    pixels' flat indices, argument checks left out, at the default ratio."""
    min_depth_ratio = MIN_DEPTH_RATIO
    flat_valid = np.flatnonzero(depth.valid.ravel())
    if flat_valid.size < 2 * count:
        raise SamplingFailureError(
            f"need at least {2 * count} valid pixels for {count} disjoint pairs, "
            f"got {flat_valid.size}"
        )
    budget = max(SAMPLING_ATTEMPTS_MIN, SAMPLING_ATTEMPTS_PER_PAIR * count)
    rng = np.random.default_rng(rng_seed)
    values = depth.values.ravel()
    w = depth.width
    used = set()
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > budget:
            raise SamplingFailureError(
                f"could not sample {count} pairs with depth ratio >= {min_depth_ratio} "
                f"in {budget} attempts ({len(out)} found)"
            )
        i, j = rng.choice(flat_valid, size=2, replace=False)
        if i in used or j in used:
            continue
        d1, d2 = float(values[i]), float(values[j])
        if max(d1, d2) / min(d1, d2) < min_depth_ratio:
            continue
        u1, v1 = float(i % w), float(i // w)
        u2, v2 = float(j % w), float(j // w)
        p1 = unproject_pixel(k, u1, v1, d1)
        p2 = unproject_pixel(k, u2, v2, d2)
        out.append(DistanceConstraint(u1=u1, v1=v1, u2=u2, v2=v2, d1=d1, d2=d2,
                                      distance=math.dist(p1, p2)))
        used.add(int(i))
        used.add(int(j))
    return out


def _mask(kind, rng):
    valid = np.zeros((K.height, K.width), dtype=bool)
    if kind == "all":
        valid[:] = True
    elif kind == "one-row":
        valid[17] = True
    elif kind == "partial-rows":
        valid[:] = rng.random(valid.shape) < 0.3
    elif kind == "empty-rows":  # full, partial and empty rows, the first and last full
        valid[0] = valid[5:9] = valid[-1] = True
        valid[20:30, 10:50] = rng.random((10, 40)) < 0.5
    return valid


class TestSampleMatchesFlatIndexDraws:
    """Drawing ranks among the valid pixels and finding their rows by the
    per-row counts picks the pixels the former draws from an array of flat
    indices picked, in the same order, with the same failures."""

    @pytest.mark.parametrize("kind", ["all", "one-row", "partial-rows", "empty-rows"])
    @pytest.mark.parametrize("count", [1, 4, 12])
    def test_same_constraints(self, kind, count):
        rng = np.random.default_rng(count)
        valid = _mask(kind, rng)
        depth = DepthMap(np.where(valid, rng.uniform(1.0, 5.0, valid.shape), 0.0), valid)
        for seed in range(5):
            expected = _reference_sample(depth, K, count, seed)
            assert sample_constraints(depth, K, count, rng_seed=seed) == expected

    @pytest.mark.parametrize("kind, count", [("one-row", 40), ("none", 1)])
    def test_same_failure_for_too_few_pixels(self, kind, count):
        valid = _mask(kind, None)
        depth = DepthMap(np.where(valid, 2.0, 0.0), valid)
        with pytest.raises(SamplingFailureError) as expected:
            _reference_sample(depth, K, count, 0)
        with pytest.raises(SamplingFailureError, match=r"got \d+$") as got:
            sample_constraints(depth, K, count, rng_seed=0)
        assert str(got.value) == str(expected.value)

    def test_same_failure_for_exhausted_budget(self):
        depth = render_depth(SceneSpec((Plane(point=(0, 0, 2.0), normal=(0, 0, -1.0)),)), K)
        with pytest.raises(SamplingFailureError) as expected:
            _reference_sample(depth, K, 3, 0)
        with pytest.raises(SamplingFailureError, match="attempts") as got:
            sample_constraints(depth, K, 3, rng_seed=0)
        assert str(got.value) == str(expected.value)


def _traced_peak(fn, *args):
    """fn(*args) and the peak of its traced allocations above those at its call."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base


class TestMemory:
    """numpy reports its buffers to tracemalloc, so the traced peak counts
    every full-image array a call makes."""

    def setup_method(self):
        self.k = make_camera(0, 1000, 750, center_jitter=20.0)
        self.depth = render_depth(RICH_SCENE, self.k)
        sample_constraints(self.depth, self.k, 4, rng_seed=0)  # first-use caches

    def test_render_holds_at_most_1_mb_beyond_its_map(self):
        depth, peak = _traced_peak(render_depth, RICH_SCENE, self.k)
        assert peak <= depth.values.nbytes + depth.valid.nbytes + 2**20

    def test_sample_holds_at_most_half_a_mb(self):
        _, peak = _traced_peak(sample_constraints, self.depth, self.k, 100, 1)
        assert peak <= 2**19


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
