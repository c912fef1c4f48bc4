"""Ground-truth oracle: analytic depth renders, constraint sampling, noise.

Scenes are unions of primitives intersected analytically, so rendered
depths are exact to float precision and downstream recovery tests can use
tight tolerances. The camera sits at the origin looking down +z; depth is
the z coordinate of the nearest front-facing hit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .camera import (
    _BLOCK_ENTRIES,
    FLOAT32_MAX,
    DepthMap,
    Intrinsics,
    _made,
    _require_integer,
    focal_from_fov,
    unproject_pixel,
)
from .errors import DegenerateSceneError, InvalidSettingError, SamplingFailureError
from .incidence import _ray_axes
from .solver import DistanceConstraint


def _require_float32(name: str, values: tuple[float, float, float]) -> None:
    """Every component within float32's range, NaN excluded: then the renderer's
    products stay finite in float64, and depths can reach a PFM file."""
    if not all(abs(v) <= FLOAT32_MAX for v in values):
        raise DegenerateSceneError(f"{name} must lie within float32's range, got {values}")


@dataclass(frozen=True)
class Plane:
    """Infinite plane through `point`; visible from the side `normal` points to."""

    point: tuple[float, float, float]
    normal: tuple[float, float, float]

    def __post_init__(self) -> None:
        _require_float32("plane point", self.point)
        _require_float32("plane normal", self.normal)
        if not any(c != 0.0 for c in self.normal):
            raise DegenerateSceneError("plane normal must be nonzero")


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float

    def __post_init__(self) -> None:
        _require_float32("sphere center", self.center)
        if not 0.0 < self.radius <= FLOAT32_MAX:
            raise DegenerateSceneError(
                f"sphere radius must be positive and within float32's range, got {self.radius}"
            )


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with min corner strictly below max corner per axis."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]

    def __post_init__(self) -> None:
        _require_float32("box min corner", self.min_corner)
        _require_float32("box max corner", self.max_corner)
        if not all(lo < hi for lo, hi in zip(self.min_corner, self.max_corner)):
            raise DegenerateSceneError("box min corner must be strictly below max corner per axis")


Primitive = Plane | Sphere | Box


@dataclass(frozen=True)
class SceneSpec:
    primitives: tuple[Primitive, ...]

    def __post_init__(self) -> None:
        if len(self.primitives) == 0:
            raise DegenerateSceneError("scene needs at least one primitive")
        object.__setattr__(self, "primitives", tuple(self.primitives))


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative log-normal noise exp(sigma * g), g ~ N(0, 1), per value."""

    depth_sigma_rel: float = 0.0
    distance_sigma_rel: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("depth_sigma_rel", "distance_sigma_rel"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise InvalidSettingError(f"{name} must be finite and non-negative, got {value}")
        _require_integer("seed", self.seed, 0)


def _camera_inside(prim: Primitive) -> bool:
    if isinstance(prim, Sphere):
        return float(np.linalg.norm(prim.center)) < prim.radius
    if isinstance(prim, Box):
        return all(lo < 0.0 < hi for lo, hi in zip(prim.min_corner, prim.max_corner))
    return False


def _plane_hits(prim: Plane, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    n0, n1, n2 = map(float, prim.normal)
    p0, p1, p2 = map(float, prim.point)
    num = n0 * p0 + n1 * p1 + n2 * p2
    denom = (n0 * xs)[None, :] + (n1 * ys)[:, None] + n2
    # a ray (nearly) parallel to the plane divides to +-inf or NaN: no hit
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = num / denom
    t[~((denom < 0.0) & (t > 0.0))] = np.inf
    return t


def _sphere_hits(prim: Sphere, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    c0, c1, c2 = map(float, prim.center)
    r = float(prim.radius)
    # ray parameters of the hits solve a t^2 - b t + c = 0
    a = (xs * xs)[None, :] + (ys * ys)[:, None] + 1.0
    b = 2.0 * ((c0 * xs)[None, :] + (c1 * ys)[:, None] + c2)
    c = c0 * c0 + c1 * c1 + c2 * c2 - r * r
    disc = b * b - 4.0 * a * c
    # a ray that misses has disc < 0, so its root is NaN and fails t > 0;
    # the camera is outside, so the smaller positive root is the entering hit
    with np.errstate(invalid="ignore"):
        np.sqrt(disc, out=disc)
    t = np.subtract(b, disc, out=b)
    t /= 2.0 * a
    t[~(t > 0.0)] = np.inf
    return t


def _slab(lo: float, hi: float, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry and exit ray parameters of the slab lo <= x <= hi, per ray component d."""
    zero = d == 0.0
    inside_slab = lo <= 0.0 <= hi
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t1 = np.where(zero, 1.0, lo / d)
        t2 = np.where(zero, 1.0, hi / d)
    near = np.where(zero, -np.inf if inside_slab else np.inf, np.minimum(t1, t2))
    far = np.where(zero, np.inf if inside_slab else -np.inf, np.maximum(t1, t2))
    return near, far


def _box_hits(prim: Box, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    (x0, y0, z0), (x1, y1, z1) = prim.min_corner, prim.max_corner
    near_x, far_x = _slab(x0, x1, xs)
    near_y, far_y = _slab(y0, y1, ys)
    # every ray's z component is 1, so the z slab is [z0, z1] itself
    t_near = np.maximum(np.maximum(near_x, z0)[None, :], near_y[:, None])
    t_far = np.minimum(np.minimum(far_x, z1)[None, :], far_y[:, None])
    t_near[~((t_near <= t_far) & (t_near > 0.0))] = np.inf
    return t_near


# Rounding moves a pixel coordinate near the image by about 1e-16 times the
# principal point's offset, and a sphere's silhouette by about 1e-16 times the
# focal length times distance over radius, in pixels. Below this limit both
# are far under the window's one-pixel margin; past it the window is the image.
WINDOW_EXACT_LIMIT = 2.0**30


def _window(prim: Primitive, k: Intrinsics) -> tuple[slice, slice]:
    """Rows and columns outside which `prim` has no hit.

    When a sphere's or box's axis-aligned box lies at z > 0, the projections
    of its corners bound the primitive's projection (perspective maps convex
    sets to convex sets); one pixel more on each side covers rounding at the
    silhouette. A plane, a box reaching z <= 0, a corner that projects to no
    finite pixel, or a camera or sphere past `WINDOW_EXACT_LIMIT` gets the
    whole image.
    """
    whole = (slice(0, k.height), slice(0, k.width))
    fx, fy, cx, cy = map(float, (k.fx, k.fy, k.cx, k.cy))
    if isinstance(prim, Plane) or not max(abs(cx), abs(cy)) < WINDOW_EXACT_LIMIT:
        return whole
    if isinstance(prim, Sphere):
        center, r = tuple(map(float, prim.center)), float(prim.radius)
        if not max(fx, fy) * math.hypot(*center) / r < WINDOW_EXACT_LIMIT:
            return whole
        lo, hi = [c - r for c in center], [c + r for c in center]
    else:
        lo, hi = tuple(map(float, prim.min_corner)), tuple(map(float, prim.max_corner))
    if not lo[2] > 0.0:
        return whole
    us = [fx * x / z + cx for x in (lo[0], hi[0]) for z in (lo[2], hi[2])]
    vs = [fy * y / z + cy for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
    if not all(map(math.isfinite, us + vs)):
        return whole
    r0, r1 = max(math.floor(min(vs)) - 1, 0), min(math.ceil(max(vs)) + 2, k.height)
    c0, c1 = max(math.floor(min(us)) - 1, 0), min(math.ceil(max(us)) + 2, k.width)
    return slice(r0, max(r0, r1)), slice(c0, max(c0, c1))


def render_depth(scene: SceneSpec, k: Intrinsics) -> DepthMap:
    """Cast one ray per pixel and keep the z-depth of the nearest hit.

    Rays are the camera's incidence rays (z component 1), so the ray
    parameter at the hit *is* the z-depth. Pixels with no hit are invalid.
    Hits are formed from the per-column x and per-row y ray components by
    elementwise operations in a fixed order, so their bits do not depend on
    the BLAS build. A sphere or box is intersected only inside its
    `_window`, the pixels its bounding box projects to plus a one-pixel
    margin; outside it no ray hits, so the depths are bit for bit those of
    casting every ray at every primitive.

    The image is rendered in bands of whole rows, at most `_BLOCK_ENTRIES`
    pixels each (one row if a row is wider): each primitive is intersected
    on the rows its window shares with the band and min-reduced into the
    map, and the band's mask and zeroed misses are written before the next.
    So the only full-size arrays are the map and its mask, and they are
    handed to the `DepthMap` uncopied and unchecked: every valid depth is a
    finite, positive ray parameter by construction.
    """
    for prim in scene.primitives:
        if _camera_inside(prim):
            raise DegenerateSceneError(f"camera origin lies inside {prim}")
    xs, ys = _ray_axes(k)
    parts = []
    for prim in scene.primitives:
        rows, cols = _window(prim, k)
        if rows.start < rows.stop and cols.start < cols.stop:
            hits = (_plane_hits if isinstance(prim, Plane)
                    else _sphere_hits if isinstance(prim, Sphere) else _box_hits)
            parts.append((prim, hits, rows, cols))
    values = np.empty((k.height, k.width))
    valid = np.empty((k.height, k.width), dtype=bool)
    band = max(1, _BLOCK_ENTRIES // k.width)
    for start in range(0, k.height, band):
        stop = min(start + band, k.height)
        t_best = values[start:stop]
        t_best.fill(np.inf)
        for prim, hits, rows, cols in parts:
            r0, r1 = max(rows.start, start), min(rows.stop, stop)
            if r0 < r1:
                best = values[r0:r1, cols]
                np.minimum(best, hits(prim, xs[cols], ys[r0:r1]), out=best)
        hit = np.isfinite(t_best, out=valid[start:stop])
        t_best[~hit] = 0.0
    return _made(DepthMap, values=values, valid=valid)


SAMPLING_ATTEMPTS_MIN = 10_000
SAMPLING_ATTEMPTS_PER_PAIR = 500
MIN_DEPTH_RATIO = 1.2


def sample_constraints(
    depth: DepthMap,
    k: Intrinsics,
    count: int,
    rng_seed: int,
    min_depth_ratio: float = MIN_DEPTH_RATIO,
) -> list[DistanceConstraint]:
    """Sample pixel-pair constraints with ground-truth separations.

    Pairs never share pixels with other pairs ("non-overlapping groups"),
    and each pair's depth ratio is at least ``min_depth_ratio`` so the
    equal-depth degeneracy is avoided by construction. Separations come
    from unprojecting both pixels with the ground-truth intrinsics.
    Deterministic for a fixed seed. Gives up after
    ``max(SAMPLING_ATTEMPTS_MIN, SAMPLING_ATTEMPTS_PER_PAIR * count)`` draws.

    Each draw picks two distinct ranks among the valid pixels in row-major
    order, the same draws as picking from an array of their flat indices,
    without that full-image array: a rank finds its row by bisection in
    the running per-row valid counts, and its column directly in a full row
    or among the row's valid columns otherwise.
    """
    _require_integer("count of constraints", count, 1)
    _require_integer("rng_seed", rng_seed, 0)
    if not min_depth_ratio >= 1.0:
        raise InvalidSettingError(f"min_depth_ratio must be >= 1, got {min_depth_ratio}")
    valid, values, w = depth.valid, depth.values, depth.width
    # row_ends[r]: the valid pixels in rows 0 ... r
    row_ends = np.cumsum(np.count_nonzero(valid, axis=1)).tolist()
    n_valid = row_ends[-1] if row_ends else 0
    if n_valid < 2 * count:
        raise SamplingFailureError(
            f"need at least {2 * count} valid pixels for {count} disjoint pairs, "
            f"got {n_valid}"
        )
    budget = max(SAMPLING_ATTEMPTS_MIN, SAMPLING_ATTEMPTS_PER_PAIR * count)
    rng = np.random.default_rng(rng_seed)

    def pixel(rank: int) -> tuple[int, int]:
        """Row and column of the valid pixel of this rank."""
        row = bisect_right(row_ends, rank)
        first = row_ends[row - 1] if row else 0
        offset = rank - first
        if row_ends[row] - first == w:
            return row, offset
        return row, int(np.flatnonzero(valid[row])[offset])

    used: set[int] = set()
    out: list[DistanceConstraint] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > budget:
            raise SamplingFailureError(
                f"could not sample {count} pairs with depth ratio >= {min_depth_ratio} "
                f"in {budget} attempts ({len(out)} found)"
            )
        i, j = rng.choice(n_valid, size=2, replace=False).tolist()
        if i in used or j in used:
            continue
        (v1, u1), (v2, u2) = pixel(i), pixel(j)
        d1, d2 = float(values[v1, u1]), float(values[v2, u2])
        if max(d1, d2) / min(d1, d2) < min_depth_ratio:
            continue
        u1, v1, u2, v2 = float(u1), float(v1), float(u2), float(v2)
        p1 = unproject_pixel(k, u1, v1, d1)
        p2 = unproject_pixel(k, u2, v2, d2)
        separation = math.dist(p1, p2)
        out.append(
            DistanceConstraint(u1=u1, v1=v1, u2=u2, v2=v2, d1=d1, d2=d2, distance=separation)
        )
        used.add(i)
        used.add(j)
    return out


def _noise_factor(sigma: float, g):
    """exp(sigma * g), inf without a warning where a large sigma overflows it."""
    with np.errstate(over="ignore"):
        return np.exp(sigma * g)


def perturb(
    constraints: list[DistanceConstraint], depth: DepthMap, noise: NoiseSpec
) -> tuple[list[DistanceConstraint], DepthMap]:
    """Apply multiplicative noise to constraint values and the depth map.

    Depth noise perturbs the map's valid entries and the constraints'
    stored depths (independent draws); distance noise perturbs each
    constraint's separation. Draws that would make a constraint infeasible
    (separation below the depth gap, or a value that overflows) are
    redrawn, so the output always validates; a map entry that overflows
    fails `DepthMap`'s check. Identical seeds give identical output.
    """
    rng = np.random.default_rng(noise.seed)
    if noise.depth_sigma_rel > 0.0:
        values = depth.values.copy()
        g = rng.standard_normal(depth.n_valid)
        values[depth.valid] *= _noise_factor(noise.depth_sigma_rel, g)
        depth_out = DepthMap(values, depth.valid)
    else:
        depth_out = depth

    out = []
    for c in constraints:
        for _ in range(100):
            d1, d2, separation = c.d1, c.d2, c.distance
            if noise.depth_sigma_rel > 0.0:
                d1 *= float(_noise_factor(noise.depth_sigma_rel, rng.standard_normal()))
                d2 *= float(_noise_factor(noise.depth_sigma_rel, rng.standard_normal()))
            if noise.distance_sigma_rel > 0.0:
                separation *= float(_noise_factor(noise.distance_sigma_rel, rng.standard_normal()))
            if math.isfinite(separation) and separation >= abs(d1 - d2):
                out.append(replace(c, d1=d1, d2=d2, distance=separation))
                break
        else:
            raise SamplingFailureError(
                "could not draw feasible noise for a constraint in 100 attempts"
            )
    return out, depth_out


def make_camera(
    rng_seed: int,
    width: int,
    height: int,
    fov_range: tuple[float, float] = (40.0, 120.0),
    center_jitter: float = 0.0,
) -> Intrinsics:
    """Random camera: per-axis FoV uniform in range, jittered principal point."""
    lo, hi = fov_range
    if not (0.0 < lo <= hi < 180.0):
        raise InvalidSettingError(f"fov_range must satisfy 0 < lo <= hi < 180, got {fov_range}")
    if not 0.0 <= center_jitter <= FLOAT32_MAX:
        raise InvalidSettingError(
            f"center_jitter must be in [0, {FLOAT32_MAX:g}], got {center_jitter}"
        )
    _require_integer("camera seed", rng_seed, 0)
    rng = np.random.default_rng(rng_seed)
    fx = focal_from_fov(float(rng.uniform(lo, hi)), width)
    fy = focal_from_fov(float(rng.uniform(lo, hi)), height)
    cx = width / 2.0
    cy = height / 2.0
    if center_jitter > 0.0:
        cx += float(rng.uniform(-center_jitter, center_jitter))
        cy += float(rng.uniform(-center_jitter, center_jitter))
    k = Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height)
    if not k.ray_extent() <= FLOAT32_MAX:
        raise InvalidSettingError(
            f"center_jitter {center_jitter} puts ray components beyond float32's range"
        )
    return k
