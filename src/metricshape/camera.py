"""Pinhole camera model: intrinsics, depth maps, point clouds, FoV conversion.

Conventions used throughout the package:

- Pixel coordinates are continuous; the integer pixel (u, v) sits at
  coordinate (u, v) exactly (no half-pixel center offset).
- The camera is at the origin looking down +z; depth is z-depth in meters,
  not ray length.
- The model is distortion-free. The principal point may lie outside the
  image; off-center cameras are legal.
- Invalid depths are masked, never imputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDepthError, InvalidIntrinsicsError, ShapeMismatchError

# the most pixels whose (h, w, 3) float64 ray grid numpy can address
MAX_PIXELS = np.iinfo(np.intp).max // 24
# the largest float32, the bound of every coordinate a PFM or PLY file holds
FLOAT32_MAX = float(np.finfo(np.float32).max)
# Work arrays are cut into blocks of at most this many float64 entries
# (125 KB), below glibc's 128 KiB mmap threshold: a larger array is mapped
# and unmapped per call, with page faults costing about its arithmetic.
_BLOCK_ENTRIES = 16_000


def _freeze(value, **arrays: np.ndarray) -> None:
    """Store each array, read-only and uncopied, as the field of its name on ``value``."""
    for name, array in arrays.items():
        array.setflags(write=False)
        object.__setattr__(value, name, array)


def _made(cls, **arrays: np.ndarray):
    """A ``cls`` holding ``arrays`` as they are, without its constructor's copy and checks.

    Only for values the package has just made and knows to be valid; every
    public constructor, and so every document and CLI input, keeps its checks.
    """
    value = object.__new__(cls)
    _freeze(value, **arrays)
    return value


def _require_focal(name: str, f: float) -> None:
    if not (math.isfinite(f) and f > 0.0):
        raise InvalidIntrinsicsError(f"{name} must be finite and positive, got {f}")


@dataclass(frozen=True)
class Intrinsics:
    """4-DoF pinhole parameters in pixels plus the image size."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        _require_focal("fx", self.fx)
        _require_focal("fy", self.fy)
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise InvalidIntrinsicsError("principal point must be finite")
        if self.width < 2 or self.height < 2:
            raise InvalidIntrinsicsError(
                f"image size must be at least 2x2, got {self.width}x{self.height}"
            )
        if self.width * self.height > MAX_PIXELS:
            raise InvalidIntrinsicsError(
                f"image size (width x height) {self.width}x{self.height} "
                f"exceeds {MAX_PIXELS} pixels"
            )

    @property
    def matrix(self) -> np.ndarray:
        """3x3 intrinsic matrix [[fx, 0, cx], [0, fy, cy], [0, 0, 1]]."""
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def ray_extent(self) -> float:
        """The largest |x| or |y| ray component over the image (inf if it overflows)."""
        x = max(abs(self.cx), abs(self.width - 1 - self.cx)) / self.fx
        y = max(abs(self.cy), abs(self.height - 1 - self.cy)) / self.fy
        return max(x, y)

    def fov_x(self) -> float:
        """Horizontal field of view in degrees."""
        return fov_from_focal(self.fx, self.width)

    def fov_y(self) -> float:
        """Vertical field of view in degrees."""
        return fov_from_focal(self.fy, self.height)


@dataclass(frozen=True)
class DepthMap:
    """Metric z-depth grid with a validity mask.

    ``values[v, u]`` is the depth in meters at pixel (u, v). Wherever
    ``valid`` is True the depth must be finite and positive. Both arrays
    are copied and frozen on construction.
    """

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        valid = np.array(self.valid, dtype=bool)
        if values.ndim != 2:
            raise ShapeMismatchError(f"depth values must be a 2-d grid, got {values.shape}")
        if valid.shape != values.shape:
            raise ShapeMismatchError(
                f"validity mask {valid.shape} does not match values {values.shape}"
            )
        checked = values[valid]
        if checked.size and not (np.all(np.isfinite(checked)) and np.all(checked > 0.0)):
            raise InvalidDepthError("valid depths must be finite and positive")
        _freeze(self, values=values, valid=valid)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "DepthMap":
        """Build a map whose mask marks finite, positive entries as valid."""
        values = np.asarray(values, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            valid = np.isfinite(values) & (values > 0.0)
        safe = np.where(valid, values, 0.0)
        return cls(safe, valid)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())


@dataclass(frozen=True)
class PointCloud:
    """Unordered set of 3D points in meters, stored as an (n, 3) array."""

    points: np.ndarray

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=np.float64)
        if points.size == 0:
            points = points.reshape(0, 3)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ShapeMismatchError(f"points must be (n, 3), got {points.shape}")
        if not np.all(np.isfinite(points)):
            raise InvalidDepthError("point coordinates must be finite")
        _freeze(self, points=points)

    def __len__(self) -> int:
        return self.points.shape[0]


def unproject_pixel(k: Intrinsics, u: float, v: float, d: float) -> tuple[float, float, float]:
    """Map pixel (u, v) with depth d to the 3D point ((u-cx)/fx*d, (v-cy)/fy*d, d)."""
    if not (math.isfinite(d) and d > 0.0):
        raise InvalidDepthError(f"depth must be finite and positive, got {d}")
    x = (u - k.cx) / k.fx * d
    y = (v - k.cy) / k.fy * d
    return (x, y, d)


def project_point(k: Intrinsics, x: float, y: float, z: float) -> tuple[float, float]:
    """Perspective projection u = fx*x/z + cx, v = fy*y/z + cy for z > 0."""
    if not (math.isfinite(z) and z > 0.0):
        raise InvalidDepthError(f"point must be in front of the camera, got z={z}")
    return (k.fx * x / z + k.cx, k.fy * y / z + k.cy)


def unproject_depth_map(k: Intrinsics, depth: DepthMap) -> PointCloud:
    """Unproject every valid pixel; output is row-major over valid pixels."""
    # imported here because incidence builds on this module
    from .incidence import field_from_intrinsics, unproject_with_field

    return unproject_with_field(field_from_intrinsics(k), depth)


def fov_from_focal(f: float, extent: float) -> float:
    """Field of view 2*atan(extent / (2 f)) in degrees."""
    if not (math.isfinite(f) and f > 0.0):
        raise InvalidIntrinsicsError(f"focal length must be finite and positive, got {f}")
    if extent < 1:
        raise InvalidIntrinsicsError(f"image extent must be at least 1 pixel, got {extent}")
    return math.degrees(2.0 * math.atan(extent / (2.0 * f)))


def focal_from_fov(fov_deg: float, extent: float) -> float:
    """Focal length extent / (2 tan(fov/2)); fov must lie in (0, 180) degrees."""
    if not (0.0 < fov_deg < 180.0):
        raise InvalidIntrinsicsError(f"field of view must be in (0, 180) degrees, got {fov_deg}")
    if extent < 1:
        raise InvalidIntrinsicsError(f"image extent must be at least 1 pixel, got {extent}")
    return extent / (2.0 * math.tan(math.radians(fov_deg) / 2.0))
