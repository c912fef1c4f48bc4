"""Incidence fields: a pixel-wise encoding of 4-DoF camera intrinsics.

The ray at pixel (u, v) is ((u - cx)/fx, (v - cy)/fy, 1); scaling it by the
pixel's depth gives the 3D point directly. Every field keeps the third
component at exactly 1 ("z=1 form"), and its constructor enforces it.
Unit-length normalization is a loss-side concern and never happens
here; a network that emits unit-normalized rays can be brought into z=1
form with :func:`z1_from_rays`, which divides by the third component.

Relative to a fixed canonical camera, any pinhole field factors into a
per-pixel multiplicative residual on the x and y components:
``residual * canonical = field``. The factorization is singular on the
canonical principal row and column, where a canonical component vanishes;
singular components are pinned to 1 and flagged instead of divided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import DepthMap, Intrinsics, PointCloud, focal_from_fov
from .errors import DegenerateFieldError, ShapeMismatchError

# FoV of the canonical prior camera on the longer image side, in degrees:
# comfortably inside the 40-120 degree range of ordinary cameras; results
# are not sensitive to the exact choice
CANONICAL_FOV_DEG = 60.0


@dataclass(frozen=True)
class IncidenceField:
    """Per-pixel incidence rays as an (h, w, 3) grid in z=1 form, enforced here."""

    rays: np.ndarray

    def __post_init__(self) -> None:
        rays = np.array(self.rays, dtype=np.float64)
        if rays.ndim != 3 or rays.shape[2] != 3:
            raise ShapeMismatchError(f"rays must be (h, w, 3), got {rays.shape}")
        if not np.all(np.isfinite(rays)):
            raise ValueError("ray components must be finite")
        if not np.all(rays[..., 2] == 1.0):
            raise ValueError("rays must be in z=1 form (every third component exactly 1)")
        rays.setflags(write=False)
        object.__setattr__(self, "rays", rays)

    @property
    def width(self) -> int:
        return self.rays.shape[1]

    @property
    def height(self) -> int:
        return self.rays.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.rays[..., 0]

    @property
    def y(self) -> np.ndarray:
        return self.rays[..., 1]


@dataclass(frozen=True)
class CanonicalCamera:
    """Prior camera: one focal length, principal point at the image center."""

    f_c: float
    u_c: float
    v_c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f_c) and self.f_c > 0.0):
            raise ValueError(f"canonical focal length must be positive, got {self.f_c}")

    @classmethod
    def for_image(
        cls, width: int, height: int, fov_deg: float = CANONICAL_FOV_DEG
    ) -> "CanonicalCamera":
        """Default prior: the given FoV on the longer image side, centered."""
        return cls(focal_from_fov(fov_deg, max(width, height)), width / 2.0, height / 2.0)

    def intrinsics(self, width: int, height: int) -> Intrinsics:
        """The canonical camera as pinhole intrinsics of a width x height image."""
        return Intrinsics(
            fx=self.f_c, fy=self.f_c, cx=self.u_c, cy=self.v_c, width=width, height=height
        )


def _require_same_shape(a: IncidenceField, b: IncidenceField) -> None:
    if a.rays.shape != b.rays.shape:
        raise ShapeMismatchError(
            f"field dimensions differ: {a.rays.shape[:2]} vs {b.rays.shape[:2]}"
        )


def z1_from_rays(rays: np.ndarray) -> IncidenceField:
    """Rescale arbitrary (e.g. unit-normalized) rays to z=1 form.

    Divides each ray by its third component; rays with a zero or negative
    z component do not correspond to pixels of a forward-facing pinhole
    camera and are rejected.
    """
    rays = np.asarray(rays, dtype=np.float64)
    if rays.ndim != 3 or rays.shape[2] != 3:
        raise ShapeMismatchError(f"rays must be (h, w, 3), got {rays.shape}")
    z = rays[..., 2]
    if not np.all(z > 0.0):
        raise ValueError("every ray must have a positive z component")
    out = rays / z[..., None]
    out[..., 2] = 1.0
    return IncidenceField(out)


def _ray_axes(k: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """The x component of each column's rays and the y component of each row's."""
    xs = (np.arange(k.width, dtype=np.float64) - k.cx) / k.fx
    ys = (np.arange(k.height, dtype=np.float64) - k.cy) / k.fy
    return xs, ys


def field_from_intrinsics(k: Intrinsics) -> IncidenceField:
    """The incidence field of a pinhole camera."""
    xs, ys = _ray_axes(k)
    rays = np.empty((k.height, k.width, 3))
    rays[..., 0] = xs[None, :]
    rays[..., 1] = ys[:, None]
    rays[..., 2] = 1.0
    return IncidenceField(rays)


def canonical_field(cano: CanonicalCamera, width: int, height: int) -> IncidenceField:
    """The incidence field of the canonical camera on a width x height grid."""
    return field_from_intrinsics(cano.intrinsics(width, height))


def compose_residual(res: IncidenceField, cano: IncidenceField) -> IncidenceField:
    """Per-pixel, per-component product on x and y; z stays 1."""
    _require_same_shape(res, cano)
    rays = np.empty_like(cano.rays)
    rays[..., 0] = res.x * cano.x
    rays[..., 1] = res.y * cano.y
    rays[..., 2] = 1.0
    return IncidenceField(rays)


SINGULARITY_EPS = 1e-6


def extract_residual(
    gt: IncidenceField, cano: IncidenceField
) -> tuple[IncidenceField, np.ndarray]:
    """Per-pixel quotient of gt by cano on x and y, with a singularity mask.

    Returns (residual, singular_mask). Each component is divided where the
    magnitude of its own canonical component exceeds ``SINGULARITY_EPS`` and
    set to exactly 1 where it does not (that component carries no
    information there); the mask flags pixels where either component was
    singular — the canonical principal row and column. When both fields
    share the canonical principal point, composing the residual back
    reproduces the target on the singular cross too, since the target
    components vanish exactly where the canonical ones do.
    """
    _require_same_shape(gt, cano)
    sing_x = np.abs(cano.x) <= SINGULARITY_EPS
    sing_y = np.abs(cano.y) <= SINGULARITY_EPS
    safe_x = np.where(sing_x, 1.0, cano.x)
    safe_y = np.where(sing_y, 1.0, cano.y)
    rays = np.empty_like(cano.rays)
    rays[..., 0] = np.where(sing_x, 1.0, gt.x / safe_x)
    rays[..., 1] = np.where(sing_y, 1.0, gt.y / safe_y)
    rays[..., 2] = 1.0
    return IncidenceField(rays), sing_x | sing_y


def fit_intrinsics_from_field(
    field: IncidenceField, mask: np.ndarray | None = None
) -> Intrinsics:
    """Recover intrinsics from a z=1 field by linear least squares.

    Fits u = fx * ray_x + cx over unmasked pixels (and likewise for v);
    both systems are linear in (focal, center). Requires ray components
    that actually vary: a field restricted to a single image column or row
    is rank-deficient.
    """
    h, w = field.height, field.width
    if mask is None:
        keep = np.ones(h * w, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (h, w):
            raise ShapeMismatchError(f"mask {mask.shape} does not match field {(h, w)}")
        keep = mask.ravel()
    if keep.sum() < 2:
        raise DegenerateFieldError("need at least 2 unmasked pixels")

    uu = np.broadcast_to(np.arange(w, dtype=np.float64), (h, w)).ravel()[keep]
    vv = np.broadcast_to(np.arange(h, dtype=np.float64)[:, None], (h, w)).ravel()[keep]

    def fit_axis(component: np.ndarray, target: np.ndarray, axis: str) -> tuple[float, float]:
        design = np.stack([component, np.ones_like(component)], axis=1)
        sol, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < 2:
            raise DegenerateFieldError(
                f"field is degenerate along {axis}: unmasked rays do not vary"
            )
        return float(sol[0]), float(sol[1])

    fx, cx = fit_axis(field.x.ravel()[keep], uu, "x")
    fy, cy = fit_axis(field.y.ravel()[keep], vv, "y")
    return Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h)


def unproject_with_field(field: IncidenceField, depth: DepthMap) -> PointCloud:
    """Point at each valid pixel = depth * ray; row-major over valid pixels.

    :func:`metricshape.camera.unproject_depth_map` is this function on the
    field of its intrinsics.
    """
    if (depth.height, depth.width) != (field.height, field.width):
        raise ShapeMismatchError(
            f"depth map {depth.width}x{depth.height} does not match "
            f"field {field.width}x{field.height}"
        )
    d = depth.values
    m = depth.valid
    x = field.x * d
    y = field.y * d
    return PointCloud(np.stack([x[m], y[m], d[m]], axis=1))
