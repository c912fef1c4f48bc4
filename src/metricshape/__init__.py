"""Metric 3D structure from single-view depth.

A library + CLI for converting between camera intrinsics and incidence
fields, recovering 4-DoF intrinsics from a depth map plus reference
distances, unprojecting depth to point clouds, and scoring depth /
calibration / shape quality — with a synthetic analytic-scene oracle and a
joint depth-intrinsics refinement loop.
"""

from .camera import (
    DepthMap,
    Intrinsics,
    PointCloud,
    focal_from_fov,
    fov_from_focal,
    project_point,
    unproject_depth_map,
    unproject_pixel,
)
from .incidence import (
    CanonicalCamera,
    IncidenceField,
    canonical_field,
    compose_residual,
    extract_residual,
    field_from_intrinsics,
    fit_intrinsics_from_field,
    unproject_with_field,
)
from .losses import (
    LossValue,
    LossWeights,
    chamfer_distance,
    cosine_incidence_loss,
    silog_loss,
    total_loss,
)
from .metrics import (
    DepthMetrics,
    FovErrorStats,
    ShapeMetrics,
    depth_metrics,
    f1_at_threshold,
    fov_error_stats,
    shape_metrics,
)
from .refine import RefineConfig, RefineState, refine_joint, refine_report
from .solver import (
    DistanceConstraint,
    SolveReport,
    SolverParams,
    canonical_params,
    coefficients_from_constraint,
    constraint_gradient,
    constraint_residual,
    solve_minimal,
    solve_overdetermined,
)
from .synthetic import (
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

__version__ = "0.1.0"
