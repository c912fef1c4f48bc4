"""Every error the package raises on purpose is a MetricShapeError, a ValueError,
so callers can catch one thing. The CLI maps DegenerateConstraintsError to exit 2,
any other MetricShapeError, an OSError or a usage error to exit 1, and lets any
other exception, which is a bug, propagate with its traceback.
"""


class MetricShapeError(ValueError):
    """Base of every error the package raises on purpose."""


class ShapeMismatchError(MetricShapeError):
    """Grid / cloud / list dimensions do not agree."""


class InvalidDepthError(MetricShapeError):
    """A depth value is non-positive or non-finite, or a point coordinate non-finite."""


class InvalidIntrinsicsError(MetricShapeError):
    """Intrinsic parameters, a FoV or an image size violate their invariants."""


class DegenerateFieldError(MetricShapeError):
    """An incidence field is not finite z=1 rays, or does not determine intrinsics."""


class DegenerateConstraintsError(MetricShapeError):
    """Distance constraints leave some intrinsic parameters unobservable."""


class InfeasibleConstraintError(MetricShapeError):
    """A distance constraint is out of float64 range or no camera realizes it."""


class EmptyOverlapError(MetricShapeError):
    """No jointly valid pixels between two depth maps."""


class EmptyCloudError(MetricShapeError):
    """A point cloud operation received an empty cloud."""


class DegenerateSceneError(MetricShapeError):
    """A scene primitive is malformed, or the camera sits inside one."""


class SamplingFailureError(MetricShapeError):
    """Constraint sampling could not satisfy its requirements."""


class InvalidInitializationError(MetricShapeError):
    """Refinement started from a non-finite state or loss."""


class InvalidSettingError(MetricShapeError):
    """A setting or argument lies outside its domain: a seed, count, rate or choice."""


class DocumentError(MetricShapeError):
    """A structured text document is malformed (names the offending part)."""
