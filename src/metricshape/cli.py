"""Command-line surface tying the library together.

Exit codes are part of the interface: 0 success, 1 input error (a package
error, an OSError, a MemoryError or a usage error), 2 degenerate
constraints, 3 solver did not converge. Any other exception is a bug and
shows its traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, astuple

from . import fileio
from .camera import DepthMap, Intrinsics
from .errors import (
    DegenerateConstraintsError, DocumentError, InfeasibleConstraintError, MetricShapeError,
)
from .incidence import (
    CANONICAL_FOV_DEG,
    CanonicalCamera,
    field_from_intrinsics,
    unproject_with_field,
)
from .losses import LossWeights
from .metrics import DEFAULT_F1_THRESHOLDS, depth_metrics, fov_error_stats, shape_metrics
from .refine import RefineConfig, RefineState, refine_joint
from .solver import canonical_params, solve_minimal, solve_overdetermined
from .synthetic import (
    MIN_DEPTH_RATIO, NoiseSpec, make_camera, perturb, render_depth, sample_constraints,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_NO_CONVERGENCE = 3


def _read_intrinsics_for(path: str, depth: DepthMap) -> Intrinsics:
    """Intrinsics from ``path``, checked against ``depth``'s size before any field is built."""
    k = fileio.read_intrinsics(path)
    if (k.width, k.height) != (depth.width, depth.height):
        raise DocumentError(
            f"{path}: intrinsics are {k.width}x{k.height}, "
            f"the depth map is {depth.width}x{depth.height}"
        )
    return k


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named options the command line set, as keyword arguments: an
    option left out takes the library's default."""
    return {name: getattr(args, name) for name in names if name in args}


def _cmd_calibrate(args: argparse.Namespace) -> int:
    depth = fileio.read_depth_pfm(args.depth)
    constraints = fileio.read_constraints(args.constraints, depth)
    if len(constraints) < 4:
        raise DocumentError(f"{args.constraints}: need at least 4 constraints, got {len(constraints)}")
    init = canonical_params(depth.width, depth.height, fov_deg=args.init_fov)
    try:
        if len(constraints) == 4 and not args.robust:
            report = solve_minimal(constraints, depth.width, depth.height, init=init)
        else:
            report = solve_overdetermined(
                constraints,
                depth.width,
                depth.height,
                init=init,
                loss="huber" if args.robust else "squared",
            )
    except InfeasibleConstraintError as exc:
        raise InfeasibleConstraintError(f"{args.constraints}: {exc}") from exc
    if args.out:
        fileio.write_intrinsics(args.out, report.intrinsics)
    doc = {
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "iterations": report.iterations,
        "final_residual_norm": report.final_residual_norm,
        "condition_warning": report.condition_warning,
        "intrinsics": asdict(report.intrinsics),
    }
    sys.stdout.write(fileio.write_json_document(None, doc))
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_unproject(args: argparse.Namespace) -> int:
    if (args.intrinsics is None) == (args.field is None):
        raise DocumentError("provide either an intrinsics file or --field, not both")
    depth = fileio.read_depth_pfm(args.depth)
    if args.intrinsics is not None:
        field = field_from_intrinsics(_read_intrinsics_for(args.intrinsics, depth))
    else:
        field = fileio.read_field_pfm(args.field)
    cloud = unproject_with_field(field, depth)
    fileio.write_ply(args.out, cloud, binary=args.binary)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    if (args.pred_intrinsics is None) != (args.gt_intrinsics is None):
        raise DocumentError("--pred-intrinsics and --gt-intrinsics must be given together")
    pred = fileio.read_depth_pfm(args.pred_depth)
    gt = fileio.read_depth_pfm(args.gt_depth)
    dm = depth_metrics(pred, gt, cap=args.cap)
    doc = {"depth": asdict(dm)}
    if args.pred_intrinsics is not None:
        kp = _read_intrinsics_for(args.pred_intrinsics, pred)
        kg = _read_intrinsics_for(args.gt_intrinsics, gt)
        fov = fov_error_stats([kp], [kg], **_given(args, "axis"))
        doc["fov"] = {"mean": fov.mean, "median": fov.median}
        cloud_pred = unproject_with_field(field_from_intrinsics(kp), pred)
        cloud_gt = unproject_with_field(field_from_intrinsics(kg), gt)
        shape = shape_metrics(cloud_pred, cloud_gt, thresholds=args.f1_thresholds)
        doc["shape"] = {
            "f1": {str(tau): score for tau, score in shape.f1.items()},
            "chamfer": shape.chamfer,
        }
    sys.stdout.write(fileio.write_json_document(args.out, doc))
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    scene = fileio.read_scene(args.scene)
    noise = NoiseSpec(distance_sigma_rel=args.noise, seed=args.seed)
    try:
        seed = int(args.camera)
    except ValueError:
        seed = None
    if seed is not None:
        k = make_camera(seed, args.width, args.height, **_given(args, "center_jitter"))
    else:
        k = fileio.read_intrinsics(args.camera)
    depth = render_depth(scene, k)
    constraints = None
    if args.constraints != 0:
        constraints = sample_constraints(
            depth, k, args.constraints, rng_seed=args.seed,
            min_depth_ratio=args.min_depth_ratio,
        )
        constraints, _ = perturb(constraints, depth, noise)

    fileio.write_depth_pfm(f"{args.out_prefix}_depth.pfm", depth)
    fileio.write_intrinsics(f"{args.out_prefix}_intrinsics.json", k)
    if constraints is not None:
        fileio.write_constraints(f"{args.out_prefix}_constraints.json", constraints)
    return EXIT_OK


def _cmd_refine(args: argparse.Namespace) -> int:
    init_depth = fileio.read_depth_pfm(args.depth)
    gt_depth = fileio.read_depth_pfm(args.gt_depth)
    gt_k = _read_intrinsics_for(args.gt_intrinsics, gt_depth)
    cano = CanonicalCamera.for_image(gt_depth.width, gt_depth.height, fov_deg=args.init_fov)
    state = RefineState.from_maps(init_depth, cano.intrinsics(gt_depth.width, gt_depth.height))
    cfg = RefineConfig(
        weights=LossWeights(*args.weights), depth_lr=args.lr_depth, theta_lr=args.lr_theta,
        max_steps=args.steps,
    )
    final, trace = refine_joint(state, gt_depth, field_from_intrinsics(gt_k), cano, cfg)

    fileio.write_depth_pfm(f"{args.out_prefix}_depth.pfm", final.to_depth_map(init_depth.valid))
    fileio.write_intrinsics(
        f"{args.out_prefix}_intrinsics.json",
        final.to_intrinsics(gt_depth.width, gt_depth.height),
    )
    fileio.write_trace(f"{args.out_prefix}_trace.json", trace)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error on the input-error exit code (argparse uses 2)."""

    def exit(self, status: int = 0, message: str | None = None):
        super().exit(EXIT_INPUT if status else EXIT_OK, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="metricshape",
        description="Metric 3D structure from single-view depth",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="recover intrinsics from depth + distance constraints")
    p.add_argument("depth", help="PFM depth map")
    p.add_argument("constraints", help="JSON constraint records")
    p.add_argument("--init-fov", type=float, default=CANONICAL_FOV_DEG,
                   help="initial FoV guess in degrees")
    p.add_argument("--robust", action="store_true", help="Huber-robustified residuals")
    p.add_argument("--out", help="write recovered intrinsics JSON here")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("unproject", help="depth map to PLY point cloud")
    p.add_argument("depth", help="PFM depth map")
    p.add_argument("intrinsics", nargs="?", help="intrinsics JSON")
    p.add_argument("--field", help="PFM incidence field instead of intrinsics")
    p.add_argument("--out", required=True, help="output PLY path")
    p.add_argument("--binary", action="store_true", help="binary little-endian PLY")
    p.set_defaults(func=_cmd_unproject)

    p = sub.add_parser("eval", help="depth/FoV/shape metrics between prediction and GT")
    p.add_argument("pred_depth", help="predicted PFM depth map")
    p.add_argument("gt_depth", help="ground-truth PFM depth map")
    p.add_argument("--pred-intrinsics", help="predicted intrinsics JSON")
    p.add_argument("--gt-intrinsics", help="ground-truth intrinsics JSON")
    p.add_argument("--cap", type=float, help="mask GT pixels deeper than this")
    p.add_argument("--fov-axis", dest="axis", choices=("x", "y", "both"),
                   default=argparse.SUPPRESS)
    p.add_argument(
        "--f1-thresholds", type=float, nargs="+", default=DEFAULT_F1_THRESHOLDS,
        help="F1 match radii in meters",
    )
    p.add_argument("--out", help="also write the metrics JSON here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="render an analytic scene to depth + constraints")
    p.add_argument("scene", help="scene JSON")
    p.add_argument("--camera", required=True, help="integer seed or intrinsics JSON path")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--center-jitter", type=float, default=argparse.SUPPRESS)
    p.add_argument("--constraints", type=int, default=4, help="number of pairs to sample")
    p.add_argument("--min-depth-ratio", type=float, default=MIN_DEPTH_RATIO)
    p.add_argument("--noise", type=float, default=NoiseSpec.distance_sigma_rel,
                   help="relative distance noise sigma")
    p.add_argument("--seed", type=int, default=0, help="sampling / noise seed")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("refine", help="jointly refine depth and intrinsics against GT")
    p.add_argument("depth", help="initial PFM depth map")
    p.add_argument("gt_depth", help="ground-truth PFM depth map")
    p.add_argument("gt_intrinsics", help="ground-truth intrinsics JSON")
    p.add_argument("--init-fov", type=float, default=CANONICAL_FOV_DEG)
    p.add_argument("--steps", type=int, default=RefineConfig.max_steps)
    p.add_argument(
        "--weights", type=float, nargs=4, default=astuple(LossWeights()),
        metavar=("ALPHA", "BETA", "GAMMA", "LAMBDA"),
    )
    p.add_argument("--lr-depth", type=float, default=RefineConfig.depth_lr)
    p.add_argument("--lr-theta", type=float, default=RefineConfig.theta_lr)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_refine)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateConstraintsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (MetricShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
