"""refine_small and refine_grid: in-process `refine_joint` on both sides of the NN cut-off.

refine_small (16x12, 192 points, below `BRUTE_FORCE_LIMIT = 500`, so the
nearest-neighbour search is all-pairs) runs acceptance criterion 8's set-up:
true FoV 65 degrees, canonical starts at 45/60/75/90 degrees, on criterion
8's first scene shifted by the seed, for a fixed 20-step budget.

refine_grid (64x48, ~3,000 points, k-d tree) runs `make_camera(c, 64, 48)`
with `RefineConfig()` rates and a canonical 60-degree start. Cameras 1, 5, 7
and 8 on the acceptance tests' multi-primitive scene are kept unchanged in
every round: a line-search trial overflows and the objective raises before
`refine_joint` can reject the step, so these four operations fail every
time until that is fixed. The other eight cameras run on criterion-8-style
scenes shifted by the seed.
"""

from __future__ import annotations

import math

import inputs
import oracle
from common import fastest_round, peak_rss_mb, run_rounds
from oracle import require

SMALL_SCENES = 1
SMALL_STARTS = (45.0, 60.0, 75.0, 90.0)
SMALL_STEPS = 20
GRID_FAILING = (1, 5, 7, 8)
GRID_PASSING = (0, 2, 3, 4, 6, 9, 10, 11)
GRID_STEPS = 4


def check_refine(trace: list, theta, init_cam: dict, truth: dict) -> None:
    """Loss never increases, and the FoV error ends below where it started."""
    require(len(trace) >= 1 and all(math.isfinite(x) for x in trace), f"trace {trace[:5]}...")
    rises = [i for i in range(1, len(trace)) if trace[i] > trace[i - 1]]
    require(not rises, f"loss rose at step {rises[:3]}")
    final = {"fx": math.exp(theta[0]), "fy": math.exp(theta[1])}
    before, after = oracle.fov_error(init_cam, truth), oracle.fov_error(final, truth)
    require(after < before, f"FoV error {after:.4f} deg after refining, {before:.4f} before")


def _case(scene_doc: dict, k, start_fov: float):
    from metricshape import CanonicalCamera, Intrinsics, RefineState, field_from_intrinsics, render_depth

    depth = render_depth(inputs.scene_spec(scene_doc), k)
    cano = CanonicalCamera.for_image(k.width, k.height, fov_deg=start_fov)
    k0 = Intrinsics(fx=cano.f_c, fy=cano.f_c, cx=cano.u_c, cy=cano.v_c, width=k.width, height=k.height)
    return (RefineState.from_maps(depth, k0), depth, field_from_intrinsics(k), cano,
            inputs.camera_dict(k0), inputs.camera_dict(k))


def setup_small(ctx) -> None:
    from metricshape import Intrinsics, RefineConfig

    w, h = inputs.SMALL
    fx, fy = inputs.focal_for_fov(65.0, w), inputs.focal_for_fov(65.0, h)
    k = Intrinsics(fx=fx, fy=fy, cx=w / 2, cy=h / 2, width=w, height=h)
    cfg = RefineConfig(max_steps=SMALL_STEPS, tol=0.0)
    ctx.state = [
        _case(inputs.jittered(inputs.base_demo_scene(i), ctx.seed, i), k, fov) + (cfg,)
        for i in range(SMALL_SCENES) for fov in SMALL_STARTS
    ]


def setup_grid(ctx) -> None:
    from metricshape import RefineConfig, make_camera

    w, h = inputs.GRID
    cfg = RefineConfig(max_steps=GRID_STEPS)
    cases = [_case(inputs.RICH_SCENE, make_camera(c, w, h), 60.0) + (cfg,) for c in GRID_FAILING]
    cases += [_case(inputs.jittered(inputs.base_demo_scene(c), ctx.seed, c), make_camera(c, w, h), 60.0) + (cfg,)
              for c in GRID_PASSING]
    ctx.state = cases


def install(tracer) -> None:
    import metricshape.losses as losses
    import metricshape.refine as refine

    tracer.wrap(refine, "total_loss", "losses.total_loss")
    tracer.wrap(losses, "chamfer_distance", "losses.chamfer_distance")
    tracer.wrap(refine, "extract_residual", "incidence.extract_residual")
    tracer.wrap(refine, "field_from_intrinsics", "incidence.field_from_intrinsics")


def run(ctx) -> dict:
    import metricshape.refine as refine

    tracer, outcome = ctx.tracer, ctx.outcome
    totals = {"time": 0.0, "steps": 0, "evals": 0}

    def one_round() -> list:
        took_round = []
        for state, depth, field, cano, init_cam, truth, cfg in ctx.state:
            evals_before = tracer.calls["losses.total_loss"] if ctx.trace else 0
            with tracer.span("refine.refine_joint"):
                result, took, exc = outcome.attempt(refine.refine_joint, state, depth, field, cano, cfg)
            took_round.append(took)
            totals["time"] += took
            if exc is None:
                final, trace = result
                totals["steps"] += len(trace) - 1
                if ctx.trace:
                    totals["evals"] += tracer.calls["losses.total_loss"] - evals_before
                outcome.check(check_refine, trace, final.theta, init_cam, truth)
        return took_round

    rounds = run_rounds(ctx.seconds, one_round)
    steps_per_s = totals["steps"] / totals["time"]
    ctx.say(f"rounds {len(rounds)}; accepted steps per second {steps_per_s:.2f}")
    out = {"round_s": fastest_round(rounds), "peak_rss_mb": peak_rss_mb(), "refine.steps_per_s": steps_per_s}
    if ctx.trace:
        evals = tracer.calls["losses.total_loss"]
        joint = sum(tracer.durations("refine.refine_joint"))
        out["refine.evals_per_step"] = totals["evals"] / totals["steps"] if totals["steps"] else 0.0
        out["refine.self_ms_per_eval"] = 1000.0 * (joint - tracer.child_time("refine.refine_joint")) / evals
        out["losses.chamfer_calls"] = tracer.calls["losses.chamfer_distance"] / evals
    return out
