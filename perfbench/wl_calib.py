"""calib_batch: in-process calibration over many 640x480 cameras.

Set-up renders a bank of 24 cameras, `make_camera(i, 640, 480,
center_jitter=20)` for i < 24, on the acceptance tests' multi-primitive
scene, and samples from each: a 4-pair set (fixed, seed `i`), a 100-pair
exact set and a 100-pair set with 1 % log-normal distance noise and 10
outliers (both from `--seed`). A round solves all three kinds on every
camera, in an order drawn from the seed. Nothing in the timed loop renders,
samples, reads files or imports.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import inputs
import oracle
from common import fastest_round, peak_rss_mb, run_rounds
from oracle import require

BANK = 24
MANY = 100
OUTLIERS = 10
HUBER_FOV_BOUND = 2.0


# ---------------------------------------------------------------------------
# Checks

def check_minimal(roots, coplanar: bool, truth: dict) -> None:
    """Coplanar sets are reported degenerate; others have the truth among the roots."""
    if coplanar:
        require(roots == "degenerate", f"coplanar set returned {roots!r} instead of DegenerateConstraintsError")
        return
    require(roots != "degenerate", "non-coplanar set raised DegenerateConstraintsError")
    cams = [inputs.camera_dict(r.intrinsics) for r in roots]
    require(any(oracle.same_camera(c, truth, 1e-6) for c in cams), f"truth {truth} not among {cams}")


def check_overdetermined(report, truth: dict) -> None:
    require(report.converged, "exact 100-pair solve did not converge")
    got = inputs.camera_dict(report.intrinsics)
    require(oracle.same_camera(got, truth, 1e-6), f"exact 100-pair solve gave {got}, truth {truth}")


def check_huber(report, truth: dict) -> None:
    err = oracle.fov_error(inputs.camera_dict(report.intrinsics), truth)
    require(err < HUBER_FOV_BOUND, f"Huber solve FoV error {err:.3f} deg >= {HUBER_FOV_BOUND}")


# ---------------------------------------------------------------------------
# Workload

def _pair_points(cam: dict, constraints) -> np.ndarray:
    recs = [(c.u1, c.v1, c.d1) for c in constraints] + [(c.u2, c.v2, c.d2) for c in constraints]
    return np.array([((u - cam["cx"]) / cam["fx"] * d, (v - cam["cy"]) / cam["fy"] * d, d) for u, v, d in recs])


def setup(ctx) -> None:
    import metricshape.solver as solver
    from metricshape import NoiseSpec, make_camera, perturb, render_depth, sample_constraints
    from metricshape.errors import DegenerateConstraintsError

    tracer, seed = ctx.tracer, ctx.seed
    scene = inputs.scene_spec(inputs.RICH_SCENE)
    w, h = inputs.VGA
    cases = []
    for i in range(BANK):
        k = make_camera(i, w, h, center_jitter=20.0)
        with tracer.span("synthetic.render_depth"):
            depth = render_depth(scene, k)
        with tracer.span("synthetic.sample_constraints"):
            four = sample_constraints(depth, k, 4, rng_seed=i)
        with tracer.span("synthetic.sample_constraints"):
            many = sample_constraints(depth, k, MANY, rng_seed=seed * 1000 + i)
        noisy, _ = perturb(many, depth, NoiseSpec(distance_sigma_rel=0.01, seed=seed * 1000 + i))
        rng = inputs.rng_for(seed, i, 5)
        bad = set(rng.choice(MANY, OUTLIERS, replace=False).tolist())
        noisy = [replace(c, distance=c.distance * rng.uniform(1.5, 3.0)) if j in bad else c
                 for j, c in enumerate(noisy)]
        truth = inputs.camera_dict(k)
        cases.append((truth, four, oracle.coplanar(_pair_points(truth, four)), many, noisy))
    order = inputs.rng_for(seed, 6).permutation(BANK)
    ctx.state = ([cases[i] for i in order], solver, DegenerateConstraintsError)


def run(ctx) -> dict:
    cases, solver, degenerate_error = ctx.state
    tracer, outcome = ctx.tracer, ctx.outcome
    w, h = inputs.VGA
    stats = {"minimal": [0.0, 0, []], "overdet": [0.0, 0, []], "huber": [0.0, 0, []]}
    roots, degenerate = [], [0]

    def minimal(constraints):
        try:
            return solver.enumerate_solutions(constraints, w, h)
        except degenerate_error:
            return "degenerate"

    def one_round() -> list:
        total = []
        degenerate[0] = 0
        for truth, four, coplanar, many, noisy in cases:
            with tracer.span("solver.enumerate_solutions"):
                found, took, exc = outcome.attempt(minimal, four)
            total.append(took)
            _tally(stats["minimal"], took, exc)
            if exc is None:
                outcome.check(check_minimal, found, coplanar, truth)
                if found == "degenerate":
                    degenerate[0] += 1
                else:
                    roots.append(len(found))
                    stats["minimal"][2].extend(r.iterations for r in found)
            with tracer.span("solver.overdetermined"):
                report, took, exc = outcome.attempt(solver.solve_overdetermined, many, w, h)
            total.append(took)
            _tally(stats["overdet"], took, exc)
            if exc is None:
                outcome.check(check_overdetermined, report, truth)
                stats["overdet"][2].append(report.iterations)
            with tracer.span("solver.huber"):
                report, took, exc = outcome.attempt(solver.solve_overdetermined, noisy, w, h, loss="huber")
            total.append(took)
            _tally(stats["huber"], took, exc)
            if exc is None:
                outcome.check(check_huber, report, truth)
                stats["huber"][2].append(report.iterations)
        return total

    rounds = run_rounds(ctx.seconds, one_round)
    rates = {kind: s[1] / s[0] for kind, s in stats.items()}
    ctx.say("rounds %d; per second: %s" % (len(rounds), ", ".join(f"{k} {v:.1f}" for k, v in rates.items())))
    return {
        "round_s": fastest_round(rounds),
        "peak_rss_mb": peak_rss_mb(),
        "solver.roots_per_set": float(np.mean(roots)) if roots else 0.0,
        "solver.degenerate_sets": float(degenerate[0]),
        **{f"solver.lm_iterations_{k}": float(np.mean(s[2])) if s[2] else 0.0 for k, s in stats.items()},
    }


def _tally(stat: list, took: float, exc) -> None:
    stat[0] += took
    stat[1] += exc is None
