"""cli_qvga: rounds of synth -> calibrate -> unproject -> eval at 320x240.

Each command runs as a fresh interpreter, as a user runs it, so its wall
time includes interpreter start and `import metricshape`. The console
script is not installed from a source checkout and `python -m
metricshape.cli` does nothing, so commands start `metricshape.cli.entry`
through `python -c` with `src` on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np

import inputs
import oracle
from common import describe, fastest_each, fastest_round, median, now, peak_rss_mb, run_rounds
from oracle import require

LAUNCH = "from metricshape.cli import entry; entry()"
COMMANDS = ("synth", "calibrate", "unproject", "eval")
PAIRS = 12
F1_TAUS = (0.05, 0.1, 0.3, 0.5, 0.75)
PRED_NOISE = 0.01


# ---------------------------------------------------------------------------
# Checks (each raises oracle.CheckError)

def expected_depth(scene: dict, cam: dict) -> np.ndarray:
    h, w = cam["height"], cam["width"]
    vv, uu = np.mgrid[0:h, 0:w]
    return oracle.depth_at(scene, cam, uu.ravel(), vv.ravel()).reshape(h, w)


def check_synth(depth: np.ndarray, records: list, own: np.ndarray, scene: dict, cam: dict) -> None:
    """Depth equals the closed-form intersection `own`; pairs match their own separations."""
    h, w = depth.shape
    require(depth.shape == own.shape, f"depth map is {w}x{h}")
    got = depth.astype(np.float64)
    require(np.array_equal(np.isfinite(got), np.isfinite(own)), "depth validity differs from the closed form")
    ok = np.isfinite(own)
    err = np.abs(got[ok] - own[ok]) / own[ok]
    require(err.size == 0 or float(err.max()) <= 2.5e-7,
            f"depth differs from the closed form by {float(err.max()):.3g} relative")
    require(len(records) == PAIRS, f"{len(records)} constraint records, expected {PAIRS}")
    for i, rec in enumerate(records):
        for j in ("1", "2"):
            u, v = rec["u" + j], rec["v" + j]
            require(u == int(u) and v == int(v) and 0 <= u < w and 0 <= v < h, f"pair {i}: pixel ({u}, {v})")
            oracle.close(rec["d" + j], float(oracle.depth_at(scene, cam, np.array([u]), np.array([v]))[0]),
                         1e-9, f"pair {i} d{j}")
        oracle.close(rec["L"], oracle.separation(cam, rec), 1e-9, f"pair {i} L")


def check_calibrate(recovered: dict, records: list, cam: dict) -> None:
    """The truth recovered, and a cost no larger than the truth's.

    The pairs are exact, so the true camera's cost is zero up to rounding;
    1e-20 on the sum of squared relative residuals allows for that. A
    non-zero exit fails the run before this runs (`command_round`).
    """
    require(oracle.same_camera(recovered, cam, 1e-6), f"calibrate recovered {recovered}, truth {cam}")
    got, truth = oracle.constraint_cost(recovered, records), oracle.constraint_cost(cam, records)
    require(got <= truth + 1e-20, f"cost at the recovered camera {got:.3g} > at the truth {truth:.3g}")


def check_ply(vertices: np.ndarray, depth: np.ndarray, cam: dict) -> None:
    """One vertex per finite depth sample, each the float32 of the own unprojection."""
    own = oracle.points(cam, depth).astype(np.float32)
    require(vertices.shape == own.shape, f"PLY has {vertices.shape[0]} vertices, depth has {own.shape[0]} samples")
    bad = int(np.count_nonzero(vertices != own))
    require(bad == 0, f"{bad} PLY coordinates differ from the own unprojection")


def expected_eval(pred: np.ndarray, gt: np.ndarray, pred_cam: dict, gt_cam: dict) -> dict:
    """Depth metrics by the own formulas; Chamfer and F1 by a direct cKDTree search."""
    return {
        "depth": oracle.depth_metrics(pred, gt),
        "fov": {"mean": oracle.fov_error(pred_cam, gt_cam)},
        "shape": oracle.shape_metrics(oracle.points(pred_cam, pred), oracle.points(gt_cam, gt), F1_TAUS),
    }


def check_eval(doc: dict, own: dict) -> None:
    for key, value in own["depth"].items():
        oracle.close(doc["depth"][key], value, 1e-9, f"eval depth {key}", abs_tol=1e-12)
    oracle.close(doc["fov"]["mean"], own["fov"]["mean"], 1e-9, "eval fov mean", abs_tol=1e-9)
    shape = own["shape"]
    oracle.close(doc["shape"]["chamfer"], shape["chamfer"], 1e-9, "eval chamfer")
    require(set(doc["shape"]["f1"]) == set(shape["f1"]), f"eval F1 thresholds {sorted(doc['shape']['f1'])}")
    for tau, value in shape["f1"].items():
        oracle.close(doc["shape"]["f1"][tau], value, 0.0, f"eval F1@{tau}", abs_tol=1e-9)


# ---------------------------------------------------------------------------
# Workload

class Round:
    """File names and documents of one round."""

    def __init__(self, workdir: str, seed: int, index: int) -> None:
        self.scene = inputs.cli_scene(seed, index)
        self.cam = inputs.cli_camera(seed, index)
        self.seed = seed
        self.index = index
        p = os.path.join(workdir, f"r{index}")
        self.scene_path, self.cam_path, self.prefix = p + "_scene.json", p + "_camera.json", p
        self.depth_path, self.cons_path = p + "_depth.pfm", p + "_constraints.json"
        self.rec_path, self.ply_path = p + "_recovered.json", p + "_cloud.ply"
        self.pred_path, self.metrics_path = p + "_pred.pfm", p + "_metrics.json"
        self._expected = {}
        for path, doc in ((self.scene_path, self.scene), (self.cam_path, self.cam)):
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)

    def clear(self) -> None:
        """Remove the command outputs, so none is checked from an earlier round."""
        for path in (self.depth_path, self.cons_path, self.rec_path, self.ply_path, self.pred_path,
                     self.metrics_path):
            if os.path.exists(path):
                os.remove(path)

    def argv(self, command: str) -> list[str]:
        return {
            "synth": ["synth", self.scene_path, "--camera", self.cam_path,
                      "--width", str(self.cam["width"]), "--height", str(self.cam["height"]),
                      "--constraints", str(PAIRS), "--seed", str(self.seed * 1000 + self.index),
                      "--out-prefix", self.prefix],
            "calibrate": ["calibrate", self.depth_path, self.cons_path, "--out", self.rec_path],
            "unproject": ["unproject", self.depth_path, self.rec_path, "--out", self.ply_path],
            "eval": ["eval", self.pred_path, self.depth_path, "--pred-intrinsics", self.rec_path,
                     "--gt-intrinsics", self.cam_path, "--out", self.metrics_path],
        }[command]

    def write_prediction(self) -> None:
        """A predicted depth map: the rendered one with 1 % log-normal noise."""
        gt = oracle.read_pfm(self.depth_path).astype(np.float64)
        rng = inputs.rng_for(self.seed, self.index, 4)
        oracle.write_pfm(self.pred_path, gt * np.exp(PRED_NOISE * rng.standard_normal(gt.shape)))

    def expected(self, *key):
        """The benchmark's own answer for these inputs, computed once per distinct inputs.

        Every round of a run feeds the same inputs, so the costly oracle
        work (the closed-form render, the full-cloud NN search) is done on
        the first round and each later round is checked against it.
        """
        kind, args = key[0], key[1:]
        h = hashlib.sha256(kind.encode())
        for a in args:
            h.update(a.tobytes() if isinstance(a, np.ndarray) else repr(a).encode())
        if h.digest() not in self._expected:
            make = expected_depth if kind == "depth" else expected_eval
            self._expected[h.digest()] = make(*args)
        return self._expected[h.digest()]

    def check(self, outcome, command: str) -> None:
        if command == "synth":
            outcome.check(check_synth, oracle.read_pfm(self.depth_path), load(self.cons_path),
                          self.expected("depth", self.scene, self.cam), self.scene, self.cam)
        elif command == "calibrate":
            outcome.check(check_calibrate, load(self.rec_path), load(self.cons_path), self.cam)
        elif command == "unproject":
            outcome.check(check_ply, oracle.read_ascii_ply(self.ply_path), oracle.read_pfm(self.depth_path),
                          load(self.rec_path))
        else:
            own = self.expected("eval", oracle.read_pfm(self.pred_path), oracle.read_pfm(self.depth_path),
                                load(self.rec_path), self.cam)
            outcome.check(check_eval, load(self.metrics_path), own)


def load(path: str):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def fresh_process(argv: list[str]) -> int:
    """One CLI command in a fresh interpreter, as a user runs it; its exit code."""
    proc = subprocess.run([sys.executable, "-c", LAUNCH, *argv], capture_output=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    return proc.returncode


def in_process(tracer):
    """A runner calling `cli.main` in this process, one span per command."""
    import metricshape.cli as cli

    def run(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()), tracer.span(f"cli.{argv[0]}"):
            return cli.main(argv)

    return run


def command_round(outcome, rnd: Round, runner) -> list[float | None]:
    """The four commands on one round's inputs through `runner`; their wall times.

    A command that raises or exits non-zero is a failed operation, and it
    also fails the run's checks, since every command must exit 0. The
    commands after it need its output, so they do not run that round and
    their times read None.
    """
    rnd.clear()
    times: list[float | None] = [None] * len(COMMANDS)
    for i, command in enumerate(COMMANDS):
        if command == "eval":
            rnd.write_prediction()
        code, times[i], exc = outcome.attempt(runner, rnd.argv(command))
        if exc is None and code != 0:
            outcome.fail(f"exit {code}")
        if exc is not None or code != 0:
            outcome.reject(f"{command} " + (f"raised {describe(exc)}" if exc is not None else f"exited {code}"))
            break
        rnd.check(outcome, command)
    return times


def setup(ctx) -> None:
    """Write round 0's documents and run `synth` once in a fresh process.

    So `setup_s` covers what a user waits for before the first output:
    interpreter start, `import metricshape` and one render and write.
    """
    rnd = Round(ctx.workdir, ctx.seed, 0)
    code = fresh_process(rnd.argv("synth"))
    if code != 0:
        raise RuntimeError(f"synth exited {code} in set-up")
    ctx.state = rnd


def run(ctx) -> dict:
    """Every round runs the same inputs, so each command has repeats to take the fastest of."""
    rounds = run_rounds(ctx.seconds, lambda: command_round(ctx.outcome, ctx.state, fresh_process))
    ctx.say("fastest wall s of %d rounds: %s" % (
        len(rounds), ", ".join(f"{c} {t:.3f}" for c, t in zip(COMMANDS, fastest_each(rounds)))))
    return {"round_s": fastest_round(rounds), "peak_rss_mb": peak_rss_mb(children=True)}


# ---------------------------------------------------------------------------
# Traced run

def install(tracer) -> None:
    import metricshape.cli as cli
    import metricshape.fileio as fileio

    for attr in ("write_ply", "write_depth_pfm", "read_depth_pfm"):
        tracer.wrap(fileio, attr, f"fileio.{attr}")
    for attr, layer in (("render_depth", "synthetic"), ("sample_constraints", "synthetic"),
                        ("unproject_with_field", "incidence"), ("field_from_intrinsics", "incidence"),
                        ("shape_metrics", "metrics"), ("depth_metrics", "metrics")):
        tracer.wrap(cli, attr, f"{layer}.{attr}")


def run_traced(ctx) -> dict:
    """Import probes, one round of fresh-process commands, one traced in-process round."""
    imports = []
    for _ in range(3):
        t0 = now()
        subprocess.run([sys.executable, "-c", "import metricshape"], check=True, timeout=120)
        imports.append(now() - t0)
    fresh = command_round(ctx.outcome, ctx.state, fresh_process)
    rnd = Round(ctx.workdir, ctx.seed, 1)
    inside = command_round(ctx.outcome, rnd, in_process(ctx.tracer))
    ply_bytes = os.path.getsize(rnd.ply_path) if os.path.exists(rnd.ply_path) else 0
    layers = {"cli.import_s": median(imports), "trace.round_s": fastest_round([fresh]),
              "fileio.ply_bytes": float(ply_bytes)}
    for command, wall, call in zip(COMMANDS, fastest_each([fresh]), fastest_each([inside])):
        layers[f"cli.{command}_s"] = wall
        layers[f"cli.{command}_ms"] = 1000.0 * call
    return layers
