"""Each output check accepts a right answer and rejects a deliberately wrong one.

Run with `python3 -m pytest perfbench` from the repository root.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import inputs
import oracle
import wl_calib
import wl_cli
import wl_refine
import worker
from common import Outcome, fastest_round
from oracle import CheckError

CAM = {"fx": 70.0, "fy": 72.0, "cx": 31.3, "cy": 24.6, "width": 64, "height": 48}
SCENE = inputs.cli_scene(3, 0)


def own_depth(cam=CAM, scene=SCENE) -> np.ndarray:
    h, w = cam["height"], cam["width"]
    vv, uu = np.mgrid[0:h, 0:w]
    return oracle.depth_at(scene, cam, uu.ravel(), vv.ravel()).reshape(h, w).astype(np.float32)


def own_records(depth: np.ndarray, cam=CAM) -> list[dict]:
    rng = np.random.default_rng(0)
    recs = []
    for _ in range(wl_cli.PAIRS):
        (v1, u1), (v2, u2) = rng.integers((0, 0), depth.shape, size=(2, 2))
        rec = {"u1": float(u1), "v1": float(v1), "u2": float(u2), "v2": float(v2)}
        for j, (u, v) in (("1", (u1, v1)), ("2", (u2, v2))):
            rec["d" + j] = float(oracle.depth_at(SCENE, cam, np.array([float(u)]), np.array([float(v)]))[0])
        rec["L"] = oracle.separation(cam, rec)
        recs.append(rec)
    return recs


def rejects(fn, *args) -> None:
    with pytest.raises(CheckError):
        fn(*args)


# ---------------------------------------------------------------------------
# cli_qvga

def test_synth_check():
    depth = own_depth()
    recs = own_records(depth)
    own = wl_cli.expected_depth(SCENE, CAM)
    wl_cli.check_synth(depth, recs, own, SCENE, CAM)
    off = depth.copy()
    off[10, 20] *= np.float32(1.00001)
    rejects(wl_cli.check_synth, off, recs, own, SCENE, CAM)
    hole = depth.copy()
    hole[5, 5] = np.nan
    rejects(wl_cli.check_synth, hole, recs, own, SCENE, CAM)
    bad_l = [dict(r) for r in recs]
    bad_l[3]["L"] *= 1.001
    rejects(wl_cli.check_synth, depth, bad_l, own, SCENE, CAM)
    bad_d = [dict(r) for r in recs]
    bad_d[0]["d2"] *= 1.001
    rejects(wl_cli.check_synth, depth, bad_d, own, SCENE, CAM)
    rejects(wl_cli.check_synth, depth, recs[:-1], own, SCENE, CAM)


def test_a_failing_command_fails_the_run_and_keeps_its_work(tmp_path):
    outcome = Outcome()
    rnd = wl_cli.Round(str(tmp_path), 3, 0)
    times = wl_cli.command_round(outcome, rnd, lambda argv: 3)
    assert (outcome.attempted, outcome.failed, dict(outcome.errors)) == (1, 1, {"exit 3": 1})
    assert outcome.check_failures == ["synth exited 3"]
    assert times[1:] == [None, None, None]
    # a command missing from a round is taken from the rounds in which it ran
    assert fastest_round([[1.0, 2.0], [0.5, None]]) == 2.5


def test_workload_modules_import_neither_the_package_nor_scipy():
    code = ("import sys, wl_calib, wl_cli, wl_refine, worker; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'metricshape')))")
    here = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run([sys.executable, "-c", code], cwd=here, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_calibrate_check():
    recs = own_records(own_depth())
    wl_cli.check_calibrate(dict(CAM), recs, CAM)
    rejects(wl_cli.check_calibrate, dict(CAM, cx=CAM["cx"] * 1.001), recs, CAM)
    # within the 1e-6 recovery tolerance, but a larger cost than the truth's
    rejects(wl_cli.check_calibrate, dict(CAM, fx=CAM["fx"] * (1 + 5e-7)), recs, CAM)


def test_ply_check():
    depth = own_depth()
    vertices = oracle.points(CAM, depth).astype(np.float32)
    wl_cli.check_ply(vertices, depth, CAM)
    nudged = vertices.copy()
    nudged[7, 0] = np.nextafter(nudged[7, 0], np.float32(np.inf))
    rejects(wl_cli.check_ply, nudged, depth, CAM)
    rejects(wl_cli.check_ply, vertices[:-1], depth, CAM)


def test_ply_reader_rejects_a_lying_header(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
                    "property float z\nend_header\n1 2 3\n4 5 6\n")
    rejects(oracle.read_ascii_ply, str(path))


def test_pfm_round_trip(tmp_path):
    depth = own_depth()
    oracle.write_pfm(str(tmp_path / "d.pfm"), depth)
    back = oracle.read_pfm(str(tmp_path / "d.pfm"))
    assert np.array_equal(np.isnan(back), np.isnan(depth))
    assert np.array_equal(back[np.isfinite(back)], depth[np.isfinite(depth)])


def test_eval_check():
    gt = own_depth()
    pred = (gt * np.exp(0.01 * np.random.default_rng(1).standard_normal(gt.shape))).astype(np.float32)
    pred_cam = dict(CAM, fx=CAM["fx"] * 1.01)
    own = wl_cli.expected_eval(pred, gt, pred_cam, CAM)
    doc = json.loads(json.dumps(own))
    wl_cli.check_eval(doc, own)
    for path, factor in ((("depth", "a_rel"), 1.0001), (("depth", "delta1"), 0.99), (("fov", "mean"), 1.01),
                         (("shape", "chamfer"), 1.000001)):
        wrong = json.loads(json.dumps(doc))
        wrong[path[0]][path[1]] *= factor
        rejects(wl_cli.check_eval, wrong, own)
    wrong = json.loads(json.dumps(doc))
    wrong["shape"]["f1"]["0.05"] -= 1e-6
    rejects(wl_cli.check_eval, wrong, own)


# ---------------------------------------------------------------------------
# calib_batch

def report(cam: dict, converged: bool = True):
    k = types.SimpleNamespace(**cam)
    return types.SimpleNamespace(intrinsics=k, converged=converged, iterations=3)


def test_minimal_check():
    other = dict(CAM, fx=90.0)
    wl_calib.check_minimal([report(other), report(CAM)], False, CAM)
    wl_calib.check_minimal("degenerate", True, CAM)
    rejects(wl_calib.check_minimal, [report(CAM)], True, CAM)
    rejects(wl_calib.check_minimal, "degenerate", False, CAM)
    rejects(wl_calib.check_minimal, [report(other)], False, CAM)
    rejects(wl_calib.check_minimal, [], False, CAM)


def test_coplanarity_decision():
    rng = np.random.default_rng(2)
    flat = np.c_[rng.uniform(-1, 1, (8, 2)), np.zeros(8)] @ np.linalg.qr(rng.standard_normal((3, 3)))[0]
    assert oracle.coplanar(flat + 3.0)
    assert not oracle.coplanar(rng.uniform(-1, 1, (8, 3)))


def test_overdetermined_and_huber_checks():
    wl_calib.check_overdetermined(report(CAM), CAM)
    rejects(wl_calib.check_overdetermined, report(CAM, converged=False), CAM)
    rejects(wl_calib.check_overdetermined, report(dict(CAM, cy=CAM["cy"] + 1e-3)), CAM)
    near = dict(CAM, fx=CAM["fx"] * 1.01)
    wl_calib.check_huber(report(near), CAM)
    rejects(wl_calib.check_huber, report(dict(CAM, fx=CAM["fx"] * 1.2)), CAM)


# ---------------------------------------------------------------------------
# refine workloads

def test_refine_check():
    truth = {"fx": 50.0, "fy": 40.0, "width": 64, "height": 48}
    start = {"fx": 60.0, "fy": 60.0}
    closer = [math.log(52.0), math.log(45.0), 0.0, 0.0]
    wl_refine.check_refine([3.0, 2.0, 2.0, 1.0], closer, start, truth)
    rejects(wl_refine.check_refine, [3.0, 2.0, 2.5, 1.0], closer, start, truth)
    rejects(wl_refine.check_refine, [3.0, 2.0], [math.log(70.0), math.log(70.0), 0, 0], start, truth)
    rejects(wl_refine.check_refine, [3.0, float("nan")], closer, start, truth)


# ---------------------------------------------------------------------------
# the metric list

def test_every_emitted_metric_is_declared():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert {f"{name}_ms" for name in worker.SPAN_LAYERS} <= per_layer
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "round_s", "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} == set(worker.WORKLOADS)
