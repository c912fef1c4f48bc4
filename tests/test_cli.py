"""End-to-end command-line tests exercising files and exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import metricshape
from conftest import RICH_SCENE
from metricshape import errors, fileio
from metricshape.camera import DepthMap, Intrinsics
from metricshape.cli import main
from metricshape.metrics import depth_metrics
from metricshape.synthetic import (
    NoiseSpec, Plane, SceneSpec, Sphere, make_camera, perturb, render_depth, sample_constraints,
)

RICH_SCENE_JSON = {
    "primitives": [
        {"type": "plane", "point": [0.0, 0.0, 4.0], "normal": [0.3, 0.55, -1.0]},
        {"type": "sphere", "center": [0.5, -0.3, 2.8], "radius": 0.75},
        {"type": "box", "min": [-0.3, -1.2, 1.8], "max": [0.8, -0.5, 2.6]},
    ]
}


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(RICH_SCENE_JSON))
    return str(path)


@pytest.fixture
def rich_scene_file(tmp_path):
    """conftest.RICH_SCENE as a scene document: RICH_SCENE_JSON and a second sphere."""
    primitives = RICH_SCENE_JSON["primitives"]
    sphere = {"type": "sphere", "center": [-0.8, 0.5, 3.6], "radius": 0.6}
    path = tmp_path / "rich.json"
    path.write_text(json.dumps({"primitives": primitives[:2] + [sphere] + primitives[2:]}))
    assert fileio.read_scene(str(path)) == RICH_SCENE
    return str(path)


def synth(scene_file, tmp_path, prefix="demo", **over):
    args = [
        "synth", scene_file, "--camera", "7", "--width", "160", "--height", "120",
        "--constraints", "6", "--seed", "1", "--out-prefix", str(tmp_path / prefix),
    ]
    for key, value in over.items():
        args += [f"--{key}", str(value)]
    assert main(args) == 0
    return (
        str(tmp_path / f"{prefix}_depth.pfm"),
        str(tmp_path / f"{prefix}_intrinsics.json"),
        str(tmp_path / f"{prefix}_constraints.json"),
    )


def package_env():
    """The environment for a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(metricshape.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestSynth:
    def test_outputs_exist_and_are_deterministic(self, scene_file, tmp_path):
        a = synth(scene_file, tmp_path, "a")
        b = synth(scene_file, tmp_path, "b")
        for pa, pb in zip(a, b):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_distance_noise_changes_constraints_only(self, scene_file, tmp_path):
        clean = synth(scene_file, tmp_path, "clean")
        noisy = synth(scene_file, tmp_path, "noisy", noise=0.01)
        zero = synth(scene_file, tmp_path, "zero", noise=0.0)
        assert open(clean[0], "rb").read() == open(noisy[0], "rb").read()
        assert open(clean[2], "rb").read() != open(noisy[2], "rb").read()
        assert open(clean[2], "rb").read() == open(zero[2], "rb").read()

    def test_camera_can_come_from_file(self, scene_file, tmp_path):
        kpath = tmp_path / "cam.json"
        fileio.write_intrinsics(
            str(kpath), Intrinsics(fx=150.0, fy=140.0, cx=80.0, cy=60.0, width=160, height=120)
        )
        code = main([
            "synth", scene_file, "--camera", str(kpath), "--width", "160", "--height", "120",
            "--constraints", "0", "--out-prefix", str(tmp_path / "filecam"),
        ])
        assert code == 0
        assert fileio.read_intrinsics(str(tmp_path / "filecam_intrinsics.json")).fx == 150.0

    @pytest.mark.parametrize("flag, value, named", [
        ("noise", "nan", "distance_sigma_rel"), ("noise", "-0.5", "distance_sigma_rel"),
        ("noise", "inf", "distance_sigma_rel"),
        ("center-jitter", "nan", "center_jitter"), ("center-jitter", "-1", "center_jitter"),
        ("center-jitter", "1.7976931348623157e308", "center_jitter"),
        # numpy's own messages named neither option, and --constraints -3 exited 0
        ("seed", "-1", "seed"), ("camera", "-3", "camera"),
        ("width", "10000000000000000000", "width"), ("constraints", "-3", "constraints"),
    ])
    def test_bad_setting_exits_one_before_writing(
        self, scene_file, tmp_path, capsys, flag, value, named
    ):
        code = main(["synth", scene_file, "--camera", "7", "--width", "32", "--height", "24",
                     f"--{flag}", value, "--out-prefix", str(tmp_path / "bad")])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not list(tmp_path.glob("bad_*"))

    @pytest.mark.parametrize("noise", ["1109", "1e300"])
    def test_noise_that_overflows_exits_one_without_warning(
        self, scene_file, tmp_path, capsys, noise
    ):
        """numpy warned of overflow in exp(sigma * g) for such a sigma."""
        code = main(["synth", scene_file, "--camera", "7", "--width", "32", "--height", "24",
                     "--noise", noise, "--out-prefix", str(tmp_path / "bad")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.glob("bad_*"))

    def test_size_too_large_for_memory_exits_one(self, scene_file, tmp_path, capsys):
        """Below camera.MAX_PIXELS, but the first allocation fails: numpy's
        MemoryError ended in a traceback."""
        code = main(["synth", scene_file, "--camera", "1", "--width", "2",
                     "--height", str(10**17), "--constraints", "0",
                     "--out-prefix", str(tmp_path / "big")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("big_*"))

    def test_nan_depth_ratio_exits_one(self, scene_file, tmp_path):
        code = main(["synth", scene_file, "--camera", "7", "--width", "32", "--height", "24",
                     "--min-depth-ratio", "nan", "--out-prefix", str(tmp_path / "x")])
        assert code == 1

    def test_degenerate_scene_is_input_error(self, tmp_path):
        path = tmp_path / "inside.json"
        path.write_text(json.dumps({
            "primitives": [{"type": "sphere", "center": [0, 0, 0.1], "radius": 2.0}]
        }))
        assert main(["synth", str(path), "--camera", "0",
                     "--out-prefix", str(tmp_path / "x")]) == 1


class TestCalibrate:
    def test_recovers_generator_camera(self, scene_file, tmp_path, capsys):
        depth, intr, cons = synth(scene_file, tmp_path)
        out = tmp_path / "recovered.json"
        code = main(["calibrate", depth, cons, "--out", str(out)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        truth = fileio.read_intrinsics(intr)
        got = fileio.read_intrinsics(str(out))
        assert got.fx == pytest.approx(truth.fx, rel=1e-6)
        assert got.fy == pytest.approx(truth.fy, rel=1e-6)
        assert got.cx == pytest.approx(truth.cx, rel=1e-6)
        assert got.cy == pytest.approx(truth.cy, rel=1e-6)

    def test_noisy_pairs_exit_zero(self, scene_file, tmp_path, capsys):
        """Twelve pairs with 1 % distance noise: the solve stalls at a
        stationary point with a non-zero residual, which is convergence."""
        depth, _, cons = synth(scene_file, tmp_path, camera=0, constraints=12, seed=2, noise=0.01)
        assert main(["calibrate", depth, cons]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["final_residual_norm"] > 1e-6
        assert report["stop_reason"] == "tol_grad"

    @pytest.mark.parametrize("robust", [False, True], ids=["squared", "huber"])
    @pytest.mark.parametrize("pairs", [4, 6])
    def test_equal_depth_constraints_exit_degenerate(self, tmp_path, pairs, robust):
        """Four pairs take the monomial path, with or without --robust; more take LM."""
        k = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
        depth = render_depth(SceneSpec((Plane(point=(0, 0, 2.0), normal=(0, 0, -1.0)),)), k)
        dpath = tmp_path / "flat.pfm"
        fileio.write_depth_pfm(str(dpath), depth)
        records = []
        rng = np.random.default_rng(0)
        from metricshape.camera import unproject_pixel

        for _ in range(pairs):
            u1, v1, u2, v2 = (int(x) for x in rng.integers(0, 48, 4))
            if (u1, v1) == (u2, v2):
                u2 += 1
            p1 = unproject_pixel(k, u1, v1, 2.0)
            p2 = unproject_pixel(k, u2, v2, 2.0)
            records.append({"u1": u1, "v1": v1, "u2": u2, "v2": v2, "L": math.dist(p1, p2)})
        cpath = tmp_path / "flat.json"
        cpath.write_text(json.dumps(records))
        assert main(["calibrate", str(dpath), str(cpath)] + ["--robust"] * robust) == 2

    def test_robust_four_pairs_take_the_minimal_solve(self, tmp_path, capsys):
        """Camera 9's four pairs with 1 % distance noise have no admissible
        root. With --robust they went to the Huber LM, which cycled until
        max_iter and exited 3; now --robust changes nothing at four pairs."""
        k = make_camera(9, 160, 120)
        depth = render_depth(RICH_SCENE, k)
        cons = perturb(sample_constraints(depth, k, 4, rng_seed=0), depth,
                       NoiseSpec(distance_sigma_rel=0.01, seed=0))[0]
        dpath, cpath = str(tmp_path / "d.pfm"), str(tmp_path / "c.json")
        fileio.write_depth_pfm(dpath, depth)
        fileio.write_constraints(cpath, cons)
        runs = []
        for robust in (False, True):
            code = main(["calibrate", dpath, cpath] + ["--robust"] * robust)
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert runs[1][0] == 0 and json.loads(runs[1][1])["stop_reason"] != "max_iter"

    @pytest.mark.parametrize("pairs, edit, robust", [
        (4, "huge-distances", False), (6, "tiny-equal-depth-pair", False),
        (6, "tiny-equal-depth-pair", True),
    ], ids=["huge-distances-4", "tiny-equal-depth-pair-6", "tiny-equal-depth-pair-6-robust"])
    def test_solve_leaving_float64_exits_one_naming_the_file(
        self, scene_file, tmp_path, capsys, pairs, edit, robust
    ):
        """Sound records whose solve leaves float64: every L at 1e150 warned
        in the cubic, then ended in a LinAlgError traceback; one pair with
        d1 = d2 and L = 1e-100 warned of overflow, then exited 2 as if every
        pair had equal depths."""
        depth, _, cons = synth(scene_file, tmp_path, camera=3, width=64, height=48, seed=0)
        records = json.loads(open(cons).read())[:pairs]
        if edit == "huge-distances":
            for record in records:
                record["L"] = 1e150
        else:
            records[0].update(d2=records[0]["d1"], L=1e-100)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(records))
        assert main(["calibrate", depth, str(bad)] + ["--robust"] * robust) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "float64" in err
        assert err.count("\n") == 1

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["calibrate", str(tmp_path / "no.pfm"), str(tmp_path / "no.json")]) == 1

    def test_malformed_record_names_index(self, scene_file, tmp_path, capsys):
        depth, _, _ = synth(scene_file, tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([
            {"u1": 0, "v1": 0, "u2": 5, "v2": 5, "d1": 1.0, "d2": 2.0, "L": 3.0},
            {"u1": 0, "v1": 0, "u2": 5, "v2": 5, "d1": 1.0, "d2": 2.0, "L": 3.0},
            {"u1": 1, "v1": 1, "u2": 6, "v2": 6, "d1": 1.0, "d2": 2.0, "unknown": 1, "L": 3.0},
            {"u1": 2, "v1": 2, "u2": 7, "v2": 7, "d1": 1.0, "d2": 2.0, "L": 3.0},
        ]))
        assert main(["calibrate", depth, str(bad)]) == 1
        assert "record 2" in capsys.readouterr().err

    def test_non_finite_pixel_is_input_error(self, scene_file, tmp_path):
        """A pixel coordinate of 1e400 (inf once parsed) whose depth must be
        read from the map ends in exit 1 with a message, not a traceback."""
        depth, _, cons = synth(scene_file, tmp_path, width=64, height=48)
        records = json.loads(open(cons).read())
        records[0]["u1"] = "HUGE"
        del records[0]["d1"]
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(records).replace('"HUGE"', "1e400"))
        done = subprocess.run(
            [sys.executable, "-m", "metricshape", "calibrate", depth, str(bad)],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert "error:" in done.stderr and "record 0" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "pairs, edit",
        [
            (6, {"u1": math.nan}),
            (6, {"u1": math.inf}),
            (4, {"u1": 1e308, "u2": -1e308}),
            (6, {"u1": 1e308, "u2": -1e308}),
            (4, {"u1": 1e200}),
            (4, {"u1": 1e300}),
            (6, {"u1": 1e300}),
        ],
        ids=[
            "nan", "inf", "overflow-4-pairs", "overflow-6-pairs",
            "square-overflow-4-pairs-1e200", "square-overflow-4-pairs-1e300",
            "square-overflow-6-pairs-1e300",
        ],
    )
    def test_bad_pixel_with_given_depths_is_input_error(self, scene_file, tmp_path, pairs, edit):
        """Pixel coordinates that are not finite, or whose coefficient
        a1 = d1*u1 - d2*u2 or its square a1*a1 overflows, are rejected when
        the record is read (exit 1 naming the record), not by the solver."""
        depth, _, cons = synth(scene_file, tmp_path, width=64, height=48)
        records = json.loads(open(cons).read())[:pairs]
        records[0].update(edit)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(records))  # NaN and inf as the NaN / Infinity literals
        done = subprocess.run(
            [sys.executable, "-m", "metricshape", "calibrate", depth, str(bad)],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        assert "error:" in done.stderr and "record 0" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("pairs", [4, 6])
    @pytest.mark.parametrize("u1", [1e16, 1e100, 1e153])
    def test_pixel_outside_depth_map_is_input_error(self, scene_file, tmp_path, pairs, u1):
        """A pixel outside the depth map measures nothing in it, even when the
        record gives its depths: exit 1 naming the record, before the solver
        can file the pair as degenerate or overflow on its squares."""
        depth, _, cons = synth(scene_file, tmp_path, width=64, height=48)
        records = json.loads(open(cons).read())[:pairs]
        records[0]["u1"] = u1
        bad = tmp_path / "outside.json"
        bad.write_text(json.dumps(records))
        done = subprocess.run(
            [sys.executable, "-m", "metricshape", "calibrate", depth, str(bad)],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        assert "error:" in done.stderr and "record 0" in done.stderr
        assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr

    @pytest.mark.parametrize("pairs", [4, 6])
    @pytest.mark.parametrize("distance", [1e-300, 1e-154])
    def test_overflowing_row_weight_is_input_error(self, scene_file, tmp_path, pairs, distance):
        """Equal depths admit any distance; at L = 1e-300 the row weight 1/L^2
        overflows, at L = 1e-154 the weighted a1*a1 does. Either is exit 1
        naming the record, not numpy's "SVD did not converge"."""
        depth, _, cons = synth(scene_file, tmp_path, width=64, height=48)
        records = json.loads(open(cons).read())[:pairs]
        records[0].update(d1=2.0, d2=2.0, L=distance)
        bad = tmp_path / "tiny.json"
        bad.write_text(json.dumps(records))
        done = subprocess.run(
            [sys.executable, "-m", "metricshape", "calibrate", depth, str(bad)],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        assert f"error: {bad}: record 0: " in done.stderr
        assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr

    def test_fewer_than_four_constraints_is_input_error(self, scene_file, tmp_path):
        depth, _, _ = synth(scene_file, tmp_path)
        few = tmp_path / "few.json"
        few.write_text(json.dumps([
            {"u1": 0, "v1": 0, "u2": 5, "v2": 5, "d1": 1.0, "d2": 2.0, "L": 3.0},
        ]))
        assert main(["calibrate", depth, str(few)]) == 1

    @pytest.mark.parametrize("pairs", [4, 6])
    def test_init_fov_is_passed_only_when_given(self, scene_file, tmp_path, monkeypatch, pairs):
        """Without --init-fov the solve takes the library's start; with it, the
        centred camera of that FoV."""
        import metricshape.cli as cli
        from metricshape.solver import canonical_params

        depth, _, cons = synth(scene_file, tmp_path, constraints=pairs)
        name = "solve_minimal" if pairs == 4 else "solve_overdetermined"
        seen = []
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, **kw: seen.append(kw["init"]) or real(*a, **kw))
        assert main(["calibrate", depth, cons]) == 0
        assert main(["calibrate", depth, cons, "--init-fov", "45"]) == 0
        assert seen == [None, canonical_params(160, 120, fov_deg=45.0)]

    def test_non_convergence_maps_to_exit_three(self, scene_file, tmp_path, monkeypatch):
        import metricshape.cli as cli
        from metricshape.solver import SolveReport

        depth, _, cons = synth(scene_file, tmp_path)
        fake = SolveReport(
            intrinsics=Intrinsics(1.0, 1.0, 0.0, 0.0, 160, 120),
            final_residual_norm=1.0, iterations=200, converged=False,
            condition_warning=False, stop_reason="damping_max",
        )
        monkeypatch.setattr(cli, "solve_overdetermined", lambda *a, **k: fake)
        assert main(["calibrate", depth, cons]) == 3


class TestUnproject:
    def test_single_pixel_at_principal_point(self, tmp_path, capsys):
        k = Intrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, width=2, height=2)
        valid = np.zeros((2, 2), bool)
        valid[0, 0] = True
        depth = DepthMap(np.where(valid, 2.0, 0.0), valid)
        dpath, kpath, out = (str(tmp_path / n) for n in ("d.pfm", "k.json", "c.ply"))
        fileio.write_depth_pfm(dpath, depth)
        fileio.write_intrinsics(kpath, k)
        assert main(["unproject", dpath, kpath, "--out", out]) == 0
        cloud = fileio.read_ply(out)
        np.testing.assert_array_equal(cloud.points, [[0.0, 0.0, 2.0]])

    def test_intrinsics_and_field_paths_write_identical_bytes(self, scene_file, tmp_path):
        """Field files store float32 rays, so byte identity needs a camera
        whose rays are exactly float32-representable: dyadic focal length
        and integer center give rays (u - 80)/128 with short mantissas."""
        from metricshape.incidence import field_from_intrinsics

        kpath = str(tmp_path / "cam.json")
        fileio.write_intrinsics(
            kpath, Intrinsics(fx=128.0, fy=128.0, cx=80.0, cy=60.0, width=160, height=120)
        )
        code = main([
            "synth", scene_file, "--camera", kpath, "--constraints", "0",
            "--out-prefix", str(tmp_path / "dyadic"),
        ])
        assert code == 0
        depth = str(tmp_path / "dyadic_depth.pfm")
        fpath = str(tmp_path / "field.pfm")
        fileio.write_field_pfm(fpath, field_from_intrinsics(fileio.read_intrinsics(kpath)))
        out1, out2 = str(tmp_path / "a.ply"), str(tmp_path / "b.ply")
        assert main(["unproject", depth, kpath, "--out", out1]) == 0
        assert main(["unproject", depth, "--field", fpath, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_all_invalid_gives_zero_vertices(self, tmp_path):
        dpath = str(tmp_path / "d.pfm")
        with open(dpath, "wb") as f:
            f.write(b"Pf\n2 2\n-1.0\n")
            f.write(np.full(4, np.nan, dtype="<f4").tobytes())
        kpath = str(tmp_path / "k.json")
        fileio.write_intrinsics(kpath, Intrinsics(1.0, 1.0, 0.0, 0.0, 2, 2))
        out = str(tmp_path / "c.ply")
        assert main(["unproject", dpath, kpath, "--out", out]) == 0
        assert len(fileio.read_ply(out)) == 0

    def test_dimension_mismatch_is_input_error(self, scene_file, tmp_path):
        depth, _, _ = synth(scene_file, tmp_path)
        kpath = str(tmp_path / "k.json")
        fileio.write_intrinsics(kpath, Intrinsics(10.0, 10.0, 2.0, 2.0, 4, 4))
        assert main(["unproject", depth, kpath, "--out", str(tmp_path / "c.ply")]) == 1

    def test_field_off_z1_form_is_input_error(self, tmp_path, capsys):
        dpath, fpath = str(tmp_path / "d.pfm"), str(tmp_path / "f.pfm")
        fileio.write_depth_pfm(dpath, DepthMap(np.ones((2, 2)), np.ones((2, 2), bool)))
        rays = np.ones((2, 2, 3), dtype="<f4")
        rays[1, 0, 2] = 0.5
        with open(fpath, "wb") as f:
            f.write(b"PF\n2 2\n-1.0\n" + rays.tobytes())
        assert main(["unproject", dpath, "--field", fpath, "--out", str(tmp_path / "c.ply")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fpath in err and "z=1 form" in err

    @pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
    def test_points_beyond_float32_are_input_error(self, tmp_path, capsys, binary):
        """Depth 1e38 with fx = fy = 0.01 gives finite float64 points that PLY's
        float32 cannot hold: exit 1 naming the output, which is not written."""
        dpath, kpath, out = (str(tmp_path / n) for n in ("d.pfm", "k.json", "c.ply"))
        fileio.write_depth_pfm(dpath, DepthMap(np.full((3, 4), 1e38), np.ones((3, 4), bool)))
        fileio.write_intrinsics(kpath, Intrinsics(0.01, 0.01, 0.0, 0.0, 4, 3))
        assert main(["unproject", dpath, kpath, "--out", out] + ["--binary"] * binary) == 1
        assert capsys.readouterr().err.startswith(f"error: {out}: ")
        assert not os.path.exists(out)

    def test_needs_exactly_one_intrinsics_source(self, scene_file, tmp_path):
        depth, intr, _ = synth(scene_file, tmp_path)
        assert main(["unproject", depth, "--out", str(tmp_path / "c.ply")]) == 1

    def test_intrinsics_source_is_checked_before_the_depth_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.pfm")
        assert main(["unproject", missing, "--out", str(tmp_path / "c.ply")]) == 1
        assert capsys.readouterr().err == (
            "error: provide either an intrinsics file or --field, not both\n"
        )


class TestEval:
    def test_perfect_prediction(self, scene_file, tmp_path, capsys):
        depth, intr, _ = synth(scene_file, tmp_path)
        code = main([
            "eval", depth, depth, "--pred-intrinsics", intr, "--gt-intrinsics", intr,
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["depth"]["delta1"] == 1.0
        assert doc["depth"]["rmse"] == 0.0
        assert doc["fov"]["mean"] == 0.0
        assert doc["shape"]["chamfer"] == 0.0

    def test_matches_library_values(self, scene_file, tmp_path, capsys):
        depth_path, _, _ = synth(scene_file, tmp_path)
        gt = fileio.read_depth_pfm(depth_path)
        bent = DepthMap(np.where(gt.valid, gt.values * 1.02, 0.0), gt.valid)
        bent_path = str(tmp_path / "bent.pfm")
        fileio.write_depth_pfm(bent_path, bent)
        assert main(["eval", bent_path, depth_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = depth_metrics(fileio.read_depth_pfm(bent_path), gt)
        assert doc["depth"]["a_rel"] == pytest.approx(expected.a_rel, rel=1e-12)
        assert doc["depth"]["rmse"] == pytest.approx(expected.rmse, rel=1e-12)

    def test_cap_masks_deep_ground_truth(self, tmp_path, capsys):
        valid = np.ones((2, 2), bool)
        gt = DepthMap(np.array([[1.0, 2.0], [3.0, 30.0]]), valid)
        pred = DepthMap(np.array([[1.0, 2.0], [3.0, 5.0]]), valid)
        gpath, ppath = str(tmp_path / "g.pfm"), str(tmp_path / "p.pfm")
        fileio.write_depth_pfm(gpath, gt)
        fileio.write_depth_pfm(ppath, pred)
        assert main(["eval", ppath, gpath, "--cap", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["depth"]["n_valid"] == 3
        assert doc["depth"]["rmse"] == 0.0

    def test_empty_overlap_after_cap(self, tmp_path):
        valid = np.ones((1, 2), bool)
        gt = DepthMap(np.array([[20.0, 30.0]]), valid)
        gpath = str(tmp_path / "g.pfm")
        fileio.write_depth_pfm(gpath, gt)
        assert main(["eval", gpath, gpath, "--cap", "10"]) == 1

    def test_nan_cap_is_named(self, tmp_path, capsys):
        depth = str(tmp_path / "d.pfm")
        fileio.write_depth_pfm(depth, DepthMap(np.ones((2, 2)), np.ones((2, 2), bool)))
        assert main(["eval", depth, depth, "--cap", "nan"]) == 1
        assert capsys.readouterr().err == "error: cap must be positive, got nan\n"

    def test_intrinsics_pair_is_checked_before_the_maps_are_read(
        self, scene_file, tmp_path, capsys
    ):
        _, intr, _ = synth(scene_file, tmp_path)
        missing = str(tmp_path / "missing.pfm")
        assert main(["eval", missing, missing, "--pred-intrinsics", intr]) == 1
        assert capsys.readouterr().err == (
            "error: --pred-intrinsics and --gt-intrinsics must be given together\n"
        )

    @pytest.mark.parametrize("bad_side", [0, 1], ids=["pred", "gt"])
    def test_truncated_pfm_is_named(self, tmp_path, bad_side):
        good = str(tmp_path / "good.pfm")
        fileio.write_depth_pfm(good, DepthMap(np.ones((2, 2)), np.ones((2, 2), bool)))
        bad = tmp_path / "truncated.pfm"
        bad.write_bytes(b"Pf\n2")
        paths = [good, good]
        paths[bad_side] = str(bad)
        done = subprocess.run(
            [sys.executable, "-m", "metricshape", "eval", *paths],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert f"error: {bad}: truncated PFM header" in done.stderr
        assert "Traceback" not in done.stderr


class TestRefineCommand:
    def test_zero_steps_preserves_depth_bytes(self, scene_file, tmp_path):
        depth, intr, _ = synth(scene_file, tmp_path)
        prefix = str(tmp_path / "ref")
        code = main([
            "refine", depth, depth, intr, "--steps", "0", "--out-prefix", prefix,
        ])
        assert code == 0
        assert open(depth, "rb").read() == open(prefix + "_depth.pfm", "rb").read()
        trace = fileio.read_trace(prefix + "_trace.json")
        assert len(trace) == 1

    def test_trace_is_non_increasing(self, tmp_path):
        w, h = 16, 12
        from metricshape.camera import focal_from_fov

        k = Intrinsics(fx=focal_from_fov(65, w), fy=focal_from_fov(65, h),
                       cx=w / 2, cy=h / 2, width=w, height=h)
        scene = SceneSpec((
            Plane(point=(0, 0, 3.5), normal=(0.15, 0.3, -1.0)),
            Sphere(center=(0.2, -0.1, 2.2), radius=0.6),
        ))
        depth = render_depth(scene, k)
        dpath, kpath = str(tmp_path / "d.pfm"), str(tmp_path / "k.json")
        fileio.write_depth_pfm(dpath, depth)
        fileio.write_intrinsics(kpath, k)
        prefix = str(tmp_path / "ref")
        code = main([
            "refine", dpath, dpath, kpath, "--init-fov", "45",
            "--steps", "30", "--out-prefix", prefix,
        ])
        assert code == 0
        trace = fileio.read_trace(prefix + "_trace.json")
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        refined = fileio.read_intrinsics(prefix + "_intrinsics.json")
        assert refined.fov_x() == pytest.approx(65.0, abs=5.0)

    def test_trial_focal_that_overflows_is_rejected(self, scene_file, tmp_path, capsys):
        """A line-search trial here would overflow math.exp(log fx) without the
        log-space cap; a trial that leaves float64 has an infinite loss, is
        rejected, and the refinement goes on."""
        t0, t0_k, _ = synth(scene_file, tmp_path, "t0", camera=0, width=24, height=18,
                            constraints=0)
        s, _, _ = synth(scene_file, tmp_path, "s", camera=7, width=24, height=18, constraints=0)
        prefix = str(tmp_path / "r")
        code = main(["refine", t0, s, t0_k, "--steps", "6", "--init-fov", "75",
                     "--out-prefix", prefix])
        assert code == 0
        assert capsys.readouterr().err == ""
        trace = fileio.read_trace(prefix + "_trace.json")
        assert 1 < len(trace) <= 7 and all(b <= a for a, b in zip(trace, trace[1:]))
        assert fileio.read_depth_pfm(prefix + "_depth.pfm").valid.sum() == (
            fileio.read_depth_pfm(t0).valid.sum())
        assert fileio.read_intrinsics(prefix + "_intrinsics.json").width == 24

    @pytest.mark.parametrize("init, gt, steps", [
        ((1, 0), (1, 0), 4), ((5, 0), (5, 0), 4), ((7, 0), (7, 0), 4), ((8, 0), (8, 0), 4),
        ((7, 0), (3, 12), 5),
    ], ids=["camera-1", "camera-5", "camera-7", "camera-8", "camera-7-on-3"])
    def test_steps_that_left_float_range_are_rejected(self, rich_scene_file, tmp_path, capsys,
                                                      init, gt, steps):
        """64x48 multi-primitive scenes whose first trial step used to take a
        depth, a focal length or a point past float64 (an input error, or an
        IndexError traceback for camera 7), or whose accepted steps took a
        depth to 3.6e-97, which the PFM writer refused (camera 7 refined
        against camera 3)."""
        paths = {}
        for camera, pairs in {init, gt}:
            paths[camera] = synth(rich_scene_file, tmp_path, f"c{camera}", camera=camera,
                                  width=64, height=48, constraints=pairs)
        depth, (gt_depth, gt_k, _) = paths[init[0]][0], paths[gt[0]]
        prefix = str(tmp_path / "r")
        code = main(["refine", depth, gt_depth, gt_k, "--steps", str(steps),
                     "--out-prefix", prefix])
        assert code == 0
        assert capsys.readouterr().err == ""
        trace = fileio.read_trace(prefix + "_trace.json")
        assert len(trace) == steps + 1 and all(b <= a for a, b in zip(trace, trace[1:]))
        refined = fileio.read_depth_pfm(prefix + "_depth.pfm")
        np.testing.assert_array_equal(refined.valid, fileio.read_depth_pfm(depth).valid)

    def test_invalid_weights_are_input_error(self, scene_file, tmp_path):
        depth, intr, _ = synth(scene_file, tmp_path)
        code = main([
            "refine", depth, depth, intr, "--weights", "1", "10", "1", "1.5",
            "--out-prefix", str(tmp_path / "ref"),
        ])
        assert code == 1

    def test_default_weights(self):
        """Every default the library owns is the library's value; options
        that only pass a keyword through are absent unless given."""
        from dataclasses import astuple

        from metricshape.cli import build_parser
        from metricshape.incidence import CANONICAL_FOV_DEG
        from metricshape.losses import LossWeights
        from metricshape.metrics import DEFAULT_F1_THRESHOLDS
        from metricshape.refine import RefineConfig
        from metricshape.synthetic import MIN_DEPTH_RATIO, NoiseSpec

        parse = build_parser().parse_args
        refine = parse(["refine", "a.pfm", "b.pfm", "k.json", "--out-prefix", "x"])
        cfg = RefineConfig()
        assert tuple(refine.weights) == astuple(LossWeights()) == (1.0, 10.0, 1.0, 0.5)
        assert refine.init_fov == CANONICAL_FOV_DEG == 60.0
        assert (refine.steps, refine.lr_depth, refine.lr_theta) == (
            cfg.max_steps, cfg.depth_lr, cfg.theta_lr)
        assert "init_fov" not in parse(["calibrate", "d.pfm", "c.json"])
        evaluate = parse(["eval", "p.pfm", "g.pfm"])
        assert tuple(evaluate.f1_thresholds) == DEFAULT_F1_THRESHOLDS
        assert evaluate.cap is None and "axis" not in evaluate
        synth = parse(["synth", "s.json", "--camera", "1", "--out-prefix", "x"])
        assert synth.min_depth_ratio == MIN_DEPTH_RATIO
        assert synth.noise == NoiseSpec().distance_sigma_rel
        assert "center_jitter" not in synth


class TestErrorPolicy:
    """A package error or an OSError is an input error, DegenerateConstraintsError
    exit 2, a usage error exit 1; anything else is a bug and escapes `main`."""

    def test_every_package_error_derives_from_the_base(self):
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, BaseException)]
        assert classes
        assert all(issubclass(c, errors.MetricShapeError) for c in classes)

    @pytest.fixture
    def raising(self, monkeypatch):
        """Make `eval` raise the given exception."""
        import metricshape.cli as cli

        def install(exc):
            def command(args):
                raise exc
            monkeypatch.setattr(cli, "_cmd_eval", command)
        return install

    @pytest.mark.parametrize("exc", [ValueError("plain"), IndexError("plain"),
                                     RuntimeError("plain"), OverflowError("plain")])
    def test_other_exceptions_escape(self, raising, exc):
        raising(exc)
        with pytest.raises(type(exc), match="plain"):
            main(["eval", "p.pfm", "g.pfm"])

    @pytest.mark.parametrize("exc, code", [
        (errors.InvalidSettingError("bad"), 1), (errors.SamplingFailureError("bad"), 1),
        (FileNotFoundError("bad"), 1), (errors.DegenerateConstraintsError("bad"), 2),
    ])
    def test_package_errors_and_os_errors_map_to_exit_codes(self, raising, capsys, exc, code):
        raising(exc)
        assert main(["eval", "p.pfm", "g.pfm"]) == code
        assert capsys.readouterr().err == "error: bad\n"

    @pytest.mark.parametrize("argv", [
        ["eval", "a.pfm", "b.pfm", "--fov-axis", "z"],
        ["refine", "a", "b", "c", "--steps", "x", "--out-prefix", "r"],
        ["reconstruct", "a.pfm"],
    ], ids=["bad-choice", "bad-int", "unknown-command"])
    def test_usage_error_exits_one(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 1
        assert "error: argument" in capsys.readouterr().err

    @staticmethod
    def documents(tmp_path, bad: str, scene_file: str) -> dict:
        """The argv of each command that reads ``bad`` as a JSON document, next
        to a 4x3 depth map; `calibrate` reads it as constraints, the rest as
        intrinsics."""
        depth, doc = str(tmp_path / "d.pfm"), str(tmp_path / "doc.json")
        fileio.write_depth_pfm(depth, DepthMap(np.full((3, 4), 2.0), np.ones((3, 4), bool)))
        open(doc, "w").write(bad)
        return {
            "calibrate": ["calibrate", depth, doc],
            "unproject": ["unproject", depth, doc, "--out", str(tmp_path / "c.ply")],
            "eval": ["eval", depth, depth, "--pred-intrinsics", doc, "--gt-intrinsics", doc],
            "synth": ["synth", scene_file, "--camera", doc, "--out-prefix", str(tmp_path / "s")],
        }

    @pytest.mark.parametrize("command", ["calibrate", "unproject", "eval", "synth"])
    @pytest.mark.parametrize("bad", ["1" * 5000, "[" * 100_000],
                             ids=["past-the-digit-limit", "past-the-recursion-limit"])
    def test_json_python_cannot_load_exits_one(self, scene_file, tmp_path, capsys, command, bad):
        """json.load raises a plain ValueError and a RecursionError for these."""
        argv = self.documents(tmp_path, bad, scene_file)[command]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'doc.json'}: invalid JSON")

    @pytest.mark.parametrize("command", ["unproject", "eval", "synth"])
    @pytest.mark.parametrize("fx, cx", [(5e-324, 2.0), (2.2e-308, 0.0)],
                             ids=["ray-overflows", "point-overflows"])
    def test_rays_beyond_float32_exit_one_without_warning(
        self, scene_file, tmp_path, capsys, command, fx, cx
    ):
        """Such a focal length made numpy warn of overflow in the ray divide
        or in depth x ray, before an error that named no file."""
        bad = json.dumps({"fx": fx, "fy": 1.0, "cx": cx, "cy": 1.0, "width": 4, "height": 3})
        argv = self.documents(tmp_path, bad, scene_file)[command]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / 'doc.json'}: ray components")
        assert not list(tmp_path.glob("s_*")) and not (tmp_path / "c.ply").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestIntrinsicsMatchDepthMap:
    """An intrinsics file whose size differs from the depth map's is an input
    error found before any field is built: a declared 4000x3000 camera would
    otherwise allocate hundreds of MB of rays for a 16x12 depth map."""

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        from metricshape import cli

        def no_field(k):
            raise AssertionError("a field was built from mismatched intrinsics")

        monkeypatch.setattr(cli, "field_from_intrinsics", no_field)
        dpath, kpath = str(tmp_path / "d.pfm"), str(tmp_path / "k.json")
        fileio.write_depth_pfm(dpath, DepthMap(np.full((12, 16), 2.0), np.ones((12, 16), bool)))
        fileio.write_intrinsics(kpath, Intrinsics(3000.0, 3000.0, 2000.0, 1500.0, 4000, 3000))
        return dpath, kpath

    @pytest.mark.parametrize("command", ["unproject", "eval", "refine"])
    def test_mismatched_size_exits_one_naming_both_sizes(self, files, tmp_path, capsys, command):
        dpath, kpath = files
        argv = {
            "unproject": ["unproject", dpath, kpath, "--out", str(tmp_path / "c.ply")],
            "eval": ["eval", dpath, dpath, "--pred-intrinsics", kpath, "--gt-intrinsics", kpath],
            "refine": ["refine", dpath, dpath, kpath, "--out-prefix", str(tmp_path / "r")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kpath}: ")
        assert "4000x3000" in err and "16x12" in err


class TestDepthMapsMatch:
    """The two depth maps of `eval` and of `refine` must be of one size; a
    mismatch is an input error naming both files and both sizes, found
    before anything is computed or written."""

    @pytest.mark.parametrize("command", ["eval", "refine"])
    def test_mismatched_maps_exit_one_naming_both_files(self, tmp_path, capsys, command):
        first, second = str(tmp_path / "a.pfm"), str(tmp_path / "b.pfm")
        fileio.write_depth_pfm(first, DepthMap(np.full((6, 1), 2.0), np.ones((6, 1), bool)))
        fileio.write_depth_pfm(second, DepthMap(np.full((4, 5), 2.0), np.ones((4, 5), bool)))
        kpath = str(tmp_path / "k.json")
        fileio.write_intrinsics(kpath, Intrinsics(5.0, 5.0, 2.5, 2.0, 5, 4))
        argv = {
            "eval": ["eval", first, second, "--out", str(tmp_path / "m.json")],
            "refine": ["refine", first, second, kpath, "--out-prefix", str(tmp_path / "r")],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: depth maps differ in size: {first} is 1x6, {second} is 5x4\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["a.pfm", "b.pfm", "k.json"]


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["metricshape", "metricshape.cli"])
    def test_python_dash_m_runs_the_cli(self, module, scene_file, tmp_path):
        prefix = str(tmp_path / "m")
        done = subprocess.run(
            [sys.executable, "-m", module, "synth", scene_file, "--camera", "3",
             "--width", "32", "--height", "24", "--out-prefix", prefix],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        depth = fileio.read_depth_pfm(prefix + "_depth.pfm")
        assert (depth.width, depth.height) == (32, 24)


class TestColdImport:
    def test_commands_without_nn_search_never_load_scipy(self, scene_file, tmp_path):
        """`synth` in a fresh interpreter loads no scipy module; the NN search
        behind Chamfer still works afterwards (it imports scipy itself) and
        matches an all-pairs search on clouds above the k-d tree cut-off."""
        script = f"""
import json, sys
import numpy as np
import metricshape, metricshape.cli
code = metricshape.cli.main(["synth", {scene_file!r}, "--camera", "3", "--width", "32",
                             "--height", "24", "--out-prefix", {str(tmp_path / "cold")!r}])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
rng = np.random.default_rng(0)
p, q = rng.uniform(-1, 1, (600, 3)), rng.uniform(-1, 1, (600, 3))
value = metricshape.chamfer_distance(metricshape.PointCloud(p), metricshape.PointCloud(q)).value
d2 = ((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2)
expected = float(d2.min(axis=1).mean()) + float(d2.min(axis=0).mean())
print(json.dumps({{"code": code, "loaded": loaded, "value": value, "expected": expected,
                  "spatial": "scipy.spatial" in sys.modules}}))
"""
        done = subprocess.run([sys.executable, "-c", script], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["code"] == 0
        assert result["loaded"] == []
        assert result["spatial"]
        assert result["value"] == pytest.approx(result["expected"], rel=1e-12)
