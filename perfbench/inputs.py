"""Seeded workload inputs: scene documents and cameras.

Scenes are plain dicts in the CLI's scene-document format, so the same
description feeds `metricshape synth`, the in-process workloads (through
`scene_spec`) and the benchmark's own ray-primitive oracle. Nothing here
calls the package except `scene_spec`, which only builds its value types.
"""

from __future__ import annotations

import math

import numpy as np

VGA = (640, 480)
QVGA = (320, 240)
SMALL = (16, 12)
GRID = (64, 48)

# The multi-primitive scene used by the package's acceptance tests; the
# `refine_grid` overflow cases and the `calib_batch` minimal bank use it
# unchanged, so neither depends on the seed.
RICH_SCENE = {
    "primitives": [
        {"type": "plane", "point": [0.0, 0.0, 4.0], "normal": [0.3, 0.55, -1.0]},
        {"type": "sphere", "center": [0.5, -0.3, 2.8], "radius": 0.75},
        {"type": "sphere", "center": [-0.8, 0.5, 3.6], "radius": 0.6},
        {"type": "box", "min": [-0.3, -1.2, 1.8], "max": [0.8, -0.5, 2.6]},
    ]
}


def rng_for(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def focal_for_fov(fov_deg: float, extent: int) -> float:
    return extent / (2.0 * math.tan(math.radians(fov_deg) / 2.0))


def cli_scene(seed: int, index: int) -> dict:
    """Back wall + floor (together they cover every pixel), a sphere, a box.

    Two large planes split the view, so a dozen sampled pairs are never
    all coplanar, and every pixel has depth (320x240 = 76,800 points).
    """
    rng = rng_for(seed, index, 1)
    u = rng.uniform
    return {
        "primitives": [
            {"type": "plane", "point": [0.0, 0.0, u(4.5, 5.5)],
             "normal": [u(-0.2, 0.2), u(-0.2, 0.2), -1.0]},
            {"type": "plane", "point": [0.0, u(0.9, 1.3), 0.0],
             "normal": [0.0, -1.0, u(-0.15, -0.05)]},
            {"type": "sphere", "center": [u(-0.6, 0.6), u(-0.4, 0.2), u(2.6, 3.4)],
             "radius": u(0.5, 0.8)},
            {"type": "box", "min": [u(-1.2, -0.8), u(-0.3, 0.0), u(1.8, 2.2)],
             "max": [u(-0.5, -0.2), u(0.5, 0.8), u(2.5, 2.9)]},
        ]
    }


def cli_camera(seed: int, index: int) -> dict:
    """FoV 50-95 degrees, aspect within 5 %, principal point within 20 px."""
    rng = rng_for(seed, index, 2)
    w, h = QVGA
    fx = focal_for_fov(rng.uniform(50.0, 95.0), w)
    return {
        "fx": fx,
        "fy": fx * rng.uniform(0.95, 1.05),
        "cx": w / 2.0 + rng.uniform(-20.0, 20.0),
        "cy": h / 2.0 + rng.uniform(-20.0, 20.0),
        "width": w,
        "height": h,
    }


def base_demo_scene(index: int) -> dict:
    """Plane + sphere (+ box on some draws) as in acceptance criterion 8."""
    rng = np.random.default_rng(2000 + index)
    u = rng.uniform
    prims = [
        {"type": "plane", "point": [0.0, 0.0, u(3.2, 4.5)],
         "normal": [u(-0.4, 0.4), u(-0.5, 0.5), -1.0]},
        {"type": "sphere", "center": [u(-0.6, 0.6), u(-0.5, 0.5), u(2.0, 3.0)],
         "radius": u(0.4, 0.9)},
    ]
    if u() > 0.5:
        x0, y0 = u(-0.8, 0.2), u(-0.9, 0.1)
        prims.append({"type": "box", "min": [x0, y0, u(1.5, 2.2)],
                      "max": [x0 + u(0.4, 0.9), y0 + u(0.4, 0.8), u(2.4, 3.0)]})
    return {"primitives": prims}


JITTER = 0.01


def jittered(scene: dict, seed: int, index: int) -> dict:
    """Shift every coordinate by up to JITTER metres and every radius by up to
    JITTER relative, from the seed.

    The work a refine run does depends on the scene's layout; small shifts
    give each seed its own inputs while keeping the work per run steady.
    """
    rng = rng_for(seed, index, 3)
    out = []
    for prim in scene["primitives"]:
        p = {"type": prim["type"]}
        for key, value in prim.items():
            if key == "type":
                continue
            if key == "normal":
                p[key] = list(value)
            elif key == "radius":
                p[key] = value * (1.0 + rng.uniform(-JITTER, JITTER))
            else:
                p[key] = [c + rng.uniform(-JITTER, JITTER) for c in value]
        if p["type"] == "box":
            p["max"] = [max(hi, lo + 0.1) for lo, hi in zip(p["min"], p["max"])]
        out.append(p)
    return {"primitives": out}


def camera_dict(k) -> dict:
    """An Intrinsics value as the dict form the oracle works on."""
    return {"fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy, "width": k.width, "height": k.height}


def scene_spec(doc: dict):
    """The package's SceneSpec for a scene document."""
    from metricshape import Box, Plane, SceneSpec, Sphere

    prims = []
    for p in doc["primitives"]:
        if p["type"] == "plane":
            prims.append(Plane(point=tuple(p["point"]), normal=tuple(p["normal"])))
        elif p["type"] == "sphere":
            prims.append(Sphere(center=tuple(p["center"]), radius=p["radius"]))
        else:
            prims.append(Box(min_corner=tuple(p["min"]), max_corner=tuple(p["max"])))
    return SceneSpec(tuple(prims))
