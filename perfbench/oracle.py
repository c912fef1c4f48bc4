"""Computations made apart from the package, used to check its outputs.

Nothing here imports `metricshape`, and scipy is imported only when the
first NN search runs, after set-up, so `setup_s` pays for the package's
own imports and not for the benchmark's. Every check raises `CheckError`
with a message naming what disagreed; the workloads turn that into
`"correct": false`.
"""

from __future__ import annotations

import io
import math

import numpy as np


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(a: float, b: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    require(
        math.isfinite(a) and abs(a - b) <= max(rel * abs(b), abs_tol),
        f"{what}: program {a!r} vs benchmark {b!r}",
    )


# ---------------------------------------------------------------------------
# Files

def read_pfm(path: str) -> np.ndarray:
    """Grayscale little-endian PFM as a float32 (height, width) grid, top row first."""
    with open(path, "rb") as f:
        data = f.read()
    magic, dims, scale, payload = data.split(b"\n", 3)
    require(magic == b"Pf", f"{path}: magic {magic!r}")
    w, h = (int(t) for t in dims.split())
    require(float(scale) < 0.0, f"{path}: not little-endian")
    require(len(payload) == 4 * w * h, f"{path}: payload {len(payload)} bytes for {w}x{h}")
    return np.flipud(np.frombuffer(payload, dtype="<f4").reshape(h, w))


def write_pfm(path: str, values: np.ndarray) -> None:
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(b"Pf\n" + f"{w} {h}\n".encode() + b"-1.0\n")
        f.write(np.flipud(values).astype("<f4").tobytes())


def read_ascii_ply(path: str) -> np.ndarray:
    """Vertices of an ASCII x/y/z PLY, as float32 (n, 3)."""
    with open(path, "rb") as f:
        data = f.read()
    head, sep, body = data.partition(b"end_header\n")
    require(sep != b"", f"{path}: no end_header")
    lines = head.decode("ascii").split("\n")
    require(lines[0] == "ply" and "format ascii 1.0" in lines, f"{path}: not an ASCII PLY")
    count = next(int(l.split()[2]) for l in lines if l.startswith("element vertex"))
    points = np.loadtxt(io.BytesIO(body), dtype=np.float64, ndmin=2)
    if count == 0:
        points = points.reshape(0, 3)
    require(points.shape == (count, 3), f"{path}: header says {count} vertices, body {points.shape}")
    return points.astype(np.float32)


# ---------------------------------------------------------------------------
# Geometry

def rays(cam: dict, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.stack([(u - cam["cx"]) / cam["fx"], (v - cam["cy"]) / cam["fy"], np.ones_like(u)], -1)


def depth_at(scene: dict, cam: dict, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Closed-form z-depth of the nearest visible hit at pixels (u, v); NaN for none.

    A ray with z component 1 reaches z-depth t at parameter t. Planes are
    seen only from the side their normal faces; the camera is outside every
    sphere and box, so the entering root / slab is the visible one.
    """
    r = rays(cam, np.asarray(u, float), np.asarray(v, float))
    best = np.full(r.shape[0], np.inf)
    for p in scene["primitives"]:
        with np.errstate(divide="ignore", invalid="ignore"):
            if p["type"] == "plane":
                n = np.asarray(p["normal"], float)
                den = r @ n
                t = np.where(den < 0.0, (n @ np.asarray(p["point"], float)) / den, np.inf)
            elif p["type"] == "sphere":
                c = np.asarray(p["center"], float)
                a = (r * r).sum(-1)
                b = r @ c
                disc = b * b - a * (c @ c - p["radius"] ** 2)
                t = np.where(disc >= 0.0, (b - np.sqrt(np.maximum(disc, 0.0))) / a, np.inf)
            else:
                lo = np.asarray(p["min"], float) / r
                hi = np.asarray(p["max"], float) / r
                near = np.minimum(lo, hi).max(-1)
                far = np.maximum(lo, hi).min(-1)
                t = np.where((near <= far) & (near > 0.0), near, np.inf)
        best = np.minimum(best, np.where(t > 0.0, t, np.inf))
    return np.where(np.isfinite(best), best, np.nan)


def points(cam: dict, depth: np.ndarray) -> np.ndarray:
    """((u-cx)/fx*d, (v-cy)/fy*d, d) at every finite pixel, row-major."""
    h, w = depth.shape
    vv, uu = np.nonzero(np.isfinite(depth) & (depth > 0.0))
    d = depth[vv, uu].astype(np.float64)
    return np.stack([(uu - cam["cx"]) / cam["fx"] * d, (vv - cam["cy"]) / cam["fy"] * d, d], -1)


def separation(cam: dict, rec: dict) -> float:
    p1 = ((rec["u1"] - cam["cx"]) / cam["fx"] * rec["d1"], (rec["v1"] - cam["cy"]) / cam["fy"] * rec["d1"], rec["d1"])
    p2 = ((rec["u2"] - cam["cx"]) / cam["fx"] * rec["d2"], (rec["v2"] - cam["cy"]) / cam["fy"] * rec["d2"], rec["d2"])
    return math.dist(p1, p2)


def constraint_cost(cam: dict, records: list[dict]) -> float:
    """Sum over pairs of ((|P1 - P2|^2 - L^2) / L^2)^2 at camera `cam`."""
    return sum(((separation(cam, r) ** 2 - r["L"] ** 2) / r["L"] ** 2) ** 2 for r in records)


def coplanar(pts: np.ndarray, rel: float = 1e-9) -> bool:
    """True when the points' smallest spread direction is numerically empty."""
    centred = np.asarray(pts, float) - np.mean(pts, axis=0)
    sv = np.linalg.svd(centred, compute_uv=False)
    return bool(sv[2] <= rel * sv[0])


def fov_deg(focal: float, extent: int) -> float:
    return math.degrees(2.0 * math.atan(extent / (2.0 * focal)))


def fov_error(est: dict, true: dict) -> float:
    """Mean of the x and y FoV errors in degrees."""
    ex = abs(fov_deg(est["fx"], true["width"]) - fov_deg(true["fx"], true["width"]))
    ey = abs(fov_deg(est["fy"], true["height"]) - fov_deg(true["fy"], true["height"]))
    return 0.5 * (ex + ey)


def same_camera(est: dict, true: dict, rel: float) -> bool:
    return all(abs(est[k] - true[k]) <= rel * abs(true[k]) for k in ("fx", "fy", "cx", "cy"))


# ---------------------------------------------------------------------------
# Metrics

def depth_metrics(pred: np.ndarray, gt: np.ndarray) -> dict:
    ok = np.isfinite(pred) & (pred > 0) & np.isfinite(gt) & (gt > 0)
    d = pred[ok].astype(np.float64)
    g = gt[ok].astype(np.float64)
    ratio = np.maximum(d / g, g / d)
    err = d - g
    lerr = np.log(d) - np.log(g)
    return {
        "delta1": float(np.mean(ratio < 1.25)),
        "delta2": float(np.mean(ratio < 1.25**2)),
        "delta3": float(np.mean(ratio < 1.25**3)),
        "a_rel": float(np.mean(np.abs(err) / g)),
        "sq_rel": float(np.mean(err**2 / g)),
        "rmse": float(np.sqrt(np.mean(err**2))),
        "rmse_log": float(np.sqrt(np.mean(lerr**2))),
        "log10": float(np.mean(np.abs(np.log10(d) - np.log10(g)))),
        "n_valid": int(ok.sum()),
    }


def nearest_sq(query: np.ndarray, ref: np.ndarray) -> np.ndarray:
    from scipy.spatial import cKDTree

    idx = cKDTree(ref).query(query)[1]
    diff = query - ref[idx]
    return (diff * diff).sum(1)


def shape_metrics(p: np.ndarray, q: np.ndarray, taus) -> dict:
    d_pq, d_qp = nearest_sq(p, q), nearest_sq(q, p)
    f1 = {}
    for tau in taus:
        prec = float(np.mean(d_pq <= tau * tau))
        rec = float(np.mean(d_qp <= tau * tau))
        f1[str(float(tau))] = 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)
    return {"f1": f1, "chamfer": float(d_pq.mean()) + float(d_qp.mean())}
