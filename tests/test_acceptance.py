"""Release criteria, one test each, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Statistical criteria repeating 50+ seeded trials carry the ``montecarlo``
marker; the final runtime criterion excludes their wall time, matching its
stated scope.

Criterion 6b asserts that extracting and re-composing a residual field is
as exact as the float64 residual format permits, off the singular mask.
Composing multiplies the stored residual q by the canonical component c, so
a target component g comes back bit-for-bit only if some double q has
fl(q*c) == g; for about a tenth of random pairs (g, c) none exists. The
criterion therefore requires bit-exactness at every component that has such
a preimage, and at most one ulp of deviation at every component that does
not, with an independent exhaustive oracle (``float_preimage``) deciding
which case applies.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import conftest
from float_preimage import check_round_trip
from metricshape.camera import (
    DepthMap,
    Intrinsics,
    PointCloud,
    focal_from_fov,
    unproject_depth_map,
)
from metricshape.errors import DegenerateConstraintsError, SamplingFailureError
from metricshape.incidence import (
    CanonicalCamera,
    IncidenceField,
    canonical_field,
    compose_residual,
    extract_residual,
    field_from_intrinsics,
    fit_intrinsics_from_field,
)
from metricshape.losses import (
    LossWeights,
    chamfer_distance,
    cosine_incidence_loss,
    silog_loss,
    total_loss,
)
from metricshape.metrics import depth_metrics, f1_at_threshold, fov_error_stats
from metricshape.refine import RefineConfig, RefineState, refine_joint
from metricshape.solver import (
    SolverParams,
    coefficients_from_constraint,
    constraint_residual,
    enumerate_solutions,
    solve_minimal,
    solve_overdetermined,
)
from metricshape.synthetic import (
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
from metricshape import fileio

W, H = 320, 240

RICH_SCENE = conftest.RICH_SCENE


def report(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def plausible(k):
    """Intrinsics consistent with the sampling priors of these trials:
    FoV inside (a hair beyond) 40-120 degrees, principal point within the
    jitter range of the image center."""
    return (
        38.0 <= k.fov_x() <= 122.0
        and 38.0 <= k.fov_y() <= 122.0
        and abs(k.cx - W / 2) <= 25.0
        and abs(k.cy - H / 2) <= 25.0
    )


def consistent(k, holdout, tol=1e-8):
    params = SolverParams.from_intrinsics(k)
    return all(
        abs(constraint_residual(coefficients_from_constraint(c), params)) / c.distance**2 <= tol
        for c in holdout
    )


def init_ladder(width, height):
    """Criterion 1's starts after the canonical prior: each pair of per-axis
    FoVs from 45/65/85/105 degrees with the principal point centered."""
    inits = []
    for fov_x in (45.0, 65.0, 85.0, 105.0):
        for fov_y in (45.0, 65.0, 85.0, 105.0):
            fx = focal_from_fov(fov_x, width)
            fy = focal_from_fov(fov_y, height)
            inits.append(
                SolverParams(
                    t_x=(width / 2.0) / fx, t_y=(height / 2.0) / fy,
                    r_x=1.0 / fx, r_y=1.0 / fy,
                )
            )
    return inits


def well_posed_constraint_set(depth, k, seed):
    """Sample 4 solver pairs + 2 held-out pairs until the solver's own root
    enumeration identifies exactly one camera that is plausible under the
    priors and consistent with the held-out pairs. The ground truth enters
    only through the sampled separations (the measurement being simulated);
    ambiguous or degenerate draws are rejected without consulting it."""
    for sub in range(20):
        try:
            group = sample_constraints(
                depth, k, 6, rng_seed=seed * 1000 + sub, min_depth_ratio=1.2
            )
        except SamplingFailureError:
            continue
        cand, holdout = group[:4], group[4:]
        try:
            sols = enumerate_solutions(cand, W, H)
        except DegenerateConstraintsError:
            continue
        surviving = [
            s for s in sols if plausible(s.intrinsics) and consistent(s.intrinsics, holdout)
        ]
        if len(surviving) == 1:
            return cand, holdout
    return None, None


@pytest.mark.montecarlo
def test_criterion_1_minimal_solver_closure():
    """200 random cameras (FoV in [40, 120], center jitter <= 20 px) on the
    analytic scene: 4 exact ratio >= 1.2 pairs recover all four intrinsics
    to 1e-6 relative in >= 99% of trials, every individual solve under
    50 ms, and no failure is a silently wrong converged result."""
    recovered = 0
    reported_failures = 0
    silent_failures = 0
    max_solve_seconds = 0.0
    for seed in range(200):
        k = make_camera(seed, W, H, fov_range=(40.0, 120.0), center_jitter=20.0)
        depth = render_depth(RICH_SCENE, k)
        cons, holdout = well_posed_constraint_set(depth, k, seed)
        if cons is None:
            reported_failures += 1
            continue
        best = None
        try:
            for init in [None] + init_ladder(W, H):
                t0 = time.perf_counter()
                rep = solve_minimal(cons, W, H, init=init)
                max_solve_seconds = max(max_solve_seconds, time.perf_counter() - t0)
                if (
                    rep.final_residual_norm < 1e-10
                    and plausible(rep.intrinsics)
                    and consistent(rep.intrinsics, holdout)
                ):
                    best = rep
                    break
        except DegenerateConstraintsError:
            reported_failures += 1
            continue
        if best is None:
            reported_failures += 1
            continue
        r = best.intrinsics
        rel = max(
            abs(r.fx - k.fx) / k.fx,
            abs(r.fy - k.fy) / k.fy,
            abs(r.cx - k.cx) / abs(k.cx),
            abs(r.cy - k.cy) / abs(k.cy),
        )
        if rel < 1e-6 and best.converged:
            recovered += 1
        elif best.condition_warning or not best.converged:
            reported_failures += 1
        else:
            silent_failures += 1
    ok = recovered >= 198 and silent_failures == 0 and max_solve_seconds < 0.050
    report(
        1,
        ok,
        f"recovered {recovered}/200 at 1e-6 rel, {reported_failures} reported failures, "
        f"{silent_failures} silent, max solve {1000 * max_solve_seconds:.1f} ms",
    )


@pytest.mark.montecarlo
def test_criterion_2_noise_monotonicity():
    """Median FoV error over 50 seeded N=100 solves decreases strictly with
    the distance-noise level and vanishes (< 1e-5 deg) at zero noise."""
    sigmas = (0.01, 0.001, 0.0001, 0.0)
    medians = []
    for sigma in sigmas:
        errors = []
        for trial in range(50):
            k = make_camera(10_000 + trial, W, H, fov_range=(50.0, 100.0), center_jitter=10.0)
            depth = render_depth(RICH_SCENE, k)
            cons = sample_constraints(depth, k, 100, rng_seed=trial, min_depth_ratio=1.2)
            if sigma > 0.0:
                cons, _ = perturb(cons, depth, NoiseSpec(distance_sigma_rel=sigma, seed=trial))
            rep = solve_overdetermined(cons, W, H)
            errors.append(fov_error_stats([rep.intrinsics], [k]).per_sample[0])
        medians.append(float(np.median(errors)))
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    ok = decreasing and medians[-1] < 1e-5
    report(
        2,
        ok,
        "median FoV errors (deg) at sigma 1%/0.1%/0.01%/0: "
        + ", ".join(f"{m:.2e}" for m in medians),
    )


@pytest.mark.montecarlo
def test_criterion_3_equal_depth_degeneracy_detected():
    """All-equal-depth constraint sets zero the principal-point coefficients;
    the solver must report the degeneracy in 50 of 50 seeded trials."""
    k = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
    depth = render_depth(SceneSpec((Plane(point=(0, 0, 2.0), normal=(0, 0, -1.0)),)), k)
    detected = 0
    for seed in range(50):
        cons = sample_constraints(depth, k, 4, rng_seed=seed, min_depth_ratio=1.0)
        assert all(c.d1 == c.d2 for c in cons)
        try:
            solve_minimal(cons, 64, 48)
        except DegenerateConstraintsError:
            detected += 1
    report(3, detected == 50, f"degeneracy reported in {detected}/50 trials")


def _max_rel_err(analytic, fd, floor=1e-8):
    analytic = np.asarray(analytic, float)
    fd = np.asarray(fd, float)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
    return float(np.max(np.abs(analytic - fd) / scale))


def test_criterion_4_gradient_validation():
    """Analytic gradients of all four losses match central finite
    differences to 1e-5 relative at 20 randomized configurations each
    (chamfer configurations are spaced away from nearest-neighbor ties)."""
    rng = np.random.default_rng(42)
    worst = {"silog": 0.0, "cosine": 0.0, "chamfer": 0.0, "total": 0.0}

    for _ in range(20):
        h, w = 5, 6
        vals = rng.uniform(0.5, 5.0, (h, w))
        gt = rng.uniform(0.5, 5.0, (h, w))
        valid = rng.uniform(size=(h, w)) > 0.2
        valid[0, 0] = True
        lam = float(rng.uniform(0.0, 1.0))
        pred_map = DepthMap(np.where(valid, vals, 0.0), valid)
        gt_map = DepthMap(np.where(valid, gt, 0.0), valid)
        analytic = silog_loss(pred_map, gt_map, lam).gradients["depth"]
        fd = np.zeros_like(vals)
        for i in range(h):
            for j in range(w):
                if not valid[i, j]:
                    continue
                step = 1e-5 * vals[i, j]
                vp, vm = vals.copy(), vals.copy()
                vp[i, j] += step
                vm[i, j] -= step
                fp = silog_loss(DepthMap(np.where(valid, vp, 0.0), valid), gt_map, lam).value
                fm = silog_loss(DepthMap(np.where(valid, vm, 0.0), valid), gt_map, lam).value
                fd[i, j] = (fp - fm) / (2.0 * step)
        worst["silog"] = max(worst["silog"], _max_rel_err(analytic[valid], fd[valid]))

    for _ in range(20):
        h, w = 4, 5
        k = Intrinsics(
            fx=float(rng.uniform(3, 8)), fy=float(rng.uniform(3, 8)),
            cx=float(rng.uniform(1, 4)), cy=float(rng.uniform(1, 3)), width=w, height=h,
        )
        cano = canonical_field(CanonicalCamera(float(rng.uniform(3, 8)), w / 2, h / 2), w, h)
        target = field_from_intrinsics(k)
        res_rays = np.ones((h, w, 3))
        res_rays[..., 0] = rng.uniform(0.5, 1.5, (h, w))
        res_rays[..., 1] = rng.uniform(0.5, 1.5, (h, w))
        analytic = cosine_incidence_loss(IncidenceField(res_rays), cano, target).gradients["field"]
        fd = np.zeros((h, w, 2))
        for i in range(h):
            for j in range(w):
                for c in range(2):
                    step = 1e-5
                    rp, rm = res_rays.copy(), res_rays.copy()
                    rp[i, j, c] += step
                    rm[i, j, c] -= step
                    fp = cosine_incidence_loss(IncidenceField(rp), cano, target).value
                    fm = cosine_incidence_loss(IncidenceField(rm), cano, target).value
                    fd[i, j, c] = (fp - fm) / (2.0 * step)
        worst["cosine"] = max(worst["cosine"], _max_rel_err(analytic[..., :2], fd))

    def spaced_clouds(n, m):
        # keep every point's two nearest neighbors well separated so the
        # finite-difference step cannot cross a matching tie
        while True:
            p = rng.uniform(-1.0, 1.0, (n, 3))
            q = rng.uniform(-1.0, 1.0, (m, 3))
            d2 = ((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2)
            gaps = []
            for d in (d2, d2.T):
                part = np.sort(d, axis=1)
                gaps.append((np.sqrt(part[:, 1]) - np.sqrt(part[:, 0])).min())
            if min(gaps) > 1e-3:
                return p, q

    for _ in range(20):
        p, q = spaced_clouds(6, 5)
        lv = chamfer_distance(PointCloud(p), PointCloud(q))
        for arr, key in ((p, "points_p"), (q, "points_q")):
            fd = np.zeros_like(arr)
            for i in range(arr.shape[0]):
                for c in range(3):
                    step = 1e-5
                    ap, am = arr.copy(), arr.copy()
                    ap[i, c] += step
                    am[i, c] -= step
                    if key == "points_p":
                        fp = chamfer_distance(PointCloud(ap), PointCloud(q)).value
                        fm = chamfer_distance(PointCloud(am), PointCloud(q)).value
                    else:
                        fp = chamfer_distance(PointCloud(p), PointCloud(ap)).value
                        fm = chamfer_distance(PointCloud(p), PointCloud(am)).value
                    fd[i, c] = (fp - fm) / (2.0 * step)
            worst["chamfer"] = max(worst["chamfer"], _max_rel_err(lv.gradients[key], fd))

    for _ in range(20):
        h, w = 4, 4
        kgt = Intrinsics(
            fx=float(rng.uniform(3, 6)), fy=float(rng.uniform(3, 6)),
            cx=w / 2, cy=h / 2, width=w, height=h,
        )
        gt_vals = rng.uniform(1.0, 3.0, (h, w))
        gt_map = DepthMap(gt_vals, np.ones((h, w), bool))
        gt_field = field_from_intrinsics(kgt)
        cano = canonical_field(CanonicalCamera(4.0, w / 2, h / 2), w, h)
        vals = gt_vals * rng.uniform(0.9, 1.1, (h, w))
        res_rays = np.ones((h, w, 3))
        res_rays[..., 0] = rng.uniform(0.8, 1.2, (h, w))
        res_rays[..., 1] = rng.uniform(0.8, 1.2, (h, w))
        weights = LossWeights()
        pred_map = DepthMap(vals, np.ones((h, w), bool))
        res = IncidenceField(res_rays)
        lv = total_loss(pred_map, gt_map, res, cano, gt_field, weights)
        fd_depth = np.zeros_like(vals)
        for i in range(h):
            for j in range(w):
                step = 1e-5 * vals[i, j]
                vp, vm = vals.copy(), vals.copy()
                vp[i, j] += step
                vm[i, j] -= step
                fp = total_loss(DepthMap(vp, np.ones((h, w), bool)), gt_map, res, cano,
                                gt_field, weights).value
                fm = total_loss(DepthMap(vm, np.ones((h, w), bool)), gt_map, res, cano,
                                gt_field, weights).value
                fd_depth[i, j] = (fp - fm) / (2.0 * step)
        worst["total"] = max(
            worst["total"], _max_rel_err(lv.gradients["depth"], fd_depth, floor=1e-6)
        )
        fd_field = np.zeros((h, w, 2))
        for i in range(h):
            for j in range(w):
                for c in range(2):
                    step = 1e-5
                    rp, rm = res_rays.copy(), res_rays.copy()
                    rp[i, j, c] += step
                    rm[i, j, c] -= step
                    fp = total_loss(pred_map, gt_map, IncidenceField(rp), cano,
                                    gt_field, weights).value
                    fm = total_loss(pred_map, gt_map, IncidenceField(rm), cano,
                                    gt_field, weights).value
                    fd_field[i, j, c] = (fp - fm) / (2.0 * step)
        worst["total"] = max(
            worst["total"], _max_rel_err(lv.gradients["field"][..., :2], fd_field, floor=1e-6)
        )

    ok = all(v <= 1e-5 for v in worst.values())
    report(4, ok, "worst relative gradient error: "
           + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_5_silog_analytics():
    """silog(2 D*, D*, 0.5) = 0.5 (ln 2)^2 and silog(s D, D*, 1) is
    scale-invariant, both to 1e-10."""
    rng = np.random.default_rng(7)
    gt_vals = rng.uniform(0.5, 5.0, (8, 8))
    gt = DepthMap(gt_vals, np.ones((8, 8), bool))
    doubled = DepthMap(2.0 * gt_vals, np.ones((8, 8), bool))
    err_half = abs(silog_loss(doubled, gt, 0.5).value - 0.5 * math.log(2.0) ** 2)

    pred = DepthMap(rng.uniform(0.5, 5.0, (8, 8)), np.ones((8, 8), bool))
    base = silog_loss(pred, gt, 1.0).value
    err_scale = max(
        abs(silog_loss(DepthMap(s * pred.values, pred.valid), gt, 1.0).value - base)
        for s in (1e-3, 0.2, 7.0, 1e4)
    )
    ok = err_half < 1e-10 and err_scale < 1e-10
    report(5, ok, f"|silog(2D*) - 0.5 ln^2 2| = {err_half:.1e}, "
           f"max scale drift at lam=1: {err_scale:.1e}")


def test_criterion_6a_field_fit_round_trip():
    worst = 0.0
    for seed in range(20):
        k = make_camera(seed, 160, 120, fov_range=(40.0, 120.0), center_jitter=15.0)
        fitted = fit_intrinsics_from_field(field_from_intrinsics(k))
        worst = max(
            worst,
            abs(fitted.fx - k.fx) / k.fx,
            abs(fitted.fy - k.fy) / k.fy,
            abs(fitted.cx - k.cx) / abs(k.cx),
            abs(fitted.cy - k.cy) / abs(k.cy),
        )
    report("6a", worst < 1e-9, f"intrinsics->field->fit worst relative error {worst:.1e}")


def test_criterion_6b_compose_extract_exact():
    """compose(extract(gt)) returns gt bit-for-bit at every off-mask
    component where a float64 residual can (some double q has
    fl(q*c) == g, decided by the exhaustive ``float_preimage`` oracle), and
    within one ulp at the rest, where no residual can."""
    rng = np.random.default_rng(99)
    got, want, canonical = [], [], []
    for _ in range(5):
        k = Intrinsics(
            fx=float(rng.uniform(300, 900)), fy=float(rng.uniform(300, 900)),
            cx=float(rng.uniform(300, 340)), cy=float(rng.uniform(220, 260)),
            width=640, height=480,
        )
        gt = field_from_intrinsics(k)
        cano = canonical_field(CanonicalCamera.for_image(640, 480), 640, 480)
        res, mask = extract_residual(gt, cano)
        out = compose_residual(res, cano)
        keep = ~mask
        for c in range(2):
            got.append(out.rays[..., c][keep])
            want.append(gt.rays[..., c][keep])
            canonical.append(cano.rays[..., c][keep])
    check = check_round_trip(np.concatenate(got), np.concatenate(want), np.concatenate(canonical))
    report(
        "6b",
        check.ok,
        f"compose(extract(gt)) bit-exact at {check.exact}/{check.representable} off-mask "
        f"components that have a float64 preimage ({check.representable}/{check.total} do, "
        f"{check.missed} missed); worst deviation {check.worst_ulp:.0f} ulp",
    )


def test_criterion_6c_file_round_trips_bit_exact():
    rng = np.random.default_rng(13)
    values = rng.uniform(0.1, 80.0, (24, 32)).astype(np.float32).astype(np.float64)
    valid = rng.uniform(size=(24, 32)) > 0.25
    depth = DepthMap(np.where(valid, values, 0.0), valid)
    cloud = PointCloud(rng.uniform(-20, 20, (300, 3)))
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        dpath = os.path.join(tmp, "d.pfm")
        fileio.write_depth_pfm(dpath, depth)
        back = fileio.read_depth_pfm(dpath)
        pfm_ok = bool(
            np.array_equal(back.valid, depth.valid)
            and np.array_equal(back.values[valid], depth.values[valid])
        )
        ply_ok = True
        for binary in (False, True):
            cpath = os.path.join(tmp, f"c{binary}.ply")
            fileio.write_ply(cpath, cloud, binary=binary)
            reread = fileio.read_ply(cpath)
            ply_ok &= bool(
                np.array_equal(
                    reread.points.astype(np.float32), cloud.points.astype(np.float32)
                )
            )
    report("6c", pfm_ok and ply_ok, f"PFM bit-exact: {pfm_ok}, PLY (ascii+binary) bit-exact: {ply_ok}")


def _ref_depth_metrics(pred_vals, pred_valid, gt_vals, gt_valid, cap):
    """Plain-Python double-loop reference for every depth metric."""
    n = 0
    d1 = d2 = d3 = a_rel = sq_rel = sq = sq_log = l10 = 0.0
    for i in range(pred_vals.shape[0]):
        for j in range(pred_vals.shape[1]):
            if not (pred_valid[i, j] and gt_valid[i, j]):
                continue
            g = gt_vals[i, j]
            if cap is not None and g > cap:
                continue
            d = pred_vals[i, j]
            n += 1
            ratio = max(d / g, g / d)
            d1 += ratio < 1.25
            d2 += ratio < 1.25**2
            d3 += ratio < 1.25**3
            a_rel += abs(d - g) / g
            sq_rel += (d - g) ** 2 / g
            sq += (d - g) ** 2
            sq_log += (math.log(d) - math.log(g)) ** 2
            l10 += abs(math.log10(d) - math.log10(g))
    return (
        d1 / n, d2 / n, d3 / n, a_rel / n, sq_rel / n,
        math.sqrt(sq / n), math.sqrt(sq_log / n), l10 / n, n,
    )


def _ref_chamfer(p, q):
    forward = sum(min((pp[0]-qq[0])**2 + (pp[1]-qq[1])**2 + (pp[2]-qq[2])**2 for qq in q) for pp in p)
    backward = sum(min((pp[0]-qq[0])**2 + (pp[1]-qq[1])**2 + (pp[2]-qq[2])**2 for pp in p) for qq in q)
    return forward / len(p) + backward / len(q)


def _ref_f1(p, q, tau):
    def hits(a, b):
        count = 0
        for pa in a:
            dmin = min(math.dist(pa, pb) for pb in b)
            count += dmin <= tau
        return count

    precision = hits(p, q) / len(p)
    recall = hits(q, p) / len(q)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@pytest.mark.montecarlo
def test_criterion_7_oracle_equivalence():
    """Depth metrics, Chamfer, and F1 agree with independent brute-force
    references to 1e-12 on 100 random instances each."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for t in range(100):
        h = int(rng.integers(2, 33))
        w = int(rng.integers(2, 33))
        pred_vals = rng.uniform(0.2, 40.0, (h, w))
        gt_vals = rng.uniform(0.2, 40.0, (h, w))
        valid_p = rng.uniform(size=(h, w)) > 0.2
        valid_g = rng.uniform(size=(h, w)) > 0.2
        if not (valid_p & valid_g).any():
            valid_p[0, 0] = valid_g[0, 0] = True
        cap = 30.0 if t % 3 == 0 else None
        if cap is not None and not ((valid_p & valid_g) & (gt_vals <= cap)).any():
            cap = None
        m = depth_metrics(
            DepthMap(np.where(valid_p, pred_vals, 0.0), valid_p),
            DepthMap(np.where(valid_g, gt_vals, 0.0), valid_g),
            cap=cap,
        )
        ref = _ref_depth_metrics(pred_vals, valid_p, gt_vals, valid_g, cap)
        got = (m.delta1, m.delta2, m.delta3, m.a_rel, m.sq_rel, m.rmse, m.rmse_log, m.log10)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, ref[:8])))
        assert m.n_valid == ref[8]

    for t in range(100):
        if t < 95:
            n, mq = int(rng.integers(2, 80)), int(rng.integers(2, 80))
        else:
            n, mq = int(rng.integers(300, 501)), int(rng.integers(300, 501))
        p = rng.uniform(-3.0, 3.0, (n, 3))
        q = rng.uniform(-3.0, 3.0, (mq, 3))
        pc, qc = PointCloud(p), PointCloud(q)
        worst = max(worst, abs(chamfer_distance(pc, qc).value - _ref_chamfer(p, q)))
        tau = float(rng.uniform(0.05, 1.0))
        worst = max(worst, abs(f1_at_threshold(pc, qc, tau) - _ref_f1(p, q, tau)))
    report(7, worst < 1e-12, f"max |implementation - brute force| = {worst:.1e}")


def _demo_scene(i):
    rng = np.random.default_rng(2000 + i)
    prims = [
        Plane(
            point=(0.0, 0.0, float(rng.uniform(3.2, 4.5))),
            normal=(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.5, 0.5)), -1.0),
        ),
        Sphere(
            center=(
                float(rng.uniform(-0.6, 0.6)),
                float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(2.0, 3.0)),
            ),
            radius=float(rng.uniform(0.4, 0.9)),
        ),
    ]
    if rng.uniform() > 0.5:
        x0, y0 = float(rng.uniform(-0.8, 0.2)), float(rng.uniform(-0.9, 0.1))
        prims.append(
            Box(
                min_corner=(x0, y0, float(rng.uniform(1.5, 2.2))),
                max_corner=(
                    x0 + float(rng.uniform(0.4, 0.9)),
                    y0 + float(rng.uniform(0.4, 0.8)),
                    float(rng.uniform(2.4, 3.0)),
                ),
            )
        )
    return SceneSpec(tuple(prims))


@pytest.mark.montecarlo
def test_criterion_8_refinement_demo():
    """Canonical-FoV sensitivity: from starts at 45/60/75/90 degrees on 20
    scenes with true FoV 65, refinement lowers the FoV error below its
    initial value in 100% of runs with a monotone trace, ending under the
    pinned 2-degree bound (worst observed during pinning: 0.24 deg)."""
    w, h = 16, 12
    runs = 0
    good = 0
    worst_final = 0.0
    for i in range(20):
        scene = _demo_scene(i)
        kgt = Intrinsics(
            fx=focal_from_fov(65.0, w), fy=focal_from_fov(65.0, h),
            cx=w / 2, cy=h / 2, width=w, height=h,
        )
        depth = render_depth(scene, kgt)
        gt_field = field_from_intrinsics(kgt)
        for init_fov in (45.0, 60.0, 75.0, 90.0):
            runs += 1
            cano = CanonicalCamera.for_image(w, h, fov_deg=init_fov)
            k0 = Intrinsics(fx=cano.f_c, fy=cano.f_c, cx=cano.u_c, cy=cano.v_c,
                            width=w, height=h)
            state0 = RefineState.from_maps(depth, k0)
            err0 = fov_error_stats([k0], [kgt]).per_sample[0]
            final, trace = refine_joint(
                state0, depth, gt_field, cano, RefineConfig(max_steps=60, tol=1e-10)
            )
            errf = fov_error_stats([final.to_intrinsics(w, h)], [kgt]).per_sample[0]
            monotone = all(b <= a for a, b in zip(trace, trace[1:]))
            worst_final = max(worst_final, errf)
            good += errf < err0 and errf < 2.0 and monotone
    report(8, good == runs, f"{good}/{runs} runs improved with monotone traces; "
           f"worst final FoV error {worst_final:.3f} deg (bound 2.0)")


@pytest.mark.montecarlo
def test_criterion_9_scale_behavior():
    """Unprojection is equivariant to depth scale; jointly scaling depths
    and separations leaves recovered intrinsics unchanged to 1e-8."""
    rng = np.random.default_rng(55)
    worst_equivariance = 0.0
    for _ in range(50):
        k = Intrinsics(
            fx=float(rng.uniform(50, 400)), fy=float(rng.uniform(50, 400)),
            cx=float(rng.uniform(10, 50)), cy=float(rng.uniform(8, 40)),
            width=64, height=48,
        )
        values = rng.uniform(0.3, 15.0, (48, 64))
        valid = rng.uniform(size=(48, 64)) > 0.3
        s = float(rng.uniform(0.01, 100.0))
        base = unproject_depth_map(k, DepthMap(np.where(valid, values, 0.0), valid)).points
        scaled = unproject_depth_map(
            k, DepthMap(np.where(valid, s * values, 0.0), valid)
        ).points
        if base.size:
            err = np.abs(scaled - s * base) / np.maximum(np.abs(s * base), 1e-300)
            worst_equivariance = max(worst_equivariance, float(err.max()))

    worst_solver = 0.0
    from test_solver import random_exact_constraints

    gt = Intrinsics(fx=500.0, fy=480.0, cx=318.0, cy=242.0, width=640, height=480)
    for trial in range(50):
        cons = random_exact_constraints(gt, 8, seed=900 + trial)
        s = float(rng.uniform(0.05, 20.0))
        base = solve_overdetermined(cons, 640, 480).intrinsics
        scaled_cons = [
            dataclasses.replace(c, d1=s * c.d1, d2=s * c.d2, distance=s * c.distance)
            for c in cons
        ]
        scaled = solve_overdetermined(scaled_cons, 640, 480).intrinsics
        worst_solver = max(
            worst_solver,
            abs(scaled.fx - base.fx) / base.fx,
            abs(scaled.fy - base.fy) / base.fy,
            abs(scaled.cx - base.cx) / abs(base.cx),
            abs(scaled.cy - base.cy) / abs(base.cy),
        )
    ok = worst_equivariance < 1e-13 and worst_solver < 1e-8
    report(9, ok, f"worst unprojection equivariance error {worst_equivariance:.1e}; "
           f"worst solver scale drift {worst_solver:.1e}")


def test_criterion_10_suite_runtime_budget():
    """Everything except the montecarlo-marked statistical tests fits in
    the two-minute budget. Runs last (see conftest ordering)."""
    elapsed = time.perf_counter() - conftest.SESSION["start"]
    montecarlo = conftest.SESSION["montecarlo_seconds"]
    budget_time = elapsed - montecarlo
    report(
        10,
        budget_time < 120.0,
        f"non-montecarlo suite time {budget_time:.1f} s "
        f"(total {elapsed:.1f} s, montecarlo {montecarlo:.1f} s)",
    )
