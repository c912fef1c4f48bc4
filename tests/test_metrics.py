"""Depth, FoV, and shape metric values against hand computations."""

import math

import numpy as np
import pytest

from metricshape.camera import DepthMap, Intrinsics, PointCloud
from metricshape.errors import (
    EmptyCloudError, EmptyOverlapError, InvalidSettingError, ShapeMismatchError,
)
from metricshape.metrics import (
    depth_metrics,
    f1_at_threshold,
    fov_error_stats,
    shape_metrics,
)


def one_pixel_maps(pred_value, gt_value):
    valid = np.array([[True, False], [False, False]])
    pred = DepthMap(np.where(valid, pred_value, 0.0), valid)
    gt = DepthMap(np.where(valid, gt_value, 0.0), valid)
    return pred, gt


class TestDepthMetrics:
    def test_perfect_prediction(self):
        d = DepthMap(np.full((4, 4), 2.5), np.ones((4, 4), bool))
        m = depth_metrics(d, d)
        assert (m.delta1, m.delta2, m.delta3) == (1.0, 1.0, 1.0)
        assert m.a_rel == m.sq_rel == m.rmse == m.rmse_log == m.log10 == 0.0
        assert m.n_valid == 16

    def test_factor_two_single_pixel(self):
        """pred 1 vs gt 2: a_rel = 1/2, sq_rel = 1/2, rmse = 1; the ratio 2
        exceeds 1.25^3 = 1.953125 so every delta is 0."""
        pred, gt = one_pixel_maps(1.0, 2.0)
        m = depth_metrics(pred, gt)
        assert m.a_rel == pytest.approx(0.5)
        assert m.sq_rel == pytest.approx(0.5)
        assert m.rmse == pytest.approx(1.0)
        assert (m.delta1, m.delta2, m.delta3) == (0.0, 0.0, 0.0)
        assert m.rmse_log == pytest.approx(math.log(2.0), abs=1e-12)
        assert m.log10 == pytest.approx(math.log10(2.0), abs=1e-12)

    def test_delta_is_symmetric_ratio(self):
        rng = np.random.default_rng(3)
        a = DepthMap(rng.uniform(1, 5, (5, 5)), np.ones((5, 5), bool))
        b = DepthMap(rng.uniform(1, 5, (5, 5)), np.ones((5, 5), bool))
        ma, mb = depth_metrics(a, b), depth_metrics(b, a)
        assert (ma.delta1, ma.delta2, ma.delta3) == (mb.delta1, mb.delta2, mb.delta3)

    def test_cap_masks_deep_ground_truth(self):
        valid = np.ones((1, 3), bool)
        pred = DepthMap(np.array([[1.0, 2.0, 3.0]]), valid)
        gt = DepthMap(np.array([[1.0, 2.0, 30.0]]), valid)
        m = depth_metrics(pred, gt, cap=10.0)
        assert m.n_valid == 2
        assert m.rmse == 0.0

    def test_cap_can_empty_the_overlap(self):
        pred, gt = one_pixel_maps(2.0, 20.0)
        with pytest.raises(EmptyOverlapError):
            depth_metrics(pred, gt, cap=10.0)

    @pytest.mark.parametrize("cap", [math.nan, 0.0, -1.0])
    def test_cap_that_is_not_positive_is_a_setting_error(self, cap):
        """Named as a bad cap, not blamed on the data as an empty overlap."""
        d = DepthMap(np.full((2, 2), 2.5), np.ones((2, 2), bool))
        with pytest.raises(InvalidSettingError, match=f"^cap must be positive, got {cap}$"):
            depth_metrics(d, d, cap=cap)


class TestFovErrors:
    def k(self, fx, fy, w=640, h=480):
        return Intrinsics(fx=fx, fy=fy, cx=w / 2, cy=h / 2, width=w, height=h)

    def test_identical_cameras(self):
        s = fov_error_stats([self.k(500, 500)], [self.k(500, 500)])
        assert s.mean == 0.0 and s.median == 0.0

    def test_mean_and_median_of_two(self):
        """Per-sample x-axis errors 1 and 2 degrees -> mean 1.5, median 1.5."""
        from metricshape.camera import focal_from_fov, fov_from_focal

        gt = [self.k(500, 500), self.k(400, 400)]
        pred = [
            self.k(focal_from_fov(fov_from_focal(500, 640) + 1.0, 640), 500),
            self.k(focal_from_fov(fov_from_focal(400, 640) + 2.0, 640), 400),
        ]
        s = fov_error_stats(pred, gt, axis="x")
        assert s.mean == pytest.approx(1.5, abs=1e-9)
        assert s.median == pytest.approx(1.5, abs=1e-9)
        assert s.per_sample == pytest.approx((1.0, 2.0), abs=1e-9)

    def test_axis_both_averages(self):
        pred = [self.k(500, 400)]
        gt = [self.k(400, 500)]
        sx = fov_error_stats(pred, gt, axis="x").mean
        sy = fov_error_stats(pred, gt, axis="y").mean
        sb = fov_error_stats(pred, gt, axis="both").mean
        assert sb == pytest.approx(0.5 * (sx + sy), rel=1e-12)

    def test_invariant_to_common_rescale(self):
        base = fov_error_stats([self.k(500, 480)], [self.k(450, 470)]).mean
        scaled = fov_error_stats(
            [self.k(1000, 960, 1280, 960)], [self.k(900, 940, 1280, 960)]
        ).mean
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            fov_error_stats([self.k(500, 500)], [])


class TestF1:
    def test_identical_clouds(self):
        p = PointCloud(np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]))
        for tau in (1e-6, 0.1, 10.0):
            assert f1_at_threshold(p, p, tau) == 1.0

    def test_step_at_two_tenths(self):
        p = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        q = PointCloud(np.array([[0.0, 0.0, 0.2]]))
        assert f1_at_threshold(p, q, 0.1) == 0.0
        assert f1_at_threshold(p, q, 0.3) == 1.0

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(12)
        p = PointCloud(rng.uniform(-1, 1, (30, 3)))
        q = PointCloud(rng.uniform(-1, 1, (40, 3)))
        taus = np.linspace(0.01, 2.0, 25)
        scores = [f1_at_threshold(p, q, t) for t in taus]
        assert all(a <= b for a, b in zip(scores, scores[1:]))

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        p = PointCloud(rng.uniform(-1, 1, (15, 3)))
        q = PointCloud(rng.uniform(-1, 1, (22, 3)))
        for tau in (0.05, 0.3, 0.75):
            assert f1_at_threshold(p, q, tau) == f1_at_threshold(q, p, tau)

    def test_empty_cloud_and_bad_tau(self):
        p = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        with pytest.raises(EmptyCloudError):
            f1_at_threshold(PointCloud(np.zeros((0, 3))), p, 0.1)
        with pytest.raises(ValueError):
            f1_at_threshold(p, p, 0.0)


class TestShapeMetrics:
    def test_matches_individual_calls(self):
        from metricshape.losses import chamfer_distance

        rng = np.random.default_rng(14)
        p = PointCloud(rng.uniform(-1, 1, (50, 3)))
        q = PointCloud(rng.uniform(-1, 1, (60, 3)))
        sm = shape_metrics(p, q)
        assert sm.chamfer == chamfer_distance(p, q).value
        for tau, score in sm.f1.items():
            assert score == f1_at_threshold(p, q, tau)

    def test_f1_nondecreasing_across_thresholds(self):
        rng = np.random.default_rng(15)
        p = PointCloud(rng.uniform(-1, 1, (40, 3)))
        q = PointCloud(rng.uniform(-1, 1, (40, 3)))
        scores = list(shape_metrics(p, q).f1.values())
        assert all(a <= b for a, b in zip(scores, scores[1:]))

    def test_bad_tau_is_rejected_before_the_nn_search(self, monkeypatch):
        import metricshape.metrics as metrics

        def no_search(*args):
            raise AssertionError("nearest-neighbour search ran before the thresholds were checked")

        monkeypatch.setattr(metrics, "_mutual_nearest", no_search)
        p = PointCloud(np.zeros((3, 3)))
        with pytest.raises(InvalidSettingError, match="^tau must be positive, got 0.0$"):
            shape_metrics(p, p, (0.1, 0.0))
