"""Pinhole model tests: every expected value is hand-computed in place."""

import math

import numpy as np
import pytest

from metricshape.camera import (
    MAX_PIXELS,
    DepthMap,
    Intrinsics,
    PointCloud,
    focal_from_fov,
    fov_from_focal,
    project_point,
    unproject_depth_map,
    unproject_pixel,
)
from metricshape.errors import (
    InvalidDepthError,
    InvalidIntrinsicsError,
    ShapeMismatchError,
)

K = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


class TestUnprojectPixel:
    def test_principal_point_maps_to_optical_axis(self):
        assert unproject_pixel(K, 320.0, 240.0, 2.0) == (0.0, 0.0, 2.0)

    def test_off_center_pixel(self):
        """(420-320)/500 * 2 = 0.4."""
        x, y, z = unproject_pixel(K, 420.0, 240.0, 2.0)
        assert (x, y, z) == (0.4, 0.0, 2.0)

    def test_linear_in_depth(self):
        x1, y1, z1 = unproject_pixel(K, 101.0, 37.0, 1.3)
        x2, y2, z2 = unproject_pixel(K, 101.0, 37.0, 2.6)
        assert (x2, y2, z2) == (2.0 * x1, 2.0 * y1, 2.0 * z1)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_depth_rejected(self, bad):
        with pytest.raises(InvalidDepthError):
            unproject_pixel(K, 320.0, 240.0, bad)


class TestUnprojectDepthMap:
    def test_all_invalid_gives_empty_cloud(self):
        depth = DepthMap(np.zeros((480, 640)), np.zeros((480, 640), bool))
        assert len(unproject_depth_map(K, depth)) == 0

    def test_single_valid_pixel_at_principal_point(self):
        k = Intrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, width=2, height=2)
        valid = np.zeros((2, 2), bool)
        valid[0, 0] = True
        depth = DepthMap(np.where(valid, 2.0, 0.0), valid)
        cloud = unproject_depth_map(k, depth)
        np.testing.assert_array_equal(cloud.points, [[0.0, 0.0, 2.0]])

    def test_constant_plane(self):
        """z stays 2 everywhere; x spans [(0-320)/500*2, (639-320)/500*2]."""
        depth = DepthMap(np.full((480, 640), 2.0), np.ones((480, 640), bool))
        cloud = unproject_depth_map(K, depth)
        assert len(cloud) == 640 * 480
        np.testing.assert_array_equal(cloud.points[:, 2], 2.0)
        assert cloud.points[:, 0].min() == pytest.approx(-1.28, abs=1e-12)
        assert cloud.points[:, 0].max() == pytest.approx(1.276, abs=1e-12)

    def test_row_major_order_over_valid_pixels(self):
        k = Intrinsics(fx=10.0, fy=10.0, cx=1.0, cy=1.0, width=3, height=2)
        valid = np.array([[True, False, True], [False, True, False]])
        values = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        cloud = unproject_depth_map(k, DepthMap(values, valid))
        # pixels (0,0), (2,0), (1,1) in row-major order
        np.testing.assert_allclose(cloud.points[:, 2], [1.0, 2.0, 3.0])

    def test_dimension_mismatch(self):
        depth = DepthMap(np.ones((4, 4)), np.ones((4, 4), bool))
        with pytest.raises(ShapeMismatchError):
            unproject_depth_map(K, depth)

    def test_depth_scale_equivariance(self):
        rng = np.random.default_rng(11)
        for s in (0.5, 2.0, 3.7, 1e3):
            values = rng.uniform(0.5, 9.0, (6, 7))
            valid = rng.uniform(size=(6, 7)) > 0.3
            k = Intrinsics(fx=40.0, fy=35.0, cx=3.1, cy=2.7, width=7, height=6)
            base = unproject_depth_map(k, DepthMap(np.where(valid, values, 0.0), valid))
            scaled = unproject_depth_map(
                k, DepthMap(np.where(valid, s * values, 0.0), valid)
            )
            np.testing.assert_allclose(scaled.points, s * base.points, rtol=1e-14)

    def test_principal_point_shift(self):
        """Moving cx by delta changes x by -delta*d/fx at every pixel."""
        delta = 13.0
        depth = DepthMap(np.full((4, 4), 3.0), np.ones((4, 4), bool))
        k1 = Intrinsics(fx=50.0, fy=50.0, cx=2.0, cy=2.0, width=4, height=4)
        k2 = Intrinsics(fx=50.0, fy=50.0, cx=2.0 + delta, cy=2.0, width=4, height=4)
        c1 = unproject_depth_map(k1, depth).points
        c2 = unproject_depth_map(k2, depth).points
        np.testing.assert_allclose(c2[:, 0] - c1[:, 0], -delta * 3.0 / 50.0, rtol=1e-12)
        np.testing.assert_array_equal(c1[:, 1:], c2[:, 1:])

    def test_project_recovers_source_pixel(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u, v = rng.uniform(0, 640), rng.uniform(0, 480)
            d = rng.uniform(0.1, 50.0)
            x, y, z = unproject_pixel(K, u, v, d)
            u2, v2 = project_point(K, x, y, z)
            assert u2 == pytest.approx(u, abs=1e-9)
            assert v2 == pytest.approx(v, abs=1e-9)


class TestFovConversion:
    def test_fov_90_deg(self):
        """atan(640 / (2*320)) = atan(1) = 45 deg, doubled."""
        assert fov_from_focal(320.0, 640) == pytest.approx(90.0, abs=1e-12)

    def test_fov_of_f500(self):
        """2*atan(0.64) in degrees = 65.23848614... (closed form)."""
        expected = math.degrees(2.0 * math.atan(640.0 / (2.0 * 500.0)))
        assert expected == pytest.approx(65.23848614238565, abs=1e-10)
        assert fov_from_focal(500.0, 640) == pytest.approx(expected, abs=1e-3)

    def test_focal_from_fov_90(self):
        assert focal_from_fov(90.0, 640) == pytest.approx(320.0, rel=1e-12)

    def test_focal_inverse_of_fov(self):
        assert focal_from_fov(65.23848614238565, 640) == pytest.approx(500.0, abs=1e-3)

    def test_round_trip_identity(self):
        for f in (10.0, 123.4, 500.0, 5e4):
            back = focal_from_fov(fov_from_focal(f, 640), 640)
            assert back == pytest.approx(f, rel=1e-10)

    def test_fov_strictly_decreasing_in_focal(self):
        focals = np.linspace(50, 5000, 200)
        fovs = [fov_from_focal(f, 640) for f in focals]
        assert all(a > b for a, b in zip(fovs, fovs[1:]))

    def test_fov_180_is_domain_error(self):
        with pytest.raises(ValueError):
            focal_from_fov(180.0, 640)
        with pytest.raises(ValueError):
            focal_from_fov(0.0, 640)

    def test_nonpositive_focal_rejected(self):
        with pytest.raises(InvalidIntrinsicsError):
            fov_from_focal(0.0, 640)
        with pytest.raises(InvalidIntrinsicsError):
            fov_from_focal(-5.0, 640)


class TestTypes:
    def test_intrinsics_validation(self):
        with pytest.raises(InvalidIntrinsicsError):
            Intrinsics(fx=-1.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4)
        with pytest.raises(InvalidIntrinsicsError):
            Intrinsics(fx=1.0, fy=1.0, cx=math.nan, cy=0.0, width=4, height=4)
        with pytest.raises(InvalidIntrinsicsError):
            Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1, height=4)

    def test_image_too_large_to_address_is_rejected(self):
        """Sizes whose (h, w, 3) float64 ray grid numpy cannot address."""
        with pytest.raises(InvalidIntrinsicsError, match="width x height"):
            Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=10**19, height=24)
        Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=MAX_PIXELS // 2, height=2)

    def test_off_center_principal_point_is_legal(self):
        Intrinsics(fx=10.0, fy=10.0, cx=-50.0, cy=900.0, width=4, height=4)

    def test_intrinsics_matrix(self):
        np.testing.assert_array_equal(
            K.matrix, [[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]]
        )

    def test_depth_map_rejects_bad_valid_values(self):
        with pytest.raises(InvalidDepthError):
            DepthMap(np.array([[1.0, -2.0]]), np.array([[True, True]]))
        with pytest.raises(InvalidDepthError):
            DepthMap(np.array([[1.0, math.nan]]), np.array([[True, True]]))
        # masked entries may hold anything
        DepthMap(np.array([[1.0, -2.0]]), np.array([[True, False]]))

    def test_depth_map_shape_checks(self):
        with pytest.raises(ShapeMismatchError):
            DepthMap(np.ones((2, 2)), np.ones((2, 3), bool))
        with pytest.raises(ShapeMismatchError):
            DepthMap(np.ones(4), np.ones(4, bool))

    def test_depth_map_from_values(self):
        d = DepthMap.from_values(np.array([[1.0, -1.0], [math.nan, 2.0]]))
        np.testing.assert_array_equal(d.valid, [[True, False], [False, True]])

    def test_depth_map_is_frozen(self):
        d = DepthMap(np.ones((2, 2)), np.ones((2, 2), bool))
        with pytest.raises(ValueError):
            d.values[0, 0] = 5.0

    def test_point_cloud_validation(self):
        with pytest.raises(ShapeMismatchError):
            PointCloud(np.ones((3, 2)))
        with pytest.raises(ValueError):
            PointCloud(np.array([[1.0, 2.0, math.inf]]))
        assert len(PointCloud(np.zeros((0, 3)))) == 0
