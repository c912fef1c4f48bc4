"""Incidence field construction, residual algebra, and intrinsics fitting."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import RICH_SCENE
from float_preimage import check_round_trip, has_preimage
from metricshape.camera import DepthMap, Intrinsics, unproject_depth_map
from metricshape.errors import DegenerateFieldError, InvalidDepthError, ShapeMismatchError
from metricshape.incidence import (
    CanonicalCamera,
    IncidenceField,
    canonical_field,
    compose_residual,
    extract_residual,
    field_from_intrinsics,
    fit_intrinsics_from_field,
    unproject_with_field,
    z1_from_rays,
)
from metricshape.synthetic import render_depth


class TestFieldFromIntrinsics:
    def test_principal_pixel_ray(self):
        k = Intrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
        f = field_from_intrinsics(k)
        np.testing.assert_array_equal(f.rays[240, 320], [0.0, 0.0, 1.0])

    def test_corner_ray(self):
        """(0-320)/400 = -0.8, (0-240)/400 = -0.6."""
        k = Intrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
        f = field_from_intrinsics(k)
        np.testing.assert_array_equal(f.rays[0, 0], [-0.8, -0.6, 1.0])

    def test_doubling_fx_halves_x_components_exactly(self):
        k1 = Intrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
        k2 = Intrinsics(fx=800.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
        f1 = field_from_intrinsics(k1)
        f2 = field_from_intrinsics(k2)
        np.testing.assert_array_equal(f2.x, f1.x / 2.0)
        np.testing.assert_array_equal(f2.y, f1.y)


class TestCanonicalField:
    def test_center_pixel(self):
        cano = CanonicalCamera(f_c=300.0, u_c=320.0, v_c=240.0)
        f = canonical_field(cano, 640, 480)
        np.testing.assert_array_equal(f.rays[240, 320], [0.0, 0.0, 1.0])

    def test_corner_from_60_deg_fov(self):
        """f_c = 320/tan(30 deg); corner components are -tan(30 deg) and -0.75*tan(30 deg)."""
        cano = CanonicalCamera.for_image(640, 480, fov_deg=60.0)
        assert cano.f_c == pytest.approx(554.2562584220407, abs=1e-9)
        f = canonical_field(cano, 640, 480)
        assert f.rays[0, 0, 0] == pytest.approx(-math.tan(math.radians(30.0)), abs=1e-12)
        assert f.rays[0, 0, 0] == pytest.approx(-0.5773502691896257, abs=1e-12)
        assert f.rays[0, 0, 1] == pytest.approx(-0.4330127018922193, abs=1e-12)
        assert f.rays[0, 0, 2] == 1.0

    def test_matches_field_from_intrinsics_exactly(self):
        cano = CanonicalCamera(f_c=417.25, u_c=320.0, v_c=240.0)
        k = Intrinsics(fx=417.25, fy=417.25, cx=320.0, cy=240.0, width=640, height=480)
        np.testing.assert_array_equal(
            canonical_field(cano, 640, 480).rays, field_from_intrinsics(k).rays
        )

    def test_intrinsics_of_the_prior(self):
        """One focal length on both axes, principal point at the image center."""
        cano = CanonicalCamera.for_image(64, 48, fov_deg=60.0)
        k = cano.intrinsics(64, 48)
        assert k == Intrinsics(
            fx=cano.f_c, fy=cano.f_c, cx=32.0, cy=24.0, width=64, height=48
        )
        assert k.fov_x() == pytest.approx(60.0, abs=1e-12)


class TestResidualAlgebra:
    def setup_method(self):
        self.cano = CanonicalCamera.for_image(64, 48, fov_deg=60.0)
        self.cano_field = canonical_field(self.cano, 64, 48)

    def test_all_ones_residual_is_identity(self):
        ones = IncidenceField(np.ones((48, 64, 3)))
        out = compose_residual(ones, self.cano_field)
        np.testing.assert_array_equal(out.rays, self.cano_field.rays)

    def test_constant_focal_ratio_residual(self):
        """Residual x = y = f_c/f turns the canonical field into the field of focal f."""
        f = 500.0
        rays = np.ones((48, 64, 3))
        rays[..., 0] = self.cano.f_c / f
        rays[..., 1] = self.cano.f_c / f
        out = compose_residual(IncidenceField(rays), self.cano_field)
        k = Intrinsics(fx=f, fy=f, cx=32.0, cy=24.0, width=64, height=48)
        np.testing.assert_allclose(out.rays, field_from_intrinsics(k).rays, rtol=1e-12)

    def test_extract_of_cano_is_all_ones_off_mask(self):
        res, mask = extract_residual(self.cano_field, self.cano_field)
        assert np.all(res.rays[~mask] == 1.0)

    def test_principal_column_and_row_masked(self):
        """u_c = 32 and v_c = 24 are integer pixels, so exactly one column
        and one row have a vanishing canonical component."""
        _, mask = extract_residual(self.cano_field, self.cano_field)
        expected = np.zeros((48, 64), bool)
        expected[:, 32] = True
        expected[24, :] = True
        np.testing.assert_array_equal(mask, expected)

    def test_constant_ratio_extract(self):
        """gt focal 500 vs canonical 400, same center: quotient is 400/500 = 0.8."""
        k = Intrinsics(fx=500.0, fy=500.0, cx=32.0, cy=24.0, width=64, height=48)
        cano = CanonicalCamera(f_c=400.0, u_c=32.0, v_c=24.0)
        cf = canonical_field(cano, 64, 48)
        res, mask = extract_residual(field_from_intrinsics(k), cf)
        np.testing.assert_allclose(res.rays[~mask][:, :2], 0.8, rtol=1e-12)

    def test_compose_extract_round_trip_within_one_ulp(self):
        """Exact at every component that has a float64 preimage (some q with
        fl(q*c) == g) and within one ulp at the rest; see float_preimage for
        why bit-exactness everywhere is not representable."""
        rng = np.random.default_rng(17)
        cano = canonical_field(CanonicalCamera.for_image(640, 480), 640, 480)
        for _ in range(5):
            k = Intrinsics(
                fx=rng.uniform(300, 900), fy=rng.uniform(300, 900),
                cx=rng.uniform(300, 340), cy=rng.uniform(220, 260),
                width=640, height=480,
            )
            gt = field_from_intrinsics(k)
            res, mask = extract_residual(gt, cano)
            out = compose_residual(res, cano)
            keep = ~mask
            for c in range(2):
                check = check_round_trip(
                    out.rays[..., c][keep], gt.rays[..., c][keep], cano.rays[..., c][keep]
                )
                assert check.ok, check

    def test_shape_mismatch(self):
        small = canonical_field(self.cano, 32, 24)
        with pytest.raises(ShapeMismatchError):
            compose_residual(small, self.cano_field)
        with pytest.raises(ShapeMismatchError):
            extract_residual(small, self.cano_field)


class TestPreimageOracle:
    def test_pair_without_preimage(self):
        """No double q has fl(q * 1.25) == 1.5 + 3 * 2**-52."""
        g = 1.5 + 3 * 2.0**-52
        assert g == 1.5000000000000007
        assert not has_preimage(g, 1.25)
        q = g / 1.25
        for step in range(-64, 65):
            candidate = q + step * np.spacing(q)
            assert candidate * 1.25 != g

    def test_pair_with_preimage(self):
        assert has_preimage(1.5, 1.25)
        assert 1.2 * 1.25 == 1.5

    def test_rejects_reciprocal_multiply_quotient(self):
        """q = g * (1/c) misses preimages that exist, so a round trip built
        on it fails the check that criterion 6b applies."""
        cano = canonical_field(CanonicalCamera.for_image(64, 48), 64, 48)
        k = Intrinsics(fx=517.3, fy=489.9, cx=31.7, cy=23.2, width=64, height=48)
        gt = field_from_intrinsics(k)
        for c in range(2):
            keep = cano.rays[..., c] != 0.0
            g = gt.rays[..., c][keep]
            cc = cano.rays[..., c][keep]
            reciprocal = check_round_trip((g * (1.0 / cc)) * cc, g, cc)
            assert reciprocal.missed > 0
            assert not reciprocal.ok


class TestFitIntrinsics:
    def test_round_trip_identity(self):
        k = Intrinsics(fx=517.3, fy=489.9, cx=311.7, cy=251.2, width=640, height=480)
        fitted = fit_intrinsics_from_field(field_from_intrinsics(k))
        assert fitted.fx == pytest.approx(k.fx, rel=1e-9)
        assert fitted.fy == pytest.approx(k.fy, rel=1e-9)
        assert fitted.cx == pytest.approx(k.cx, rel=1e-9)
        assert fitted.cy == pytest.approx(k.cy, rel=1e-9)

    @pytest.mark.montecarlo
    def test_small_noise_keeps_fit_close(self):
        """sigma = 1e-6 on ray components leaves the fit within 1e-4 relative
        (observed worst over these 100 trials is below 1e-6)."""
        rng = np.random.default_rng(0)
        for t in range(100):
            fx, fy = rng.uniform(250, 800, 2)
            k = Intrinsics(fx=fx, fy=fy, cx=rng.uniform(28, 36), cy=rng.uniform(20, 28),
                           width=64, height=48)
            rays = field_from_intrinsics(k).rays.copy()
            rays[..., 0] += rng.normal(0.0, 1e-6, (48, 64))
            rays[..., 1] += rng.normal(0.0, 1e-6, (48, 64))
            fitted = fit_intrinsics_from_field(IncidenceField(rays))
            assert fitted.fx == pytest.approx(k.fx, rel=1e-4)
            assert fitted.fy == pytest.approx(k.fy, rel=1e-4)
            assert fitted.cx == pytest.approx(k.cx, rel=1e-4)
            assert fitted.cy == pytest.approx(k.cy, rel=1e-4)

    def test_single_column_mask_is_degenerate(self):
        k = Intrinsics(fx=500.0, fy=500.0, cx=32.0, cy=24.0, width=64, height=48)
        mask = np.zeros((48, 64), bool)
        mask[:, 10] = True
        with pytest.raises(DegenerateFieldError):
            fit_intrinsics_from_field(field_from_intrinsics(k), mask)

    def test_too_few_pixels(self):
        k = Intrinsics(fx=500.0, fy=500.0, cx=32.0, cy=24.0, width=64, height=48)
        mask = np.zeros((48, 64), bool)
        mask[3, 7] = True
        with pytest.raises(DegenerateFieldError):
            fit_intrinsics_from_field(field_from_intrinsics(k), mask)


class TestUnprojectWithField:
    def test_single_ray(self):
        field = IncidenceField(np.array([[[0.0, 0.0, 1.0], [0.5, -0.5, 1.0]]]))
        depth = DepthMap(np.array([[3.0, 2.0]]), np.array([[True, True]]))
        cloud = unproject_with_field(field, depth)
        np.testing.assert_array_equal(cloud.points, [[0.0, 0.0, 3.0], [1.0, -1.0, 2.0]])

    def test_bitwise_equivalence_with_camera_unprojection(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            k = Intrinsics(
                fx=rng.uniform(100, 900), fy=rng.uniform(100, 900),
                cx=rng.uniform(10, 54), cy=rng.uniform(8, 40), width=64, height=48,
            )
            values = rng.uniform(0.2, 20.0, (48, 64))
            valid = rng.uniform(size=(48, 64)) > 0.25
            depth = DepthMap(np.where(valid, values, 0.0), valid)
            a = unproject_depth_map(k, depth).points
            b = unproject_with_field(field_from_intrinsics(k), depth).points
            np.testing.assert_array_equal(a, b)

    def test_scaling_rays_scales_xy_only(self):
        rays = np.ones((2, 2, 3))
        rays[..., 0] = 0.25
        rays[..., 1] = -0.5
        depth = DepthMap(np.full((2, 2), 4.0), np.ones((2, 2), bool))
        base = unproject_with_field(IncidenceField(rays), depth).points
        scaled_rays = rays.copy()
        scaled_rays[..., 0] *= 3.0
        scaled_rays[..., 1] *= 3.0
        scaled = unproject_with_field(IncidenceField(scaled_rays), depth).points
        np.testing.assert_array_equal(scaled[:, :2], 3.0 * base[:, :2])
        np.testing.assert_array_equal(scaled[:, 2], base[:, 2])

    def test_shape_mismatch(self):
        field = IncidenceField(np.ones((2, 2, 3)))
        depth = DepthMap(np.ones((3, 3)), np.ones((3, 3), bool))
        with pytest.raises(ShapeMismatchError):
            unproject_with_field(field, depth)


class TestZ1Normalization:
    def test_unit_rays_to_z1(self):
        k = Intrinsics(fx=300.0, fy=280.0, cx=31.0, cy=25.0, width=64, height=48)
        z1 = field_from_intrinsics(k)
        norms = np.linalg.norm(z1.rays, axis=2, keepdims=True)
        recovered = z1_from_rays(z1.rays / norms)
        np.testing.assert_allclose(recovered.rays, z1.rays, rtol=1e-13)
        assert np.all(recovered.rays[..., 2] == 1.0)

    def test_zero_z_rejected(self):
        rays = np.ones((1, 2, 3))
        rays[0, 1, 2] = 0.0
        with pytest.raises(ValueError):
            z1_from_rays(rays)

    @pytest.mark.parametrize("z", [0.0, 2.0, -1.0, 1.0 + 2.0**-52])
    def test_field_off_z1_form_is_rejected_at_construction(self, z):
        rays = np.ones((2, 3, 3))
        rays[1, 2, 2] = z
        with pytest.raises(ValueError, match="z=1 form"):
            IncidenceField(rays)


K_PACKAGE = Intrinsics(fx=14.0, fy=11.0, cx=7.25, cy=5.5, width=16, height=12)
CANO_PACKAGE = canonical_field(CanonicalCamera.for_image(16, 12), 16, 12)
DEPTHS_ANY = np.array([[np.nan, np.inf, -np.inf, 0.0], [-0.0, -2.0, 1e-320, 3.5],
                       [1.0, 2.0, 1e300, np.nan]])
PRODUCERS = {
    "render_depth": lambda: render_depth(RICH_SCENE, K_PACKAGE),
    "DepthMap.from_values": lambda: DepthMap.from_values(DEPTHS_ANY),
    "field_from_intrinsics": lambda: field_from_intrinsics(K_PACKAGE),
    "compose_residual": lambda: compose_residual(
        extract_residual(field_from_intrinsics(K_PACKAGE), CANO_PACKAGE)[0], CANO_PACKAGE),
    "extract_residual": lambda: extract_residual(field_from_intrinsics(K_PACKAGE), CANO_PACKAGE)[0],
    "z1_from_rays": lambda: z1_from_rays(2.5 * field_from_intrinsics(K_PACKAGE).rays),
    "unproject_with_field": lambda: unproject_with_field(
        field_from_intrinsics(K_PACKAGE), render_depth(RICH_SCENE, K_PACKAGE)),
}


class TestPackageMadeValues:
    """Values the package computes are values their public constructor
    accepts unchanged, with read-only arrays."""

    @pytest.mark.parametrize("produce", PRODUCERS.values(), ids=PRODUCERS.keys())
    def test_rebuilding_through_the_public_constructor_changes_nothing(self, produce):
        value = produce()
        arrays = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        rebuilt = type(value)(**arrays)
        for name, array in arrays.items():
            again = getattr(rebuilt, name)
            assert again.dtype == array.dtype
            np.testing.assert_array_equal(again, array)

    @pytest.mark.parametrize("produce", PRODUCERS.values(), ids=PRODUCERS.keys())
    def test_arrays_are_read_only(self, produce):
        value = produce()
        for f in dataclasses.fields(value):
            assert not getattr(value, f.name).flags.writeable

    def test_from_values_marks_only_finite_positive_depths_valid(self):
        depth = DepthMap.from_values(DEPTHS_ANY)
        np.testing.assert_array_equal(depth.valid, [[0, 0, 0, 0], [0, 0, 1, 1], [1, 1, 1, 0]])
        np.testing.assert_array_equal(depth.values[~depth.valid], 0.0)

    def test_from_values_rejects_what_is_not_a_grid(self):
        with pytest.raises(ShapeMismatchError, match=r"must be a 2-d grid, got \(2, 2, 2\)"):
            DepthMap.from_values(np.ones((2, 2, 2)))


class TestOverflowErrorsUnchanged:
    """An overflow in a package-made value raises the class and message the
    public constructor raised for it, after numpy's warning."""

    def test_subnormal_fx_in_field_from_intrinsics(self):
        k = Intrinsics(fx=5e-324, fy=1.0, cx=2.0, cy=1.0, width=4, height=3)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(DegenerateFieldError, match="^ray components must be finite$"):
                field_from_intrinsics(k)

    def test_overflowing_product_in_compose_residual(self):
        big = IncidenceField(np.dstack([np.full((3, 4), 1e200)] + [np.ones((3, 4))] * 2))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(DegenerateFieldError, match="^ray components must be finite$"):
                compose_residual(big, big)

    def test_overflowing_product_in_unproject_with_field(self):
        field = IncidenceField(np.dstack([np.full((3, 4), 1e200)] + [np.ones((3, 4))] * 2))
        depth = DepthMap(np.full((3, 4), 1e200), np.ones((3, 4), bool))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(InvalidDepthError, match="^point coordinates must be finite$"):
                unproject_with_field(field, depth)
