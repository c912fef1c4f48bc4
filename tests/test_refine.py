"""Joint depth/intrinsics refinement: line-search contract and convergence."""

import importlib

import numpy as np
import pytest

from metricshape.camera import DepthMap, Intrinsics, focal_from_fov
from metricshape.errors import InvalidInitializationError, InvalidIntrinsicsError
from metricshape.incidence import CanonicalCamera, field_from_intrinsics
from metricshape.losses import LossWeights
from metricshape.metrics import depth_metrics, fov_error_stats, shape_metrics
from metricshape.refine import (
    RefineConfig,
    RefineState,
    _full_gt_objective,
    refine_joint,
    refine_report,
)
from metricshape.synthetic import Plane, SceneSpec, Sphere, render_depth


W, H = 16, 12
SCENE = SceneSpec(
    (
        Plane(point=(0, 0, 3.5), normal=(0.15, 0.3, -1.0)),
        Sphere(center=(0.2, -0.1, 2.2), radius=0.6),
    )
)
K_GT = Intrinsics(
    fx=focal_from_fov(65.0, W), fy=focal_from_fov(65.0, H), cx=W / 2, cy=H / 2,
    width=W, height=H,
)
DEPTH_GT = render_depth(SCENE, K_GT)
FIELD_GT = field_from_intrinsics(K_GT)


def canonical_start(fov_deg):
    cano = CanonicalCamera.for_image(W, H, fov_deg=fov_deg)
    k0 = cano.intrinsics(W, H)
    return cano, RefineState.from_maps(DEPTH_GT, k0), k0


class TestRefineJoint:
    def test_zero_steps_returns_initial_state(self):
        cano, state0, _ = canonical_start(45.0)
        final, trace = refine_joint(state0, DEPTH_GT, FIELD_GT, cano, RefineConfig(max_steps=0))
        assert len(trace) == 1
        np.testing.assert_array_equal(final.log_depth, state0.log_depth)
        np.testing.assert_array_equal(final.theta, state0.theta)

    def test_start_at_ground_truth_is_already_optimal(self):
        cano = CanonicalCamera.for_image(W, H, fov_deg=65.0)
        state0 = RefineState.from_maps(DEPTH_GT, K_GT)
        final, trace = refine_joint(state0, DEPTH_GT, FIELD_GT, cano, RefineConfig(max_steps=50))
        assert trace[0] <= 1e-10
        np.testing.assert_allclose(np.exp(final.theta[:2]), (K_GT.fx, K_GT.fy), rtol=1e-8)

    def test_recovers_fov_from_wrong_start(self):
        """FoV starts 20 degrees off; the combined loss pulls it under 2."""
        cano, state0, k0 = canonical_start(45.0)
        err0 = fov_error_stats([k0], [K_GT]).per_sample[0]
        final, trace = refine_joint(
            state0, DEPTH_GT, FIELD_GT, cano, RefineConfig(max_steps=60, tol=1e-10)
        )
        errf = fov_error_stats([final.to_intrinsics(W, H)], [K_GT]).per_sample[0]
        assert errf < 2.0 < err0
        assert len(trace) <= 61

    def test_tol_stops_after_the_first_accepted_step(self):
        """Every decrease is below a huge tol, so the first accepted step ends
        the descent where a one-step run ends it."""
        cano, state0, _ = canonical_start(45.0)
        final, trace = refine_joint(
            state0, DEPTH_GT, FIELD_GT, cano, RefineConfig(max_steps=50, tol=1e300)
        )
        one, one_trace = refine_joint(state0, DEPTH_GT, FIELD_GT, cano, RefineConfig(max_steps=1))
        assert len(trace) == 2 and trace == one_trace
        np.testing.assert_array_equal(final.log_depth, one.log_depth)
        np.testing.assert_array_equal(final.theta, one.theta)

    def test_trace_is_monotone_non_increasing(self):
        cano, state0, _ = canonical_start(90.0)
        _, trace = refine_joint(state0, DEPTH_GT, FIELD_GT, cano, RefineConfig(max_steps=40))
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_depth_only_refinement_reaches_ground_truth(self):
        """With beta = gamma = 0 and lam < 1 the optimum of the remaining
        log-depth term is exactly the reference depth."""
        rng = np.random.default_rng(1)
        bent = DEPTH_GT.values * np.exp(rng.normal(0.0, 0.2, DEPTH_GT.values.shape))
        init_depth = DepthMap(np.where(DEPTH_GT.valid, bent, 0.0), DEPTH_GT.valid)
        cano = CanonicalCamera.for_image(W, H, fov_deg=65.0)
        state0 = RefineState.from_maps(init_depth, K_GT)
        cfg = RefineConfig(
            weights=LossWeights(alpha=1.0, beta=0.0, gamma=0.0, lam=0.5),
            depth_lr=2.0, max_steps=400,
        )
        final, _ = refine_joint(state0, DEPTH_GT, FIELD_GT, cano, cfg)
        refined = final.to_depth_map(DEPTH_GT.valid)
        rel = np.abs(refined.values - DEPTH_GT.values)[DEPTH_GT.valid]
        rel /= DEPTH_GT.values[DEPTH_GT.valid]
        assert rel.max() < 1e-3

    def test_non_finite_initial_loss_is_rejected(self):
        """log-depth of 709 makes depths ~8e307; their squared pairwise
        distances overflow, so the initial loss is infinite."""
        cano, state0, _ = canonical_start(65.0)
        huge = RefineState(log_depth=np.full((H, W), 709.0), theta=state0.theta)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(InvalidInitializationError):
                refine_joint(huge, DEPTH_GT, FIELD_GT, cano, RefineConfig(max_steps=5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RefineConfig(depth_lr=0.0)
        with pytest.raises(ValueError):
            RefineConfig(max_steps=-1)


class TestFullGroundTruthObjective:
    @pytest.mark.parametrize("j, name", [(0, "fx"), (1, "fy")])
    @pytest.mark.parametrize("log_f, got", [(800.0, "inf"), (-800.0, "0.0")])
    def test_focal_beyond_float_range_is_invalid_intrinsics(self, j, name, log_f, got):
        """math.exp raises OverflowError for the one and underflows to 0 for
        the other: a trial step can reach such a theta."""
        cano, state0, _ = canonical_start(65.0)
        theta = state0.theta.copy()
        theta[j] = log_f
        evaluate = _full_gt_objective(DEPTH_GT, FIELD_GT, cano, LossWeights())
        message = f"^{name} must be finite and positive, got {got}$"
        with pytest.raises(InvalidIntrinsicsError, match=message):
            evaluate(state0.log_depth, theta)


class TestRefineReport:
    def test_ground_truth_state_scores_zero(self):
        state = RefineState.from_maps(DEPTH_GT, K_GT)
        report = refine_report(state, DEPTH_GT, K_GT)
        assert report.depth.rmse == pytest.approx(0.0, abs=1e-12)
        assert report.fov.mean == pytest.approx(0.0, abs=1e-9)
        assert report.shape.chamfer == pytest.approx(0.0, abs=1e-15)

    def test_report_matches_direct_metric_calls(self):
        from metricshape.incidence import unproject_with_field

        cano, state0, _ = canonical_start(75.0)
        state, _ = refine_joint(
            state0, DEPTH_GT, FIELD_GT, cano, RefineConfig(max_steps=10)
        )
        report = refine_report(state, DEPTH_GT, K_GT)
        refined_depth = state.to_depth_map(DEPTH_GT.valid)
        refined_k = state.to_intrinsics(W, H)
        assert report.depth == depth_metrics(refined_depth, DEPTH_GT)
        assert report.fov == fov_error_stats([refined_k], [K_GT])
        expected_shape = shape_metrics(
            unproject_with_field(field_from_intrinsics(refined_k), refined_depth),
            unproject_with_field(FIELD_GT, DEPTH_GT),
        )
        assert report.shape == expected_shape

    def test_deterministic(self):
        cano, state0, _ = canonical_start(75.0)
        s1, t1 = refine_joint(state0, DEPTH_GT, FIELD_GT, cano, RefineConfig(max_steps=15))
        s2, t2 = refine_joint(state0, DEPTH_GT, FIELD_GT, cano, RefineConfig(max_steps=15))
        assert t1 == t2
        np.testing.assert_array_equal(s1.theta, s2.theta)
        np.testing.assert_array_equal(s1.log_depth, s2.log_depth)


class TestTraceContract:
    """The benchmark's traced runs replace these module attributes by timing
    wrappers, looked up by name, and count refine's loss evaluations through
    ``refine.total_loss``: a missing name, or a refine that stops calling it,
    fails the traced run."""

    WRAPPED = {
        "metricshape.refine": ("total_loss", "extract_residual", "field_from_intrinsics"),
        "metricshape.losses": ("chamfer_distance",),
        "metricshape.cli": (
            "render_depth", "sample_constraints", "unproject_with_field",
            "field_from_intrinsics", "shape_metrics", "depth_metrics",
        ),
        "metricshape.fileio": ("write_ply", "write_depth_pfm", "read_depth_pfm"),
    }

    @pytest.mark.parametrize("module", sorted(WRAPPED))
    def test_wrapped_attributes_exist(self, module):
        loaded = importlib.import_module(module)
        for name in self.WRAPPED[module]:
            assert callable(getattr(loaded, name, None)), f"{module}.{name}"

    def test_refine_joint_calls_total_loss_once_per_evaluation(self, monkeypatch):
        import metricshape.losses as losses
        import metricshape.refine as refine

        values, counts = [], {"chamfer_distance": 0, "extract_residual": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        total_loss = refine.total_loss

        def recording_total_loss(*args, **kwargs):
            lv = total_loss(*args, **kwargs)
            values.append(lv.value)
            return lv

        monkeypatch.setattr(refine, "total_loss", recording_total_loss)
        counting(losses, "chamfer_distance")
        counting(refine, "extract_residual")
        cano, state0, _ = canonical_start(90.0)
        _, trace = refine_joint(state0, DEPTH_GT, FIELD_GT, cano, RefineConfig(max_steps=10))
        # one total_loss call per evaluation, each with one residual
        # extraction and one Chamfer term; every traced loss came from one
        assert len(values) > len(trace) > 1
        assert counts == {"chamfer_distance": len(values), "extract_residual": len(values)}
        assert values[0] == trace[0]
        remaining = iter(values)
        assert all(loss in remaining for loss in trace)
