"""Loss values against hand computations; gradient checks live in acceptance."""

import math
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metricshape.losses as losses
from conftest import RICH_SCENE
from metricshape.camera import _BLOCK_ENTRIES, DepthMap, Intrinsics, PointCloud, _made
from metricshape.errors import EmptyCloudError, EmptyOverlapError, ShapeMismatchError
from metricshape.incidence import (
    CanonicalCamera,
    IncidenceField,
    canonical_field,
    compose_residual,
    extract_residual,
    field_from_intrinsics,
    unproject_with_field,
)
from metricshape.losses import (
    BRUTE_FORCE_LIMIT,
    LossWeights,
    _mutual_nearest,
    _nearest_squared,
    _row_nearest,
    _squared_distance_matrix,
    chamfer_distance,
    cosine_incidence_loss,
    silog_loss,
    total_loss,
)
from metricshape.refine import RefineConfig, RefineState, _full_gt_objective, refine_joint
from metricshape.synthetic import make_camera, render_depth


def full_map(values):
    values = np.asarray(values, dtype=float)
    return DepthMap(values, np.ones(values.shape, bool))


class TestSilog:
    def test_perfect_prediction_is_zero(self):
        d = full_map([[1.0, 2.0], [3.0, 4.0]])
        assert silog_loss(d, d, lam=0.5).value == 0.0

    def test_constant_factor_two(self):
        """All log errors equal ln 2: (1/n)*n*(ln2)^2 - (0.5/n^2)*(n*ln2)^2
        = 0.5*(ln 2)^2 = 0.24022650695910062."""
        gt = full_map([[1.0, 2.0]])
        pred = full_map([[2.0, 4.0]])
        assert silog_loss(pred, gt, lam=0.5).value == pytest.approx(
            0.5 * math.log(2.0) ** 2, abs=1e-10
        )

    def test_one_e_pair(self):
        """Errors (0, 1): 1/2 - 0.5*(1/4) = 0.375."""
        pred = full_map([[1.0, math.e]])
        gt = full_map([[1.0, 1.0]])
        assert silog_loss(pred, gt, lam=0.5).value == pytest.approx(0.375, abs=1e-12)

    def test_scale_invariance_at_lam_one(self):
        rng = np.random.default_rng(4)
        pred = full_map(rng.uniform(0.5, 5.0, (6, 6)))
        gt = full_map(rng.uniform(0.5, 5.0, (6, 6)))
        base = silog_loss(pred, gt, lam=1.0).value
        for s in (0.01, 3.0, 250.0):
            scaled = full_map(s * pred.values)
            assert silog_loss(scaled, gt, lam=1.0).value == pytest.approx(base, abs=1e-10)

    def test_lam_zero_is_mean_squared_log_error(self):
        rng = np.random.default_rng(5)
        pred = full_map(rng.uniform(0.5, 5.0, (4, 4)))
        gt = full_map(rng.uniform(0.5, 5.0, (4, 4)))
        e = np.log(pred.values) - np.log(gt.values)
        assert silog_loss(pred, gt, lam=0.0).value == pytest.approx((e**2).mean(), rel=1e-14)

    def test_only_joint_valid_pixels_enter(self):
        pred = DepthMap(np.array([[1.0, 7.0]]), np.array([[True, False]]))
        gt = DepthMap(np.array([[1.0, 3.0]]), np.array([[True, True]]))
        assert silog_loss(pred, gt, lam=0.5).value == 0.0

    def test_empty_overlap(self):
        pred = DepthMap(np.array([[1.0, 1.0]]), np.array([[True, False]]))
        gt = DepthMap(np.array([[1.0, 1.0]]), np.array([[False, True]]))
        with pytest.raises(EmptyOverlapError):
            silog_loss(pred, gt, lam=0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            silog_loss(full_map([[1.0]]), full_map([[1.0, 2.0]]), lam=0.5)


class TestCosine:
    def test_zero_when_residual_reproduces_target(self):
        cano = canonical_field(CanonicalCamera.for_image(16, 12), 16, 12)
        res, _ = extract_residual(cano, cano)
        assert cosine_incidence_loss(res, cano, cano).value == pytest.approx(0.0, abs=1e-14)

    def test_perpendicular_rays_give_one(self):
        """composed (1,0,1) is orthogonal to target (-1, y, 1) since
        -1 + 0 + 1 = 0."""
        res = IncidenceField(np.array([[[1.0, 0.0, 1.0]]]))
        cano = IncidenceField(np.array([[[1.0, 1.0, 1.0]]]))
        target = IncidenceField(np.array([[[-1.0, 4.0, 1.0]]]))
        assert cosine_incidence_loss(res, cano, target).value == pytest.approx(1.0, abs=1e-15)

    def test_value_matches_per_pixel_loop(self):
        """Independent per-pixel recomputation of mean (1 - cos angle)."""
        rng = np.random.default_rng(30)
        h, w = 5, 7
        rays = np.ones((h, w, 3))
        rays[..., 0] = rng.uniform(0.5, 1.5, (h, w))
        rays[..., 1] = rng.uniform(0.5, 1.5, (h, w))
        res = IncidenceField(rays)
        cano = canonical_field(CanonicalCamera(6.0, w / 2, h / 2), w, h)
        target = field_from_intrinsics(
            Intrinsics(fx=5.0, fy=7.0, cx=3.0, cy=2.0, width=w, height=h)
        )
        total = 0.0
        for i in range(h):
            for j in range(w):
                comp = (
                    rays[i, j, 0] * cano.rays[i, j, 0],
                    rays[i, j, 1] * cano.rays[i, j, 1],
                    1.0,
                )
                t = target.rays[i, j]
                dot = comp[0] * t[0] + comp[1] * t[1] + comp[2] * t[2]
                ncomp = math.sqrt(comp[0] ** 2 + comp[1] ** 2 + 1.0)
                nt = math.sqrt(t[0] ** 2 + t[1] ** 2 + t[2] ** 2)
                total += 1.0 - dot / (ncomp * nt)
        expected = total / (h * w)
        assert cosine_incidence_loss(res, cano, target).value == pytest.approx(
            expected, rel=1e-12
        )

    def test_recomposition_makes_unmasked_pixels_lossless(self):
        """The extracted residual recomposes the target off the singular
        set, so per-pixel mismatch can only live on the masked cross."""
        k = Intrinsics(fx=200.0, fy=180.0, cx=7.5, cy=5.5, width=16, height=12)
        cano = canonical_field(CanonicalCamera.for_image(16, 12), 16, 12)
        target = field_from_intrinsics(k)
        res, mask = extract_residual(target, cano)
        loss = cosine_incidence_loss(res, cano, target).value
        assert loss <= 2.0 * mask.sum() / mask.size


class TestChamfer:
    def test_identical_clouds(self):
        p = PointCloud(np.array([[0.0, 0.0, 1.0], [2.0, -1.0, 3.0]]))
        assert chamfer_distance(p, p).value == 0.0

    def test_single_points(self):
        """1^2 forward + 1^2 backward = 2."""
        p = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        q = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        assert chamfer_distance(p, q).value == 2.0

    def test_two_against_one(self):
        """P-side (0 + 1)/2 = 0.5; Q-side 0."""
        p = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        q = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        assert chamfer_distance(p, q).value == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        p = PointCloud(rng.uniform(-1, 1, (40, 3)))
        q = PointCloud(rng.uniform(-1, 1, (25, 3)))
        assert chamfer_distance(p, q).value == chamfer_distance(q, p).value

    def test_kdtree_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(9)
        for n, m in ((30, 50), (400, 380), (700, 650)):
            p = PointCloud(rng.uniform(-2, 2, (n, 3)))
            q = PointCloud(rng.uniform(-2, 2, (m, 3)))
            for query, reference in ((p.points, q.points), (q.points, p.points)):
                brute_idx, brute_d2 = _row_nearest(_squared_distance_matrix(query, reference))
                tree_idx, tree_d2 = _nearest_squared(query, reference)
                np.testing.assert_array_equal(tree_idx, brute_idx)
                np.testing.assert_array_equal(tree_d2, brute_d2)

    def test_kdtree_lost_match_is_infinite_as_in_bruteforce(self):
        """A query point whose squared distance to every reference overflows
        has no match in the tree (cKDTree returns the index len(reference));
        both paths give it index 0 and an infinite squared distance."""
        rng = np.random.default_rng(10)
        reference = rng.uniform(-2, 2, (20, 3))
        query = rng.uniform(-2, 2, (5, 3))
        query[2] = (0.0, 1e200, 1.0)
        with np.errstate(over="ignore"):
            brute_idx, brute_d2 = _row_nearest(_squared_distance_matrix(query, reference))
            tree_idx, tree_d2 = _nearest_squared(query, reference)
        assert tree_idx[2] == 0 and tree_d2[2] == np.inf
        np.testing.assert_array_equal(tree_idx, brute_idx)
        np.testing.assert_array_equal(tree_d2, brute_d2)

    def test_empty_cloud(self):
        p = PointCloud(np.zeros((0, 3)))
        q = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        with pytest.raises(EmptyCloudError):
            chamfer_distance(p, q)

    def test_gradient_endpoints(self):
        """Single pair: d(2*(p-q)^2)/dp = 2(p-q)/|P| on each side of the match."""
        p = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        q = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        lv = chamfer_distance(p, q)
        np.testing.assert_allclose(lv.gradients["points_p"], [[4.0, 0.0, 0.0]])
        np.testing.assert_allclose(lv.gradients["points_q"], [[-4.0, 0.0, 0.0]])


def _reference_nearest(query, reference):
    """One direction on its own: the full (n, m, 3) difference tensor, first argmin."""
    d2 = ((query[:, None] - reference[None]) ** 2).sum(axis=2)
    idx = np.argmin(d2, axis=1)
    return idx, d2[np.arange(len(query)), idx]


def _cloud(rng, n, kind):
    """n points; "ties" rounds to 0.1, "dup" also repeats points, so many
    distances tie exactly."""
    points = rng.uniform(-1.0, 1.0, (n, 3))
    if kind != "plain":
        points = np.round(points, 1)
    if kind == "dup":
        points = points[rng.integers(0, n, n)]
    return points


def _bits(a):
    return np.asarray(a).tobytes()


class TestAllPairsNearestProperty:
    """The all-pairs pass serves both directions from one matrix; it must
    equal two independent per-direction passes bit for bit."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        n=st.integers(1, BRUTE_FORCE_LIMIT),
        m=st.integers(1, BRUTE_FORCE_LIMIT),
        kind=st.sampled_from(["plain", "ties", "dup"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, m=1, kind="plain", seed=0)
    @example(n=1, m=37, kind="dup", seed=1)
    @example(n=BRUTE_FORCE_LIMIT, m=BRUTE_FORCE_LIMIT, kind="ties", seed=2)
    @example(n=BRUTE_FORCE_LIMIT, m=BRUTE_FORCE_LIMIT, kind="dup", seed=3)
    def test_matches_independent_directions(self, n, m, kind, seed):
        rng = np.random.default_rng(seed)
        pa = _cloud(rng, n, kind)
        qa = _cloud(rng, m, kind)
        if kind == "dup":
            shared = min(n, m) // 2
            qa[:shared] = pa[:shared]
        idx_pq, d2_pq = _reference_nearest(pa, qa)
        idx_qp, d2_qp = _reference_nearest(qa, pa)
        got = _mutual_nearest(pa, qa)
        for mine, ref in zip(got, (idx_pq, d2_pq, idx_qp, d2_qp)):
            assert mine.dtype == ref.dtype and _bits(mine) == _bits(ref)

        lv = chamfer_distance(PointCloud(pa), PointCloud(qa))
        value = float(d2_pq.mean()) + float(d2_qp.mean())
        grad_p = 2.0 * (pa - qa[idx_pq]) / n
        grad_q = np.zeros_like(qa)
        np.add.at(grad_q, idx_pq, -2.0 * (pa - qa[idx_pq]) / n)
        grad_q += 2.0 * (qa - pa[idx_qp]) / m
        np.add.at(grad_p, idx_qp, -2.0 * (qa - pa[idx_qp]) / m)
        assert lv.value.hex() == value.hex()
        assert _bits(lv.gradients["points_p"]) == _bits(grad_p)
        assert _bits(lv.gradients["points_q"]) == _bits(grad_q)


# rows per block at BRUTE_FORCE_LIMIT points a side, and the sizes around it
_BLOCK = _BLOCK_ENTRIES // BRUTE_FORCE_LIMIT
_BLOCK_SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, BRUTE_FORCE_LIMIT - 1, BRUTE_FORCE_LIMIT)


class TestMutualNearestBlocks:
    """The all-pairs pass, walked in blocks of rows, equals one whole matrix
    read by rows and by columns, ties on the lowest index included."""

    @pytest.mark.parametrize("m", _BLOCK_SIZES)
    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    def test_matches_one_matrix(self, n, m):
        rng = np.random.default_rng([n, m])
        pa = _cloud(rng, n, "dup")
        qa = _cloud(rng, m, "dup")
        shared = min(n, m) // 2
        qa[:shared] = pa[:shared]
        d2 = _squared_distance_matrix(pa, qa)
        expected = _row_nearest(d2) + _row_nearest(d2.T)
        for mine, ref in zip(_mutual_nearest(pa, qa), expected):
            assert mine.dtype == ref.dtype and _bits(mine) == _bits(ref)


class TestAllPairsLayout:
    """The all-pairs pass reads coordinate-major copies of its inputs, so any
    view of the same points (a column slice of a wider array, rows or columns
    reversed) gives the bits of one whole matrix read by rows and by columns."""

    @staticmethod
    def views(rng, layout):
        # coordinates on a 0.1 grid, with shared points: many exact ties
        wide_p = np.round(rng.uniform(-1.0, 1.0, (150, 6)), 1)
        wide_q = np.round(rng.uniform(-1.0, 1.0, (170, 6)), 1)
        wide_q[:40] = wide_p[:40]
        if layout == "column-slice":
            return wide_p[:, 1:4], wide_q[:, 1:4]
        if layout == "reversed-rows":
            return wide_p[::-1, :3], wide_q[::-1, :3]
        return wide_p[:, 2::-1], wide_q[:, 5:2:-1]

    @pytest.mark.parametrize("layout", ["column-slice", "reversed-rows", "reversed-columns"])
    def test_views_give_the_bits_of_one_matrix(self, layout):
        pa, qa = self.views(np.random.default_rng(40), layout)
        assert not (pa.flags.c_contiguous or qa.flags.c_contiguous)
        d2 = _squared_distance_matrix(pa, qa)
        # ties present both ways, so "the lowest index wins" is exercised
        for m in (d2, d2.T):
            assert np.any((m == m.min(axis=1, keepdims=True)).sum(axis=1) > 1)
        expected = _row_nearest(d2) + _row_nearest(d2.T)
        for mine, ref in zip(_mutual_nearest(pa, qa), expected, strict=True):
            assert mine.dtype == ref.dtype and _bits(mine) == _bits(ref)

    def test_overflowing_point_matches_index_zero_at_infinity(self):
        rng = np.random.default_rng(41)
        wide = rng.uniform(-1.0, 1.0, (30, 6))
        wide[7, 1:4] = (1e200, -1e200, 1.0)
        pa, qa = wide[::-1, 1:4], rng.uniform(-1.0, 1.0, (20, 3))[::-1]
        with np.errstate(over="ignore"):
            d2 = _squared_distance_matrix(pa, qa)
            got = _mutual_nearest(pa, qa)
        expected = _row_nearest(d2) + _row_nearest(d2.T)
        for mine, ref in zip(got, expected, strict=True):
            assert mine.dtype == ref.dtype and _bits(mine) == _bits(ref)
        lost = len(pa) - 1 - 7
        assert got[0][lost] == 0 and got[1][lost] == np.inf


def _read_only(points):
    """Points as ``PointCloud`` keeps them: a read-only array owning its memory."""
    return PointCloud(points).points


class TestKdTreeNearest:
    """Above ``BRUTE_FORCE_LIMIT`` the target's tree is kept while its content is
    unchanged, and the two query directions run on two threads; every output
    has the bits of two fresh, one-after-the-other k-d tree passes."""

    N = BRUTE_FORCE_LIMIT + 100

    def fresh(self, pa, qa):
        return _nearest_squared(pa, qa) + _nearest_squared(qa, pa)

    def assert_bits(self, got, expected):
        for mine, ref in zip(got, expected, strict=True):
            assert mine.dtype == ref.dtype and _bits(mine) == _bits(ref)

    def test_reused_tree_gives_fresh_bits_both_ways(self):
        rng = np.random.default_rng(30)
        qa = _read_only(rng.uniform(-2, 2, (self.N, 3)))
        _mutual_nearest(_read_only(rng.uniform(-2, 2, (self.N, 3))), qa)
        kept = losses._target_tree
        assert kept is not None
        for n in (self.N, 2 * self.N, 7):
            pa = _read_only(rng.uniform(-2, 2, (n, 3)))
            self.assert_bits(_mutual_nearest(pa, qa), self.fresh(pa, qa))
            assert losses._target_tree is kept

    def test_new_array_with_equal_content_reuses_the_tree(self):
        rng = np.random.default_rng(31)
        points = rng.uniform(-2, 2, (self.N, 3))
        pa = _read_only(rng.uniform(-2, 2, (self.N, 3)))
        _mutual_nearest(pa, _read_only(points))
        kept = losses._target_tree
        qa = _read_only(points.copy())
        assert qa is not kept.data
        self.assert_bits(_mutual_nearest(pa, qa), self.fresh(pa, qa))
        assert losses._target_tree is kept

    @pytest.mark.parametrize("where", [(0, 0), (17, 1), (-1, 2)])
    def test_one_ulp_change_rebuilds_the_tree(self, where):
        rng = np.random.default_rng(32)
        points = rng.uniform(-2, 2, (self.N, 3))
        pa = _read_only(rng.uniform(-2, 2, (self.N, 3)))
        _mutual_nearest(pa, _read_only(points))
        kept = losses._target_tree
        points[where] = np.nextafter(points[where], np.inf)
        qa = _read_only(points)
        self.assert_bits(_mutual_nearest(pa, qa), self.fresh(pa, qa))
        assert losses._target_tree is not kept
        assert np.array_equal(losses._target_tree.data, qa)

    def test_writeable_target_is_not_kept(self):
        """A tree holds its points uncopied: one built on an array the caller
        can still write to would go stale when the caller writes to it."""
        rng = np.random.default_rng(33)
        pa = rng.uniform(-2, 2, (self.N, 3))
        qa = rng.uniform(-2, 2, (self.N, 3))
        self.assert_bits(_mutual_nearest(pa, qa), self.fresh(pa, qa))
        qa[:] = rng.uniform(-2, 2, (self.N, 3))
        self.assert_bits(_mutual_nearest(pa, qa), self.fresh(pa, qa))
        assert losses._target_tree is None

    def test_worker_exception_reaches_the_caller_unchanged(self, monkeypatch):
        class QueryFailed(Exception):
            pass

        ran_on = []

        class FailingTree:
            def query(self, points):
                ran_on.append(threading.current_thread())
                raise QueryFailed("from the worker")

        monkeypatch.setattr(losses, "_target_tree_of", lambda qa: FailingTree())
        rng = np.random.default_rng(34)
        pa, qa = (_read_only(rng.uniform(-2, 2, (self.N, 3))) for _ in range(2))
        with pytest.raises(QueryFailed, match="^from the worker$"):
            _mutual_nearest(pa, qa)
        assert ran_on and ran_on[0] is not threading.current_thread()

    def test_at_most_one_worker_thread(self):
        rng = np.random.default_rng(35)
        for _ in range(3):
            pa, qa = (_read_only(rng.uniform(-2, 2, (self.N, 3))) for _ in range(2))
            _mutual_nearest(pa, qa)
        workers = [t for t in threading.enumerate() if t.name.startswith("metricshape-nn")]
        assert len(workers) == 1

    def test_forked_child_starts_its_own_worker(self):
        """A child forked after the worker started has the executor but not its
        thread; a query submitted there would wait forever without a new one."""
        rng = np.random.default_rng(36)
        pa, qa = (_read_only(rng.uniform(-2, 2, (self.N, 3))) for _ in range(2))
        expected = self.fresh(pa, qa)
        _mutual_nearest(pa, qa)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports through its exit code
            try:
                got = _mutual_nearest(pa, qa)
                same = all(_bits(a) == _bits(b) for a, b in zip(got, expected))
            finally:
                os._exit(0 if same else 1)
        deadline = time.monotonic() + 60.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's NN query did not finish")
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_overflowing_trial_warns_nothing(self):
        """Camera 7 of the multi-primitive scene at 64x48, through refine's
        objective at a trial whose log depths are 700 out: the points stay
        finite, every squared distance overflows and no point has a match. That
        arithmetic runs under the objective's own np.errstate only because it
        stays on the calling thread (the suite turns a RuntimeWarning into an
        error); the refine itself warns nothing either."""
        k = make_camera(7, 64, 48)
        depth = render_depth(RICH_SCENE, k)
        field = field_from_intrinsics(k)
        cano = CanonicalCamera.for_image(64, 48, fov_deg=60.0)
        init = RefineState.from_maps(depth, cano.intrinsics(64, 48))
        evaluate = _full_gt_objective(depth, field, cano, LossWeights())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, _, _ = evaluate(init.log_depth + 700.0, init.theta)
            _, trace = refine_joint(init, depth, field, cano, RefineConfig(max_steps=4))
        assert loss == math.inf
        assert len(trace) == 5 and all(math.isfinite(x) for x in trace)
        assert all(b <= a for a, b in zip(trace, trace[1:]))


class TestWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.alpha, w.beta, w.gamma, w.lam) == (1.0, 10.0, 1.0, 0.5)

    def test_lam_range(self):
        with pytest.raises(ValueError):
            LossWeights(lam=1.5)
        with pytest.raises(ValueError):
            LossWeights(lam=-0.1)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(alpha=0.0, beta=0.0, gamma=0.0)


class TestTotalLoss:
    def setup_method(self):
        self.w, self.h = 8, 6
        self.kgt = Intrinsics(
            fx=10.0, fy=9.0, cx=4.0, cy=3.0, width=self.w, height=self.h
        )
        rng = np.random.default_rng(21)
        self.gt_depth = full_map(rng.uniform(1.0, 3.0, (self.h, self.w)))
        self.cano = canonical_field(CanonicalCamera.for_image(self.w, self.h), self.w, self.h)
        self.gt_field = field_from_intrinsics(self.kgt)

    def test_perfect_prediction_is_zero(self):
        res, _ = extract_residual(self.gt_field, self.cano)
        lv = total_loss(self.gt_depth, self.gt_depth, res, self.cano, self.gt_field)
        assert lv.value == pytest.approx(0.0, abs=1e-12)

    def test_gamma_zero_is_weighted_sum_of_two(self):
        rng = np.random.default_rng(22)
        pred = full_map(self.gt_depth.values * rng.uniform(0.8, 1.2, (self.h, self.w)))
        rays = np.ones((self.h, self.w, 3))
        rays[..., 0] = rng.uniform(0.7, 1.3, (self.h, self.w))
        rays[..., 1] = rng.uniform(0.7, 1.3, (self.h, self.w))
        res = IncidenceField(rays)
        w = LossWeights(alpha=2.0, beta=3.0, gamma=0.0, lam=0.5)
        lv = total_loss(pred, self.gt_depth, res, self.cano, self.gt_field, w)
        expected = (
            2.0 * silog_loss(pred, self.gt_depth, 0.5).value
            + 3.0 * cosine_incidence_loss(res, self.cano, self.gt_field).value
        )
        assert lv.value == expected

    def test_gradients_cover_depth_and_field(self):
        rng = np.random.default_rng(23)
        pred = full_map(self.gt_depth.values * rng.uniform(0.9, 1.1, (self.h, self.w)))
        res, _ = extract_residual(self.gt_field, self.cano)
        lv = total_loss(pred, self.gt_depth, res, self.cano, self.gt_field)
        assert lv.gradients["depth"].shape == (self.h, self.w)
        assert lv.gradients["field"].shape == (self.h, self.w, 3)
        assert np.all(lv.gradients["field"][..., 2] == 0.0)
        assert np.any(lv.gradients["depth"] != 0.0)

    def test_composes_the_residual_once(self, monkeypatch):
        """The cosine term and the Chamfer cloud share one composed field."""
        calls = []
        compose = losses.compose_residual
        monkeypatch.setattr(
            losses, "compose_residual", lambda *args: calls.append(args) or compose(*args)
        )
        res, _ = extract_residual(self.gt_field, self.cano)
        lv = total_loss(self.gt_depth, self.gt_depth, res, self.cano, self.gt_field)
        assert len(calls) == 1
        assert lv.value == pytest.approx(0.0, abs=1e-12)


def _fresh_total(pred, gt_depth, res, cano, gt_field, w):
    """``total_loss`` rebuilt from the public losses on fresh copies of every
    input: alpha*silog + beta*cosine + gamma*chamfer, chained as it chains."""
    gt_depth = DepthMap(gt_depth.values.copy(), gt_depth.valid.copy())
    pred = DepthMap(pred.values.copy(), pred.valid.copy())
    cano, gt_field = IncidenceField(cano.rays.copy()), IncidenceField(gt_field.rays.copy())
    sil = silog_loss(pred, gt_depth, w.lam)
    cos = cosine_incidence_loss(res, cano, gt_field)
    composed = compose_residual(res, cano)
    cham = chamfer_distance(
        unproject_with_field(composed, pred), unproject_with_field(gt_field, gt_depth)
    )
    value = w.alpha * sil.value + w.beta * cos.value
    value += w.gamma * cham.value
    m, gp = pred.valid, w.gamma * cham.gradients["points_p"]
    d = pred.values[m]
    grad_depth = w.alpha * sil.gradients["depth"]
    grad_depth[m] += gp[:, 0] * composed.x[m] + gp[:, 1] * composed.y[m] + gp[:, 2]
    grad_field = w.beta * cos.gradients["field"]
    grad_field[..., 0][m] += gp[:, 0] * d * cano.x[m]
    grad_field[..., 1][m] += gp[:, 1] * d * cano.y[m]
    return float(value), grad_depth, grad_field


class TestKeptTarget:
    """``total_loss`` keeps the ground truth's terms for the last target; every
    call, first or repeated, on a kept or a rebuilt target, has the bits of the
    public losses on fresh objects."""

    W = LossWeights(alpha=1.5, beta=10.0, gamma=2.0, lam=0.5)

    @pytest.fixture(autouse=True)
    def no_kept_target(self, monkeypatch):
        monkeypatch.setattr(losses, "_kept_target", None)

    @staticmethod
    def target(seed, w=9, h=7):
        rng = np.random.default_rng(seed)
        valid = rng.uniform(size=(h, w)) > 0.2
        depth = DepthMap(np.where(valid, rng.uniform(1.0, 3.0, (h, w)), 0.0), valid)
        k = Intrinsics(rng.uniform(8, 12), rng.uniform(8, 12), rng.uniform(3, 5), rng.uniform(2, 4), w, h)
        cano = canonical_field(CanonicalCamera.for_image(w, h), w, h)
        return depth, field_from_intrinsics(k), cano

    @staticmethod
    def prediction(seed, depth, cano, mask=None):
        """A prediction on ``mask`` (the target's own mask object by default)."""
        rng = np.random.default_rng(seed)
        valid = depth.valid if mask is None else mask
        values = np.where(valid, depth.values * rng.uniform(0.8, 1.2, depth.values.shape), 0.0)
        values[valid & (values == 0.0)] = 2.0
        pred = DepthMap(values, valid)
        if mask is None:  # as refinement builds it: the target's mask, uncopied
            pred = _made(DepthMap, values=pred.values, valid=depth.valid)
        k = Intrinsics(rng.uniform(8, 12), rng.uniform(8, 12), cano.width / 2, cano.height / 2,
                       cano.width, cano.height)
        res, _ = extract_residual(field_from_intrinsics(k), cano)
        return pred, res

    def assert_fresh_bits(self, pred, res, depth, field, cano):
        lv = total_loss(pred, depth, res, cano, field, self.W)
        value, grad_depth, grad_field = _fresh_total(pred, depth, res, cano, field, self.W)
        assert lv.value.hex() == value.hex()
        assert _bits(lv.gradients["depth"]) == _bits(grad_depth)
        assert _bits(lv.gradients["field"]) == _bits(grad_field)

    def test_first_call_and_repeat(self):
        depth, field, cano = self.target(50)
        pred, res = self.prediction(51, depth, cano)
        assert pred.valid is depth.valid
        self.assert_fresh_bits(pred, res, depth, field, cano)
        kept = losses._kept_target
        assert kept is not None and kept.serves(depth, field, cano)
        for seed in (52, 53):
            pred, res = self.prediction(seed, depth, cano)
            self.assert_fresh_bits(pred, res, depth, field, cano)
            assert losses._kept_target is kept

    def test_another_target_and_back(self):
        a, b = self.target(60), self.target(61)
        for depth, field, cano in (a, b, a):
            pred, res = self.prediction(62, depth, cano)
            self.assert_fresh_bits(pred, res, depth, field, cano)
            assert losses._kept_target.serves(depth, field, cano)

    @pytest.mark.parametrize("same_content", [True, False])
    def test_prediction_mask_of_its_own(self, same_content):
        depth, field, cano = self.target(70)
        mask = depth.valid.copy()
        if not same_content:
            mask[0, :3] = ~mask[0, :3]
            mask[0, 0] = True  # keep the joint overlap non-empty
        pred, res = self.prediction(71, depth, cano, mask)
        assert pred.valid is not depth.valid
        self.assert_fresh_bits(pred, res, depth, field, cano)
        # and a kept target still serves the target's own mask afterwards
        pred, res = self.prediction(72, depth, cano)
        self.assert_fresh_bits(pred, res, depth, field, cano)

    @pytest.mark.parametrize("which", ["depth", "valid", "field", "cano"])
    def test_array_set_writeable_and_changed_is_not_reused(self, which):
        depth, field, cano = self.target(80)
        pred, res = self.prediction(81, depth, cano)
        self.assert_fresh_bits(pred, res, depth, field, cano)
        kept = losses._kept_target
        array = {"depth": depth.values, "valid": depth.valid, "field": field.rays,
                 "cano": cano.rays}[which]
        array.setflags(write=True)
        if which == "depth":
            array[depth.valid] *= 1.25
        elif which == "valid":
            array[0, 0] = False
        else:  # x and y only: the fields stay in z=1 form
            array[..., :2] *= 1.1
        self.assert_fresh_bits(pred, res, depth, field, cano)
        assert losses._kept_target is not kept
