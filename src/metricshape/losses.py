"""Differentiable losses: scale-invariant log depth, incidence cosine, Chamfer.

Every loss returns its value together with analytic gradients with respect
to the differentiated inputs; the combined objective chains them so that
gradients reach the depth grid through both the log-depth term and the
point-cloud term, and reach the residual incidence field through both the
cosine term and the point-cloud term.

Conventions: natural log in the depth loss; the cosine term is implemented
as mean(1 - cos) so that 0 is optimal and it adds positively to the total;
rays are unit-normalized only here, immediately before the dot product,
and on x and y alone, since every field has z = 1.

``total_loss`` keeps the ground truth's side of the objective (the log
target depths, the target's ray norms and unit rays, the canonical
components at the target's mask, the target cloud and, above
``BRUTE_FORCE_LIMIT``, that cloud's k-d tree) for the last target,
and reuses it while it gets the same target objects with read-only arrays:
a refine passes the same ground truth to every evaluation, so each
evaluation computes only the prediction's side. Kept terms are the terms
a fresh call computes, so the bits do not change.

Up to ``BRUTE_FORCE_LIMIT`` points a side, each direction of the
nearest-neighbour (NN) search is a screened all-pairs pass. For a query
point p and the reference points q_j, one matrix product
``[p, 1] @ [-2 q_j, |q_j|^2]^T`` gives s_j = |q_j|^2 - 2 p.q_j, which is
|p - q_j|^2 less |p|^2. With u = 2**-53 and r = |p| + max_j |q_j|, s_j is
within 8u r^2 of its true value in any summation order, with or without FMA
(a 4-term dot product whose last term is a rounded squared norm), and the
exact squared distance (dx*dx + dy*dy) + dz*dz of ``_squared_distance_matrix``
is within 6u r^2 of the true one. Taken at two columns these errors sum to
under 28u r^2. So where the second-least s_j exceeds the least by more than
tol = 64u r^2 (the rest of the factor covers the rounding of tol itself),
plus the smallest normal double for underflow, the least one's column is
the only column of least exact distance: no other column ties it or beats
it, whatever BLAS kernel, thread count or order computed s. Such a row takes
that column, with its distance from the pair arithmetic of
``_matched_squared``. Every other row is decided on its row of
``_squared_distance_matrix`` by ``_row_nearest``, the lowest index winning
ties. If any squared norm reaches 2**1000, where s could overflow, every row
takes that exact path (an overflowing row matches index 0 at infinity). The
outputs are thus those of ``_row_nearest(_squared_distance_matrix(query,
reference))``, bit for bit.

Above ``BRUTE_FORCE_LIMIT`` points a side the NN search uses k-d trees: the
kept target cloud's own (``_Target.tree``, built at a refine's first
evaluation), or a fresh one for any other cloud. The two query directions
run side by side: prediction->target on one worker thread, created on first
use, while the calling thread builds the prediction's tree and runs
target->prediction. The worker only queries (``cKDTree.query`` releases the
GIL); the trees and all arithmetic stay on the calling thread,
under its ``np.errstate``. Same trees, same queries: the bits do not change.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .camera import DepthMap, PointCloud
from .errors import EmptyCloudError, EmptyOverlapError, InvalidSettingError, ShapeMismatchError
from .incidence import IncidenceField, compose_residual, unproject_with_field

# Up to this many points a side, the NN search is all-pairs (screened, module
# docstring) and scipy is never imported: its import alone adds about 70 % to
# a small refine's peak memory. Above it, k-d trees.
BRUTE_FORCE_LIMIT = 500

# The all-pairs screen (module docstring): its margin is _SCREEN_MARGIN = 64u
# per unit of (|p| + max |q|)**2, plus _SCREEN_FLOOR, and a squared norm of
# _SCREEN_NORM_LIMIT or more sends every row to the exact path. One product
# holds at most _SCREEN_ENTRIES entries (512 KB): both ways at 192 points a
# side took 0.13-0.14 ms against 0.17-0.18 ms with 16,000, and at 500 a side
# 0.49-0.51 ms against 0.68-0.74 ms (timeit, best of 7, 2 vCPUs).
_SCREEN_ENTRIES = 65_536
_SCREEN_MARGIN = 2.0**-47
_SCREEN_FLOOR = 2.0**-1022
_SCREEN_NORM_LIMIT = 2.0**1000

# The k-d path's one query worker (module docstring).
_nn_worker = None


def _forget_nn_worker() -> None:
    # a forked child has the parent's executor object but not its thread
    global _nn_worker
    _nn_worker = None


if hasattr(os, "register_at_fork"):  # POSIX only, as is fork
    os.register_at_fork(after_in_child=_forget_nn_worker)


@dataclass(frozen=True)
class LossWeights:
    """Weights of the combined objective; lam mixes the log-depth variance term."""

    alpha: float = 1.0
    beta: float = 10.0
    gamma: float = 1.0
    lam: float = 0.5

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "lam"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise InvalidSettingError(f"{name} must be finite and non-negative, got {value}")
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidSettingError(f"lam must lie in [0, 1], got {self.lam}")
        if self.alpha == 0.0 and self.beta == 0.0 and self.gamma == 0.0:
            raise InvalidSettingError("at least one of alpha, beta, gamma must be positive")


@dataclass(frozen=True)
class LossValue:
    """A scalar loss plus per-input gradient arrays keyed by input name."""

    value: float
    gradients: dict[str, np.ndarray]


def silog_loss(pred: DepthMap, target: DepthMap, lam: float = LossWeights.lam) -> LossValue:
    """Scale-invariant log loss (1/n) sum(e_i^2) - (lam/n^2) (sum e_i)^2.

    e_i = log(pred_i) - log(target_i) over jointly valid pixels. At lam=1
    the loss is invariant to a global depth scale; at lam=0 it is the mean
    squared log error. Gradient w.r.t. pred is returned as a full grid,
    zero at pixels outside the joint validity mask.
    """
    if pred.values.shape != target.values.shape:
        raise ShapeMismatchError(
            f"depth shapes differ: {pred.values.shape} vs {target.values.shape}"
        )
    joint = pred.valid & target.valid
    return _silog(pred.values, joint, int(joint.sum()), np.log(target.values[joint]), lam)


def _silog(
    values: np.ndarray, joint: np.ndarray, n: int, log_target: np.ndarray, lam: float
) -> LossValue:
    """``silog_loss`` of predicted depths ``values`` against the target's log
    depths ``log_target`` over the ``n`` pixels of ``joint``."""
    if n == 0:
        raise EmptyOverlapError("no jointly valid pixels")
    d = values[joint]
    e = np.log(d) - log_target
    total = float(e.sum())
    value = float(e @ e) / n - lam * total * total / (n * n)
    grad = np.zeros_like(values)
    grad[joint] = (2.0 / n) * e / d - (2.0 * lam / (n * n)) * total / d
    return LossValue(value=value, gradients={"depth": grad})


def cosine_incidence_loss(
    res: IncidenceField, cano: IncidenceField, target: IncidenceField
) -> LossValue:
    """Mean (1 - cos angle) between the composed field and the target field.

    The prediction is a residual field relative to the canonical field;
    composition multiplies the x and y components. Both the composed ray
    and the target ray are unit-normalized before the dot product. The
    gradient is w.r.t. the residual components (z slot zero).
    """
    return _cosine(compose_residual(res, cano), cano, target, _target_rays(target))


def _target_rays(target: IncidenceField) -> tuple[np.ndarray, ...]:
    """The target's side of the cosine: its x and y, ray norms and unit x and y."""
    tx, ty = target.x, target.y
    # z=1 form guarantees |ray| >= 1, so normalization never divides by zero
    tn = np.sqrt(tx * tx + ty * ty + 1.0)
    return tx, ty, tn, tx / tn, ty / tn


def _cosine(
    composed: IncidenceField,
    cano: IncidenceField,
    target: IncidenceField,
    target_rays: tuple[np.ndarray, ...],
) -> LossValue:
    """``cosine_incidence_loss`` of a residual field already composed, given
    ``_target_rays(target)``. Both fields are in z=1 form, so each ray is
    (x, y, 1) and only x and y are stored and differentiated."""
    if composed.rays.shape != target.rays.shape:
        raise ShapeMismatchError(
            f"field shapes differ: {composed.rays.shape} vs {target.rays.shape}"
        )
    tx, ty, tn, tx_hat, ty_hat = target_rays
    cx, cy = composed.x, composed.y
    cn = np.sqrt(cx * cx + cy * cy + 1.0)
    cos = (cx * tx + cy * ty + 1.0) / (cn * tn)
    n = cos.size
    value = float((1.0 - cos).mean())

    # d cos / d c = (t_hat - cos * c_hat) / |c|, then through c = res * cano
    grad = np.zeros(composed.rays.shape)
    grad[..., 0] = -((tx_hat - cos * (cx / cn)) / cn) * cano.x / n
    grad[..., 1] = -((ty_hat - cos * (cy / cn)) / cn) * cano.y / n
    return LossValue(value=value, gradients={"field": grad})


def _squared_distance_matrix(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """All-pairs squared distances, shape (len(query), len(reference)).

    Summed one coordinate at a time, (dx*dx + dy*dy) + dz*dz: the order
    ``((query[:, None] - reference[None]) ** 2).sum(axis=2)`` uses, so the
    bits are the same, and (a-b)^2 == (b-a)^2 makes the transpose the
    reference-to-query matrix exactly, and a block of query rows gives the
    same rows as the whole matrix. One scratch matrix serves y and z.
    """
    d2 = np.subtract.outer(query[:, 0], reference[:, 0])
    d2 *= d2
    diff = np.empty_like(d2)
    for k in (1, 2):
        np.subtract.outer(query[:, k], reference[:, k], out=diff)
        diff *= diff
        d2 += diff
    return d2


def _row_nearest(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a squared-distance matrix, the first column of least value and that value."""
    idx = np.argmin(d2, axis=1)
    return idx, d2[np.arange(len(d2)), idx]


def _kd_tree(points: np.ndarray):
    # imported here so that commands without an NN search never load scipy
    from scipy.spatial import cKDTree

    return cKDTree(points)


def _nearest_squared(query: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of and squared distance to each query point's nearest reference, by k-d tree."""
    return _matched_squared(query, reference, _kd_tree(reference).query(query)[1])


def _matched_squared(
    query: np.ndarray, reference: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Match indices ``idx``, of a k-d tree or of the all-pairs screen, and
    the squared distance of each match.

    The tree or the screen only selects the matching index; the squared
    distance is recomputed from the matched pair with the arithmetic of
    ``_squared_distance_matrix``, so away from ties both NN paths return
    identical values. A query whose distance to every reference overflows
    matches nothing in the tree (index ``len(reference)``); it gets index 0
    and an infinite squared distance, as in the all-pairs path.
    """
    lost = idx == len(reference)
    idx[lost] = 0
    diff = query - reference[idx]
    d2 = (diff * diff).sum(axis=1)
    d2[lost] = np.inf
    return idx, d2


def _all_pairs_nearest(
    query: np.ndarray,
    reference: np.ndarray,
    sq_query: np.ndarray | None,
    sq_reference: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Index of and squared distance to each query point's nearest reference,
    with the bits of ``_row_nearest(_squared_distance_matrix(query, reference))``.

    ``sq_query`` and ``sq_reference`` are the points' squared norms, or both
    ``None`` to send every row to the exact path. Each block of query rows is
    screened by one matrix product; a row whose margin holds (module
    docstring) keeps the screen's column, and the other rows are decided on
    the exact all-pairs matrix, a block of them at a time.
    """
    n, m = len(query), len(reference)
    rows = max(1, _SCREEN_ENTRIES // m)
    if sq_query is None:
        idx, d2 = np.empty(n, dtype=np.intp), np.empty(n)
        exact = np.arange(n)
    else:
        lhs = np.empty((n, 4))
        lhs[:, :3], lhs[:, 3] = query, 1.0
        rhs = np.empty((4, m))
        np.multiply(reference.T, -2.0, out=rhs[:3])
        rhs[3] = sq_reference
        tol = np.sqrt(sq_query)
        tol += math.sqrt(sq_reference.max())
        tol *= tol
        tol *= _SCREEN_MARGIN
        tol += _SCREEN_FLOOR
        idx, settled = np.empty(n, dtype=np.intp), np.empty(n, dtype=bool)
        screen, at = np.empty((min(rows, n), m)), np.arange(min(rows, n))
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            s = np.matmul(lhs[block], rhs, out=screen[:min(rows, n - start)])
            k = at[:len(s)]
            near = s.argmin(axis=1)
            best = s[k, near]
            s[k, near] = np.inf
            settled[block] = s[k, s.argmin(axis=1)] - best > tol[block]
            idx[block] = near
        idx, d2 = _matched_squared(query, reference, idx)
        exact = np.flatnonzero(~settled)
    for start in range(0, len(exact), rows):
        block = exact[start:start + rows]
        idx[block], d2[block] = _row_nearest(_squared_distance_matrix(query[block], reference))
    return idx, d2


def _mutual_nearest(
    pa: np.ndarray, qa: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-neighbour pass both ways: (idx_pq, d2_pq, idx_qp, d2_qp).

    While neither cloud exceeds ``BRUTE_FORCE_LIMIT`` points, each direction
    is one screened all-pairs pass, ``_all_pairs_nearest`` with the roles
    swapped: a matrix product proposes each row's match, which stands where
    the gap to the row's runner-up exceeds its rounding margin, and the
    exact all-pairs arithmetic decides every other row. The bits are those
    of ``_row_nearest(_squared_distance_matrix(query, reference))`` each way,
    ties on the lowest index. Above the limit, one k-d tree query per
    direction, the two at once: P->Q on the worker, Q->P here. P->Q queries
    the kept target's tree if ``qa`` is its cloud's own array (by identity:
    the package made it read-only and hands it to no caller), else a fresh one.
    """
    global _nn_worker
    if max(len(pa), len(qa)) > BRUTE_FORCE_LIMIT:
        if _nn_worker is None:
            # imported here, like scipy: commands without an NN search skip its ~8 ms
            from concurrent.futures import ThreadPoolExecutor

            _nn_worker = ThreadPoolExecutor(1, thread_name_prefix="metricshape-nn")
        kept = _kept_target  # its cloud is looked at only if already made
        own = kept is not None and "cloud" in vars(kept) and qa is kept.cloud.points
        pending = _nn_worker.submit((kept.tree if own else _kd_tree(qa)).query, pa)
        try:
            qp = _nearest_squared(qa, pa)
        finally:  # the worker is idle again whenever this returns or raises
            idx_pq = pending.result()[1]
        return _matched_squared(pa, qa, idx_pq) + qp
    with np.errstate(over="ignore"):  # an overflow here only sends every row to the exact path
        sq_p, sq_q = np.einsum("ij,ij->i", pa, pa), np.einsum("ij,ij->i", qa, qa)
    if not max(sq_p.max(), sq_q.max()) < _SCREEN_NORM_LIMIT:
        sq_p = sq_q = None
    return _all_pairs_nearest(pa, qa, sq_p, sq_q) + _all_pairs_nearest(qa, pa, sq_q, sq_p)


def chamfer_distance(p: PointCloud, q: PointCloud) -> LossValue:
    """Symmetric mean of squared nearest-neighbor distances between clouds.

    value = (1/|P|) sum_p min_q |p-q|^2 + (1/|Q|) sum_q min_p |q-p|^2.
    Gradients are returned for both clouds; each squared-distance term
    sends opposite gradients to the two endpoints of its matched pair.
    Matches are recomputed per evaluation.
    """
    if len(p) == 0 or len(q) == 0:
        raise EmptyCloudError("chamfer distance needs two non-empty clouds")
    pa, qa = p.points, q.points
    idx_pq, d2_pq, idx_qp, d2_qp = _mutual_nearest(pa, qa)
    value = float(d2_pq.mean()) + float(d2_qp.mean())

    # one term per match, negated for its other end: -(2x/n) has the bits of (-2x)/n
    grad_p = 2.0 * (pa - qa[idx_pq]) / len(p)
    # bincount sums each match into a zero in order, as np.add.at into zeros does
    neg = -grad_p
    grad_q = np.stack([np.bincount(idx_pq, neg[:, k], len(q)) for k in range(3)], axis=1)
    term_qp = 2.0 * (qa - pa[idx_qp]) / len(q)
    grad_q += term_qp
    neg_qp = -term_qp
    for k in range(3):  # a column at a time takes ufunc.at's fast 1-d path; same additions
        np.add.at(grad_p[:, k], idx_qp, neg_qp[:, k])
    return LossValue(value=value, gradients={"points_p": grad_p, "points_q": grad_q})


class _Target:
    """The ground truth's side of ``total_loss``, each part made on first use.

    It depends only on the target depth, the target field and the canonical
    field, so it is kept for the last target (``_kept_target``) and reused
    while ``total_loss`` gets the same three objects and their arrays are
    still read-only, as the package's own values' arrays are. An array set
    writeable makes the next call build a new one, with a new cloud and tree.
    """

    def __init__(self, depth: DepthMap, field: IncidenceField, cano: IncidenceField) -> None:
        self.depth, self.field, self.cano = depth, field, cano

    def serves(self, depth: DepthMap, field: IncidenceField, cano: IncidenceField) -> bool:
        return (
            depth is self.depth and field is self.field and cano is self.cano
            and not (depth.values.flags.writeable or depth.valid.flags.writeable
                     or field.rays.flags.writeable or cano.rays.flags.writeable)
        )

    @cached_property
    def log_depth(self) -> tuple[int, np.ndarray]:
        """The number of valid target pixels and the log target depth at each."""
        valid = self.depth.valid
        return int(valid.sum()), np.log(self.depth.values[valid])

    @cached_property
    def rays(self) -> tuple[np.ndarray, ...]:
        return _target_rays(self.field)

    @cached_property
    def cloud(self) -> PointCloud:
        return unproject_with_field(self.field, self.depth)

    @cached_property
    def tree(self):
        """The k-d tree of ``cloud``'s points. Only ``_mutual_nearest``'s k-d
        branch asks for it, so scipy is never imported below the limit."""
        return _kd_tree(self.cloud.points)

    @cached_property
    def cano_at_mask(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical x and y at the target's valid pixels."""
        valid = self.depth.valid
        return self.cano.x[valid], self.cano.y[valid]


_kept_target = None


def total_loss(
    pred_depth: DepthMap,
    gt_depth: DepthMap,
    res_field: IncidenceField,
    cano_field: IncidenceField,
    gt_field: IncidenceField,
    weights: LossWeights = LossWeights(),
) -> LossValue:
    """alpha*silog + beta*cosine + gamma*chamfer between the induced clouds.

    The predicted cloud is the predicted depth unprojected through the
    composed field; the target cloud is the ground-truth depth unprojected
    through the ground-truth field. Gradients are returned w.r.t. the
    predicted depth grid and the residual field.

    The ground truth's terms (its log depths, ray norms and unit rays, its
    cloud and that cloud's k-d tree, the canonical components at its mask)
    are kept for the last target and reused while the same ``gt_depth``,
    ``gt_field`` and ``cano_field`` come back with read-only arrays; the log
    depths and the canonical components serve a prediction whose mask is
    ``gt_depth.valid`` itself (refinement's case). The bits are those of
    fresh terms.
    """
    global _kept_target
    target = _kept_target
    if target is None or not target.serves(gt_depth, gt_field, cano_field):
        target = _kept_target = _Target(gt_depth, gt_field, cano_field)
    m = pred_depth.valid
    same_mask = m is gt_depth.valid
    if same_mask:
        sil = _silog(pred_depth.values, m, *target.log_depth, weights.lam)
    else:
        sil = silog_loss(pred_depth, gt_depth, weights.lam)
    composed = compose_residual(res_field, cano_field)
    cos = _cosine(composed, cano_field, gt_field, target.rays)
    value = weights.alpha * sil.value + weights.beta * cos.value
    grad_depth = weights.alpha * sil.gradients["depth"]
    grad_field = weights.beta * cos.gradients["field"]

    if weights.gamma != 0.0:
        cloud_pred = unproject_with_field(composed, pred_depth)
        cham = chamfer_distance(cloud_pred, target.cloud)
        value += weights.gamma * cham.value

        gp = weights.gamma * cham.gradients["points_p"]
        d = pred_depth.values[m]
        cano_x, cano_y = target.cano_at_mask if same_mask else (cano_field.x[m], cano_field.y[m])
        # point = depth * composed ray: depth moves the point along the ray,
        # the residual components scale x and y by depth * canonical component
        grad_depth[m] += (
            gp[:, 0] * composed.x[m] + gp[:, 1] * composed.y[m] + gp[:, 2]
        )
        grad_field[..., 0][m] += gp[:, 0] * d * cano_x
        grad_field[..., 1][m] += gp[:, 1] * d * cano_y

    return LossValue(value=float(value), gradients={"depth": grad_depth, "field": grad_field})
