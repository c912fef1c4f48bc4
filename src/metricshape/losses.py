"""Differentiable losses: scale-invariant log depth, incidence cosine, Chamfer.

Every loss returns its value together with analytic gradients with respect
to the differentiated inputs; the combined objective chains them so that
gradients reach the depth grid through both the log-depth term and the
point-cloud term, and reach the residual incidence field through both the
cosine term and the point-cloud term.

Conventions: natural log in the depth loss; the cosine term is implemented
as mean(1 - cos) so that 0 is optimal and it adds positively to the total;
rays are unit-normalized only here, immediately before the dot product.

Above ``BRUTE_FORCE_LIMIT`` points a side the nearest-neighbour search uses
k-d trees. The tree of the last target cloud is kept and reused while the
target's content is unchanged (a refine's ground truth), and the two query
directions run side by side: prediction->target on one worker thread,
created on first use, while the calling thread builds the prediction's
tree and runs target->prediction. The worker only queries (``cKDTree.query``
releases the GIL); the trees and all arithmetic stay on the calling thread,
under its ``np.errstate``. Same trees, same queries: the bits do not change.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .camera import _BLOCK_ENTRIES, DepthMap, PointCloud
from .errors import EmptyCloudError, EmptyOverlapError, InvalidSettingError, ShapeMismatchError
from .incidence import IncidenceField, compose_residual, unproject_with_field

# Up to this many points a side, one all-pairs pass serves both NN directions
# and scipy is never imported: its import alone adds about 70 % to a small
# refine's peak memory. Above it, k-d trees.
BRUTE_FORCE_LIMIT = 500

# The k-d path's last target tree, and its one query worker (module docstring).
_target_tree = None
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
    n = int(joint.sum())
    if n == 0:
        raise EmptyOverlapError("no jointly valid pixels")
    d = pred.values[joint]
    e = np.log(d) - np.log(target.values[joint])
    total = float(e.sum())
    value = float(e @ e) / n - lam * total * total / (n * n)
    grad = np.zeros_like(pred.values)
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
    return _cosine_of_composed(compose_residual(res, cano), cano, target)


def _cosine_of_composed(
    composed: IncidenceField, cano: IncidenceField, target: IncidenceField
) -> LossValue:
    """``cosine_incidence_loss`` of a residual field that is already composed."""
    if composed.rays.shape != target.rays.shape:
        raise ShapeMismatchError(
            f"field shapes differ: {composed.rays.shape} vs {target.rays.shape}"
        )
    c = composed.rays
    t = target.rays
    # z=1 form guarantees |ray| >= 1, so normalization never divides by zero
    cn = np.sqrt((c * c).sum(axis=2))
    tn = np.sqrt((t * t).sum(axis=2))
    cos = (c * t).sum(axis=2) / (cn * tn)
    n = cos.size
    value = float((1.0 - cos).mean())

    t_hat = t / tn[..., None]
    c_hat = c / cn[..., None]
    dcos_dc = (t_hat - cos[..., None] * c_hat) / cn[..., None]
    grad = np.zeros_like(c)
    grad[..., 0] = -dcos_dc[..., 0] * cano.x / n
    grad[..., 1] = -dcos_dc[..., 1] * cano.y / n
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


def _nearest_squared(query: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of and squared distance to each query point's nearest reference, by k-d tree."""
    # imported here so that commands without an NN search never load scipy
    from scipy.spatial import cKDTree

    return _matched_squared(query, reference, cKDTree(reference).query(query)[1])


def _matched_squared(
    query: np.ndarray, reference: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A k-d tree's match indices ``idx`` and the squared distance of each match.

    The tree only selects the matching index; the squared distance is
    recomputed from the matched pair with the arithmetic of
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


def _target_tree_of(qa: np.ndarray):
    """A k-d tree of ``qa``: the kept one while its points equal ``qa``.

    A tree holds its points uncopied, so it is kept only for a read-only
    array that owns its memory (such as ``PointCloud.points``): nothing can
    then change a kept tree's points behind its back.
    """
    global _target_tree
    from scipy.spatial import cKDTree

    tree = _target_tree
    if tree is None or not np.array_equal(tree.data, qa):
        tree = cKDTree(qa)
        _target_tree = tree if not qa.flags.writeable and qa.flags.owndata else None
    return tree


def _mutual_nearest(
    pa: np.ndarray, qa: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-neighbour pass both ways: (idx_pq, d2_pq, idx_qp, d2_qp).

    While neither cloud exceeds ``BRUTE_FORCE_LIMIT`` points, one all-pairs
    pass serves both directions, with the bits of two separate all-pairs
    passes. It walks the matrix in blocks of rows: each block's rows give
    P->Q, and a running per-column minimum, replaced only where a later
    block is strictly smaller, gives Q->P with ties on the lowest index.
    Above the limit, one k-d tree query per direction, the two at once:
    P->Q against the target's (kept) tree on the worker, Q->P here.
    """
    global _nn_worker
    if max(len(pa), len(qa)) > BRUTE_FORCE_LIMIT:
        if _nn_worker is None:
            # imported here, like scipy: commands without an NN search skip its ~8 ms
            from concurrent.futures import ThreadPoolExecutor

            _nn_worker = ThreadPoolExecutor(1, thread_name_prefix="metricshape-nn")
        pending = _nn_worker.submit(_target_tree_of(qa).query, pa)
        try:
            qp = _nearest_squared(qa, pa)
        finally:  # the worker is idle again whenever this returns or raises
            idx_pq = pending.result()[1]
        return _matched_squared(pa, qa, idx_pq) + qp
    n, m = len(pa), len(qa)
    # the all-pairs matrix in blocks of rows of at most _BLOCK_ENTRIES entries
    rows = max(1, _BLOCK_ENTRIES // m)
    idx_pq, d2_pq = np.empty(n, dtype=np.intp), np.empty(n)
    idx_qp, d2_qp = np.zeros(m, dtype=np.intp), np.full(m, np.inf)
    for start in range(0, n, rows):
        block = _squared_distance_matrix(pa[start:start + rows], qa)
        idx_pq[start:start + rows], d2_pq[start:start + rows] = _row_nearest(block)
        best, d2 = _row_nearest(block.T)
        closer = d2 < d2_qp
        idx_qp[closer], d2_qp[closer] = best[closer] + start, d2[closer]
    return idx_pq, d2_pq, idx_qp, d2_qp


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
    np.add.at(grad_p, idx_qp, -term_qp)
    return LossValue(value=value, gradients={"points_p": grad_p, "points_q": grad_q})


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
    """
    sil = silog_loss(pred_depth, gt_depth, weights.lam)
    composed = compose_residual(res_field, cano_field)
    cos = _cosine_of_composed(composed, cano_field, gt_field)
    value = weights.alpha * sil.value + weights.beta * cos.value
    grad_depth = weights.alpha * sil.gradients["depth"]
    grad_field = weights.beta * cos.gradients["field"]

    if weights.gamma != 0.0:
        cloud_pred = unproject_with_field(composed, pred_depth)
        cloud_gt = unproject_with_field(gt_field, gt_depth)
        cham = chamfer_distance(cloud_pred, cloud_gt)
        value += weights.gamma * cham.value

        m = pred_depth.valid
        gp = weights.gamma * cham.gradients["points_p"]
        d = pred_depth.values[m]
        # point = depth * composed ray: depth moves the point along the ray,
        # the residual components scale x and y by depth * canonical component
        grad_depth[m] += (
            gp[:, 0] * composed.x[m] + gp[:, 1] * composed.y[m] + gp[:, 2]
        )
        grad_field[..., 0][m] += gp[:, 0] * d * cano_field.x[m]
        grad_field[..., 1][m] += gp[:, 1] * d * cano_field.y[m]

    return LossValue(value=float(value), gradients={"depth": grad_depth, "field": grad_field})
