"""Squared Euclidean distances: the one kernel every clustering step shares.

Two forms, each documenting the contract its callers rely on.  This
module imports nothing else from the package, so any module may use it.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 1024  # rows per block of the n x n passes: their scratch is BLOCK_ROWS x n


def sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances from each point to each centre, as a C-ordered n x k array.

    Direct differences keep exact ties exact: equidistant or duplicate
    centres give bit-equal entries, so ``argmin`` picks the lowest index,
    and ``sq_distances(mu, mu)`` is symmetric with a zero diagonal.  The
    Lloyd step, k-means++ seeding, ``soft_assign``, ``kl_grads`` and the
    centroid-coincidence check rely on this.  One centre at a time: an
    n x m difference instead of an n x k x m one, with the same sums.  The
    sums follow the layout of ``points``; the result is C-ordered because
    row sums over it follow its layout.
    """
    out = np.empty((centers.shape[0], points.shape[0]))
    diff = np.empty_like(points)
    for j, center in enumerate(centers):
        np.subtract(points, center, out=diff)
        np.einsum("nm,nm->n", diff, diff, out=out[j])
    return np.ascontiguousarray(out.T)


def sq_distance_matrix(
    points: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """All pairwise squared Euclidean distances, clipped at 0, zero diagonal.

    Silhouette, ``joint_affinities`` and ``_tsne_gradient`` use this form.
    One n x n array is allocated, or ``out`` is filled: the Gram matrix,
    doubled in place, then ``(|x_i|^2 + |x_j|^2) - 2 x_i.x_j`` written
    back over it one block of rows at a time, the same float operations
    in the same order as the whole-matrix broadcast.  ``scratch``, if
    given, holds the blocks; it needs min(BLOCK_ROWS, n) rows of n.
    """
    n = points.shape[0]
    sq = np.einsum("nd,nd->n", points, points)
    out = np.matmul(points, points.T, out=out)
    out *= 2.0
    pair = np.empty((min(BLOCK_ROWS, n), n)) if scratch is None else scratch
    for start in range(0, n, BLOCK_ROWS):
        rows = out[start : start + BLOCK_ROWS]
        block = pair[: rows.shape[0]]
        np.add(sq[start : start + BLOCK_ROWS, None], sq[None, :], out=block)
        np.subtract(block, rows, out=rows)
    np.maximum(out, 0.0, out=out)
    np.fill_diagonal(out, 0.0)
    return out
