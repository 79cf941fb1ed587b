"""Squared Euclidean distances: the one kernel every clustering step shares.

Two forms, each documenting the contract its callers rely on:
point-to-centre, with the Lloyd assignment that screens for it; and
all-pairs, one GEMM per row block with an optional constant shift, for
silhouette, the t-SNE affinities and the t-SNE kernel ``1 + d^2``.
This module imports nothing else from the package, so any module may
use it.
"""

from __future__ import annotations

import numpy as np

# Bytes per row block of the all-pairs passes.  Two or three buffers this
# size fit in a 2 MiB L2 cache: a block of distances and silhouette's bin
# index for it, or t-SNE's kernel block and its product with the
# affinities.  Blocks never go below 8 rows, so above n = 8192 they
# outgrow it: silhouette then holds 8 rows of n per buffer.
BLOCK_BYTES = 1 << 19


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
    out = np.empty((points.shape[0], centers.shape[0]))
    diff = np.empty_like(points)
    for j, center in enumerate(centers):
        np.subtract(points, center, out=diff)
        np.einsum("nm,nm->n", diff, diff, out=out[:, j])
    return out


# Rounding error of a length-m dot product or squared distance is at most
# gamma_m = m u / (1 - m u) of its magnitude (Higham, Accuracy and Stability
# of Numerical Algorithms, 2nd ed., section 3.1); subnormal products add at
# most half a subnormal unit each.  A row with a larger radius could overflow.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SCREEN_RADIUS_LIMIT = 2.0**500


def nearest_centres(
    points: np.ndarray, centres: np.ndarray, point_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest centre and its squared distance to it, bit-equal to
    ``argmin(sq_distances(points, centres), axis=1)`` and the entries it picks.

    ``point_sq`` holds each point's squared norm.  ``_screen`` settles the
    rows whose nearest centre no rounding error could change; every other
    row (near ties, non-finite or overflowing values) is recomputed by
    ``sq_distances``, so exact ties still go to the lowest index.  The
    returned distances are the direct differences ``sq_distances`` would
    give.
    """
    # The screen's k x n buffer is freed before the n x m difference is
    # made: with both alive, glibc trims and re-faults them on every call.
    labels, unsettled = _screen(points, centres, point_sq)
    rows = np.flatnonzero(unsettled)
    if rows.size:
        labels[rows] = np.argmin(sq_distances(points[rows], centres), axis=1)
    diff = np.take(centres, labels, axis=0)
    np.subtract(points, diff, out=diff)
    return labels, np.einsum("nm,nm->n", diff, diff)


def _screen(points, centres, point_sq):
    """Labels from one k x n GEMM of ``|c|^2 - 2 c.x``, and the rows it cannot settle.

    That form orders the centres as the distances do.  A row is settled
    when exactly one centre lies within an error bound of its minimum:
    the bound covers the rounding of both the screen and the direct
    differences for both candidates, with a factor of 2 to spare for the
    rounding of the bound itself, so that centre is the strict argmin of
    the exact kernel too.  The reductions run across the k contiguous
    rows, elementwise in n.
    """
    m = points.shape[1]
    gamma = (m + 3) * _UNIT_ROUNDOFF / (1.0 - (m + 3) * _UNIT_ROUNDOFF)
    tiny = (m + 2) * np.finfo(np.float64).smallest_subnormal
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are not settled
        centre_sq = np.einsum("km,km->k", centres, centres)
        screen = np.matmul(-2.0 * centres, points.T)  # scaling by -2 is exact
        screen += centre_sq[:, None]
        best = np.min(screen, axis=0)
        radius = np.sqrt(point_sq) + np.sqrt(centre_sq.max())
        threshold = best + (8.0 * gamma * radius * radius + 8.0 * tiny)
        np.less_equal(screen, threshold, out=screen)  # 1.0 where a centre is within the bound
    count, index = np.stack([np.ones(len(centres)), np.arange(len(centres))]) @ screen
    return index.astype(np.int64), (count != 1.0) | ~(radius < _SCREEN_RADIUS_LIMIT)


def block_rows(n: int) -> int:
    """Rows per block of an all-pairs pass: the largest multiple of 8 whose
    rows of n doubles fit in ``BLOCK_BYTES``, at least 8 and at most n.

    The multiple of 8 keeps every block a GEMM when n is one (a one-row
    block is a GEMV, which rounds differently).
    """
    return min(max(8, BLOCK_BYTES // (8 * n) // 8 * 8), n)


def sq_distance_blocks(points: np.ndarray, out: np.ndarray, shift: float = 0.0):
    """All pairwise squared Euclidean distances plus ``shift``, clipped at
    ``shift`` with a diagonal of exactly ``shift``, yielding ``(start, rows)``
    for each block of ``block_rows(n)`` rows as it is finished, while it is
    still in cache.

    Each block is one GEMM of the rows ``[x_i, |x_i|^2 + shift, 1]``
    against the pre-transposed, C-contiguous columns ``[-2 x_j, 1, |x_j|^2]``,
    an inner dimension of d + 2, so the whole sum is formed inside the
    product in the BLAS's order: an entry lies within the rounding of a
    length-(d + 2) dot product of magnitude ``shift + |x_i|^2 + |x_j|^2``
    of the exact value.  If ``out`` has n rows, each block is written into
    its own rows of it (``joint_affinities``, which overwrites them);
    otherwise ``out`` is a C-contiguous ``block_rows(n)`` x n buffer that
    every block reuses, so ``rows`` is valid until the next block and
    memory is O(block * n).  A caller making many passes keeps its buffer:
    a fresh half-MiB one on every pass is trimmed and re-faulted by glibc
    each time.
    """
    n, d = points.shape
    sq = np.einsum("nd,nd->n", points, points)
    left = np.empty((n, d + 2))
    left[:, :d] = points
    np.add(sq, shift, out=left[:, d])
    left[:, d + 1] = 1.0
    right = np.empty((d + 2, n))
    np.multiply(points.T, -2.0, out=right[:d])  # scaling by -2 is exact
    right[d] = 1.0
    right[d + 1] = sq
    step = block_rows(n)
    whole = out.shape[0] == n
    for start in range(0, n, step):
        m = min(step, n - start)
        rows = out[start : start + m] if whole else out[:m]
        np.matmul(left[start : start + m], right, out=rows)
        np.maximum(rows, shift, out=rows)
        np.fill_diagonal(rows[:, start : start + m], shift)
        yield start, rows
