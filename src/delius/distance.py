"""Squared Euclidean distances: the one kernel every clustering step shares.

Three forms, each documenting the contract its callers rely on:
point-to-centre, with the Lloyd assignment that screens for it;
all-pairs, streamed in row blocks; and the all-pairs form shifted by
one, ``1 + d^2`` from a single GEMM per block, for the t-SNE kernel.
This module imports nothing else from the package, so any module may
use it.
"""

from __future__ import annotations

import numpy as np

# Bytes per row block of the all-pairs passes.  Three buffers this size
# fit in a 2 MiB L2 cache: a block of distances, its pair sums and
# silhouette's bin index for it, or t-SNE's kernel block and its product
# with the affinities.  Blocks never go below 8 rows, so above
# n = 8192 they outgrow it: silhouette then holds 8 rows of n per buffer.
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


def sq_distance_blocks(points: np.ndarray, out: np.ndarray | None = None):
    """All pairwise squared Euclidean distances, clipped at 0, zero diagonal,
    yielding ``(start, rows)`` for each block of rows as it is finished,
    while it is still in cache.

    Each block's Gram rows are doubled and written back as
    ``(|x_i|^2 + |x_j|^2) - 2 x_i.x_j``, clipped and with its diagonal
    zeroed: the same float operations in the same order as the
    whole-matrix broadcast.  With ``out`` (``joint_affinities``) the Gram
    matrix is one whole ``points @ points.T`` written into ``out``, and
    ``rows`` is a block of it.  Without (silhouette) each block's Gram
    rows are one GEMM ``points[s:s+m] @ points.T`` into a reusable
    buffer, so memory is O(block * n) and ``rows`` is valid until the
    next block.  Blocks are ``block_rows(n)`` rows tall, so when n is
    a multiple of 8 the streamed rows equal the whole product's bit for
    bit; otherwise the last n mod 8 rows and their mirror columns can
    differ in the last bits.
    """
    n = points.shape[0]
    sq = np.einsum("nd,nd->n", points, points)
    step = block_rows(n)
    scratch = np.empty((step, n))
    if out is None:
        gram = np.empty_like(scratch)
    else:
        np.matmul(points, points.T, out=out)
    for start in range(0, n, step):
        m = min(step, n - start)
        if out is None:
            rows = np.matmul(points[start : start + m], points.T, out=gram[:m])
        else:
            rows = out[start : start + m]
        block = scratch[:m]
        rows *= 2.0
        np.add(sq[start : start + m, None], sq[None, :], out=block)
        np.subtract(block, rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
        np.fill_diagonal(rows[:, start : start + m], 0.0)
        yield start, rows


def shifted_sq_distance_blocks(points: np.ndarray, buffer: np.ndarray):
    """One plus all pairwise squared Euclidean distances, clipped at 1, with a
    diagonal of exactly 1, yielding ``(start, rows)`` for each block of
    ``block_rows(n)`` rows; ``rows`` is valid until the next block.

    Each block is one GEMM of the rows ``[x_i, 1 + |x_i|^2, 1]`` against
    the pre-transposed, C-contiguous columns ``[-2 x_j, 1, |x_j|^2]``, an
    inner dimension of d + 2, so the whole sum is formed inside the
    product in the BLAS's order.  The entries are therefore not bit-equal
    to one plus ``sq_distance_blocks``'s: they agree within the rounding
    of a length-(d + 2) dot product of magnitude ``1 + |x_i|^2 + |x_j|^2``.
    The t-SNE gradient takes its Student-t kernel ``1 / (1 + d^2)`` from
    these blocks, at O(block * n) memory.  The blocks are written into
    ``buffer``, a C-contiguous ``block_rows(n)`` x n array that a caller
    making many passes reuses: a fresh half-MiB buffer on every pass is
    trimmed and re-faulted by glibc each time.
    """
    n, d = points.shape
    sq = np.einsum("nd,nd->n", points, points)
    left = np.empty((n, d + 2))
    left[:, :d] = points
    np.add(sq, 1.0, out=left[:, d])
    left[:, d + 1] = 1.0
    right = np.empty((d + 2, n))
    np.multiply(points.T, -2.0, out=right[:d])  # scaling by -2 is exact
    right[d] = 1.0
    right[d + 1] = sq
    step = block_rows(n)
    for start in range(0, n, step):
        m = min(step, n - start)
        rows = np.matmul(left[start : start + m], right, out=buffer[:m])
        np.maximum(rows, 1.0, out=rows)
        np.fill_diagonal(rows[:, start : start + m], 1.0)
        yield start, rows
