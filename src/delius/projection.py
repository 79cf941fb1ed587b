"""Linear and nonlinear 2-d/low-d projections for analysis and plotting.

PCA comes from the singular value decomposition of the centered data's
R factor, with a deterministic sign convention: the largest-magnitude
coordinate of every component is made positive.  The t-SNE here is the exact
O(n^2) variant (van der Maaten & Hinton, JMLR 9, 2008): per-point
bandwidths found by bisection on the conditional distribution's
entropy, symmetrised joint affinities, and plain momentum gradient
descent with an early exaggeration phase.  A row's entropy comes from the
numbers that normalise it: with ``p_j = exp(-beta d_j - top) / S``, where
``top`` is the row's largest logit and ``S`` the sum of its shifted
exps, ``H = -sum p log p = log S + top + beta sum p d``, one log per
row.  Both the affinities and the gradient work one row block of
``distance``'s height at a time, so a layout holds the n x n affinities
and O(block * n) beside them.  The gradient is split as 4 (A - R / Z),
attraction minus normalised repulsion (van der Maaten, JMLR 15, 2014),
so every block is finished without waiting for the normaliser Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import block_rows, sq_distance_blocks
from .errors import ConfigError, DataError, NumericError, ShapeError
from .rng import Rng

_ENTROPY_TOL = 1e-5
_MAX_BISECTIONS = 50
_EXAGGERATION_UNTIL = 250
_MOMENTUM_SWITCH = 250
_MOMENTUM_EARLY = 0.5
_MOMENTUM_LATE = 0.8


# ---------------------------------------------------------------------------
# PCA


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray


def pca_fit(points: np.ndarray, r: int) -> PcaModel:
    """The mean and the top ``r`` principal directions of ``points``.

    The components are the right singular vectors of the centered data,
    taken from its R factor alone (Chan, ACM TOMS 8(1), 1982): one
    Householder QR of the n x d data, keeping neither Q nor the left
    singular vectors, then the SVD of the min(n, d) x d factor R.  The
    transient memory above the input is about three n x d arrays: the
    centered data and the two working copies numpy's QR makes of it.

    LAPACK's ``dgesdd`` takes the same route once n >= floor(11 d / 6)
    (its MNTHR): ``dgeqrf``, then ``dgebrd``, ``dbdsdc`` and ``dormbr`` on
    R.  There the components are bit-equal to those of the thin SVD of
    the centered data.  With fewer rows ``dgesdd`` bidiagonalises the
    data directly, and the components may differ from the thin SVD's in
    their last bits.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeError(f"points must be 2-d, got shape {points.shape}")
    n, d = points.shape
    if n < 2:
        raise ConfigError(f"pca needs at least 2 rows, got {n}")
    limit = min(n - 1, d)
    if not 1 <= r <= limit:
        raise ConfigError(f"r must lie in [1, {limit}] for {n}x{d} data, got {r}")
    if not np.isfinite(points).all():
        raise DataError("points contain non-finite values")
    mean = points.mean(axis=0)
    upper = np.linalg.qr(points - mean, mode="r")
    _, _, vt = np.linalg.svd(upper, full_matrices=False)
    components = vt[:r].copy()
    for row in components:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0.0:
            row *= -1.0
    return PcaModel(mean=mean, components=components)


def pca_transform(model: PcaModel, points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != model.mean.shape[0]:
        raise ShapeError(
            f"points shape {points.shape} does not match model dimension "
            f"{model.mean.shape[0]}"
        )
    return (points - model.mean) @ model.components.T


# ---------------------------------------------------------------------------
# t-SNE


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    early_exaggeration: float = 12.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1.0 < self.perplexity < math.inf:
            raise ConfigError(f"perplexity must be finite and above 1, got {self.perplexity}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be at least 1, got {self.iterations}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning rate must be finite and positive, got {self.learning_rate}"
            )
        if not 1.0 <= self.early_exaggeration < math.inf:
            raise ConfigError(
                f"early exaggeration must be finite and at least 1, got {self.early_exaggeration}"
            )


def _conditional_rows(
    dist: np.ndarray, beta: np.ndarray, diagonal: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's conditional distribution at its bandwidth ``beta``, zero at
    its own point (column ``diagonal``), normalised to sum to 1, and its
    entropy ``log S + top + beta sum_j p_ij d_ij`` from the row's largest
    logit ``top`` and normaliser ``S``."""
    rows = np.arange(dist.shape[0])
    logits = np.multiply(-beta[:, None], dist)
    logits[rows, diagonal] = -np.inf
    top = logits.max(axis=1)
    logits -= top[:, None]
    p = np.exp(logits, out=logits)
    total = p.sum(axis=1)
    p /= total[:, None]
    return p, np.log(total) + top + beta * np.einsum("ij,ij->i", p, dist)


def _bisect_rows(d2: np.ndarray, start: int, target: float) -> None:
    """Overwrite a block of distance rows with their conditional distributions.

    Every row's bandwidth is bisected until its distribution's entropy is
    within ``_ENTROPY_TOL`` of ``target``, for at most ``_MAX_BISECTIONS``
    steps.  All rows of the block step together as arrays, the finished
    ones dropping out, and each row sees the float operations a bisection
    of that row alone would do.
    """
    left = np.arange(d2.shape[0])  # block rows still bisecting
    dist = d2
    beta, lo, hi = np.ones(len(left)), np.zeros(len(left)), np.full(len(left), math.inf)
    for step in range(_MAX_BISECTIONS):
        p, entropy = _conditional_rows(dist, beta, start + left)
        gap = entropy - target
        done = np.abs(gap) <= _ENTROPY_TOL
        if step == _MAX_BISECTIONS - 1 or done.all():
            d2[left] = p
            return
        if done.any():
            d2[left[done]] = p[done]
            keep = ~done
            left, dist, gap = left[keep], dist[keep], gap[keep]
            beta, lo, hi = beta[keep], lo[keep], hi[keep]
        wide = gap > 0.0  # too spread out: narrow the kernel
        lo = np.where(wide, beta, lo)
        hi = np.where(wide, hi, beta)
        mid = (lo + hi) / 2.0  # inf while hi is: unused then
        beta = np.where(
            wide,
            np.where(np.isinf(hi), beta * 2.0, mid),
            np.where(lo == 0.0, beta / 2.0, mid),
        )


def _symmetrise(cond: np.ndarray, step: int) -> None:
    """``(cond + cond.T) / (2 n)`` in place, a block of rows and its mirror
    columns at a time: the same float operations as the whole-matrix sum,
    with O(step * n) memory beside ``cond``."""
    n = cond.shape[0]
    scale = 2.0 * n
    for start in range(0, n, step):
        stop = min(start + step, n)
        square = cond[start:stop, start:stop]
        square[...] = (square + square.T) / scale
        upper, lower = cond[start:stop, stop:], cond[stop:, start:stop]
        np.add(upper, lower.T, out=upper)
        upper /= scale
        lower[...] = upper.T


def joint_affinities(points: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrised t-SNE affinity matrix; entries sum to 1.

    The per-point bandwidth is bisected until the conditional
    distribution's entropy matches log(perplexity), every row of a block
    at once.  ``distance.sq_distance_blocks`` writes each block of
    distances into its own rows of the result, one GEMM per block, and
    each row's distribution overwrites its distances while the block is
    still in cache; the symmetrisation works in place, so the distances,
    the distributions and the result share one n x n array beside
    O(block * n) temporaries.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    target = math.log(perplexity)
    cond = np.empty((n, n))
    for start, rows in sq_distance_blocks(points, out=cond):
        _bisect_rows(rows, start, target)
    _symmetrise(cond, block_rows(n))
    return cond


def lowdim_gradient(p: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Gradient of KL(p || q) in the embedding, plus the divergence itself."""
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    if p.shape != (n, n):
        raise ShapeError(f"affinity shape {p.shape} does not match {n} points")
    return _tsne_gradient(p, y, divergence=True)


def _tsne_gradient(
    p: np.ndarray, y: np.ndarray, work: np.ndarray | None = None, divergence: bool = False
) -> tuple[np.ndarray, float | None]:
    """The KL gradient in the embedding, and with ``divergence`` KL(p || q)
    itself, in one pass over row blocks of the Student-t kernel.

    With ``w_ij = 1 / (1 + d_ij^2)``, zero on the diagonal, and
    ``Z = sum w``, the gradient is ``4 (A - R / Z)``: the attraction
    ``A_i = sum_j p_ij w_ij (y_i - y_j)`` and the repulsion
    ``R_i = sum_j w_ij^2 (y_i - y_j)``.  Each block of rows adds its
    ``w`` sum to Z in block order and finishes its rows of A and R as two
    GEMMs against ``[y, 1]``, so no term waits for Z and no n x n array
    is made besides ``p``.  The divergence is accumulated per block as
    ``sum p log p - sum p log w + (sum p) log Z`` over ``p > 0``.
    ``work``, if given, is a ``(2, block_rows(n), n)`` array for the
    kernel blocks and their products with ``p``; ``tsne_embed`` makes
    one for all its iterations.
    """
    n, d = y.shape
    y1 = np.empty((n, d + 1))
    y1[:, :d] = y
    y1[:, d] = 1.0
    attraction, repulsion = np.empty((n, d + 1)), np.empty((n, d + 1))
    if work is None:
        work = np.empty((2, block_rows(n), n))
    z = 0.0
    p_log_p = p_log_w = p_sum = 0.0
    for start, w in sq_distance_blocks(y, work[0], shift=1.0):
        stop = start + w.shape[0]
        np.divide(1.0, w, out=w)
        np.fill_diagonal(w[:, start:stop], 0.0)
        z += float(w.sum())
        rows = p[start:stop]
        pw = np.multiply(rows, w, out=work[1, : w.shape[0]])
        np.matmul(pw, y1, out=attraction[start:stop])
        if divergence:
            positive = rows > 0.0
            pp = rows[positive]
            p_log_p += float((pp * np.log(pp)).sum())
            p_log_w += float((pp * np.log(w[positive])).sum())
            p_sum += float(pp.sum())
        np.square(w, out=w)
        np.matmul(w, y1, out=repulsion[start:stop])
    repulsion /= z
    np.subtract(attraction, repulsion, out=attraction)
    grad = attraction[:, d:] * y
    grad -= attraction[:, :d]
    grad *= 4.0
    kl = p_log_p - p_log_w + p_sum * math.log(z) if divergence else None
    return grad, kl


def tsne_embed(points: np.ndarray, config: TsneConfig) -> np.ndarray:
    """Exact t-SNE layout in 2-d; the perplexity must lie below (n - 1) / 3."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeError(f"points must be 2-d, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise DataError("points contain non-finite values")
    n = points.shape[0]
    if n < 5:
        raise ConfigError(f"t-SNE needs at least 5 rows, got {n}")
    if not config.perplexity < (n - 1) / 3.0:
        raise ConfigError(
            f"perplexity must lie in (1, {(n - 1) / 3.0:g}) for n = {n}, got {config.perplexity}"
        )
    p = joint_affinities(points, config.perplexity)
    p *= config.early_exaggeration
    exaggerated = True
    rng = Rng(config.seed)
    y = rng.normal((n, 2), std=1e-4)
    velocity = np.zeros_like(y)
    work = np.empty((2, block_rows(n), n))
    # A diverging layout stops at its first non-finite step; the error
    # reports it, not numpy's overflow warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(config.iterations):
            if exaggerated and it >= _EXAGGERATION_UNTIL:
                p /= config.early_exaggeration
                exaggerated = False
            momentum = _MOMENTUM_EARLY if it < _MOMENTUM_SWITCH else _MOMENTUM_LATE
            grad, _ = _tsne_gradient(p, y, work)
            velocity = momentum * velocity - config.learning_rate * grad
            y = y + velocity
            y = y - y.mean(axis=0)
            if not np.isfinite(y).all():
                raise NumericError(
                    f"t-SNE layout diverged to non-finite coordinates at iteration {it + 1}"
                )
    return y
