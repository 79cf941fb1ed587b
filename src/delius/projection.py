"""Linear and nonlinear 2-d/low-d projections for analysis and plotting.

PCA comes from the singular value decomposition of the centered data
with a deterministic sign convention: the largest-magnitude coordinate
of every component is made positive.  The t-SNE here is the exact
O(n^2) variant: per-point bandwidths found by bisection on the
conditional distribution's entropy, symmetrised joint affinities, and
plain momentum gradient descent with an early exaggeration phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import sq_distance_blocks
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
    centered = points - mean
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
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


def _conditional_row(d2_row: np.ndarray, i: int, beta: float) -> np.ndarray:
    logits = -beta * d2_row
    logits[i] = -np.inf
    logits -= logits.max()
    p = np.exp(logits)
    p[i] = 0.0
    return p / p.sum()


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def joint_affinities(points: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrised t-SNE affinity matrix; entries sum to 1.

    The per-point bandwidth is bisected until the conditional
    distribution's entropy matches log(perplexity).  Each row's
    distribution overwrites its distances as each block of rows is
    finished, so the distances and the distributions share one n x n
    array.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    target = math.log(perplexity)
    cond = np.empty((n, n))
    for start, rows in sq_distance_blocks(points, out=cond):
        for i, d2_row in enumerate(rows, start):
            beta, lo, hi = 1.0, 0.0, math.inf
            for _ in range(_MAX_BISECTIONS):
                row = _conditional_row(d2_row, i, beta)
                gap = _entropy(row) - target
                if abs(gap) <= _ENTROPY_TOL:
                    break
                if gap > 0.0:  # too spread out: narrow the kernel
                    lo = beta
                    beta = beta * 2.0 if math.isinf(hi) else (lo + hi) / 2.0
                else:
                    hi = beta
                    beta = beta / 2.0 if lo == 0.0 else (lo + hi) / 2.0
            d2_row[:] = row
    return (cond + cond.T) / (2.0 * n)


def lowdim_gradient(p: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Gradient of KL(p || q) in the embedding, plus the divergence itself."""
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    if p.shape != (n, n):
        raise ShapeError(f"affinity shape {p.shape} does not match {n} points")
    w = np.empty((n, n))
    grad = _tsne_gradient(p, y, np.empty((n, n)), w)
    q = w / w.sum()
    mask = p > 0.0
    kl = float((p[mask] * np.log(p[mask] / q[mask])).sum())
    return grad, kl


def _tsne_gradient(p: np.ndarray, y: np.ndarray, scratch: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The KL gradient in the embedding, computed in two n x n buffers.

    ``w`` is left holding the Student-t kernel weights with a zero
    diagonal; ``scratch`` is overwritten.  ``tsne_embed`` allocates both
    once per call and never computes the divergence.
    """
    for _, rows in sq_distance_blocks(y, out=w, scratch=scratch):
        rows += 1.0
        np.divide(1.0, rows, out=rows)
    np.fill_diagonal(w, 0.0)
    pq = np.divide(w, w.sum(), out=scratch)
    np.subtract(p, pq, out=pq)
    pq *= w
    return 4.0 * (pq.sum(axis=1)[:, None] * y - pq @ y)


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
    scratch, w = np.empty((n, n)), np.empty((n, n))
    # A diverging layout stops at its first non-finite step; the error
    # reports it, not numpy's overflow warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(config.iterations):
            if exaggerated and it >= _EXAGGERATION_UNTIL:
                p /= config.early_exaggeration
                exaggerated = False
            momentum = _MOMENTUM_EARLY if it < _MOMENTUM_SWITCH else _MOMENTUM_LATE
            grad = _tsne_gradient(p, y, scratch, w)
            velocity = momentum * velocity - config.learning_rate * grad
            y = y + velocity
            y = y - y.mean(axis=0)
            if not np.isfinite(y).all():
                raise NumericError(
                    f"t-SNE layout diverged to non-finite coordinates at iteration {it + 1}"
                )
    return y
