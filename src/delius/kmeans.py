"""Lloyd's k-means with k-means++ seeding and deterministic restarts.

Each restart draws its seed from the master generator before any
clustering happens, so the set of restarts is fixed by the seed and the
best result (lowest inertia, earliest restart on ties) is reproducible.
Empty clusters are repaired by turning the point currently farthest
from its centroid into a singleton centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import sq_distances
from .errors import ConfigError, DataError
from .rng import Rng

DEFAULT_RESTARTS = 20
DEFAULT_MAX_ITERS = 300
DEFAULT_TOL = 1e-6


@dataclass
class KmeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    restarts_run: int
    best_restart_index: int
    n_iter: int


def _plusplus_init(points: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    n = points.shape[0]
    chosen = [rng.below(n)]
    closest = sq_distances(points, points[chosen[-1]][None, :])[:, 0]
    while len(chosen) < k:
        total = float(closest.sum())
        if total > 0.0:
            idx = rng.weighted_index(closest)
        else:
            idx = rng.below(n)  # all mass on existing centers; fall back to uniform
        chosen.append(idx)
        d_new = sq_distances(points, points[idx][None, :])[:, 0]
        closest = np.minimum(closest, d_new)
    return points[np.array(chosen)].copy()


def _repair_empty(points, centroids, labels, dists):
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    own = dists[np.arange(points.shape[0]), labels].copy()
    for j in np.flatnonzero(counts == 0):
        donors = counts[labels] >= 2
        if not donors.any():
            break
        candidate_dist = np.where(donors, own, -np.inf)
        idx = int(np.argmax(candidate_dist))
        counts[labels[idx]] -= 1
        labels[idx] = j
        counts[j] = 1
        own[idx] = 0.0
    return labels


def _lloyd(points: np.ndarray, k: int, rng: Rng, max_iters: int, tol: float):
    centroids = _plusplus_init(points, k, rng)
    dists = sq_distances(points, centroids)
    labels = np.argmin(dists, axis=1).astype(np.int64)
    inertia = float(dists[np.arange(points.shape[0]), labels].sum())
    n_iter = 0
    for n_iter in range(1, max_iters + 1):
        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            labels = _repair_empty(points, centroids, labels, dists)
            counts = np.bincount(labels, minlength=k)
        # Each column's cluster sums add the rows in index order, as np.add.at would.
        new_centroids = np.empty((k, points.shape[1]))
        for c, col in enumerate(points.T):
            new_centroids[:, c] = np.bincount(labels, weights=col, minlength=k)
        new_centroids /= counts[:, None]
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        dists = sq_distances(points, centroids)
        new_labels = np.argmin(dists, axis=1).astype(np.int64)
        inertia = float(dists[np.arange(points.shape[0]), new_labels].sum())
        done = bool((new_labels == labels).all()) or shift < tol
        labels = new_labels
        if done:
            break
    return centroids, labels, inertia, n_iter


def kmeans_fit(
    points: np.ndarray,
    k: int,
    rng: Rng,
    restarts: int = DEFAULT_RESTARTS,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> KmeansResult:
    """Best of ``restarts`` seeded Lloyd runs by inertia."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DataError(f"points must be 2-d, got shape {points.shape}")
    n = points.shape[0]
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if k > n:
        raise ConfigError(f"k = {k} exceeds the number of points n = {n}")
    if restarts < 1:
        raise ConfigError(f"restarts must be at least 1, got {restarts}")
    if max_iters < 1:
        raise ConfigError(f"max_iters must be at least 1, got {max_iters}")
    seeds = [rng.next_u64() for _ in range(restarts)]
    best = None
    for r, seed in enumerate(seeds):
        centroids, labels, inertia, n_iter = _lloyd(points, k, Rng(seed), max_iters, tol)
        if best is None or inertia < best[2]:
            best = (centroids, labels, inertia, n_iter, r)
    centroids, labels, inertia, n_iter, best_index = best
    return KmeansResult(
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        restarts_run=restarts,
        best_restart_index=best_index,
        n_iter=n_iter,
    )
