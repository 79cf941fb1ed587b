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

from .distance import nearest_centres, sq_distances
from .errors import ConfigError, DataError
from .rng import Rng

DEFAULT_RESTARTS = 20
MAX_ITERS = 300
TOL = 1e-6  # a Lloyd run also stops once no centroid moves farther than this


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


def _repair_empty(labels, own, k):
    """Give each empty cluster the farthest point of a cluster that keeps one.

    ``own`` holds each point's squared distance to its centroid; it and
    ``labels`` are updated in place.
    """
    counts = np.bincount(labels, minlength=k)
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


def _lloyd(points: np.ndarray, k: int, rng: Rng):
    point_sq = np.einsum("nm,nm->n", points, points)
    centroids = _plusplus_init(points, k, rng)
    labels, own = nearest_centres(points, centroids, point_sq)
    inertia = float(own.sum())
    n_iter = 0
    for n_iter in range(1, MAX_ITERS + 1):
        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            labels = _repair_empty(labels, own, k)
            counts = np.bincount(labels, minlength=k)
        # Each column's cluster sums add the rows in index order, as np.add.at would.
        new_centroids = np.empty((k, points.shape[1]))
        for c, col in enumerate(points.T):
            new_centroids[:, c] = np.bincount(labels, weights=col, minlength=k)
        new_centroids /= counts[:, None]
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        new_labels, own = nearest_centres(points, centroids, point_sq)
        inertia = float(own.sum())
        done = bool((new_labels == labels).all()) or shift < TOL
        labels = new_labels
        if done:
            break
    return centroids, labels, inertia, n_iter


def kmeans_fit(
    points: np.ndarray,
    k: int,
    rng: Rng,
    restarts: int = DEFAULT_RESTARTS,
) -> KmeansResult:
    """Best of ``restarts`` seeded Lloyd runs by inertia."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DataError(f"points must be 2-d, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise DataError("points contain non-finite values")
    n = points.shape[0]
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if k > n:
        raise ConfigError(f"k = {k} exceeds the number of points n = {n}")
    if restarts < 1:
        raise ConfigError(f"restarts must be at least 1, got {restarts}")
    seeds = [rng.next_u64() for _ in range(restarts)]
    best = None
    for r, seed in enumerate(seeds):
        centroids, labels, inertia, n_iter = _lloyd(points, k, Rng(seed))
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
