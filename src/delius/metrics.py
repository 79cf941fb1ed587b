"""Clustering quality measures and the evaluation report.

Silhouette uses Euclidean distances; a point alone in its cluster
scores 0.  The variance ratio criterion compares between-cluster to
within-cluster scatter scaled by (n - k) / (k - 1) and is reported as
infinite when every cluster collapses to a point.  Accuracy against
ground truth maximises the matched count over all one-to-one
cluster-to-class mappings via an optimal assignment on the confusion
matrix, solved exactly by shortest augmenting paths (Kuhn 1955; Crouse,
IEEE TAES 52(4), 2016).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .distance import block_rows, sq_distance_blocks
from .errors import ConfigError, DataError, ShapeError


def _check_points_labels(points: np.ndarray, labels: np.ndarray):
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.ndim != 2:
        raise ShapeError(f"points must be 2-d, got shape {points.shape}")
    if labels.shape != (points.shape[0],):
        raise ShapeError(
            f"labels shape {labels.shape} does not match {points.shape[0]} points"
        )
    if not np.isfinite(points).all():
        raise DataError("points contain non-finite values")
    return points, labels.astype(np.int64)


def silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over all points.

    A point's distance sum to each cluster adds that cluster's members
    one at a time in index order: one weighted ``bincount`` per block of
    rows, with a bin for every (row, cluster) pair, taken as each block
    of distances is finished.  The blocks come from
    ``distance.sq_distance_blocks`` into one reused block buffer, so
    memory is O(block * n) beside the n x k sums; no n x n array is made.
    """
    points, labels = _check_points_labels(points, labels)
    n = points.shape[0]
    clusters, own, counts = np.unique(labels, return_inverse=True, return_counts=True)
    k = len(clusters)
    if not 2 <= k <= n - 1:
        raise ConfigError(f"silhouette needs 2 <= clusters <= n - 1, got k={k}, n={n}")
    step = block_rows(n)
    bins = own + k * np.arange(step)[:, None]
    sums = np.empty((n, k))
    for start, rows in sq_distance_blocks(points, np.empty((step, n))):
        m = rows.shape[0]
        np.sqrt(rows, out=rows)
        sums[start : start + m] = np.bincount(
            bins[:m].ravel(), weights=rows.ravel(), minlength=m * k
        ).reshape(m, k)
    counts = counts.astype(np.float64)
    size = counts[own]
    index = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[index, own] / (size - 1.0)
        nearest = sums / counts
        nearest[index, own] = np.inf
        b = nearest.min(axis=1)
        denom = np.maximum(a, b)
        scores = (b - a) / denom
    scores[(size == 1.0) | (denom == 0.0)] = 0.0  # singleton clusters score 0 by convention
    return float(scores.mean())


def calinski_harabasz(points: np.ndarray, labels: np.ndarray) -> float:
    """Variance ratio criterion; infinite when within-cluster scatter vanishes."""
    points, labels = _check_points_labels(points, labels)
    n = points.shape[0]
    # A bare np.unique takes numpy's hash path, which imports numpy.ma.
    clusters = np.unique(labels, return_counts=True)[0]
    k = len(clusters)
    if not 2 <= k <= n - 1:
        raise ConfigError(f"variance ratio needs 2 <= clusters <= n - 1, got k={k}, n={n}")
    overall = points.mean(axis=0)
    within = 0.0
    between = 0.0
    for c in clusters:
        members = points[labels == c]
        centroid = members.mean(axis=0)
        within += float(((members - centroid) ** 2).sum())
        between += members.shape[0] * float(((centroid - overall) ** 2).sum())
    if within < 1e-300:
        return math.inf
    return (between / within) * ((n - k) / (k - 1))


def _max_weight_assignment(weights: np.ndarray) -> np.ndarray:
    """Column of each row in a maximum-weight perfect matching of a square matrix.

    Rows join one at a time along a shortest augmenting path in the
    reduced costs (Dijkstra over columns, one numpy scan per step), and
    the dual potentials ``u``, ``v`` keep every reduced cost
    non-negative.  Costs are ``max - weights`` so they start non-negative
    under zero potentials.
    """
    cost = weights.max() - np.asarray(weights, dtype=np.float64)
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    col_of = np.full(n, -1, dtype=np.int64)
    row_of = np.full(n, -1, dtype=np.int64)
    for start in range(n):
        shortest = np.full(n, np.inf)
        via = np.zeros(n, dtype=np.int64)  # row preceding each column on its path
        open_cols = np.ones(n, dtype=bool)
        scanned_rows = []
        row, reach = start, 0.0
        while True:
            reduced = reach + cost[row] - u[row] - v
            closer = open_cols & (reduced < shortest)
            via[closer] = row
            shortest[closer] = reduced[closer]
            col = int(np.argmin(np.where(open_cols, shortest, np.inf)))
            reach = shortest[col]
            open_cols[col] = False
            if row_of[col] < 0:
                break
            row = int(row_of[col])
            scanned_rows.append(row)
        u[start] += reach
        rows = np.asarray(scanned_rows, dtype=np.int64)
        u[rows] += reach - shortest[col_of[rows]]
        done = ~open_cols
        v[done] -= reach - shortest[done]
        while True:  # flip the path back to ``start``
            row = int(via[col])
            row_of[col] = row
            col_of[row], col = col, col_of[row]
            if row == start:
                break
    return col_of


def clustering_accuracy(truth: np.ndarray, clusters: np.ndarray) -> float:
    """Best achievable agreement under a one-to-one cluster relabeling."""
    truth = np.asarray(truth)
    clusters = np.asarray(clusters)
    if truth.shape != clusters.shape or truth.ndim != 1:
        raise ShapeError(
            f"label vectors must be equal-length 1-d, got {truth.shape} and {clusters.shape}"
        )
    n = truth.shape[0]
    if n == 0:
        raise ConfigError("cannot score empty label vectors")
    _, t = np.unique(truth, return_inverse=True)
    _, c = np.unique(clusters, return_inverse=True)
    side = max(t.max(), c.max()) + 1
    confusion = np.zeros((side, side), dtype=np.int64)
    np.add.at(confusion, (t, c), 1)
    cols = _max_weight_assignment(confusion)
    return float(confusion[np.arange(side), cols].sum()) / n


@dataclass
class EvalReport:
    """Metrics for one clustering in one representation space."""

    sc: float
    chi: float
    acc_style: float | None
    acc_genre: float | None
    k: int
    n: int
    space_tag: str

    def to_dict(self) -> dict:
        chi_infinite = math.isinf(self.chi)
        return {
            "sc": self.sc,
            "chi": None if chi_infinite else self.chi,
            "chi_infinite": chi_infinite,
            "acc_style": self.acc_style,
            "acc_genre": self.acc_genre,
            "k": self.k,
            "n": self.n,
            "space_tag": self.space_tag,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def evaluate(
    points: np.ndarray,
    labels: np.ndarray,
    space_tag: str,
    style_truth=None,
    genre_truth=None,
) -> EvalReport:
    """Score a clustering; accuracy entries appear only when truth is given.

    ``style_truth`` and ``genre_truth`` hold one class index per row of
    ``points``, -1 where the row has no label, as ``dataio.labels_for``
    returns them.
    """
    points, labels = _check_points_labels(points, labels)

    def acc(truth):
        if truth is None:
            return None
        truth = np.asarray(truth, dtype=np.int64)
        if truth.shape != labels.shape:
            raise ShapeError(f"truth shape {truth.shape} does not match {labels.shape[0]} labels")
        labeled = truth >= 0
        return clustering_accuracy(truth[labeled], labels[labeled]) if labeled.any() else None

    acc_style, acc_genre = acc(style_truth), acc(genre_truth)  # a bad shape fails first
    return EvalReport(
        sc=silhouette(points, labels),
        chi=calinski_harabasz(points, labels),
        acc_style=acc_style,
        acc_genre=acc_genre,
        k=len(np.unique(labels, return_counts=True)[0]),
        n=int(points.shape[0]),
        space_tag=space_tag,
    )
