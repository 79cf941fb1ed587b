"""Clustering scores against brute-force reference implementations."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delius.distance import sq_distance_matrix
from delius.errors import ConfigError, DataError, ShapeError
from delius.metrics import (
    EvalReport,
    calinski_harabasz,
    _max_weight_assignment,
    clustering_accuracy,
    evaluate,
    silhouette,
)
from delius.rng import Rng


# Reference implementations: plain loops, no shared code with the
# package versions.


def brute_silhouette(points, labels):
    n = len(points)
    clusters = sorted(set(labels.tolist()))
    total = 0.0
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            continue  # singleton scores 0
        a = sum(math.dist(points[i], points[j]) for j in own) / len(own)
        b = math.inf
        for c in clusters:
            if c == labels[i]:
                continue
            members = [j for j in range(n) if labels[j] == c]
            b = min(b, sum(math.dist(points[i], points[j]) for j in members) / len(members))
        denom = max(a, b)
        total += 0.0 if denom == 0.0 else (b - a) / denom
    return total / n


def brute_calinski_harabasz(points, labels):
    n, d = points.shape
    clusters = sorted(set(labels.tolist()))
    k = len(clusters)
    overall = [sum(points[i][j] for i in range(n)) / n for j in range(d)]
    within = 0.0
    between = 0.0
    for c in clusters:
        members = [i for i in range(n) if labels[i] == c]
        centroid = [sum(points[i][j] for i in members) / len(members) for j in range(d)]
        for i in members:
            within += sum((points[i][j] - centroid[j]) ** 2 for j in range(d))
        between += len(members) * sum((centroid[j] - overall[j]) ** 2 for j in range(d))
    if within < 1e-300:
        return math.inf
    return (between / within) * ((n - k) / (k - 1))


def brute_accuracy(truth, clusters):
    truth_names = sorted(set(truth.tolist()))
    cluster_names = sorted(set(clusters.tolist()))
    n = len(truth)
    best = 0
    size = max(len(truth_names), len(cluster_names))
    for perm in itertools.permutations(range(size)):
        matched = 0
        for t, c in zip(truth, clusters):
            ti = truth_names.index(t)
            ci = cluster_names.index(c)
            if perm[ci] == ti:
                matched += 1
        best = max(best, matched)
    return best / n


def _instance(seed, n=12, k=3, d=2):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d))
    labels = rng.integers(0, k, size=n)
    # ensure at least two distinct clusters
    labels[0], labels[1] = 0, 1
    return points, labels


# ---------------------------------------------------------------------------
# silhouette


def test_silhouette_two_tight_pairs():
    # Two clusters of two points: a = 1, b = 10 for every point, so each
    # scores (10 - 1) / 10; worked by hand from the distances.
    points = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    got = silhouette(points, labels)
    a, b1, b2 = 1.0, (10.0 + 11.0) / 2, (9.0 + 10.0) / 2
    expected = ((b1 - a) / b1 + (b2 - a) / b2) / 2
    assert got == pytest.approx(expected, abs=1e-12)


def test_silhouette_singleton_scores_zero():
    points = np.array([[0.0], [10.0], [10.5]])
    labels = np.array([0, 1, 1])
    got = silhouette(points, labels)
    oracle = brute_silhouette(points, labels)
    assert got == pytest.approx(oracle, abs=1e-12)


def test_silhouette_matches_brute_force():
    for seed in range(10):
        points, labels = _instance(seed)
        assert silhouette(points, labels) == pytest.approx(
            brute_silhouette(points, labels), abs=1e-9
        )


def test_silhouette_label_name_invariance():
    points, labels = _instance(42)
    renamed = labels * 7 + 3
    assert silhouette(points, labels) == silhouette(points, renamed)


def test_silhouette_range():
    for seed in range(5):
        points, labels = _instance(seed, n=20, k=4)
        assert -1.0 <= silhouette(points, labels) <= 1.0


def test_silhouette_cluster_count_bounds():
    points = np.zeros((4, 2))
    with pytest.raises(ConfigError):
        silhouette(points, np.array([0, 0, 0, 0]))
    with pytest.raises(ConfigError):
        silhouette(points, np.array([0, 1, 2, 3]))


def test_silhouette_rejects_nonfinite_points():
    points = np.array([[0.0], [np.nan], [1.0]])
    with pytest.raises(DataError):
        silhouette(points, np.array([0, 1, 1]))


# Frozen copies of the whole-matrix kernels that the blocked ones replaced:
# the blocked forms must give the same bits, not just close values.


def _frozen_sq_distance_matrix(points):
    sq = np.einsum("nd,nd->n", points, points)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _frozen_silhouette(points, labels):
    n = points.shape[0]
    clusters = np.unique(labels)
    k = len(clusters)
    dist = np.sqrt(_frozen_sq_distance_matrix(points))
    sums = np.empty((n, k))
    counts = np.empty(k)
    for ci, c in enumerate(clusters):
        members = labels == c
        sums[:, ci] = dist[:, members].sum(axis=1)
        counts[ci] = members.sum()
    own = np.searchsorted(clusters, labels)
    scores = np.zeros(n)
    for i in range(n):
        ci = own[i]
        if counts[ci] == 1:
            continue
        a = sums[i, ci] / (counts[ci] - 1)
        other = [sums[i, cj] / counts[cj] for cj in range(k) if cj != ci]
        b = min(other)
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


@pytest.mark.parametrize("n", [7, 1023, 1024, 1025, 3000])
@pytest.mark.parametrize("d, k", [(1, 2), (10, 5), (64, 37)])
def test_blocked_kernels_bit_equal_to_frozen(n, d, k):
    k = min(k, n - 2)
    rng = Rng(1000 * n + d)
    points = rng.normal((n, d))
    points[n // 2] = points[1]  # duplicate rows: exact zero distances
    points[n - 2] = points[1]
    labels = np.arange(n) % k * 3 + 2  # label values need not be 0..k-1
    labels[rng.permutation(n)[: n // 3]] = 2 + 3 * (k - 1)
    labels[-1] = -1  # a singleton cluster
    assert np.array_equal(sq_distance_matrix(points), _frozen_sq_distance_matrix(points))
    assert silhouette(points, labels).hex() == _frozen_silhouette(points, labels).hex()


# ---------------------------------------------------------------------------
# variance ratio


def test_variance_ratio_hand_case():
    # Centroids 0 and 10, overall mean 5: between = 2*25 + 2*25 = 100,
    # within = 4 * 0.25 = 1, scaled by (n-k)/(k-1) = 2 gives 200.
    points = np.array([[-0.5], [0.5], [9.5], [10.5]])
    labels = np.array([0, 0, 1, 1])
    got = calinski_harabasz(points, labels)
    assert got == pytest.approx(200.0, abs=1e-9)


def test_variance_ratio_matches_brute_force():
    for seed in range(10):
        points, labels = _instance(seed, n=15, k=4, d=3)
        assert calinski_harabasz(points, labels) == pytest.approx(
            brute_calinski_harabasz(points, labels), abs=1e-9, rel=1e-12
        )


def test_variance_ratio_infinite_on_collapsed_clusters():
    points = np.array([[0.0], [0.0], [5.0], [5.0], [9.0]])
    labels = np.array([0, 0, 1, 1, 2])
    assert math.isinf(calinski_harabasz(points, labels))


def test_variance_ratio_scale_invariant():
    points, labels = _instance(7, n=18, k=3)
    a = calinski_harabasz(points, labels)
    b = calinski_harabasz(points * 37.0, labels)
    assert a == pytest.approx(b, rel=1e-9)


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_perfect_after_renaming():
    truth = np.array([0, 0, 1, 1, 2, 2])
    clusters = np.array([2, 2, 0, 0, 1, 1])
    assert clustering_accuracy(truth, clusters) == 1.0


def test_accuracy_hand_case():
    # Best mapping fixes 0 -> 0 and 1 -> 1, missing exactly one sample.
    truth = np.array([0, 0, 0, 1, 1])
    clusters = np.array([0, 0, 1, 1, 1])
    assert clustering_accuracy(truth, clusters) == 0.8


def test_accuracy_matches_brute_force():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 20))
        truth = rng.integers(0, 4, size=n)
        clusters = rng.integers(0, 3, size=n)
        assert clustering_accuracy(truth, clusters) == brute_accuracy(truth, clusters)


def test_accuracy_handles_unequal_label_counts():
    # more clusters than classes and sparse label names
    truth = np.array([5, 5, 9, 9])
    clusters = np.array([0, 1, 2, 3])
    assert clustering_accuracy(truth, clusters) == brute_accuracy(truth, clusters)


def test_accuracy_symmetric_under_joint_permutation():
    rng = np.random.default_rng(3)
    truth = rng.integers(0, 3, size=25)
    clusters = rng.integers(0, 3, size=25)
    perm = rng.permutation(25)
    assert clustering_accuracy(truth, clusters) == pytest.approx(
        clustering_accuracy(truth[perm], clusters[perm])
    )


def test_accuracy_empty_rejected():
    with pytest.raises(ConfigError):
        clustering_accuracy(np.array([]), np.array([]))


def test_accuracy_shape_mismatch():
    with pytest.raises(ShapeError):
        clustering_accuracy(np.array([0, 1]), np.array([0, 1, 2]))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(5, 12))
def test_accuracy_bounds_property(seed, k, n):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, k, size=n)
    clusters = rng.integers(0, k, size=n)
    acc = clustering_accuracy(truth, clusters)
    assert 0.0 < acc <= 1.0
    # one-to-one matching can never beat the share of the largest class
    # by mapping everything there, but must at least match chance on the
    # largest cluster-class pair
    assert acc >= 1.0 / (k * k)


# ---------------------------------------------------------------------------
# the assignment solver behind accuracy


def brute_max_weight(weights):
    side = len(weights)
    return max(
        sum(int(weights[i][perm[i]]) for i in range(side))
        for perm in itertools.permutations(range(side))
    )


def _solver_cases(side):
    rng = np.random.default_rng(side)
    yield np.zeros((side, side), dtype=np.int64)
    yield np.full((side, side), 7, dtype=np.int64)
    yield np.eye(side, dtype=np.int64)
    for high in (2, 2, 3, 50):  # small ranges make many ties
        for _ in range(4):
            yield rng.integers(0, high, size=(side, side))


def _check_permutation(cols, side):
    assert cols.shape == (side,)
    assert sorted(cols.tolist()) == list(range(side))


@pytest.mark.parametrize("side", range(1, 8))
def test_assignment_matches_all_permutations(side):
    for weights in _solver_cases(side):
        cols = _max_weight_assignment(weights)
        _check_permutation(cols, side)
        assert int(weights[np.arange(side), cols].sum()) == brute_max_weight(weights)


def test_assignment_matches_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2016)
    for side in list(range(1, 30)) + [40, 60]:
        for high in (2, 5, 1000):
            weights = rng.integers(0, high, size=(side, side))
            cols = _max_weight_assignment(weights)
            _check_permutation(cols, side)
            rows, ref = optimize.linear_sum_assignment(weights, maximize=True)
            assert weights[np.arange(side), cols].sum() == weights[rows, ref].sum()


# ---------------------------------------------------------------------------
# reports


def test_evaluate_collects_all_fields():
    points, labels = _instance(11, n=20, k=3)
    truth_rows = np.arange(10)
    truth_classes = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 0])
    report = evaluate(
        points, labels, "embedded", style_truth=(truth_rows, truth_classes)
    )
    assert report.space_tag == "embedded"
    assert report.n == 20
    assert report.k == len(set(labels.tolist()))
    assert report.sc == pytest.approx(silhouette(points, labels))
    assert report.acc_genre is None
    expected_acc = clustering_accuracy(truth_classes, labels[truth_rows])
    assert report.acc_style == pytest.approx(expected_acc)


def test_report_json_schema_and_infinity():
    report = EvalReport(
        sc=0.5, chi=math.inf, acc_style=None, acc_genre=0.75,
        k=3, n=100, space_tag="pca200",
    )
    data = json.loads(report.to_json())
    assert data["chi"] is None
    assert data["chi_infinite"] is True
    assert data["acc_style"] is None
    assert data["acc_genre"] == 0.75


def test_report_json_deterministic():
    report = EvalReport(
        sc=0.25, chi=12.5, acc_style=0.5, acc_genre=None,
        k=2, n=10, space_tag="embedded",
    )
    assert report.to_json() == report.to_json()
    assert report.to_json().endswith("\n")
    assert json.loads(report.to_json()) == {
        "sc": 0.25, "chi": 12.5, "chi_infinite": False, "acc_style": 0.5,
        "acc_genre": None, "k": 2, "n": 10, "space_tag": "embedded",
    }
