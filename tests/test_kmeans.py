"""Lloyd clustering with seeded restarts, against brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delius import distance, kmeans
from delius.errors import ConfigError, DataError
from delius.kmeans import kmeans_fit
from delius.rng import Rng


def _inertia(points, labels, k):
    total = 0.0
    for j in range(k):
        members = points[labels == j]
        if len(members) == 0:
            continue
        center = members.mean(axis=0)
        total += float(((members - center) ** 2).sum())
    return total


def test_two_cluster_hand_case():
    # Two pairs of points one unit apart: each cluster centroid sits at
    # the midpoint, contributing 2 * 0.5^2, so total inertia is 1.0.
    points = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    result = kmeans_fit(points, 2, Rng(0), restarts=5)
    assert result.inertia == pytest.approx(1.0, abs=1e-12)
    assert result.labels[0] == result.labels[1]
    assert result.labels[2] == result.labels[3]
    assert result.labels[0] != result.labels[2]


def test_k1_centroid_is_mean():
    points = np.random.default_rng(1).normal(size=(40, 3))
    result = kmeans_fit(points, 1, Rng(0), restarts=3)
    assert np.allclose(result.centroids[0], points.mean(axis=0), atol=1e-12)
    expected = float(((points - points.mean(axis=0)) ** 2).sum())
    assert result.inertia == pytest.approx(expected, rel=1e-12)


def test_k_equals_n_zero_inertia():
    points = np.random.default_rng(2).normal(size=(6, 2))
    result = kmeans_fit(points, 6, Rng(3), restarts=10)
    assert result.inertia == pytest.approx(0.0, abs=1e-18)
    assert sorted(result.labels.tolist()) == list(range(6))


def test_matches_exhaustive_partition_search():
    # n = 10 points, k = 3: small enough to enumerate all 3^10 labelings
    # and find the true optimum by brute force.
    rng = np.random.default_rng(4)
    points = rng.normal(size=(10, 2))
    best = np.inf
    for labeling in itertools.product(range(3), repeat=10):
        labels = np.array(labeling)
        best = min(best, _inertia(points, labels, 3))
    result = kmeans_fit(points, 3, Rng(5), restarts=40)
    assert result.inertia == pytest.approx(best, rel=1e-9)


def test_translation_invariance():
    rng = np.random.default_rng(6)
    points = np.vstack(
        [rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + [50.0, 0.0]]
    )
    a = kmeans_fit(points, 2, Rng(7), restarts=8)
    b = kmeans_fit(points + [123.0, -45.0], 2, Rng(7), restarts=8)
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == pytest.approx(b.inertia, rel=1e-9)
    assert np.allclose(a.centroids + [123.0, -45.0], b.centroids, atol=1e-7)


def test_deterministic_for_seed():
    points = np.random.default_rng(8).normal(size=(50, 4))
    a = kmeans_fit(points, 5, Rng(9))
    b = kmeans_fit(points, 5, Rng(9))
    assert a.best_restart_index == b.best_restart_index
    assert np.array_equal(a.labels, b.labels)
    assert a.centroids.tobytes() == b.centroids.tobytes()


def test_inertia_matches_label_recomputation():
    points = np.random.default_rng(10).normal(size=(30, 3))
    result = kmeans_fit(points, 4, Rng(11), restarts=6)
    assert result.inertia == pytest.approx(
        _inertia(points, result.labels, 4), rel=1e-9
    )


def test_duplicate_points_fewer_locations_than_k():
    # Only two distinct locations but k = 3; repair has to produce a
    # valid result without dividing by an empty cluster.
    points = np.array([[0.0, 0.0]] * 5 + [[9.0, 9.0]] * 5)
    result = kmeans_fit(points, 3, Rng(12), restarts=5)
    assert np.isfinite(result.inertia)
    assert result.inertia == pytest.approx(0.0, abs=1e-18)


def test_every_cluster_nonempty_on_distinct_points():
    points = np.random.default_rng(13).normal(size=(25, 2))
    result = kmeans_fit(points, 6, Rng(14), restarts=10)
    assert len(set(result.labels.tolist())) == 6


def test_validation_errors():
    points = np.zeros((4, 2))
    with pytest.raises(ConfigError):
        kmeans_fit(points, 0, Rng(0))
    with pytest.raises(ConfigError):
        kmeans_fit(points, 5, Rng(0))
    with pytest.raises(ConfigError):
        kmeans_fit(points, 2, Rng(0), restarts=0)
    with pytest.raises(DataError):
        kmeans_fit(np.zeros(4), 2, Rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    points = np.random.default_rng(17).normal(size=(20, 3))
    points[11, 2] = bad
    with pytest.raises(DataError, match="non-finite"):
        kmeans_fit(points, 3, Rng(0))


def test_more_restarts_never_worse():
    points = np.random.default_rng(15).normal(size=(40, 2))
    few = kmeans_fit(points, 6, Rng(16), restarts=2)
    many = kmeans_fit(points, 6, Rng(16), restarts=30)
    assert many.inertia <= few.inertia + 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_labels_in_range_and_inertia_consistent(seed, k):
    points = np.random.default_rng(seed).normal(size=(12, 2))
    result = kmeans_fit(points, k, Rng(seed), restarts=4)
    assert result.labels.min() >= 0
    assert result.labels.max() < k
    assert result.inertia == pytest.approx(_inertia(points, result.labels, k), rel=1e-9)
    # labels are the nearest-centroid assignment of the final centroids
    assert np.array_equal(
        result.labels, np.argmin(distance.sq_distances(points, result.centroids), axis=1)
    )


# ---------------------------------------------------------------------------
# The Lloyd kernels against frozen copies of their earlier, allocation-heavy
# forms: the rewrites must keep every bit.


def _frozen_sq_distances(points, centers):
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkm,nkm->nk", diff, diff)


def _frozen_plusplus_init(points, k, rng):
    n = points.shape[0]
    chosen = [rng.below(n)]
    closest = _frozen_sq_distances(points, points[chosen[-1]][None, :])[:, 0]
    while len(chosen) < k:
        total = float(closest.sum())
        if total > 0.0:
            idx = rng.weighted_index(closest)
        else:
            idx = rng.below(n)
        chosen.append(idx)
        d_new = _frozen_sq_distances(points, points[idx][None, :])[:, 0]
        closest = np.minimum(closest, d_new)
    return points[np.array(chosen)].copy()


def _frozen_repair_empty(points, centroids, labels, dists):
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


def _frozen_lloyd(points, k, rng, max_iters, tol):
    centroids = _frozen_plusplus_init(points, k, rng)
    dists = _frozen_sq_distances(points, centroids)
    labels = np.argmin(dists, axis=1).astype(np.int64)
    inertia = float(dists[np.arange(points.shape[0]), labels].sum())
    n_iter = 0
    repairs = 0
    for n_iter in range(1, max_iters + 1):
        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            repairs += 1
            labels = _frozen_repair_empty(points, centroids, labels, dists)
            counts = np.bincount(labels, minlength=k)
        new_centroids = np.zeros_like(centroids)
        np.add.at(new_centroids, labels, points)
        new_centroids /= counts[:, None]
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        dists = _frozen_sq_distances(points, centroids)
        new_labels = np.argmin(dists, axis=1).astype(np.int64)
        inertia = float(dists[np.arange(points.shape[0]), new_labels].sum())
        done = bool((new_labels == labels).all()) or shift < tol
        labels = new_labels
        if done:
            break
    return (centroids, labels, inertia, n_iter), repairs


@pytest.mark.parametrize("m", [1, 2, 3, 10, 50, 512])
def test_sq_distances_bit_equal_to_frozen_kernel(m):
    rng = Rng(40 + m)
    points = rng.normal((300, m))
    points[7] = points[3]  # a duplicate row gives exact zeros and ties
    for centers in (rng.normal((1, m)), rng.normal((13, m)), points[[3, 7, 0]]):
        for layout in (points, np.asfortranarray(points)):  # the sums follow the layout
            expected = _frozen_sq_distances(layout, centers)
            got = distance.sq_distances(layout, centers)
            assert np.array_equal(got, expected)
            assert got.flags.c_contiguous  # row sums over it follow the layout


def _blobs():
    rng = Rng(50)
    centers = 6.0 * rng.normal((5, 10))
    return np.vstack([c + rng.normal((120, 10)) for c in centers])


def _lattice():
    # Small integers: centroids are exact rationals and many distances tie.
    return np.array([[x, y] for x in range(5) for y in range(5)], dtype=np.float64)


def _two_locations():
    # k-means++ exhausts the two distinct points and then draws a
    # duplicate centre, whose cluster is empty until repaired.
    return np.array([[0.0, 0.0]] * 5 + [[9.0, 9.0]] * 5)


@pytest.mark.parametrize(
    "points, k, seed, repaired",
    [(_blobs(), 5, 51, False), (_lattice(), 4, 52, False), (_two_locations(), 3, 53, True)],
    ids=["blobs", "ties", "empty-cluster"],
)
def test_lloyd_bit_equal_to_frozen_step(points, k, seed, repaired):
    for r in range(4):
        got = kmeans._lloyd(points, k, Rng(seed + 100 * r))
        expected, repairs = _frozen_lloyd(points, k, Rng(seed + 100 * r), 300, 1e-6)
        assert got[0].tobytes() == expected[0].tobytes()
        assert np.array_equal(got[1], expected[1])
        assert got[2].hex() == expected[2].hex()
        assert got[3] == expected[3]
        assert (repairs > 0) == repaired


def test_zero_width_points_fit():
    result = kmeans_fit(np.empty((6, 0)), 2, Rng(0), restarts=2)
    assert result.centroids.shape == (2, 0)
    assert result.labels.shape == (6,)
    assert result.inertia == 0.0


def _layout_blobs(n=2000, m=10, k=8, seed=5):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=6.0, size=(k, m))
    return centers[rng.integers(0, k, n)] + rng.normal(size=(n, m))


def test_fit_independent_of_memory_layout():
    # einsum sums in an order that follows the memory layout, so the
    # points must reach the distance kernel C-ordered.
    x = _layout_blobs()
    c_order = kmeans_fit(x, 8, Rng(1))
    f_order = kmeans_fit(np.asfortranarray(x), 8, Rng(1))
    assert f_order.inertia.hex() == c_order.inertia.hex()
    assert np.array_equal(f_order.labels, c_order.labels)
    assert np.array_equal(f_order.centroids, c_order.centroids)
