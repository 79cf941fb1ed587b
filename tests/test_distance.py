"""The shared squared-distance kernels: their tie contract, the assignment
screen and their layering."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delius
from delius import distance
from delius.distance import nearest_centres, sq_distances
from delius.kmeans import kmeans_fit
from delius.rng import Rng
from oracles import (
    distance_blocks_longhand,
    distance_matrix_longhand,
    long_double_sq_distances,
    traced_peak,
)


def test_tie_goes_to_lowest_index():
    # (0, 0) and (0, 5) are equidistant from both centres.
    centres = np.array([[1.0, 0.0], [-1.0, 0.0]])
    points = np.array([[0.0, 0.0], [0.0, 5.0], [0.9, 0.0], [-3.0, 0.0]])
    assert np.argmin(sq_distances(points, centres), axis=1).tolist() == [0, 0, 0, 1]


def test_duplicate_centres_tie_to_lowest_index():
    rng = Rng(3)
    points = rng.normal((200, 7))
    centres = rng.normal((4, 7))
    centres = centres[[0, 1, 1, 2, 3, 3, 0]]  # every centre twice or more
    d = sq_distances(points, centres)
    assert np.array_equal(d[:, 1], d[:, 2])
    assert np.array_equal(d[:, 4], d[:, 5])
    assert set(np.argmin(d, axis=1).tolist()) <= {0, 1, 3, 4}


def test_nearest_centre():
    centres = np.array([[0.0], [10.0]])
    points = np.array([[1.0], [9.0], [4.9], [5.1]])
    assert np.argmin(sq_distances(points, centres), axis=1).tolist() == [0, 1, 0, 1]


def test_centre_to_centre_symmetric_with_zero_diagonal():
    rng = np.random.default_rng(14)
    for _ in range(100):
        k, m = rng.integers(1, 38), rng.integers(1, 71)
        mu = rng.normal(scale=10.0 ** rng.integers(-4, 5), size=(k, m))
        d = sq_distances(mu, mu)
        assert d.flags.c_contiguous
        assert d.tobytes() == np.ascontiguousarray(d.T).tobytes()
        assert not d.diagonal().any()


def test_kmeans_on_equidistant_points_stable_across_restarts():
    # The points are symmetric about the y axis, so mirror-image centres
    # tie exactly on every point of the axis (this seed meets 33 such ties
    # over its restarts); they must break the same way on every fit.
    column = np.array([[0.0, y] for y in range(-4, 5)])
    points = np.vstack([[[-1.0, 0.0]] * 6, [[1.0, 0.0]] * 6, column])
    first = kmeans_fit(points, 2, Rng(8), restarts=10)
    for _ in range(3):
        again = kmeans_fit(points, 2, Rng(8), restarts=10)
        assert np.array_equal(again.labels, first.labels)
        assert again.inertia.hex() == first.inertia.hex()
        assert again.centroids.tobytes() == first.centroids.tobytes()
    d = sq_distances(points, first.centroids)
    assert np.array_equal(first.labels, np.argmin(d, axis=1))


def test_sq_distances_holds_its_result_and_one_difference():
    # A k x n buffer and its transposed copy beside the result took 3.0 x
    # the result's 8 n k bytes.
    n, m, k = 6000, 10, 10
    points, centres = Rng(5).normal((n, m)), Rng(6).normal((k, m))
    _, peak = traced_peak(lambda: sq_distances(points, centres))
    assert peak <= 1.1 * 8 * n * (k + m), f"peak {peak / (8 * n * (k + m)):.3f} x 8 n (k + m)"


# A one-row block is a GEMV, which rounds differently from the GEMM rows
# of the blocks before it; 848 = 11 x 77 + 1 got one under the old heights.
@pytest.mark.parametrize("n", [7, 257, 848, 1001, 8193])
def test_streamed_blocks_are_multiples_of_eight_rows(n):
    points = Rng(n).normal((n, 2))
    buffer = np.empty((distance.block_rows(n), n))
    blocks = zip(distance.sq_distance_blocks(points, buffer), distance_blocks_longhand(points))
    heights = []
    for (start, rows), (start2, longhand) in blocks:
        assert start == start2 and np.array_equal(rows, longhand)
        heights.append(rows.shape[0])
    assert sum(heights) == n
    assert all(h % 8 == 0 for h in heights[:-1])
    assert heights[-1] % 8 == 0 or n % 8 != 0
    assert len(set(heights[:-1])) <= 1 and heights[-1] <= heights[0]


def test_streamed_blocks_never_shrink_below_eight_rows():
    points = Rng(70_000).normal((70_000, 2))
    assert distance.block_rows(70_000) == 8
    start, rows = next(distance.sq_distance_blocks(points, np.empty((8, 70_000))))
    assert start == 0 and rows.shape == (8, 70_000)
    assert np.array_equal(rows, next(distance_blocks_longhand(points))[1])


@pytest.mark.parametrize("n, scale", [(7, 1.0), (257, 1.0), (600, 50.0)])
def test_shifted_blocks_are_one_plus_the_distances(n, scale):
    # The shift goes inside the GEMM, so shift 1 is the longhand's bits at
    # shift 1, and one plus the shift-0 blocks only within the rounding of
    # both: a few u of 1 + |x_i|^2 + |x_j|^2.
    points = scale * Rng(n).normal((n, 3))
    points[3] = points[0]  # a duplicate row: an exact zero distance
    sq = np.einsum("nd,nd->n", points, points)
    u = np.finfo(np.float64).eps / 2
    buffer = np.empty((distance.block_rows(n), n))
    shifted = distance.sq_distance_blocks(points, buffer, shift=1.0)
    longhand = distance_blocks_longhand(points, shift=1.0)
    plain = distance.sq_distance_blocks(points, np.empty_like(buffer))
    for (start, rows), (start1, exact_bits), (start0, d2) in zip(shifted, longhand, plain):
        m = rows.shape[0]
        assert start == start1 == start0 and rows.shape == d2.shape
        assert np.shares_memory(rows, buffer)
        assert np.array_equal(rows, exact_bits)
        assert rows.min() >= 1.0
        assert np.all(np.diagonal(rows[:, start : start + m]) == 1.0)
        bound = 16 * u * (1.0 + sq[start : start + m, None] + sq[None, :])
        assert np.all(np.abs(rows - (1.0 + d2)) <= bound)


# 7 fits one block; 1001 takes fifteen blocks of 64 and a short one of 41.
@pytest.mark.parametrize("n", [7, 1001])
@pytest.mark.parametrize("shift", [0.0, 1.0])
def test_all_pairs_kernel_contract(n, shift):
    points = Rng(n + 7).normal((n, 5))
    points[n // 2] = points[1]  # a duplicate row: an exact zero distance
    step = distance.block_rows(n)
    whole, buffer = np.full((n, n), np.nan), np.empty((step, n))
    expected = distance_matrix_longhand(points, shift)
    for out in (whole, buffer):
        starts = []
        for start, rows in distance.sq_distance_blocks(points, out, shift):
            m = rows.shape[0]
            starts.append(start)
            assert m == min(step, n - start) and (m % 8 == 0 or start + m == n)
            assert np.shares_memory(rows, out)
            assert rows.min() >= shift
            assert np.all(np.diagonal(rows[:, start : start + m]) == shift)
            assert np.array_equal(rows, expected[start : start + m])
        assert starts == list(range(0, n, step))
    assert np.array_equal(whole, expected)  # every block stayed in its own rows


# Coordinates spread to +-50 and duplicate rows: the entries near zero
# carry the whole absolute error of the large terms they cancel.
@pytest.mark.parametrize("n, d", [(9, 1), (300, 3), (1001, 10)])
@pytest.mark.parametrize("shift", [0.0, 1.0])
def test_all_pairs_kernel_within_rounding_of_long_double(n, d, shift):
    rng = np.random.default_rng(n + d)
    points = rng.uniform(-50.0, 50.0, size=(n, d))
    points[rng.integers(0, n, n // 4)] = points[0]
    sq = np.einsum("nd,nd->n", points, points)
    u = np.finfo(np.float64).eps / 2
    buffer = np.empty((distance.block_rows(n), n))
    for start, rows in distance.sq_distance_blocks(points, buffer, shift):
        stop = start + rows.shape[0]
        exact = long_double_sq_distances(points, start, stop) + shift
        bound = 16 * u * (shift + sq[start:stop, None] + sq[None, :])
        assert np.all(np.abs(rows - exact) <= bound)


def test_distance_module_sits_below_its_callers():
    probe = (
        "import sys\n"
        "import delius.distance\n"
        "print(sorted(m for m in sys.modules if m.startswith('delius.')))\n"
        "import delius.projection\n"
        "print('delius.metrics' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(delius.__file__))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["['delius.distance']", "False"]


# ---------------------------------------------------------------------------
# nearest_centres: the GEMM screen must give argmin(sq_distances) and its
# entries, bit for bit, deciding every close row with the exact kernel.


def _check_nearest(points, centres):
    labels, own = nearest_centres(points, centres, np.einsum("nm,nm->n", points, points))
    d = sq_distances(points, centres)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, np.argmin(d, axis=1))
    assert own.tobytes() == d[np.arange(points.shape[0]), labels].tobytes()
    return labels


@settings(deadline=None, max_examples=150)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.integers(1, 12),
    st.sampled_from([0, 1, 2, 10, 50, 512]),
    st.integers(-4, 4),
    st.booleans(),
    st.booleans(),
)
def test_nearest_centres_equals_exact_argmin(seed, n, k, m, exponent, dup_rows, dup_centres):
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    points = rng.normal(scale=scale, size=(n, m)) + rng.normal(scale=3 * scale, size=m)
    if dup_rows and n > 1:
        points[rng.integers(0, n, n // 2)] = points[0]
    centres = points[rng.integers(0, n, k)] if rng.random() < 0.3 else (
        rng.normal(scale=scale, size=(k, m)) + points.mean(axis=0))
    if dup_centres and k > 1:
        centres[rng.integers(0, k, k // 2)] = centres[-1]
    _check_nearest(np.ascontiguousarray(points), np.ascontiguousarray(centres))


@pytest.fixture
def exact_rows(monkeypatch):
    """Counts the rows nearest_centres sends to the exact kernel."""
    rows = []

    def counting(points, centres):
        rows.append(points.shape[0])
        return sq_distances(points, centres)

    monkeypatch.setattr(distance, "sq_distances", counting)
    return rows


def test_screen_settles_separated_points(exact_rows):
    rng = Rng(21)
    centres = 8.0 * rng.normal((6, 10))
    points = np.vstack([c + rng.normal((100, 10)) for c in centres])
    _check_nearest(points, centres)
    assert exact_rows == []  # the screen settled every row


def test_equidistant_points_go_to_exact_kernel(exact_rows):
    centres = np.array([[1.0, 0.0], [-1.0, 0.0]])
    points = np.array([[0.0, y] for y in range(-5, 6)] + [[0.5, 0.0], [-3.0, 1.0]])
    labels = _check_nearest(points, centres)
    assert exact_rows[0] == 11  # every point on the bisector
    assert labels.tolist() == [0] * 11 + [0, 1]


def test_duplicate_centres_go_to_exact_kernel(exact_rows):
    rng = Rng(22)
    centres = 5.0 * rng.normal((4, 7))
    points = np.vstack([c + rng.normal((50, 7)) for c in centres])
    centres = centres[[0, 1, 1, 2, 3, 3]]
    labels = _check_nearest(points, centres)
    assert exact_rows[0] == 100  # the clusters of the two doubled centres
    assert set(labels.tolist()) == {0, 1, 3, 4}


def test_tie_heavy_lattice_goes_to_exact_kernel(exact_rows):
    grid = np.arange(15.0)
    points = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), -1).reshape(-1, 3)[:3000]
    centres = np.array([[2.0, 2.0, 2.0], [2.0, 2.0, 8.0], [8.0, 4.0, 2.0], [11.0, 11.0, 11.0],
                        [5.0, 12.0, 6.0], [12.0, 2.0, 9.0], [4.0, 8.0, 12.0]])
    _check_nearest(points, centres)
    assert 0 < exact_rows[0] < 3000


def test_overflowing_rows_go_to_exact_kernel(exact_rows):
    centres = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0]])
    points = np.array([[0.0, 0.0], [1.0, 0.5], [3e199, 1.0], [-1e200, 5.0]])
    with np.errstate(over="ignore"):
        _check_nearest(points, centres)
    assert exact_rows[0] == 4
