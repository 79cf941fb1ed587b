"""PCA and exact t-SNE behaviour."""

import math

import numpy as np
import pytest

from delius.errors import ConfigError, DataError, ShapeError
from delius.metrics import silhouette
from delius.projection import (
    TsneConfig,
    _conditional_rows,
    joint_affinities,
    lowdim_gradient,
    pca_fit,
    pca_transform,
    tsne_embed,
)
from delius.rng import Rng

from oracles import (
    child_memory,
    distance_matrix_longhand,
    numeric_gradient,
    pca_fit_thin_svd,
    traced_peak,
)


# ---------------------------------------------------------------------------
# PCA


def _correlated_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=n)
    noise = rng.normal(size=n) * 0.05
    return np.stack([t, 2.0 * t + noise], axis=1)


def test_pca_first_component_follows_dominant_direction():
    model = pca_fit(_correlated_data(), 1)
    direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert abs(float(model.components[0] @ direction)) > 0.999


def test_pca_components_orthonormal():
    rng = np.random.default_rng(1)
    model = pca_fit(rng.normal(size=(50, 6)), 4)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(4), atol=1e-10)


def test_pca_full_rank_roundtrip():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 5))
    model = pca_fit(x, 5)
    recon = pca_transform(model, x) @ model.components + model.mean
    assert np.allclose(recon, x, atol=1e-10)


def test_pca_explained_variance_matches_projection_variance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 6)) * np.array([5.0, 3.0, 1.0, 1.0, 0.5, 0.1])
    model = pca_fit(x, 3)
    projected = pca_transform(model, x)
    observed = projected.var(axis=0, ddof=1)
    explained = np.linalg.eigvalsh(np.cov(x, rowvar=False))[::-1][:3]
    assert np.allclose(observed, explained, rtol=1e-10)
    # components come out in decreasing variance order
    assert np.all(np.diff(observed) <= 1e-12)


def test_pca_total_variance_is_coordinate_variance_sum():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, 4))
    total = float(x.var(axis=0, ddof=1).sum())
    partial = pca_transform(pca_fit(x, 2), x).var(axis=0, ddof=1).sum()
    assert 0.0 < partial <= total * (1.0 + 1e-12)
    full = pca_transform(pca_fit(x, 4), x).var(axis=0, ddof=1).sum()
    assert full == pytest.approx(total, rel=1e-12)


def test_pca_sign_deterministic_under_negation():
    x = _correlated_data(seed=6)
    a = pca_fit(x, 2)
    b = pca_fit(-x, 2)
    assert np.allclose(a.components, b.components, atol=1e-10)
    for row in a.components:
        assert row[int(np.argmax(np.abs(row)))] > 0.0


def test_pca_transform_is_centered_projection():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(15, 4)) + 100.0
    model = pca_fit(x, 2)
    projected = pca_transform(model, x)
    oracle = (x - x.mean(axis=0)) @ model.components.T
    assert np.allclose(projected, oracle, atol=1e-9)
    assert np.allclose(projected.mean(axis=0), 0.0, atol=1e-9)


def test_pca_validation():
    x = np.zeros((5, 3))
    with pytest.raises(ConfigError):
        pca_fit(x, 0)
    with pytest.raises(ConfigError):
        pca_fit(x, 4)  # r > min(n-1, d)
    with pytest.raises(ConfigError):
        pca_fit(np.zeros((1, 3)), 1)
    with pytest.raises(DataError):
        pca_fit(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1)
    model = pca_fit(np.random.default_rng(8).normal(size=(10, 3)), 2)
    with pytest.raises(ShapeError):
        pca_transform(model, np.zeros((4, 5)))


def _mnthr(d):
    """LAPACK dgesdd's crossover: from this many rows it takes the SVD of R."""
    return max(2, 11 * d // 6)


@pytest.mark.parametrize("n, d", [(_mnthr(1), 1), (_mnthr(2), 2), (_mnthr(10), 10),
                                  (500, 10), (_mnthr(256), 256), (1000, 256)])
@pytest.mark.parametrize("top", [False, True])
def test_pca_equals_thin_svd_from_lapack_crossover(n, d, top):
    rng = np.random.default_rng(n * 1000 + d)
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0, size=d) + 5.0
    r = min(n - 1, d) if top else 1
    model, oracle = pca_fit(x, r), pca_fit_thin_svd(x, r)
    assert model.mean.tobytes() == oracle.mean.tobytes()
    assert model.components.tobytes() == oracle.components.tobytes()


@pytest.mark.parametrize("n, d", [(4, 3), (17, 10), (54, 30), (200, 256)])
def test_pca_near_thin_svd_below_lapack_crossover(n, d):
    assert n < _mnthr(d)
    rng = np.random.default_rng(n + d)
    k = min(n - 1, d)
    left = rng.normal(size=(n, k))
    left, _ = np.linalg.qr(left - left.mean(axis=0))
    right, _ = np.linalg.qr(rng.normal(size=(d, k)))
    x = (left * np.linspace(10.0, 1.0, k)) @ right.T + rng.normal(size=d)
    model, oracle = pca_fit(x, k), pca_fit_thin_svd(x, k)
    assert np.array_equal(model.mean, oracle.mean)
    assert np.abs(model.components - oracle.components).max() <= 1e-11


def test_pca_transient_memory_bounded():
    # Three n x d arrays: the centered data and the two copies numpy's QR makes.
    n, d = 20_000, 256
    before, peak = child_memory(
        "import numpy as np\nfrom delius.projection import pca_fit\n"
        f"x = np.random.default_rng(0).standard_normal(({n}, {d}))",
        "pca_fit(x, 50)",
    )
    arrays = (peak - before) / (8 * n * d)
    assert arrays <= 3.3, f"pca_fit held {arrays:.2f} n x d arrays above its input"


# ---------------------------------------------------------------------------
# t-SNE affinities


def test_affinities_symmetric_normalised():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(20, 4))
    p = joint_affinities(points, 5.0)
    assert np.allclose(p, p.T, atol=1e-15)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diag(p) == 0.0)
    assert p.min() >= 0.0


def test_affinities_uniform_on_equidistant_points():
    # A regular simplex: all pairwise distances equal, so every joint
    # affinity must be exactly 1 / (n * (n - 1)).
    points = 5.0 * np.eye(5)
    p = joint_affinities(points, 1.2)
    off_diag = p[~np.eye(5, dtype=bool)]
    assert np.allclose(off_diag, 1.0 / 20.0, atol=1e-12)


def test_affinities_favor_near_neighbours():
    points = np.array([[0.0], [0.3], [10.0], [10.3], [20.0], [20.3], [30.0]])
    p = joint_affinities(points, 1.5)
    assert p[0, 1] > p[0, 2]
    assert p[2, 3] > p[2, 5]


def _frozen_joint_affinities(points, perplexity):
    """The affinities as they were with the whole distance matrix beside a
    second n x n array of conditional rows, the distances from the
    all-pairs kernel written out longhand."""
    n = points.shape[0]
    d2 = distance_matrix_longhand(points)
    target = math.log(perplexity)
    cond = np.zeros((n, n))
    for i in range(n):
        beta, lo, hi = 1.0, 0.0, math.inf
        for _ in range(50):
            logits = -beta * d2[i]
            logits[i] = -np.inf
            logits -= logits.max()
            row = np.exp(logits)
            row[i] = 0.0
            row = row / row.sum()
            nz = row[row > 0.0]
            gap = float(-(nz * np.log(nz)).sum()) - target
            if abs(gap) <= 1e-5:
                break
            if gap > 0.0:
                lo = beta
                beta = beta * 2.0 if math.isinf(hi) else (lo + hi) / 2.0
            else:
                hi = beta
                beta = beta / 2.0 if lo == 0.0 else (lo + hi) / 2.0
        cond[i] = row
    return (cond + cond.T) / (2.0 * n)


def _ten_clusters(n, spread):
    """Unit-variance clusters around ten centres ``spread`` apart."""
    rng = Rng(n + 2)
    centres = spread * rng.normal((10, 6))
    return centres[np.arange(n) % 10] + rng.normal((n, 6))


# 600 rows make five blocks of 104 rows and a short one of 80, as 1001
# rows make fifteen blocks of 64 and one of 41.  Clusters 1e3 apart put
# most of every row's entries below the smallest double.
_FROZEN_CASES = [
    (7, 1.5, None), (257, 10.0, None), (600, 30.0, None), (1001, 30.0, None),
    (300, 2.0, None), (300, 50.0, None), (400, 30.0, 1e3), (400, 2.0, 1e3),
]


@pytest.mark.parametrize("n, perplexity, spread", _FROZEN_CASES, ids=[
    f"{n}-{perplexity}" + ("" if spread is None else f"-clusters-{spread:g}")
    for n, perplexity, spread in _FROZEN_CASES
])
def test_affinities_bit_equal_to_frozen(n, perplexity, spread):
    points = Rng(n + 1).normal((n, 6)) if spread is None else _ten_clusters(n, spread)
    points[3] = points[0]  # a duplicate row: an exact zero distance
    assert np.array_equal(
        joint_affinities(points, perplexity), _frozen_joint_affinities(points, perplexity)
    )


def test_conditional_entropy_within_rounding_of_longhand():
    # The entropy log S + top + beta sum p d against -sum p log p over the
    # same rows in extended precision.  top = -beta d_min cancels against
    # beta sum p d, and the exp's argument -beta d already carries an
    # absolute error of u beta d, so the bound grows with beta d_min as
    # well as with the entropy itself.
    u = np.finfo(np.float64).eps / 2.0
    n = 200
    rows = np.arange(n)
    worst = 0.0
    for spread in (1e-3, 1.0, 1e2, 1e5):
        points = _ten_clusters(n, spread)
        points[7] = points[0]
        dist = distance_matrix_longhand(points)
        d_min = np.where(np.eye(n, dtype=bool), np.inf, dist).min(axis=1)
        for beta in 10.0 ** np.arange(-6, 13):
            p, entropy = _conditional_rows(dist, np.full(n, beta), rows)
            wide = p.astype(np.longdouble)
            logs = np.log(np.where(p > 0.0, wide, 1.0))
            exact = -(wide * logs).sum(axis=1)
            scale = 1.0 + exact + beta * (2.0 * d_min + (wide * dist).sum(axis=1))
            worst = max(worst, float((np.abs(entropy - exact) / (u * scale)).max()))
    assert worst <= 16.0, f"entropy off by {worst:.2f} u of its bound's scale"


def test_affinities_hold_one_distance_matrix():
    # The distances and the conditional rows in two n x n arrays, then
    # the sum beside them, peaked at 3.01 x 8 n^2.
    n = 1000
    points = Rng(n).normal((n, 10))
    _, peak = traced_peak(lambda: joint_affinities(points, 30.0))
    assert peak <= 2.2 * 8 * n * n, f"peak {peak / (8 * n * n):.3f} x 8 n^2"


def test_affinities_symmetrised_in_place():
    # The conditional rows and their whole-matrix symmetrisation beside
    # them peaked at 2.00 x 8 n^2; in place, with blocks of 32 rows, at 1.08.
    n = 2000
    points = Rng(n).normal((n, 10))
    _, peak = traced_peak(lambda: joint_affinities(points, 30.0))
    assert peak <= 1.2 * 8 * n * n, f"peak {peak / (8 * n * n):.3f} x 8 n^2"


def test_lowdim_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    points = rng.normal(size=(6, 3))
    p = joint_affinities(points, 1.5)
    y = rng.normal(size=(6, 2))
    grad, kl = lowdim_gradient(p, y)
    assert kl >= 0.0

    numeric = numeric_gradient(lambda v: lowdim_gradient(p, v)[1], y.copy())
    scale = max(float(np.abs(numeric).max()), 1e-8)
    assert float(np.abs(grad - numeric).max()) / scale < 1e-6


def test_lowdim_gradient_shape_check():
    with pytest.raises(ShapeError):
        lowdim_gradient(np.zeros((3, 3)), np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# t-SNE embedding


def test_tsne_deterministic_and_centered():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(30, 5))
    config = TsneConfig(perplexity=5.0, iterations=60, seed=3)
    a = tsne_embed(points, config)
    b = tsne_embed(points, config)
    assert a.tobytes() == b.tobytes()
    assert a.shape == (30, 2)
    assert np.allclose(a.mean(axis=0), 0.0, atol=1e-9)
    assert np.isfinite(a).all()


def test_tsne_seed_changes_layout():
    rng = np.random.default_rng(12)
    points = rng.normal(size=(20, 4))
    a = tsne_embed(points, TsneConfig(perplexity=4.0, iterations=30, seed=0))
    b = tsne_embed(points, TsneConfig(perplexity=4.0, iterations=30, seed=1))
    assert not np.array_equal(a, b)


def test_tsne_separates_distant_clusters():
    rng = Rng(13)
    a = rng.normal((30, 10))
    b = rng.normal((30, 10))
    b[:, 0] += 50.0
    points = np.vstack([a, b])
    labels = np.array([0] * 30 + [1] * 30)
    y = tsne_embed(points, TsneConfig(perplexity=15.0, iterations=1000, seed=5))
    assert silhouette(y, labels) > 0.4


def _whole_matrix_gradient(p, y):
    """The KL gradient as ``lowdim_gradient`` computed it before the kernel
    was blocked: every n x n temporary made afresh from whole-matrix
    distances."""
    sq = np.einsum("nd,nd->n", y, y)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (y @ y.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    w = 1.0 / (1.0 + d2)
    np.fill_diagonal(w, 0.0)
    q = w / w.sum()
    pq = (p - q) * w
    return 4.0 * (pq.sum(axis=1)[:, None] * y - pq @ y)


def _frozen_blocked_gradient(p, y):
    """The row-blocked gradient written out longhand: ``1 + d^2`` from one
    GEMM of ``[y, 1 + |y|^2, 1]`` against ``[-2y, 1, |y|^2]`` per block of
    rows (the largest multiple of 8 within 512 KiB of doubles), clipped at
    1 and inverted, Z summed in block order, and ``4 (A - R / Z)`` from the
    attraction and repulsion products with ``[y, 1]``."""
    n, d = y.shape
    sq = np.einsum("nd,nd->n", y, y)
    left = np.column_stack([y, sq + 1.0, np.ones(n)])
    # C order, as the kernel's: vstack of y.T is F-ordered, and the
    # product's last bits follow the layout.
    right = np.ascontiguousarray(np.vstack([-2.0 * y.T, np.ones(n), sq]))
    y1 = np.column_stack([y, np.ones(n)])
    step = min(max(8, (1 << 19) // (8 * n) // 8 * 8), n)
    attraction, repulsion, z = [], [], 0.0
    for start in range(0, n, step):
        w = 1.0 / np.maximum(left[start : start + step] @ right, 1.0)
        np.fill_diagonal(w[:, start:], 0.0)
        z += float(w.sum())
        attraction.append((p[start : start + step] * w) @ y1)
        repulsion.append((w * w) @ y1)
    combined = np.vstack(attraction) - np.vstack(repulsion) / z
    return 4.0 * (combined[:, d:] * y - combined[:, :d])


def _affinities_and_layout(n, spread, seed):
    rng = np.random.default_rng(seed)
    p = joint_affinities(rng.normal(size=(n, 6)), min(30.0, (n - 1) / 3.5))
    y = rng.uniform(-spread, spread, size=(n, 2))
    y[3] = y[0]  # a duplicate row: an exact zero distance
    return p, y


def _max_relative(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


# 257 and 600 rows end in short blocks (248 + 9, 104 x 5 + 80); 2000
# rows make 63 blocks of 32 and one of 16.
@pytest.mark.parametrize("n", [5, 7, 100, 257, 300, 600, 2000])
def test_blocked_gradient_matches_whole_matrix_kernel(n):
    p, y = _affinities_and_layout(n, 3.0, n)
    grad, _ = lowdim_gradient(p, y)
    assert _max_relative(grad, _whole_matrix_gradient(p, y)) <= 1e-12
    assert np.array_equal(grad, _frozen_blocked_gradient(p, y))


def _long_double_gradient(p, y):
    """The gradient from direct coordinate differences in extended
    precision, 100 rows at a time."""
    y = y.astype(np.longdouble)
    n = y.shape[0]

    def kernel(start):
        diff = y[start : start + 100, None, :] - y[None, :, :]
        w = 1.0 / (1.0 + np.einsum("ijd,ijd->ij", diff, diff))
        rows = np.arange(w.shape[0])
        w[rows, start + rows] = 0.0
        return diff, w

    z = sum(kernel(start)[1].sum() for start in range(0, n, 100))
    grad = []
    for start in range(0, n, 100):
        diff, w = kernel(start)
        pq = (p[start : start + 100].astype(np.longdouble) - w / z) * w
        grad.append(4.0 * np.einsum("ij,ijd->id", pq, diff))
    return np.vstack(grad).astype(np.float64)


# Both kernels form 1 + d^2 from Gram products, so every entry carries an
# absolute rounding error of a few u (1 + |y_i|^2 + |y_j|^2): at |y| ~ 50,
# about 1e-12 of an entry near 1.  When a duplicate pair dominates Z
# (n = 5, 7), five seeds put the whole-matrix kernel up to 1.4e-12 from
# the exact gradient and the blocked one up to 3.8e-12, 4.7e-12 apart, so
# no bound of 1e-12 between the two holds at this spread.  Both are held
# instead to the Gram form's bound against the exact gradient: 8 u per
# entry of 1 + d^2, and three such factors (w, w^2 and Z) in the result.
@pytest.mark.parametrize("n", [5, 7, 100, 257, 300, 600, 2000])
def test_gradient_at_wide_spread_within_gram_rounding(n):
    p, y = _affinities_and_layout(n, 50.0, n + 1)
    exact = _long_double_gradient(p, y)
    u = np.finfo(np.float64).eps / 2
    bound = 3 * 8 * u * (1.0 + 2.0 * float(np.einsum("nd,nd->n", y, y).max()))
    grad, _ = lowdim_gradient(p, y)
    assert _max_relative(grad, exact) <= bound
    assert _max_relative(_whole_matrix_gradient(p, y), exact) <= bound
    assert _max_relative(grad, _whole_matrix_gradient(p, y)) <= 2 * bound


def test_lowdim_divergence_is_the_whole_matrix_divergence():
    p, y = _affinities_and_layout(300, 3.0, 17)
    sq = np.einsum("nd,nd->n", y, y)
    w = 1.0 / (1.0 + np.maximum(sq[:, None] + sq[None, :] - 2.0 * (y @ y.T), 0.0))
    np.fill_diagonal(w, 0.0)
    q = w / w.sum()
    mask = p > 0.0
    _, kl = lowdim_gradient(p, y)
    assert kl == pytest.approx(float((p[mask] * np.log(p[mask] / q[mask])).sum()), rel=1e-12)


def _frozen_tsne_loop(p, config, n):
    """The embedding loop with the blocked gradient written out longhand,
    every temporary allocated afresh on each iteration."""
    p = p * config.early_exaggeration
    exaggerated = True
    y = Rng(config.seed).normal((n, 2), std=1e-4)
    velocity = np.zeros_like(y)
    for it in range(config.iterations):
        if exaggerated and it >= 250:
            p = p / config.early_exaggeration
            exaggerated = False
        momentum = 0.5 if it < 250 else 0.8
        velocity = momentum * velocity - config.learning_rate * _frozen_blocked_gradient(p, y)
        y = y + velocity
        y = y - y.mean(axis=0)
    return y


# The loop amplifies rounding: a 1e-15 relative change of the input moved
# the 300-iteration layout by 72-112% of its span at n = 7, 100 and 300,
# so the embedding is held bit for bit to the same kernel written out,
# and the kernel to the whole-matrix one by the tests above.
@pytest.mark.parametrize("n, perplexity", [(7, 1.5), (100, 10.0), (300, 30.0)])
def test_tsne_bit_equal_to_frozen_loop(n, perplexity):
    points = Rng(n).normal((n, 6))
    points[3] = points[0]  # a duplicate row: an exact zero distance
    config = TsneConfig(perplexity=perplexity, iterations=300, seed=n)
    expected = _frozen_tsne_loop(joint_affinities(points, perplexity), config, n)
    assert np.array_equal(tsne_embed(points, config), expected)


def test_tsne_holds_three_square_arrays():
    # The affinities, scaled in place past the exaggeration phase, and the
    # gradient's two buffers; a scaled copy beside them peaked at 4.02 x 8 n^2.
    n = 400
    points = Rng(n).normal((n, 10))
    _, peak = traced_peak(lambda: tsne_embed(points, TsneConfig(iterations=260)))
    assert peak <= 3.3 * 8 * n * n, f"peak {peak / (8 * n * n):.3f} x 8 n^2"


def test_tsne_holds_one_square_array():
    # The affinities beside O(block * n) kernel blocks, 1.08 x 8 n^2; the
    # whole-matrix gradient's two n x n buffers beside them made 3.01.
    n = 2000
    points = Rng(n).normal((n, 10))
    _, peak = traced_peak(lambda: tsne_embed(points, TsneConfig(iterations=3)))
    assert peak <= 1.25 * 8 * n * n, f"peak {peak / (8 * n * n):.3f} x 8 n^2"


def test_tsne_validation():
    points = np.random.default_rng(14).normal(size=(10, 3))
    with pytest.raises(ConfigError):
        tsne_embed(points[:4], TsneConfig(perplexity=1.2))
    with pytest.raises(ConfigError):
        tsne_embed(points, TsneConfig(perplexity=0.5))
    with pytest.raises(ConfigError):
        tsne_embed(points, TsneConfig(perplexity=3.0001))  # >= (n-1)/3
    with pytest.raises(ConfigError):
        tsne_embed(points, TsneConfig(perplexity=2.0, iterations=0))
    with pytest.raises(ConfigError):
        tsne_embed(points, TsneConfig(perplexity=2.0, learning_rate=0.0))
    with pytest.raises(ConfigError):
        tsne_embed(points, TsneConfig(perplexity=2.0, early_exaggeration=0.5))
    with pytest.raises(DataError):
        bad = points.copy()
        bad[0, 0] = np.nan
        tsne_embed(bad, TsneConfig(perplexity=2.0))
