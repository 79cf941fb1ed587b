"""Soft assignment, target sharpening, KL gradients, and the joint loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delius import autoencoder, kmeans, neural
from delius.autoencoder import AutoencoderSpec
from delius.dataio import FeatureMatrix
from delius.dec import (
    DecConfig,
    dec_fit,
    kl_grads,
    kl_loss,
    soft_assign,
    target_distribution,
)
from delius.errors import (
    ConfigError,
    DegenerateCentroidsError,
    NumericError,
    ShapeError,
)
from delius.neural import AdamConfig
from delius.rng import Rng

from oracles import numeric_gradient


# ---------------------------------------------------------------------------
# soft assignment


def test_soft_assign_hand_case():
    # One point at the first of two centroids one unit apart: kernel
    # values 1 and 1/2 normalise to 2/3 and 1/3.
    q = soft_assign(np.array([[0.0]]), np.array([[0.0], [1.0]]))
    assert np.allclose(q, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


def test_soft_assign_equidistant_uniform():
    q = soft_assign(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(q, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_soft_assign_matches_kernel_oracle():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(6, 3))
    mu = rng.normal(size=(4, 3))
    q = soft_assign(z, mu)
    for i in range(6):
        kernel = [1.0 / (1.0 + float(((z[i] - mu[j]) ** 2).sum())) for j in range(4)]
        total = sum(kernel)
        for j in range(4):
            assert q[i, j] == pytest.approx(kernel[j] / total, abs=1e-15)


def test_soft_assign_rows_sum_to_one():
    rng = np.random.default_rng(1)
    q = soft_assign(rng.normal(size=(20, 5)), rng.normal(size=(7, 5)))
    assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)
    assert q.min() > 0.0


def test_soft_assign_rejects_coincident_centroids():
    mu = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DegenerateCentroidsError, match="0 and 1"):
        soft_assign(np.zeros((2, 2)), mu)


def test_soft_assign_shape_mismatch():
    mu = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ShapeError):
        soft_assign(np.zeros((3, 2)), mu)


# ---------------------------------------------------------------------------
# target distribution


def test_target_distribution_worked_example():
    q = np.array([[0.8, 0.2], [0.4, 0.6]])
    p = target_distribution(q)
    assert np.allclose(p, [[0.9143, 0.0857], [0.2286, 0.7714]], atol=1e-4)


def test_target_distribution_matches_loop_oracle():
    rng = np.random.default_rng(2)
    raw = rng.uniform(0.05, 1.0, size=(9, 4))
    q = raw / raw.sum(axis=1, keepdims=True)
    p = target_distribution(q)
    freq = [float(q[:, j].sum()) for j in range(4)]
    for i in range(9):
        weighted = [q[i, j] ** 2 / freq[j] for j in range(4)]
        total = sum(weighted)
        for j in range(4):
            assert p[i, j] == pytest.approx(weighted[j] / total, abs=1e-12)


def test_target_rows_sum_to_one():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.01, 1.0, size=(30, 6))
    q = raw / raw.sum(axis=1, keepdims=True)
    assert np.allclose(target_distribution(q).sum(axis=1), 1.0, atol=1e-12)


def test_target_keeps_zeros():
    q = np.array([[1.0, 0.0], [0.5, 0.5]])
    p = target_distribution(q)
    assert p[0, 1] == 0.0


def test_target_vanishing_cluster_mass():
    q = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NumericError, match="cluster 1"):
        target_distribution(q)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 5))
def test_target_sharpens_balanced_assignments(seed, n, k):
    # With every cluster at equal soft mass, sharpening must not lower
    # the weight of any row's dominant cluster.
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(n, k))
    base = raw / raw.sum(axis=1, keepdims=True)
    # stacking every cyclic column shift gives all clusters equal mass
    q = np.vstack([np.roll(base, shift, axis=1) for shift in range(k)])
    p = target_distribution(q)
    top = np.argmax(q, axis=1)
    rows = np.arange(q.shape[0])
    assert np.all(p[rows, top] >= q[rows, top] - 1e-12)


# ---------------------------------------------------------------------------
# KL loss


def test_kl_log2_hand_case():
    p = np.array([[1.0, 0.0]])
    q = np.array([[0.5, 0.5]])
    assert kl_loss(p, q) == pytest.approx(np.log(2.0), abs=1e-15)


def test_kl_zero_on_equal():
    rng = np.random.default_rng(4)
    raw = rng.uniform(0.1, 1.0, size=(5, 3))
    p = raw / raw.sum(axis=1, keepdims=True)
    assert kl_loss(p, p) == pytest.approx(0.0, abs=1e-15)


def test_kl_additive_over_rows():
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.1, 1.0, size=(4, 3))
    p = raw / raw.sum(axis=1, keepdims=True)
    raw = rng.uniform(0.1, 1.0, size=(4, 3))
    q = raw / raw.sum(axis=1, keepdims=True)
    total = kl_loss(p, q)
    parts = sum(kl_loss(p[i : i + 1], q[i : i + 1]) for i in range(4))
    assert total == pytest.approx(parts, abs=1e-12)


def test_kl_infinite_support_mismatch():
    with pytest.raises(NumericError, match="infinite"):
        kl_loss(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_kl_nonnegative(seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.01, 1.0, size=(6, 4))
    p = raw / raw.sum(axis=1, keepdims=True)
    raw = rng.uniform(0.01, 1.0, size=(6, 4))
    q = raw / raw.sum(axis=1, keepdims=True)
    assert kl_loss(p, q) >= -1e-12


# ---------------------------------------------------------------------------
# KL gradients


def _random_instance(seed, n=5, k=3, m=2):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, m))
    mu = rng.normal(size=(k, m)) * 2.0
    raw = rng.uniform(0.05, 1.0, size=(n, k))
    p = raw / raw.sum(axis=1, keepdims=True)
    return z, mu, p


def test_kl_grads_match_finite_differences():
    z, mu, p = _random_instance(7)
    grad_z, grad_mu = kl_grads(z, mu, p)
    num_z = numeric_gradient(lambda v: kl_loss(p, soft_assign(v, mu)), z.copy())
    num_mu = numeric_gradient(lambda v: kl_loss(p, soft_assign(z, v)), mu.copy())
    assert np.abs(grad_z - num_z).max() < 1e-7 * max(1.0, np.abs(num_z).max())
    assert np.abs(grad_mu - num_mu).max() < 1e-7 * max(1.0, np.abs(num_mu).max())


def test_kl_grads_vanish_at_fixed_point():
    # When the target equals the current soft assignment the loss is at
    # its minimum in q, so both gradients are exactly zero.
    rng = np.random.default_rng(8)
    z = rng.normal(size=(6, 2))
    mu = rng.normal(size=(3, 2)) * 2.0
    p = soft_assign(z, mu)
    grad_z, grad_mu = kl_grads(z, mu, p)
    assert np.abs(grad_z).max() == 0.0
    assert np.abs(grad_mu).max() == 0.0


def test_kl_grads_translation_balance():
    # Shifting all points and centroids together leaves the loss
    # unchanged, so the total gradient along any translation is zero.
    z, mu, p = _random_instance(9)
    grad_z, grad_mu = kl_grads(z, mu, p)
    assert np.allclose(grad_z.sum(axis=0) + grad_mu.sum(axis=0), 0.0, atol=1e-12)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_kl_grads_descent_direction(seed):
    z, mu, p = _random_instance(seed)
    grad_z, grad_mu = kl_grads(z, mu, p)
    loss = kl_loss(p, soft_assign(z, mu))
    step = 1e-4
    stepped = kl_loss(p, soft_assign(z - step * grad_z, mu - step * grad_mu))
    norm = float((grad_z**2).sum() + (grad_mu**2).sum())
    if norm > 1e-12:
        assert stepped < loss


def test_kl_grads_shape_check():
    with pytest.raises(ShapeError):
        kl_grads(np.zeros((4, 2)), np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((3, 2)))


# The soft assignment and its gradients against a frozen copy of their
# earlier n x k x m difference-tensor kernel: sharing the k-means
# distance kernel must keep every bit.


def _frozen_kernel(z, mu):
    z, mu = np.ascontiguousarray(z), np.ascontiguousarray(mu)
    diff = z[:, None, :] - mu[None, :, :]
    return diff, 1.0 / (1.0 + np.einsum("nkm,nkm->nk", diff, diff))


def _frozen_grads(z, mu, p):
    diff, w = _frozen_kernel(z, mu)
    coef = 2.0 * w * (p - w / w.sum(axis=1, keepdims=True))
    return np.einsum("nk,nkm->nm", coef, diff), -np.einsum("nk,nkm->km", coef, diff)


@pytest.mark.parametrize("m", [1, 2, 10, 64])
def test_soft_assign_and_kl_grads_bit_equal_to_frozen_kernel(m):
    rng = Rng(60 + m)
    z = rng.normal((257, m))
    z[9] = z[4]  # a duplicate row
    mu = 2.0 * rng.normal((20, m))  # k above 8: row sums follow the layout
    for points in (z, np.asfortranarray(z)):
        for centers in (mu, np.asfortranarray(mu)):
            _, w = _frozen_kernel(points, centers)
            expected = w / w.sum(axis=1, keepdims=True)
            q = soft_assign(points, centers)
            assert np.array_equal(q, expected)
            p = target_distribution(q)
            grad_z, grad_mu = kl_grads(points, centers, p)
            frozen_z, frozen_mu = _frozen_grads(points, centers, p)
            assert np.array_equal(grad_z, frozen_z)
            assert np.array_equal(grad_mu, frozen_mu)


# ---------------------------------------------------------------------------
# joint loop


def _blob_setup(n_per=30, d=8, k=3, seed=0):
    rng = Rng(seed)
    directions, _ = np.linalg.qr(rng.normal((d, k)))
    centers = 12.0 * directions.T
    x = np.vstack([centers[j] + rng.normal((n_per, d), std=0.4) for j in range(k)])
    fm = FeatureMatrix.from_array(x)
    truth = np.repeat(np.arange(k), n_per)
    return fm, truth


def _pretrained_encoder(fm, latent=2, epochs=25, seed=1):
    spec = AutoencoderSpec(
        input_dim=fm.d, encoder_dims=(6, latent), batch_size=32, epochs=epochs,
        optimizer=AdamConfig(lr=0.005),
    )
    params = autoencoder.build(spec, Rng(seed))
    params, _ = autoencoder.pretrain(params, fm, spec, Rng(seed))
    return autoencoder.encoder_part(params)


def test_config_validation():
    with pytest.raises(ConfigError):
        DecConfig(k=1).validate()
    with pytest.raises(ConfigError):
        DecConfig(k=3, delta=0.0).validate()
    with pytest.raises(ConfigError):
        DecConfig(k=3, delta=1.5).validate()
    with pytest.raises(ConfigError):
        DecConfig(k=3, update_interval=0).validate()
    DecConfig(k=3, delta=1.0).validate()  # inclusive upper bound


def test_dec_fit_converges_on_blobs():
    fm, truth = _blob_setup()
    enc = _pretrained_encoder(fm)
    cfg = DecConfig(k=3, update_interval=20, batch_size=32, max_iterations=2000)
    result = dec_fit(fm, enc, cfg, Rng(5))
    assert result.history.converged
    assert result.history.iterations_run < 2000
    from delius.metrics import clustering_accuracy

    assert clustering_accuracy(truth, result.state.hard) == 1.0


def test_dec_fit_state_carries_final_embedding():
    # The last refresh's embedding is the full encode of the refined
    # encoder, bit for bit, so callers need not encode every row again.
    # The cap stops mid-window, so the last refresh follows a short window.
    fm, _ = _blob_setup(seed=3)
    enc = _pretrained_encoder(fm, seed=4)
    cfg = DecConfig(k=3, update_interval=50, batch_size=32, max_iterations=120)
    result = dec_fit(fm, enc, cfg, Rng(77))
    assert result.state.z.tobytes() == autoencoder.encode(result.encoder, fm).tobytes()


def test_dec_fit_initial_labels_match_kmeans_protocol():
    # The first thing dec_fit draws from its generator is the restart
    # seeds, so a fresh generator with the same seed reproduces the
    # starting labels exactly.
    fm, _ = _blob_setup(seed=3)
    enc = _pretrained_encoder(fm, seed=4)
    cfg = DecConfig(k=3, update_interval=50, batch_size=32, max_iterations=100)
    z0 = autoencoder.encode(enc, fm)
    result = dec_fit(fm, enc.copy() if hasattr(enc, "copy") else enc, cfg, Rng(77))
    km = kmeans.kmeans_fit(z0, 3, Rng(77), restarts=cfg.kmeans_restarts)
    assert np.array_equal(result.history.initial_labels, km.labels)


def test_dec_fit_deterministic():
    fm, _ = _blob_setup(seed=6)

    def run():
        enc = _pretrained_encoder(fm, seed=7, epochs=10)
        cfg = DecConfig(k=3, update_interval=25, batch_size=32, max_iterations=200)
        result = dec_fit(fm, enc, cfg, Rng(8))
        return result

    a, b = run(), run()
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert np.array_equal(a.state.hard, b.state.hard)
    assert [r.kl_full for r in a.history.records] == [r.kl_full for r in b.history.records]


def test_dec_fit_delta_one_stops_at_first_check():
    fm, _ = _blob_setup(seed=9)
    enc = _pretrained_encoder(fm, seed=10, epochs=5)
    cfg = DecConfig(k=3, update_interval=15, batch_size=32, delta=1.0, max_iterations=500)
    result = dec_fit(fm, enc, cfg, Rng(11))
    assert result.history.converged
    assert result.history.iterations_run == 15
    assert len(result.history.records) == 2


def test_dec_fit_zero_iterations_snapshot():
    fm, _ = _blob_setup(seed=12)
    enc = _pretrained_encoder(fm, seed=13, epochs=5)
    cfg = DecConfig(k=3, max_iterations=0)
    result = dec_fit(fm, enc, cfg, Rng(14))
    assert not result.history.converged
    assert len(result.history.records) == 1
    assert result.history.records[0].changed_fraction is None
    assert result.state.iteration == 0


def test_dec_fit_cap_hit_mid_window_refreshes():
    fm, _ = _blob_setup(seed=15)
    enc = _pretrained_encoder(fm, seed=16, epochs=5)
    # cap of 10 with interval 15 stops between refresh boundaries
    cfg = DecConfig(k=3, update_interval=15, batch_size=32, delta=1e-9, max_iterations=10)
    result = dec_fit(fm, enc, cfg, Rng(17))
    assert not result.history.converged
    assert result.history.iterations_run == 10
    assert result.history.records[-1].iteration == 10


def test_dec_fit_refreshes_on_interval_boundaries():
    fm, _ = _blob_setup(seed=18)
    enc = _pretrained_encoder(fm, seed=19, epochs=5)
    cfg = DecConfig(k=3, update_interval=12, batch_size=16, delta=1e-9, max_iterations=48)
    result = dec_fit(fm, enc, cfg, Rng(20))
    iters = [r.iteration for r in result.history.records]
    assert iters == [0, 12, 24, 36, 48]
    changed = [r.changed_fraction for r in result.history.records]
    assert changed[0] is None
    assert all(c is not None for c in changed[1:])


def test_dec_fit_updates_encoder_in_place():
    fm, _ = _blob_setup(seed=21)
    enc = _pretrained_encoder(fm, seed=22, epochs=5)
    before = enc.layers[0].w.copy()
    cfg = DecConfig(k=3, update_interval=10, batch_size=32, delta=1e-9, max_iterations=20)
    result = dec_fit(fm, enc, cfg, Rng(23))
    assert result.encoder is enc
    assert not np.array_equal(enc.layers[0].w, before)


def test_dec_fit_validation():
    fm, _ = _blob_setup(seed=24)
    enc = _pretrained_encoder(fm, seed=25, epochs=2)
    with pytest.raises(ConfigError, match="exceeds"):
        dec_fit(fm, enc, DecConfig(k=fm.n + 1), Rng(0))
    narrow = FeatureMatrix.from_array(np.zeros((4, 3)))
    with pytest.raises(ConfigError, match="columns"):
        dec_fit(narrow, enc, DecConfig(k=2), Rng(0))


def test_history_csv_format(tmp_path):
    fm, _ = _blob_setup(seed=26)
    enc = _pretrained_encoder(fm, seed=27, epochs=5)
    cfg = DecConfig(k=3, update_interval=10, batch_size=32, delta=1e-9, max_iterations=20)
    result = dec_fit(fm, enc, cfg, Rng(28))
    path = tmp_path / "history.csv"
    result.history.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "refresh_index,iter,kl_full,changed_fraction"
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == ""
    assert len(lines) == len(result.history.records) + 1
    for line, rec in zip(lines[1:], result.history.records):
        cells = line.split(",")
        assert float(cells[2]) == rec.kl_full


# The joint loop as it was written before the encoder and the centroids
# shared one optimizer state: a refresh closure, two Adam states and a
# hand-kept permutation cursor.  dec_fit must reproduce it bit for bit.


def _frozen_dec_fit(features, encoder_params, config, rng):
    from delius.dec import _changed_fraction

    x = features.values
    _, z_full = neural.forward(encoder_params, x)
    km = kmeans.kmeans_fit(z_full, config.k, rng, restarts=config.kmeans_restarts)
    mu = km.centroids.copy()
    opt_encoder = neural.adam_init(encoder_params.blocks(), config.optimizer)
    opt_mu = neural.adam_init([mu], config.optimizer)
    records, out = [], {"p_full": None, "last_hard": None, "converged": False}
    iteration = 0
    order = np.empty(0, dtype=np.int64)
    cursor = 0

    def refresh(reuse_z=None):
        z = reuse_z if reuse_z is not None else neural.forward(encoder_params, x)[1]
        q = soft_assign(z, mu)
        hard = np.argmax(q, axis=1).astype(np.int64)
        p_new = target_distribution(q)
        kl_fresh = kl_loss(p_new, q)
        kl_frozen = kl_fresh if out["p_full"] is None else kl_loss(out["p_full"], q)
        last_hard = out["last_hard"]
        changed = None if last_hard is None else _changed_fraction(hard, last_hard)
        records.append((len(records), iteration, kl_frozen, kl_fresh, changed))
        out["state"] = (q, p_new, hard, last_hard, iteration)
        if changed is not None and changed < config.delta:
            out["converged"] = True
        out["p_full"], out["last_hard"] = p_new, hard

    refresh(reuse_z=z_full)
    while not out["converged"] and iteration < config.max_iterations:
        if len(order) - cursor <= 0:
            order = rng.permutation(features.n)
            cursor = 0
        idx = order[cursor : cursor + config.batch_size]
        cursor += config.batch_size
        acts, zb = neural.forward(encoder_params, x[idx])
        grad_z, grad_mu = kl_grads(zb, mu, out["p_full"][idx])
        nb = idx.shape[0]
        grad_z /= nb
        grad_mu /= nb
        param_grads = neural.backward(encoder_params, acts, grad_z)
        neural.adam_step_blocks(encoder_params.blocks(), param_grads, opt_encoder)
        neural.adam_step_blocks([mu], [grad_mu], opt_mu)
        iteration += 1
        if iteration % config.update_interval == 0:
            refresh()
    if not out["converged"] and records[-1][1] != iteration:
        refresh()
        out["converged"] = False
    return encoder_params, mu, records, out, iteration, km.labels


def _hex(value):
    return None if value is None else float(value).hex()


@pytest.mark.parametrize(
    "case, overrides",
    [
        ("converged at a scheduled refresh", dict(update_interval=20, max_iterations=2000)),
        ("cap mid-window", dict(update_interval=15, delta=1.0, max_iterations=10)),
        ("cap on a boundary", dict(update_interval=12, delta=1e-9, max_iterations=48)),
        ("no iterations", dict(max_iterations=0)),
        ("batch of all rows", dict(update_interval=7, batch_size=90, max_iterations=30)),
        ("batch above n", dict(update_interval=5, batch_size=200, max_iterations=17)),
    ],
)
def test_dec_fit_bit_equal_to_frozen_loop(case, overrides):
    fm, _ = _blob_setup(seed=30)  # 90 rows
    enc = _pretrained_encoder(fm, seed=31, epochs=10)
    cfg = DecConfig(k=3, **{"batch_size": 32, **overrides})
    rng_new, rng_old = Rng(32), Rng(32)
    result = dec_fit(fm, enc.copy(), cfg, rng_new)
    enc_old, mu_old, records, out, iterations, labels = _frozen_dec_fit(
        fm, enc.copy(), cfg, rng_old
    )
    if case == "converged at a scheduled refresh":
        assert out["converged"]
    if case == "cap mid-window":
        assert not out["converged"] and records[-1][1] == 10
    history = result.history
    assert history.converged == out["converged"]
    assert history.iterations_run == iterations
    assert np.array_equal(history.initial_labels, labels)
    for new, old in zip(result.encoder.blocks(), enc_old.blocks()):
        assert new.tobytes() == old.tobytes()
    assert result.centroids.tobytes() == mu_old.tobytes()
    assert [
        (r.refresh_index, r.iteration, _hex(r.kl_full), _hex(r.kl_fresh), _hex(r.changed_fraction))
        for r in history.records
    ] == [(i, it, _hex(kl), _hex(fresh), _hex(ch)) for i, it, kl, fresh, ch in records]
    q, p, hard, last_hard, iteration = out["state"]
    state = result.state
    assert state.q.tobytes() == q.tobytes() and state.p.tobytes() == p.tobytes()
    assert np.array_equal(state.hard, hard) and state.iteration == iteration
    if last_hard is None:
        assert state.last_hard is None
    else:
        assert np.array_equal(state.last_hard, last_hard)
    # Both drew the same permutations, and no more: the generators agree.
    assert rng_new.next_u64() == rng_old.next_u64()


def test_soft_assign_and_grads_independent_of_memory_layout():
    rng = np.random.default_rng(8)
    z = rng.normal(scale=3.0, size=(2000, 10))
    mu = rng.normal(scale=3.0, size=(6, 10))
    p = target_distribution(soft_assign(z, mu))
    fz, fmu, fp = (np.asfortranarray(a) for a in (z, mu, p))
    assert np.array_equal(soft_assign(fz, fmu), soft_assign(z, mu))
    for f_grad, c_grad in zip(kl_grads(fz, fmu, fp), kl_grads(z, mu, p)):
        assert np.array_equal(f_grad, c_grad)
