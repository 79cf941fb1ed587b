"""Acceptance gate.

Every check that qualifies a build as releasable lives here, with its
tolerance pinned.  Each test prints one verdict line past pytest's
capture so a plain run shows the measured values next to PASS or FAIL.
"""

import copy
import hashlib
import json
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from delius.autoencoder import AutoencoderSpec, build, encode, encoder_part, pretrain
from delius.cli import main as cli_main
from delius.dataio import FeatureMatrix, read_features, write_features
from delius.dec import (
    DecConfig,
    dec_fit,
    kl_grads,
    kl_loss,
    soft_assign,
    target_distribution,
)
from delius.kmeans import kmeans_fit
from delius.metrics import calinski_harabasz, clustering_accuracy, silhouette
from delius.neural import (
    Checkpoint,
    backward,
    forward,
    init_params,
    load_checkpoint,
    mse_grad,
    mse_loss,
    save_checkpoint,
)
from delius.plotting import ScatterSpec, render_scatter
from delius.rng import Rng

from oracles import numeric_gradient
from test_metrics import brute_accuracy, brute_calinski_harabasz, brute_silhouette


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _rel_error(analytic, numeric):
    return float(
        np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
    )


# ---------------------------------------------------------------------------
# 1. scale note


def test_corpus_scale_note(capsys):
    """Corpus-scale benchmarks need external imagery plus pretrained CNN
    features, neither of which is bundled.  The property checks below are
    the substitute evidence."""
    with capsys.disabled():
        print(
            "[acceptance] corpus-scale benchmark: SKIPPED by design "
            "(external imagery and CNN features not bundled; property "
            "checks below substitute)"
        )


# ---------------------------------------------------------------------------
# 2. gradient correctness


def _random_net(chain, activations, rng):
    params = init_params(chain, activations, rng)
    for layer in params.layers:
        layer.w[...] = rng.normal(layer.w.shape, std=0.4)
        layer.b[...] = rng.normal(layer.b.shape, std=0.1)
    return params


def test_gradient_correctness(capsys):
    t0 = time.perf_counter()
    master = Rng(424242)
    worst = 0.0
    for _ in range(20):
        n = 6 + master.below(11)
        m = 2 + master.below(3)
        k = 2 + master.below(3)
        spec = AutoencoderSpec(encoder_dims=(6, m))
        ae = _random_net(spec.chain(8), spec.layer_activations(), master)
        x = master.normal((n, 8))

        # reconstruction loss against every parameter block
        acts, out = forward(ae, x)
        grads = backward(ae, acts, mse_grad(out, x))
        for block, analytic in zip(ae.blocks(), grads):
            numeric = numeric_gradient(lambda _: mse_loss(forward(ae, x)[1], x), block)
            worst = max(worst, _rel_error(analytic, numeric))

        # assignment divergence against encoder parameters, with the
        # sharpened target held fixed the way the training loop holds it
        enc = encoder_part(ae)
        acts, z = forward(enc, x)
        mu = master.normal((k, m), std=1.5)
        p = target_distribution(soft_assign(z, mu))
        gz, gmu = kl_grads(z, mu, p)
        pgrads = backward(enc, acts, gz)
        for block, analytic in zip(enc.blocks(), pgrads):
            numeric = numeric_gradient(
                lambda _: kl_loss(p, soft_assign(forward(enc, x)[1], mu)), block
            )
            worst = max(worst, _rel_error(analytic, numeric))
        numeric = numeric_gradient(lambda _: kl_loss(p, soft_assign(z, mu)), z)
        worst = max(worst, _rel_error(gz, numeric))
        numeric = numeric_gradient(lambda _: kl_loss(p, soft_assign(z, mu)), mu)
        worst = max(worst, _rel_error(gmu, numeric))

        # divergence gradients under a generic row-stochastic target
        z2 = master.normal((n, m), std=1.5)
        mu2 = master.normal((k, m), std=1.5)
        p2 = np.array([master.uniform() for _ in range(n * k)]).reshape(n, k) + 0.05
        p2 /= p2.sum(axis=1, keepdims=True)
        gz2, gmu2 = kl_grads(z2, mu2, p2)
        numeric = numeric_gradient(lambda _: kl_loss(p2, soft_assign(z2, mu2)), z2)
        worst = max(worst, _rel_error(gz2, numeric))
        numeric = numeric_gradient(lambda _: kl_loss(p2, soft_assign(z2, mu2)), mu2)
        worst = max(worst, _rel_error(gmu2, numeric))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    _verdict(
        capsys, "gradient correctness",
        ok, f"20 instances, max rel err {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst <= 1e-5
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. metric oracle equivalence


def _covering_labels(rng, n, k):
    labels = np.empty(n, dtype=np.int64)
    labels[:k] = np.arange(k)
    for i in range(k, n):
        labels[i] = rng.below(k)
    return labels


def test_metric_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    master = Rng(20240717)
    worst_sil = worst_chi = 0.0
    acc_exact = True
    for _ in range(50):
        n = 8 + master.below(43)
        k = 2 + master.below(4)
        d = 2 + master.below(5)
        centers = master.normal((k, d), std=3.0)
        geo = _covering_labels(master, n, k)
        points = centers[geo] + master.normal((n, d))

        worst_sil = max(
            worst_sil, abs(silhouette(points, geo) - brute_silhouette(points, geo))
        )
        worst_chi = max(
            worst_chi,
            abs(calinski_harabasz(points, geo) - brute_calinski_harabasz(points, geo)),
        )
        truth = _covering_labels(master, n, k)
        pred = _covering_labels(master, n, k)
        acc_exact = acc_exact and (
            clustering_accuracy(truth, pred) == brute_accuracy(truth, pred)
        )
    elapsed = time.perf_counter() - t0
    ok = worst_sil <= 1e-9 and worst_chi <= 1e-9 and acc_exact and elapsed < 10.0
    _verdict(
        capsys, "metric oracle equivalence",
        ok,
        f"50 instances, sil err {worst_sil:.1e}, chi err {worst_chi:.1e}, "
        f"acc exact {acc_exact}, {elapsed:.1f}s",
    )
    assert worst_sil <= 1e-9
    assert worst_chi <= 1e-9
    assert acc_exact
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 4 and 6. high-dimensional blob benchmark, shared between two checks


@pytest.fixture(scope="module")
def blob_run():
    t0 = time.perf_counter()
    qmat, _ = np.linalg.qr(Rng(11).normal((1024, 3)))
    centers = (40.0 / np.sqrt(2.0)) * qmat.T  # pairwise distance exactly 40 sigma
    data_rng = Rng(2024)
    x = np.vstack([centers[j] + data_rng.normal((200, 1024)) for j in range(3)])
    truth = np.repeat(np.arange(3), 200)
    fm = FeatureMatrix.from_array(x)

    spec = AutoencoderSpec(epochs=50)
    params = build(spec, 1024, Rng(7))
    params, _ = pretrain(params, fm, spec, Rng(7))
    enc = encoder_part(params)
    cfg = DecConfig(k=3)
    result = dec_fit(fm, enc, cfg, Rng(7))
    elapsed = time.perf_counter() - t0
    embedded = encode(result.encoder, fm)
    return {
        "truth": truth,
        "result": result,
        "cfg": cfg,
        "embedded": embedded,
        "elapsed": elapsed,
    }


def test_synthetic_end_to_end(blob_run, capsys):
    result = blob_run["result"]
    acc = clustering_accuracy(blob_run["truth"], result.state.hard)
    sc = silhouette(blob_run["embedded"], result.state.hard)
    converged = result.history.converged
    before_cap = result.history.iterations_run < blob_run["cfg"].max_iterations
    elapsed = blob_run["elapsed"]
    ok = acc >= 0.99 and sc >= 0.8 and converged and before_cap and elapsed < 600.0
    _verdict(
        capsys, "synthetic end to end",
        ok,
        f"acc {acc:.4f}, sc {sc:.4f}, converged {converged} "
        f"at iter {result.history.iterations_run}, {elapsed:.0f}s",
    )
    assert acc >= 0.99
    assert sc >= 0.8
    assert converged and before_cap
    assert elapsed < 600.0


def test_kl_monotonic_at_refresh_boundaries(blob_run, capsys):
    values = [rec.kl_full for rec in blob_run["result"].history.records]
    assert len(values) >= 2
    pairs = list(zip(values, values[1:]))
    good = sum(1 for prev, nxt in pairs if nxt < prev or (nxt - prev) / prev < 0.05)
    fraction = good / len(pairs)
    ok = fraction >= 0.9
    _verdict(
        capsys, "divergence monotone at refreshes",
        ok, f"{good}/{len(pairs)} boundary pairs, values {[round(v, 4) for v in values]}",
    )
    assert fraction >= 0.9


def test_kl_monotonic_at_refresh_boundaries_on_manifold(manifold_seed0, capsys):
    # The blob run converges after one refresh pair; this run of the
    # overlapping manifold keeps refreshing until its iteration cap.
    fm, enc = manifold_seed0
    cfg = DecConfig(k=8, update_interval=40, max_iterations=600)
    result = dec_fit(fm, copy.deepcopy(enc), cfg, Rng(0))
    values = [rec.kl_full for rec in result.history.records]
    pairs = list(zip(values, values[1:]))
    assert len(pairs) >= 10
    good = sum(1 for prev, nxt in pairs if nxt < prev or (nxt - prev) / prev < 0.05)
    fraction = good / len(pairs)
    ok = fraction >= 0.9
    _verdict(
        capsys, "divergence monotone at refreshes (manifold)",
        ok, f"{good}/{len(pairs)} boundary pairs, values {[round(v, 4) for v in values]}",
    )
    assert fraction >= 0.9


# ---------------------------------------------------------------------------
# 5. comparative embedding quality on a harder synthetic set


def make_manifold(seed, n_per=100, d=32):
    """Eight anisotropic, partially overlapping clusters on a ring,
    lifted through fixed nonlinearities into d dimensions."""
    rng = Rng(900 + 17 * seed)
    k = 8
    radius = 6.0
    us, vs = [], []
    for j in range(k):
        theta = 2.0 * np.pi * j / k
        tangent = rng.normal((n_per,), std=1.6)
        radial = rng.normal((n_per,), std=0.35)
        us.append((radius + radial) * np.cos(theta) - tangent * np.sin(theta))
        vs.append((radius + radial) * np.sin(theta) + tangent * np.cos(theta))
    u = np.concatenate(us)
    v = np.concatenate(vs)
    base = np.stack(
        [
            u, v,
            np.sin(0.7 * u), np.cos(0.7 * v),
            0.15 * u * v, 0.1 * (u ** 2 - v ** 2),
            np.sin(0.4 * (u + v)), np.cos(0.4 * (u - v)),
        ],
        axis=1,
    )
    lift, _ = np.linalg.qr(rng.normal((d, base.shape[1])))
    x = base @ lift.T + rng.normal((k * n_per, d), std=0.05)
    return FeatureMatrix.from_array(x)


def _pretrained_manifold(seed):
    """The manifold of ``seed`` and a 64-32-4 encoder pretrained on it."""
    fm = make_manifold(seed)
    spec = AutoencoderSpec(encoder_dims=(64, 32, 4), batch_size=256, epochs=30)
    params, _ = pretrain(build(spec, 32, Rng(seed)), fm, spec, Rng(seed))
    return fm, encoder_part(params)


@pytest.fixture(scope="module")
def manifold_seed0():
    return _pretrained_manifold(0)


def test_comparative_embedding_quality(manifold_seed0, capsys):
    t0 = time.perf_counter()
    wins = 0
    scores = []
    for seed in range(5):
        fm, enc = manifold_seed0 if seed == 0 else _pretrained_manifold(seed)
        enc = copy.deepcopy(enc)  # dec_fit updates the encoder in place
        z0 = encode(enc, fm)
        km = kmeans_fit(z0, 8, Rng(seed), restarts=20)
        sc_ae = silhouette(z0, km.labels)

        result = dec_fit(fm, enc, DecConfig(k=8, max_iterations=2000), Rng(seed))
        sc_dec = silhouette(encode(result.encoder, fm), result.state.hard)
        scores.append((round(sc_ae, 4), round(sc_dec, 4)))
        if sc_dec >= sc_ae:
            wins += 1
    elapsed = time.perf_counter() - t0
    ok = wins >= 4
    _verdict(
        capsys, "comparative embedding quality",
        ok, f"{wins}/5 seeds improved, (ae, joint) sc {scores}, {elapsed:.0f}s",
    )
    assert wins >= 4


# ---------------------------------------------------------------------------
# 7. command line determinism


def _digests(outdir):
    out = {}
    for path in sorted(outdir.iterdir()):
        if path.name == "manifest.json":  # carries wall time
            continue
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_cli_determinism(tmp_path, capsys):
    rng = Rng(1)
    directions, _ = np.linalg.qr(rng.normal((8, 3)))
    centers = 14.0 * directions.T
    x = np.vstack([centers[j] + rng.normal((30, 8), std=0.5) for j in range(3)])
    fm = FeatureMatrix.from_array(x)
    features = str(tmp_path / "features.delf")
    write_features(fm, features)
    manifest = tmp_path / "labels.csv"
    lines = ["id,style,genre"] + [
        f"{i},s{j // 30},g{j % 2}" for j, i in zip(range(90), fm.ids)
    ]
    manifest.write_text("\n".join(lines) + "\n")

    runs = []
    for tag in ("first", "second"):
        outdir = tmp_path / tag
        code = cli_main(
            ["run", "--features", features, "--k", "3",
             "--labels-manifest", str(manifest),
             "--encoder-dims", "6,2", "--batch-size", "32", "--epochs", "10",
             "--lr", "0.005", "--update-interval", "20", "--max-iterations", "300",
             "--fraction", "0.5", "--perplexity", "4", "--tsne-iterations", "40",
             "--threads", "1", "--outdir", str(outdir), "--seed", "21"]
        )
        assert code == 0
        runs.append(_digests(outdir))
    ok = runs[0] == runs[1] and len(runs[0]) >= 9
    _verdict(
        capsys, "command line determinism",
        ok, f"{len(runs[0])} artifacts byte-identical across repeated runs",
    )
    assert runs[0] == runs[1]
    assert len(runs[0]) >= 9


# ---------------------------------------------------------------------------
# 8. format fidelity


def test_format_fidelity(tmp_path, capsys):
    rng = Rng(55)

    # binary matrix files: f64 payloads round-trip bit for bit
    matrix = FeatureMatrix.from_array(
        rng.normal((13, 7)), tuple(f"row{i}" for i in range(13))
    )
    p1, p2 = str(tmp_path / "a.delf"), str(tmp_path / "b.delf")
    write_features(matrix, p1)
    back = read_features(p1)
    matrix_ok = (
        back.values.tobytes() == matrix.values.tobytes() and back.ids == matrix.ids
    )
    write_features(back, p2)
    matrix_ok = matrix_ok and open(p1, "rb").read() == open(p2, "rb").read()

    # f32 payloads survive a write/read/write cycle unchanged on disk
    p3, p4 = str(tmp_path / "c.delf"), str(tmp_path / "d.delf")
    write_features(matrix, p3, dtype="f32")
    narrow = read_features(p3)
    write_features(narrow, p4, dtype="f32")
    matrix_ok = matrix_ok and open(p3, "rb").read() == open(p4, "rb").read()

    # checkpoints round-trip every block bit for bit
    params = init_params([5, 3, 2], ["relu", "identity"], rng)
    ckpt = Checkpoint(
        params=params, seed=9, phase="dec", epoch=4, centroids=rng.normal((4, 2))
    )
    c1 = str(tmp_path / "model.delc")
    save_checkpoint(c1, ckpt)
    loaded = load_checkpoint(c1)
    ckpt_ok = (
        loaded.seed == 9
        and loaded.phase == "dec"
        and loaded.epoch == 4
        and loaded.centroids.tobytes() == ckpt.centroids.tobytes()
        and all(
            a.w.tobytes() == b.w.tobytes() and a.b.tobytes() == b.b.tobytes()
            for a, b in zip(loaded.params.layers, params.layers)
        )
    )
    c2 = str(tmp_path / "model2.delc")
    save_checkpoint(c2, loaded)
    ckpt_ok = ckpt_ok and open(c1, "rb").read() == open(c2, "rb").read()

    # scatter output parses as XML and renders identically every time
    spec = ScatterSpec(
        points=rng.normal((40, 2)), labels=np.arange(40) % 4
    )
    svg1 = render_scatter(spec)
    svg2 = render_scatter(spec)
    ET.fromstring(svg1)
    svg_ok = svg1 == svg2

    ok = matrix_ok and ckpt_ok and svg_ok
    _verdict(
        capsys, "format fidelity",
        ok, f"matrix {matrix_ok}, checkpoint {ckpt_ok}, scatter {svg_ok}",
    )
    assert matrix_ok
    assert ckpt_ok
    assert svg_ok
