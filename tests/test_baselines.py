"""Reference clusterings and their agreement with the joint pipeline."""

import numpy as np
import pytest

from delius import autoencoder, neural
from delius.autoencoder import AutoencoderSpec
from delius.baselines import run_ae_kmeans, run_pca_kmeans
from delius.dataio import FeatureMatrix, LabelManifest
from delius.dec import DecConfig, dec_fit
from delius.kmeans import kmeans_fit
from delius.metrics import evaluate
from delius.neural import AdamConfig
from delius.projection import pca_fit, pca_transform
from delius.rng import Rng


def _blobs(n_per=40, d=12, k=3, seed=0, sep=15.0):
    rng = Rng(seed)
    directions, _ = np.linalg.qr(rng.normal((d, k)))
    centers = sep * directions.T
    x = np.vstack([centers[j] + rng.normal((n_per, d), std=0.5) for j in range(k)])
    ids = tuple(f"img{r}" for r in range(x.shape[0]))
    truth = np.repeat(np.arange(k), n_per)
    return FeatureMatrix.from_array(x, ids), truth


def _manifest_for(fm, truth):
    names = ["alpha", "beta", "gamma"]
    rows = tuple((i, names[t], None) for i, t in zip(fm.ids, truth))
    return LabelManifest(rows=rows)


def test_pca_baseline_recovers_blobs():
    fm, truth = _blobs()
    manifest = _manifest_for(fm, truth)
    run = run_pca_kmeans(fm, 3, r=3, seed=5, manifest=manifest)
    assert run.report.space_tag == "pca3"
    assert run.report.acc_style == 1.0
    assert run.report.acc_genre is None
    assert run.report.n == fm.n
    assert run.ids == fm.ids
    reduced = pca_transform(pca_fit(fm.values, 3), fm.values)
    assert np.array_equal(run.labels, kmeans_fit(reduced, 3, Rng(5)).labels)


def test_pca_full_rank_matches_plain_kmeans():
    # With r = d the PCA map is a rigid rotation plus centering, which
    # leaves k-means distances unchanged.
    fm, _ = _blobs(seed=1)
    run = run_pca_kmeans(fm, 3, r=fm.d, seed=9)
    plain = kmeans_fit(fm.values, 3, Rng(9))
    assert np.array_equal(run.labels, plain.labels)
    reduced = pca_transform(pca_fit(fm.values, fm.d), fm.values)
    assert plain.inertia == pytest.approx(
        float(
            sum(
                ((reduced[run.labels == j] - reduced[run.labels == j].mean(axis=0)) ** 2).sum()
                for j in range(3)
            )
        ),
        rel=1e-9,
    )


def _pretrained(fm, seed=2):
    spec = AutoencoderSpec(
        input_dim=fm.d, encoder_dims=(8, 2), batch_size=32, epochs=30,
        optimizer=AdamConfig(lr=0.005),
    )
    params = autoencoder.build(spec, Rng(seed))
    params, _ = autoencoder.pretrain(params, fm, spec, Rng(seed))
    return params


def test_ae_baseline_reports_embedded_space():
    fm, truth = _blobs(seed=3)
    params = _pretrained(fm)
    manifest = _manifest_for(fm, truth)
    run = run_ae_kmeans(fm, autoencoder.encoder_part(params), 3, seed=11, manifest=manifest)
    assert run.report.space_tag == "embedded"
    assert run.report.n == fm.n
    assert run.report.acc_style == 1.0


def test_ae_baseline_embeds_with_the_given_encoder():
    fm, _ = _blobs(seed=4)
    encoder = autoencoder.encoder_part(_pretrained(fm))
    run = run_ae_kmeans(fm, encoder, 3, seed=2)
    _, oracle = neural.forward(encoder, fm.values)
    assert np.array_equal(run.labels, kmeans_fit(oracle, 3, Rng(2)).labels)
    assert run.report == evaluate(oracle, run.labels, "embedded")


def test_ae_baseline_matches_joint_initialisation():
    # The joint optimiser's starting labels come from the same restart
    # protocol, so a fresh generator with the same seed reproduces them.
    fm, _ = _blobs(seed=5)
    params = _pretrained(fm, seed=6)
    encoder = autoencoder.encoder_part(params)
    baseline = run_ae_kmeans(fm, encoder, 3, seed=21)
    frozen = encoder.copy()
    result = dec_fit(
        fm, frozen, DecConfig(k=3, update_interval=30, max_iterations=30), Rng(21)
    )
    assert np.array_equal(baseline.labels, result.history.initial_labels)


def test_baselines_deterministic():
    fm, _ = _blobs(seed=7)
    a = run_pca_kmeans(fm, 3, r=4, seed=13)
    b = run_pca_kmeans(fm, 3, r=4, seed=13)
    assert np.array_equal(a.labels, b.labels)
    assert a.report == b.report
