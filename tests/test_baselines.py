"""Reference clusterings and their agreement with the joint pipeline."""

import copy

import numpy as np
import pytest

from delius import autoencoder, neural
from delius.autoencoder import AutoencoderSpec
from delius.baselines import run_ae_kmeans, run_pca_kmeans
from delius.dataio import FeatureMatrix
from delius.dec import DecConfig, dec_fit
from delius.kmeans import kmeans_fit
from delius.metrics import clustering_accuracy
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


def test_pca_baseline_recovers_blobs():
    fm, truth = _blobs()
    points, labels = run_pca_kmeans(fm, 3, r=3, seed=5)
    reduced = pca_transform(pca_fit(fm.values, 3), fm.values)
    assert points.tobytes() == reduced.tobytes()
    assert np.array_equal(labels, kmeans_fit(reduced, 3, Rng(5)).labels)
    assert clustering_accuracy(truth, labels) == 1.0


def test_pca_full_rank_matches_plain_kmeans():
    # With r = d the PCA map is a rigid rotation plus centering, which
    # leaves k-means distances unchanged.
    fm, _ = _blobs(seed=1)
    points, labels = run_pca_kmeans(fm, 3, r=fm.d, seed=9)
    plain = kmeans_fit(fm.values, 3, Rng(9))
    assert np.array_equal(labels, plain.labels)
    assert plain.inertia == pytest.approx(
        float(
            sum(
                ((points[labels == j] - points[labels == j].mean(axis=0)) ** 2).sum()
                for j in range(3)
            )
        ),
        rel=1e-9,
    )


def _pretrained(fm, seed=2):
    spec = AutoencoderSpec(
        encoder_dims=(8, 2), batch_size=32, epochs=30,
        optimizer=AdamConfig(lr=0.005),
    )
    params = autoencoder.build(spec, fm.d, Rng(seed))
    params, _ = autoencoder.pretrain(params, fm, spec, Rng(seed))
    return params


def test_ae_baseline_recovers_blobs():
    fm, truth = _blobs(seed=3)
    points, labels = run_ae_kmeans(fm, autoencoder.encoder_part(_pretrained(fm)), 3, seed=11)
    assert points.shape == (fm.n, 2)
    assert clustering_accuracy(truth, labels) == 1.0


def test_ae_baseline_embeds_with_the_given_encoder():
    fm, _ = _blobs(seed=4)
    encoder = autoencoder.encoder_part(_pretrained(fm))
    points, labels = run_ae_kmeans(fm, encoder, 3, seed=2)
    _, oracle = neural.forward(encoder, fm.values)
    assert points.tobytes() == oracle.tobytes()
    assert np.array_equal(labels, kmeans_fit(oracle, 3, Rng(2)).labels)


def test_ae_baseline_matches_joint_initialisation():
    # The joint optimiser's starting labels come from the same restart
    # protocol, so a fresh generator with the same seed reproduces them.
    fm, _ = _blobs(seed=5)
    params = _pretrained(fm, seed=6)
    encoder = autoencoder.encoder_part(params)
    _, labels = run_ae_kmeans(fm, encoder, 3, seed=21)
    frozen = copy.deepcopy(encoder)
    result = dec_fit(
        fm, frozen, DecConfig(k=3, update_interval=30, max_iterations=30), Rng(21)
    )
    assert np.array_equal(labels, result.history.initial_labels)


def test_baselines_deterministic():
    fm, _ = _blobs(seed=7)
    a_points, a_labels = run_pca_kmeans(fm, 3, r=4, seed=13)
    b_points, b_labels = run_pca_kmeans(fm, 3, r=4, seed=13)
    assert a_points.tobytes() == b_points.tobytes()
    assert np.array_equal(a_labels, b_labels)
