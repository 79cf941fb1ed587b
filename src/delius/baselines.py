"""Reference clusterings the joint optimisation is compared against.

Both baselines run the same k-means (20 restarts) and the same metrics
as the main pipeline; they differ only in the representation handed to
k-means.  Reports carry a space tag naming that representation, since a
silhouette in a 200-d PCA space is not comparable to one in the learned
embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autoencoder
from .dataio import FeatureMatrix, LabelManifest, truth_labels
from .kmeans import DEFAULT_RESTARTS, kmeans_fit
from .metrics import EvalReport, evaluate
from .neural import MlpParams
from .projection import pca_fit, pca_transform
from .rng import Rng

DEFAULT_PCA_DIM = 200

EMBEDDED_SPACE_TAG = "embedded"


@dataclass
class BaselineRun:
    strategy: str
    k: int
    seed: int
    reduced_dim: int
    labels: np.ndarray
    ids: tuple[str, ...]
    report: EvalReport
    points: np.ndarray


def run_pca_kmeans(
    features: FeatureMatrix,
    k: int,
    r: int = DEFAULT_PCA_DIM,
    seed: int = 0,
    manifest: LabelManifest | None = None,
    restarts: int = DEFAULT_RESTARTS,
) -> BaselineRun:
    """k-means on the first r principal components of the features."""
    model = pca_fit(features.values, r)
    reduced = pca_transform(model, features.values)
    km = kmeans_fit(reduced, k, Rng(seed), restarts=restarts)
    style, genre = truth_labels(manifest, features)
    report = evaluate(
        reduced, km.labels, f"pca{r}", style_truth=style, genre_truth=genre
    )
    return BaselineRun(
        strategy="pca_kmeans",
        k=k,
        seed=seed,
        reduced_dim=r,
        labels=km.labels,
        ids=features.ids,
        report=report,
        points=reduced,
    )


def run_ae_kmeans(
    features: FeatureMatrix,
    encoder: MlpParams,
    k: int,
    seed: int = 0,
    manifest: LabelManifest | None = None,
    restarts: int = DEFAULT_RESTARTS,
) -> BaselineRun:
    """k-means on the encoder's embedding, with no joint optimisation.

    Given the same features, encoder and seed protocol, the labels here
    coincide with the joint optimiser's starting labels.
    """
    embedded = autoencoder.encode(encoder, features)
    km = kmeans_fit(embedded, k, Rng(seed), restarts=restarts)
    style, genre = truth_labels(manifest, features)
    report = evaluate(
        embedded, km.labels, EMBEDDED_SPACE_TAG, style_truth=style, genre_truth=genre
    )
    return BaselineRun(
        strategy="ae_kmeans",
        k=k,
        seed=seed,
        reduced_dim=embedded.shape[1],
        labels=km.labels,
        ids=features.ids,
        report=report,
        points=embedded,
    )
