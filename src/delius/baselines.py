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
    labels: np.ndarray
    ids: tuple[str, ...]
    report: EvalReport


def _cluster_and_score(features, points, k, seed, manifest, restarts, space_tag) -> BaselineRun:
    """k-means on ``points`` (one row per feature row), scored against any truth."""
    km = kmeans_fit(points, k, Rng(seed), restarts=restarts)
    style, genre = truth_labels(manifest, features)
    report = evaluate(points, km.labels, space_tag, style_truth=style, genre_truth=genre)
    return BaselineRun(labels=km.labels, ids=features.ids, report=report)


def run_pca_kmeans(
    features: FeatureMatrix,
    k: int,
    r: int = DEFAULT_PCA_DIM,
    seed: int = 0,
    manifest: LabelManifest | None = None,
    restarts: int = DEFAULT_RESTARTS,
) -> BaselineRun:
    """k-means on the first r principal components of the features."""
    reduced = pca_transform(pca_fit(features.values, r), features.values)
    return _cluster_and_score(features, reduced, k, seed, manifest, restarts, f"pca{r}")


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
    return _cluster_and_score(
        features, embedded, k, seed, manifest, restarts, EMBEDDED_SPACE_TAG
    )
