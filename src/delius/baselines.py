"""Reference clusterings the joint optimisation is compared against.

Both baselines run the same k-means (20 restarts) as the main pipeline;
they differ only in the representation handed to k-means.  Each returns
that representation with its labels, so the caller scores it with the
same evaluation as the pipeline's, under a space tag naming the
representation: a silhouette in a 200-d PCA space is not comparable to
one in the learned embedding.
"""

from __future__ import annotations

import numpy as np

from . import autoencoder
from .dataio import FeatureMatrix
from .kmeans import DEFAULT_RESTARTS, kmeans_fit
from .neural import MlpParams
from .projection import pca_fit, pca_transform
from .rng import Rng

DEFAULT_PCA_DIM = 200


def run_pca_kmeans(
    features: FeatureMatrix,
    k: int,
    r: int = DEFAULT_PCA_DIM,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> tuple[np.ndarray, np.ndarray]:
    """(points, labels): the first r principal components and their k-means labels."""
    reduced = pca_transform(pca_fit(features.values, r), features.values)
    return reduced, kmeans_fit(reduced, k, Rng(seed), restarts=restarts).labels


def run_ae_kmeans(
    features: FeatureMatrix,
    encoder: MlpParams,
    k: int,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> tuple[np.ndarray, np.ndarray]:
    """(points, labels): the encoder's embedding and its k-means labels,
    with no joint optimisation.

    Given the same features, encoder and seed protocol, the labels here
    coincide with the joint optimiser's starting labels.
    """
    embedded = autoencoder.encode(encoder, features)
    return embedded, kmeans_fit(embedded, k, Rng(seed), restarts=restarts).labels
