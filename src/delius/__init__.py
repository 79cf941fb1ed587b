"""Deep embedded clustering for high-dimensional feature vectors.

The pipeline pools convolutional feature maps to vectors, pretrains a
symmetric autoencoder on reconstruction, seeds cluster centroids with
k-means in the learned embedding, then jointly refines the encoder and
the centroids against a periodically sharpened target distribution.
Evaluation, baselines, 2-d projection and SVG plotting round out the
toolkit; the ``delius`` command exposes every step.

The names below are loaded on first access (PEP 562), so importing the
package, or ``delius.cli``, loads no numeric library: the command line
caps BLAS threads before numpy starts.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "autoencoder": (
        "AutoencoderSpec PretrainReport build encode encoder_part pretrain"
    ),
    "baselines": "BaselineRun run_ae_kmeans run_pca_kmeans",
    "dataio": (
        "ClusterAssignments FeatureMapBlock FeatureMatrix LabelManifest"
        " global_average_pool labels_for read_assignments read_feature_maps"
        " read_features read_label_manifest stratified_sample write_assignments"
        " write_feature_maps write_features write_label_manifest"
    ),
    "dec": (
        "AssignmentState DecConfig DecHistory DecResult dec_fit kl_grads"
        " kl_loss soft_assign target_distribution"
    ),
    "errors": (
        "ConfigError DataError DegenerateCentroidsError DeliusError FormatError"
        " NumericError ShapeError"
    ),
    "kmeans": "KmeansResult assign kmeans_fit",
    "metrics": "EvalReport calinski_harabasz clustering_accuracy evaluate silhouette",
    "neural": (
        "AdamConfig AdamState Checkpoint DenseLayer MlpParams adam_init adam_step"
        " backward forward init_params load_checkpoint mse_grad mse_loss"
        " numeric_gradient save_checkpoint"
    ),
    "plotting": "DEFAULT_PALETTE ScatterSpec render_scatter",
    "projection": (
        "PcaModel TsneConfig joint_affinities lowdim_gradient pca_fit"
        " pca_inverse pca_transform tsne_embed"
    ),
    "rng": "Rng",
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # ``delius.metrics`` after a bare ``import delius``
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
