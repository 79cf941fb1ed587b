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
import importlib.util

__version__ = "0.1.0"

# The package surface: the names the README's library example uses, the
# reader, writer and container type of every documented format, the error
# classes, and the stage entry points the command line calls, with the
# configs they take.  Kernels and result types import from their modules.
_EXPORTS = {
    "autoencoder": "AutoencoderSpec build encode encoder_part pretrain",
    "baselines": "run_ae_kmeans run_pca_kmeans",
    "dataio": (
        "ClusterAssignments FeatureMapBlock FeatureMatrix LabelManifest"
        " global_average_pool read_assignments read_feature_maps read_features"
        " read_label_manifest read_xy stratified_sample write_assignments"
        " write_feature_maps write_features write_label_manifest write_xy"
    ),
    "dec": "DecConfig dec_fit",
    "errors": (
        "ConfigError DataError DegenerateCentroidsError DeliusError FormatError"
        " NumericError ShapeError"
    ),
    "metrics": "evaluate silhouette",
    "neural": "AdamConfig Checkpoint load_checkpoint save_checkpoint",
    "plotting": "ScatterSpec render_scatter",
    "projection": "TsneConfig pca_fit pca_transform tsne_embed",
    "rng": "Rng",
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # A submodule: ``delius.kmeans`` after a bare ``import delius``.
        if importlib.util.find_spec(f"{__name__}.{name}") is not None:
            return importlib.import_module(f".{name}", __name__)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
