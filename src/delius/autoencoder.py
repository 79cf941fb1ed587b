"""Symmetric autoencoder construction, reconstruction pretraining, encoding.

The network mirrors the encoder sizes around the bottleneck, so an
encoder chain d -> 500 -> 500 -> 2000 -> 10 yields the full chain
d-500-500-2000-10-2000-500-500-d.  Hidden layers use relu; the
bottleneck layer and the final reconstruction layer are linear.  After
pretraining only the encoder half is kept for clustering.  Pretraining
stops at the first non-finite batch loss, before that step moves anything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import neural
from .dataio import FeatureMatrix, _csv_writer
from .errors import ConfigError, NumericError
from .neural import AdamConfig, MlpParams
from .rng import Rng

ENCODE_ROWS = 1024  # rows per block of a full-data encode: a constant, never set from n or threads


@dataclass(frozen=True)
class AutoencoderSpec:
    encoder_dims: tuple[int, ...] = (500, 500, 2000, 10)
    batch_size: int = 256
    epochs: int = 200
    optimizer: AdamConfig = field(default_factory=AdamConfig)

    def __post_init__(self) -> None:
        if not self.encoder_dims or any(d < 1 for d in self.encoder_dims):
            raise ConfigError(f"encoder_dims must be positive, got {self.encoder_dims}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")

    def chain(self, width: int) -> list[int]:
        enc = list(self.encoder_dims)
        return [width] + enc + enc[-2::-1] + [width]

    def layer_activations(self) -> list[str]:
        n_layers = 2 * len(self.encoder_dims)
        acts = ["relu"] * n_layers
        acts[len(self.encoder_dims) - 1] = "identity"  # bottleneck stays linear
        acts[-1] = "identity"  # reconstruction stays linear
        return acts


@dataclass
class PretrainReport:
    losses: list[float]
    final_loss: float

    def write_csv(self, path: str) -> None:
        with _csv_writer(path) as writer:
            writer.writerow(["epoch", "loss"])
            for epoch, loss in enumerate(self.losses):
                writer.writerow([str(epoch), repr(loss)])


def build(spec: AutoencoderSpec, width: int, rng: Rng) -> MlpParams:
    """Initialise the mirrored autoencoder for ``width``-wide features."""
    return neural.init_params(spec.chain(width), spec.layer_activations(), rng)


def encoder_part(params: MlpParams) -> MlpParams:
    """The encoder half of a mirrored autoencoder (shared arrays, not copies)."""
    dims = params.dims()
    if len(params.layers) % 2 != 0 or dims != dims[::-1]:
        raise ConfigError(
            "parameters are not a mirrored autoencoder; cannot take the encoder half"
        )
    half = len(params.layers) // 2
    return MlpParams(layers=params.layers[:half])


def encode(params: MlpParams, features) -> np.ndarray:
    """Map features through an encoder chain, every layer of it.

    Pass ``encoder_part(params)`` to embed with a full autoencoder: the
    layer sizes alone cannot tell a mirrored autoencoder from an encoder
    whose sizes happen to read the same both ways (8-4-8).  The rows run
    through the chain in blocks of ``ENCODE_ROWS``, each block's code
    written into one n x (code width) result, so beside that result it
    holds one block's input and output of one layer at a time, whatever
    n is.  Up to ``ENCODE_ROWS`` rows are one block, the whole product.
    """
    x = features.values if isinstance(features, FeatureMatrix) else features
    # The first item layer_outputs yields is its checked float64 input.
    x = next(neural.layer_outputs(params, x))
    z = np.empty((x.shape[0], params.layers[-1].fan_out))
    for start in range(0, x.shape[0], ENCODE_ROWS):
        for out in neural.layer_outputs(params, x[start : start + ENCODE_ROWS]):
            pass
        z[start : start + ENCODE_ROWS] = out
    return z


def _reconstruction_step(
    params: MlpParams, xb: np.ndarray, grads: list[np.ndarray], state: neural.AdamState
) -> float:
    """One Adam step on a batch's reconstruction loss, which it returns.

    A non-finite loss is returned before anything moves.  The batch's
    activations die with the call, before the next batch's forward pass;
    the reconstruction is held only as the last of them.
    """
    acts = neural.forward(params, xb)[0]
    loss = neural.mse_loss(acts[-1], xb)
    if np.isfinite(loss):
        neural.backward(params, acts, neural.mse_grad(acts[-1], xb), out=grads)
        neural.adam_step(params, grads, state)
    return loss


def pretrain(
    params: MlpParams, features: FeatureMatrix, spec: AutoencoderSpec, rng: Rng
) -> tuple[MlpParams, PretrainReport]:
    """Train the autoencoder to reconstruct its input.

    Runs epochs * ceil(n / batch_size) optimizer steps, reshuffling the
    rows each epoch and using the final short batch.  The reported loss
    per epoch is the mean of that epoch's batch losses.  Parameters are
    updated in place and also returned.  A non-finite batch loss raises
    a NumericError naming its epoch before that step moves anything, so
    ``params`` hold the parameters after the last finite-loss step.
    """
    x = features.values
    state = neural.adam_init(params.blocks(), spec.optimizer, params.block_names())
    grads = [np.empty(block.shape) for block in params.blocks()]
    batches = neural.minibatches(features.n, spec.batch_size, rng)
    losses: list[float] = []
    for epoch in range(spec.epochs):
        batch_losses = []
        for idx in itertools.islice(batches, math.ceil(features.n / spec.batch_size)):
            loss = _reconstruction_step(params, x[idx], grads, state)
            if not np.isfinite(loss):
                raise NumericError(f"reconstruction loss became non-finite in epoch {epoch}")
            batch_losses.append(loss)
        losses.append(float(np.mean(batch_losses)))
    return params, PretrainReport(losses=losses, final_loss=losses[-1])
