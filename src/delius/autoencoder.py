"""Symmetric autoencoder construction, reconstruction pretraining, encoding.

The network mirrors the encoder sizes around the bottleneck, so an
encoder chain d -> 500 -> 500 -> 2000 -> 10 yields the full chain
d-500-500-2000-10-2000-500-500-d.  Hidden layers use relu; the
bottleneck layer and the final reconstruction layer are linear.  After
pretraining only the encoder half is kept for clustering.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import neural
from .dataio import FeatureMatrix, _csv_writer
from .errors import ConfigError, NumericError
from .neural import AdamConfig, MlpParams
from .rng import Rng


@dataclass(frozen=True)
class AutoencoderSpec:
    input_dim: int = 1024
    encoder_dims: tuple[int, ...] = (500, 500, 2000, 10)
    batch_size: int = 256
    epochs: int = 200
    optimizer: AdamConfig = field(default_factory=AdamConfig)

    def validate(self) -> None:
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be positive, got {self.input_dim}")
        if not self.encoder_dims or any(d < 1 for d in self.encoder_dims):
            raise ConfigError(f"encoder_dims must be positive, got {self.encoder_dims}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        self.optimizer.validate()

    @property
    def latent_dim(self) -> int:
        return self.encoder_dims[-1]

    def chain(self) -> list[int]:
        enc = list(self.encoder_dims)
        return [self.input_dim] + enc + enc[-2::-1] + [self.input_dim]

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
    wall_time_s: float
    seed: int

    def write_csv(self, path: str) -> None:
        with _csv_writer(path) as writer:
            writer.writerow(["epoch", "loss"])
            for epoch, loss in enumerate(self.losses):
                writer.writerow([str(epoch), repr(loss)])


def build(spec: AutoencoderSpec, rng: Rng) -> MlpParams:
    """Initialise the mirrored autoencoder for the given layout."""
    spec.validate()
    return neural.init_params(spec.chain(), spec.layer_activations(), rng)


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
    whose sizes happen to read the same both ways (8-4-8).
    """
    x = features.values if isinstance(features, FeatureMatrix) else np.asarray(features)
    _, out = neural.forward(params, x)
    return out


def _reconstruction_step(
    params: MlpParams, xb: np.ndarray, grads: list[np.ndarray], state: neural.AdamState
) -> float:
    """One Adam step on a batch's reconstruction loss, which it returns.

    A non-finite loss is returned before anything moves.  The batch's
    activations die with the call, before the next batch's forward pass.
    """
    acts, recon = neural.forward(params, xb)
    loss = neural.mse_loss(recon, xb)
    if np.isfinite(loss):
        neural.backward(params, acts, neural.mse_grad(recon, xb), out=grads)
        neural.adam_step(params, grads, state)
    return loss


def pretrain(
    params: MlpParams, features: FeatureMatrix, spec: AutoencoderSpec, rng: Rng
) -> tuple[MlpParams, PretrainReport]:
    """Train the autoencoder to reconstruct its input.

    Runs epochs * ceil(n / batch_size) optimizer steps, reshuffling the
    rows each epoch and using the final short batch.  The reported loss
    per epoch is the mean of that epoch's batch losses.  Parameters are
    updated in place and also returned.  A non-finite loss aborts with a
    NumericError carrying the parameters from the last completed epoch
    in its ``last_good`` attribute.
    """
    spec.validate()
    x = features.values
    if x.shape[1] != spec.input_dim:
        raise ConfigError(
            f"features have {x.shape[1]} columns but the configured input width is {spec.input_dim}"
        )
    started = time.monotonic()
    state = neural.adam_init(params.blocks(), spec.optimizer, params.block_names())
    grads = [np.empty(block.shape) for block in params.blocks()]
    batches = neural.minibatches(features.n, spec.batch_size, rng)
    losses: list[float] = []
    last_good = params.copy()
    for epoch in range(spec.epochs):
        batch_losses = []
        for idx in itertools.islice(batches, math.ceil(features.n / spec.batch_size)):
            loss = _reconstruction_step(params, x[idx], grads, state)
            if not np.isfinite(loss):
                err = NumericError(
                    f"reconstruction loss became non-finite in epoch {epoch}"
                )
                err.last_good = last_good
                raise err
            batch_losses.append(loss)
        losses.append(float(np.mean(batch_losses)))
        if epoch + 1 < spec.epochs:
            for kept, block in zip(last_good.blocks(), params.blocks()):
                np.copyto(kept, block)
    report = PretrainReport(
        losses=losses,
        final_loss=losses[-1],
        wall_time_s=time.monotonic() - started,
        seed=rng.seed,
    )
    return params, report
