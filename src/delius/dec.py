"""Joint embedding and centroid optimisation against a sharpened target.

Soft assignments use a Student-t kernel with one degree of freedom:
q_ij is the normalised inverse of (1 + squared distance) between an
embedded point and each centroid.  The target distribution squares the
soft assignments, normalises per cluster frequency, and renormalises
rows, which pushes each row toward its dominant cluster.  Training
minimises KL(target || soft) with the target held fixed between
periodic full-data refreshes; each refresh also checks how many hard
assignments changed and stops once the changed fraction drops below
delta.  The decoder plays no part here: only the encoder chain and the
centroids are updated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autoencoder, neural
from .dataio import FeatureMatrix, _csv_writer
from .distance import sq_distances
from .errors import ConfigError, DegenerateCentroidsError, NumericError, ShapeError
from .kmeans import kmeans_fit
from .neural import AdamConfig, MlpParams
from .rng import Rng

_CENTROID_SEPARATION_SQ = 1e-24  # squared distance under which centroids coincide


@dataclass(frozen=True)
class DecConfig:
    k: int
    update_interval: int = 140
    delta: float = 0.001
    batch_size: int = 256
    optimizer: AdamConfig = field(default_factory=AdamConfig)
    max_iterations: int = 20000
    kmeans_restarts: int = 20

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigError(f"k must be at least 2 for cluster training, got {self.k}")
        if self.update_interval < 1:
            raise ConfigError(
                f"update_interval must be at least 1, got {self.update_interval}"
            )
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError(f"delta must lie in (0, 1], got {self.delta}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be non-negative, got {self.max_iterations}")
        if self.kmeans_restarts < 1:
            raise ConfigError(f"kmeans_restarts must be at least 1, got {self.kmeans_restarts}")


@dataclass
class AssignmentState:
    """Full-data assignment snapshot from the most recent refresh, with
    the embedded points ``z`` it was computed from."""

    z: np.ndarray
    q: np.ndarray
    p: np.ndarray
    hard: np.ndarray
    last_hard: np.ndarray | None
    iteration: int


@dataclass
class RefreshRecord:
    refresh_index: int
    iteration: int
    kl_full: float
    kl_fresh: float
    changed_fraction: float | None


@dataclass
class DecHistory:
    records: list[RefreshRecord]
    converged: bool
    iterations_run: int
    initial_labels: np.ndarray

    def write_csv(self, path: str) -> None:
        with _csv_writer(path) as writer:
            writer.writerow(["refresh_index", "iter", "kl_full", "changed_fraction"])
            for rec in self.records:
                changed = "" if rec.changed_fraction is None else repr(rec.changed_fraction)
                writer.writerow(
                    [str(rec.refresh_index), str(rec.iteration), repr(rec.kl_full), changed]
                )


@dataclass
class DecResult:
    encoder: MlpParams
    centroids: np.ndarray
    state: AssignmentState
    history: DecHistory


def _check_centroids(mu: np.ndarray) -> np.ndarray:
    mu = np.ascontiguousarray(mu, dtype=np.float64)
    if mu.ndim != 2:
        raise ShapeError(f"centroids must be 2-d, got shape {mu.shape}")
    if not np.isfinite(mu).all():
        raise NumericError("centroids contain non-finite values")
    sq = sq_distances(mu, mu)
    np.fill_diagonal(sq, np.inf)
    if sq.min() < _CENTROID_SEPARATION_SQ:
        a, b = np.unravel_index(int(np.argmin(sq)), sq.shape)
        raise DegenerateCentroidsError(
            f"centroids {a} and {b} coincide; soft assignments are ill-defined"
        )
    return mu


def _student_t(z: np.ndarray, mu: np.ndarray):
    """(z, mu, w, q) for checked points and centroids: the Student-t kernel
    ``w = 1 / (1 + |z_i - mu_j|^2)`` and its rows normalised to sum to 1."""
    z = np.ascontiguousarray(z, dtype=np.float64)
    mu = _check_centroids(mu)
    if z.ndim != 2 or z.shape[1] != mu.shape[1]:
        raise ShapeError(
            f"embedded points {z.shape} do not match centroids {mu.shape}"
        )
    w = 1.0 / (1.0 + sq_distances(z, mu))
    return z, mu, w, w / w.sum(axis=1, keepdims=True)


def soft_assign(z: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Student-t soft assignment rows; each row sums to 1."""
    return _student_t(z, mu)[3]


def target_distribution(q: np.ndarray) -> np.ndarray:
    """Sharpened assignment target: square, balance by cluster mass, renormalise."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2:
        raise ShapeError(f"soft assignments must be 2-d, got shape {q.shape}")
    freq = q.sum(axis=0)
    if freq.min() < 1e-300:
        j = int(np.argmin(freq))
        raise NumericError(
            f"cluster {j} has vanishing soft mass; target distribution is undefined"
        )
    weighted = q * q / freq
    return weighted / weighted.sum(axis=1, keepdims=True)


def kl_loss(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) summed over rows, with 0 * log(0 / q) taken as 0."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ShapeError(f"shape mismatch {p.shape} vs {q.shape}")
    mask = p > 0.0
    if (q[mask] <= 0.0).any():
        raise NumericError("kl_loss is infinite: q is zero where p has mass")
    terms = np.zeros_like(p)
    terms[mask] = p[mask] * np.log(p[mask] / q[mask])
    return float(terms.sum())


def kl_grads(z: np.ndarray, mu: np.ndarray, p: np.ndarray):
    """Analytic gradients of kl_loss(p, soft_assign(z, mu)) w.r.t. z and mu.

    grad_z[i] = 2 * sum_j w_ij (p_ij - q_ij) (z_i - mu_j)
    grad_mu[j] = 2 * sum_i w_ij (q_ij - p_ij) (z_i - mu_j)

    where w_ij is the unnormalised Student-t kernel.  The target p is
    treated as a constant.
    """
    z, mu, w, q = _student_t(z, mu)
    p = np.ascontiguousarray(p, dtype=np.float64)
    if p.shape != (z.shape[0], mu.shape[0]):
        raise ShapeError(
            f"target shape {p.shape} does not match ({z.shape[0]}, {mu.shape[0]})"
        )
    coef = 2.0 * w * (p - q)
    diff = z[:, None, :] - mu[None, :, :]
    grad_z = np.einsum("nk,nkm->nm", coef, diff)
    grad_mu = -np.einsum("nk,nkm->km", coef, diff)
    return grad_z, grad_mu


def _changed_fraction(hard: np.ndarray, last_hard: np.ndarray) -> float:
    return float(np.mean(hard != last_hard))


def _joint_step(
    encoder_params: MlpParams,
    blocks: list[np.ndarray],
    xb: np.ndarray,
    pb: np.ndarray,
    grads: list[np.ndarray],
    opt: neural.AdamState,
) -> None:
    """One Adam step of the encoder and the centroids (``blocks[-1]``) on
    a batch's KL loss, with the encoder's gradients written into
    ``grads``.  The batch's activations die with the call."""
    acts, zb = neural.forward(encoder_params, xb)
    grad_z, grad_mu = kl_grads(zb, blocks[-1], pb)
    nb = xb.shape[0]
    grad_z /= nb
    grad_mu /= nb
    neural.backward(encoder_params, acts, grad_z, out=grads)
    neural.adam_step_blocks(blocks, grads + [grad_mu], opt)


def dec_fit(
    features: FeatureMatrix, encoder_params: MlpParams, config: DecConfig, rng: Rng
) -> DecResult:
    """Run the joint optimisation loop until assignments settle.

    Centroids start from the best of ``kmeans_restarts`` k-means runs on
    the encoded data.  Every ``update_interval`` minibatch steps the
    target is rebuilt from all rows and the changed-assignment fraction
    is tested against delta; the first refresh only records the starting
    labels.  The encoder blocks and the centroids step together under
    one Adam state; the encoder is updated in place.  Minibatch gradients
    are averaged over the batch rows so the learning rate does not depend
    on the batch size.
    """
    x = features.values
    z = autoencoder.encode(encoder_params, x)
    km = kmeans_fit(z, config.k, rng, restarts=config.kmeans_restarts)
    mu = km.centroids.copy()

    blocks = encoder_params.blocks() + [mu]
    opt = neural.adam_init(blocks, config.optimizer, encoder_params.block_names() + ["centroids"])
    grads = [np.empty(block.shape) for block in blocks[:-1]]
    batches = neural.minibatches(features.n, config.batch_size, rng)

    records: list[RefreshRecord] = []
    p_full: np.ndarray | None = None
    last_hard: np.ndarray | None = None
    iteration = 0
    while True:
        q = soft_assign(z, mu)
        hard = np.argmax(q, axis=1).astype(np.int64)
        p_new = target_distribution(q)
        kl_fresh = kl_loss(p_new, q)
        changed = None if last_hard is None else _changed_fraction(hard, last_hard)
        records.append(
            RefreshRecord(
                refresh_index=len(records),
                iteration=iteration,
                kl_full=kl_fresh if p_full is None else kl_loss(p_full, q),
                kl_fresh=kl_fresh,
                changed_fraction=changed,
            )
        )
        state = AssignmentState(
            z=z, q=q, p=p_new, hard=hard, last_hard=last_hard, iteration=iteration
        )
        # Only a refresh on a window boundary can converge: one forced by
        # the cap mid-window just snapshots the final parameters.
        converged = (changed is not None and changed < config.delta
                     and iteration % config.update_interval == 0)
        p_full, last_hard = p_new, hard
        if converged or iteration >= config.max_iterations:
            break
        for _ in range(min(config.update_interval, config.max_iterations - iteration)):
            idx = next(batches)
            _joint_step(encoder_params, blocks, x[idx], p_full[idx], grads, opt)
            iteration += 1
        z = autoencoder.encode(encoder_params, x)

    history = DecHistory(
        records=records,
        converged=converged,
        iterations_run=iteration,
        initial_labels=km.labels,
    )
    return DecResult(encoder=encoder_params, centroids=mu, state=state, history=history)
