"""Dense feed-forward networks: forward pass, backprop, Adam, checkpoints.

All math runs in float64.  Layers store weights as (fan_out, fan_in)
with a bias per output unit; supported activations are "relu" and
"identity".  Weights are initialised from N(0, 0.01^2) and biases at
zero, drawn from the package generator so initialisation is
reproducible from the seed alone.

A network's parameters are one list of blocks, w0, b0, w1, b1, ...
(``MlpParams.blocks``); ``backward`` returns one gradient per block in
that order, written into the caller's arrays when it passes them as
``out``, so a training loop reuses one gradient list for every step.
Adam runs over any block list, so a caller that trains more than the
network (the cluster centroids) appends its own blocks and steps them
all under one state.  It updates each block in flat slices of
``ADAM_CHUNK`` elements through two scratch buffers that the state
allocates once: a step allocates nothing the size of a block, and each
element sees the same float operations, in the same order, as a
whole-block update.

Checkpoints use the ``DELC`` container: magic bytes, u16 version, a
length-prefixed JSON preamble describing the network and training
phase, then one length-prefixed float64 little-endian block per weight
and bias in layer order.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .dataio import ByteReader, read_bytes
from .errors import ConfigError, FormatError, NumericError, ShapeError
from .rng import Rng

ACTIVATIONS = ("relu", "identity")

INIT_STD = 0.01

ADAM_CHUNK = 32768  # elements per slice of an Adam step: 256 KB per scratch buffer


@dataclass
class DenseLayer:
    w: np.ndarray
    b: np.ndarray
    activation: str

    @property
    def fan_in(self) -> int:
        return self.w.shape[1]

    @property
    def fan_out(self) -> int:
        return self.w.shape[0]


@dataclass
class MlpParams:
    """An ordered chain of dense layers; output dim of each feeds the next."""

    layers: list[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        for i, layer in enumerate(self.layers):
            if layer.activation not in ACTIVATIONS:
                raise ConfigError(f"layer {i}: unknown activation {layer.activation!r}")
            if layer.w.ndim != 2 or layer.b.ndim != 1:
                raise ShapeError(f"layer {i}: weights must be 2-d and biases 1-d")
            if layer.b.shape[0] != layer.w.shape[0]:
                raise ShapeError(
                    f"layer {i}: bias size {layer.b.shape[0]} does not match "
                    f"fan-out {layer.w.shape[0]}"
                )
            if i > 0 and layer.w.shape[1] != self.layers[i - 1].w.shape[0]:
                raise ShapeError(
                    f"layer {i}: fan-in {layer.w.shape[1]} does not match previous "
                    f"fan-out {self.layers[i - 1].w.shape[0]}"
                )

    def dims(self) -> list[int]:
        return [self.layers[0].fan_in] + [layer.fan_out for layer in self.layers]

    def activations(self) -> list[str]:
        return [layer.activation for layer in self.layers]

    def blocks(self) -> list[np.ndarray]:
        """Every weight and bias array, in layer order: w0, b0, w1, b1, ..."""
        return [block for layer in self.layers for block in (layer.w, layer.b)]

    def block_names(self) -> list[str]:
        return [f"layer{i}.{attr}" for i in range(len(self.layers)) for attr in "wb"]

    def n_params(self) -> int:
        return sum(block.size for block in self.blocks())

    def copy(self) -> "MlpParams":
        return MlpParams(
            layers=[
                DenseLayer(w=layer.w.copy(), b=layer.b.copy(), activation=layer.activation)
                for layer in self.layers
            ]
        )


def init_params(layer_dims: Sequence[int], activations: Sequence[str], rng: Rng) -> MlpParams:
    """Fresh parameters for the given dimension chain."""
    dims = list(layer_dims)
    if len(dims) < 2:
        raise ConfigError("layer_dims needs an input and at least one output size")
    if any(d < 1 for d in dims):
        raise ConfigError(f"all layer sizes must be positive, got {dims}")
    if len(activations) != len(dims) - 1:
        raise ConfigError(
            f"expected {len(dims) - 1} activations for {len(dims)} sizes, "
            f"got {len(activations)}"
        )
    layers = []
    for fan_in, fan_out, act in zip(dims[:-1], dims[1:], activations):
        w = rng.normal((fan_out, fan_in), std=INIT_STD)
        b = np.zeros(fan_out, dtype=np.float64)
        layers.append(DenseLayer(w=w, b=b, activation=act))
    return MlpParams(layers=layers)


def forward(params: MlpParams, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Run the chain on a batch; returns (per-layer outputs, final output).

    The returned list starts with the input batch, so entry i is what
    layer i consumed and the last entry is the network output.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"input batch must be 2-d, got shape {x.shape}")
    if x.shape[1] != params.layers[0].fan_in:
        raise ShapeError(
            f"input width {x.shape[1]} does not match network fan-in "
            f"{params.layers[0].fan_in}"
        )
    acts = [x]
    a = x
    for layer in params.layers:
        z = a @ layer.w.T + layer.b
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
        acts.append(a)
    return acts, a


def backward(
    params: MlpParams,
    acts: list[np.ndarray],
    output_grad: np.ndarray,
    out: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Backpropagate a loss gradient through the chain.

    ``acts`` must come from forward() on the same parameters.  Returns
    one gradient per block of ``params.blocks()``, in that order; the
    gradient with respect to the input batch is not computed.  With
    ``out``, a list of C-ordered float64 arrays shaped like those
    blocks, the gradients are written into it and ``out`` is returned.
    """
    if len(acts) != len(params.layers) + 1:
        raise ShapeError(
            f"expected {len(params.layers) + 1} stored activations, got {len(acts)}"
        )
    output_grad = np.asarray(output_grad, dtype=np.float64)
    if output_grad.shape != acts[-1].shape:
        raise ShapeError(
            f"output grad shape {output_grad.shape} does not match "
            f"output shape {acts[-1].shape}"
        )
    blocks = params.blocks()
    if out is None:
        out = [np.empty(block.shape) for block in blocks]
    elif len(out) != len(blocks) or any(o.shape != b.shape for o, b in zip(out, blocks)):
        raise ShapeError("gradient buffers do not match the parameter blocks")
    g = output_grad
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        if layer.activation == "relu":
            g = g * (acts[i + 1] > 0.0)
        np.matmul(g.T, acts[i], out=out[2 * i])
        np.sum(g, axis=0, out=out[2 * i + 1])
        if i:
            g = g @ layer.w
    return out


def mse_loss(x_recon: np.ndarray, x: np.ndarray) -> float:
    """Squared error summed over coordinates, averaged over rows."""
    x_recon = np.asarray(x_recon, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x_recon.shape != x.shape:
        raise ShapeError(f"shape mismatch {x_recon.shape} vs {x.shape}")
    diff = x_recon - x
    return float(np.sum(diff * diff) / x.shape[0])


def mse_grad(x_recon: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of mse_loss with respect to the reconstruction."""
    if x_recon.shape != x.shape:
        raise ShapeError(f"shape mismatch {x_recon.shape} vs {x.shape}")
    return (2.0 / x.shape[0]) * (x_recon - x)


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def validate(self) -> None:
        if not 0.0 <= self.lr < math.inf:
            raise ConfigError(f"learning rate must be finite and non-negative, got {self.lr}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ConfigError("Adam betas must lie in [0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigError(f"Adam epsilon must be finite and positive, got {self.epsilon}")


@dataclass
class AdamState:
    """First and second moment buffers for a list of parameter blocks,
    and the two scratch buffers a step computes each slice in."""

    config: AdamConfig
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    names: list[str] = field(default_factory=list)
    scratch: tuple[np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK))
    )


def adam_init(blocks: Sequence[np.ndarray], config: AdamConfig, names=None) -> AdamState:
    """Zero moments for a list of parameter blocks, named for error messages."""
    config.validate()
    if names is None:
        names = [f"block{i}" for i in range(len(blocks))]
    return AdamState(
        config=config,
        m=[np.zeros(b.shape) for b in blocks],
        v=[np.zeros(b.shape) for b in blocks],
        names=list(names),
    )


def adam_step_blocks(
    blocks: Sequence[np.ndarray], grads: Sequence[np.ndarray], state: AdamState
) -> None:
    """One Adam update, in place, over parallel parameter and grad lists.

    Every gradient is checked, shape and finiteness, before anything
    moves, so a failed step leaves blocks, moments and ``t`` as they were.
    Each block is updated ``ADAM_CHUNK`` elements at a time in the
    state's scratch buffers, with the float operations of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + epsilon)

    in that order, so the result is the same bits as a whole-block update.
    """
    if len(blocks) != len(state.m) or len(grads) != len(state.m):
        raise ShapeError("parameter, gradient and moment lists differ in length")
    flat_grads = []
    for name, p, g, m in zip(state.names, blocks, grads, state.m):
        if p.shape != g.shape:
            raise ShapeError(f"gradient for {name} has shape {g.shape}, block has {p.shape}")
        if p.shape != m.shape:
            raise ShapeError(f"block {name} has shape {p.shape}, its moments {m.shape}")
        flat = np.ascontiguousarray(g).reshape(-1)
        for start in range(0, flat.size, ADAM_CHUNK):
            if not np.isfinite(flat[start : start + ADAM_CHUNK]).all():
                raise NumericError(f"gradient for {name} is not finite")
        flat_grads.append(flat)
    cfg = state.config
    state.t += 1
    correct1 = 1.0 - cfg.beta1**state.t
    correct2 = 1.0 - cfg.beta2**state.t
    for p, g, m, v in zip(blocks, flat_grads, state.m, state.v):
        flat_p = np.ascontiguousarray(p).reshape(-1)  # a view unless p is strided
        m, v = m.reshape(-1), v.reshape(-1)
        for start in range(0, g.size, ADAM_CHUNK):
            end = min(start + ADAM_CHUNK, g.size)
            s0, s1 = (buf[: end - start] for buf in state.scratch)
            pc, gc, mc, vc = (a[start:end] for a in (flat_p, g, m, v))
            np.multiply(mc, cfg.beta1, out=mc)
            np.multiply(gc, 1.0 - cfg.beta1, out=s0)
            np.add(mc, s0, out=mc)
            np.multiply(vc, cfg.beta2, out=vc)
            np.multiply(gc, gc, out=s0)
            np.multiply(s0, 1.0 - cfg.beta2, out=s0)
            np.add(vc, s0, out=vc)
            np.divide(mc, correct1, out=s0)
            np.multiply(s0, cfg.lr, out=s0)
            np.divide(vc, correct2, out=s1)
            np.sqrt(s1, out=s1)
            np.add(s1, cfg.epsilon, out=s1)
            np.divide(s0, s1, out=s0)
            np.subtract(pc, s0, out=pc)
        if not p.flags.c_contiguous:
            p[...] = flat_p.reshape(p.shape)


def adam_step(params: MlpParams, grads: Sequence[np.ndarray], state: AdamState) -> None:
    """One Adam update over every weight and bias of ``params``, in place."""
    adam_step_blocks(params.blocks(), grads, state)


def minibatches(n: int, batch_size: int, rng: Rng) -> Iterator[np.ndarray]:
    """Row-index batches without end: each epoch is a fresh permutation of
    ``range(n)`` cut into ``batch_size`` pieces, the last one short.  An
    epoch draws its permutation only when its first batch is taken."""
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]


# ---------------------------------------------------------------------------
# checkpoints


_CKPT_MAGIC = b"DELC"
_CKPT_VERSION = 1

PHASES = ("pretrain", "dec")


@dataclass
class Checkpoint:
    params: MlpParams
    seed: int
    phase: str
    epoch: int
    centroids: np.ndarray | None = None


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    if ckpt.phase not in PHASES:
        raise ConfigError(f"unknown training phase {ckpt.phase!r}")
    blocks = list(zip(ckpt.params.block_names(), ckpt.params.blocks()))
    if ckpt.centroids is not None:
        blocks.append(("centroids", np.asarray(ckpt.centroids, dtype=np.float64)))
    preamble = {
        "layer_dims": ckpt.params.dims(),
        "activations": ckpt.params.activations(),
        "seed": int(ckpt.seed),
        "phase": ckpt.phase,
        "epoch": int(ckpt.epoch),
        "blocks": [{"name": name, "shape": list(arr.shape)} for name, arr in blocks],
    }
    raw = json.dumps(preamble, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<H", _CKPT_VERSION))
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        for _, arr in blocks:
            payload = np.ascontiguousarray(arr, dtype="<f8").tobytes(order="C")
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_preamble(path: str, preamble, off: int) -> None:
    """Raise FormatError unless the preamble has the layout save_checkpoint writes."""

    def bad(what: str):
        raise FormatError(f"{path}: preamble at byte offset {off}: {what}")

    if not isinstance(preamble, dict):
        bad(f"expected a JSON object, got {type(preamble).__name__}")
    for key in ("layer_dims", "activations", "seed", "phase", "epoch", "blocks"):
        if key not in preamble:
            bad(f"missing key {key!r}")
    dims, activations = preamble["layer_dims"], preamble["activations"]
    if not isinstance(dims, list) or not all(_is_int(d) and d > 0 for d in dims):
        bad("layer_dims must be a list of positive integers")
    if not isinstance(activations, list) or not all(isinstance(a, str) for a in activations):
        bad("activations must be a list of strings")
    if len(dims) < 2:
        bad("layer_dims needs an input and at least one output size")
    if len(activations) != len(dims) - 1:
        bad(f"{len(activations)} activations for {len(dims)} layer sizes")
    for activation in activations:
        if activation not in ACTIVATIONS:
            bad(f"unknown activation {activation!r}")
    if not _is_int(preamble["seed"]) or not _is_int(preamble["epoch"]):
        bad("seed and epoch must be integers")
    if preamble["phase"] not in PHASES:
        bad(f"unknown training phase {preamble['phase']!r}")
    blocks = preamble["blocks"]
    if not isinstance(blocks, list):
        bad("blocks must be a list")
    for block in blocks:
        if (
            not isinstance(block, dict)
            or not isinstance(block.get("name"), str)
            or not isinstance(block.get("shape"), list)
            or not all(_is_int(d) and d >= 0 for d in block["shape"])
        ):
            bad(f"malformed block entry {block!r}")


def load_checkpoint(path: str) -> Checkpoint:
    reader = ByteReader(read_bytes(path, "checkpoint"), path)
    magic = bytes(reader.take(4, "magic"))
    if magic != _CKPT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte offset 0")
    (version,) = reader.unpack("<H", "version")
    if version != _CKPT_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte offset 4")
    (json_len,) = reader.unpack("<I", "preamble length")
    off = reader.offset
    try:
        preamble = json.loads(bytes(reader.take(json_len, "preamble")).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: unreadable preamble at byte offset {off}: {exc}")
    _check_preamble(path, preamble, off)
    arrays = {}
    for block in preamble["blocks"]:
        (nbytes,) = reader.unpack("<Q", "block length")
        off = reader.offset
        expected = math.prod(block["shape"]) * 8
        if nbytes != expected:
            raise FormatError(
                f"{path}: block {block['name']!r} at byte offset {off} has "
                f"{nbytes} bytes, expected {expected}"
            )
        values = np.frombuffer(reader.take(nbytes, "block payload"), "<f8")
        if not np.isfinite(values).all():
            raise FormatError(
                f"{path}: block {block['name']!r} at byte offset {off} holds non-finite values"
            )
        arrays[block["name"]] = values.astype(np.float64).reshape(block["shape"])
    if reader.remaining:
        raise FormatError(
            f"{path}: {reader.remaining} trailing bytes at byte offset {reader.offset}"
        )
    dims = preamble["layer_dims"]
    activations = preamble["activations"]
    layers = []
    for i in range(len(dims) - 1):
        try:
            w = arrays[f"layer{i}.w"]
            b = arrays[f"layer{i}.b"]
        except KeyError as exc:
            raise FormatError(f"{path}: missing parameter block {exc}")
        if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
            raise FormatError(
                f"{path}: layer {i} blocks have shapes {w.shape} and {b.shape}, "
                f"layer_dims say {dims[i]} -> {dims[i + 1]}"
            )
        layers.append(DenseLayer(w=w, b=b, activation=activations[i]))
    return Checkpoint(
        params=MlpParams(layers=layers),
        seed=int(preamble["seed"]),
        phase=preamble["phase"],
        epoch=int(preamble["epoch"]),
        centroids=arrays.get("centroids"),
    )
