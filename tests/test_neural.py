"""Network forward/backward math, Adam, and checkpoint files."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delius import neural
from delius.errors import ConfigError, FormatError, NumericError, ShapeError
from delius.neural import (
    AdamConfig,
    Checkpoint,
    DenseLayer,
    MlpParams,
    adam_init,
    adam_step,
    adam_step_blocks,
    backward,
    forward,
    init_params,
    load_checkpoint,
    mse_grad,
    mse_loss,
    numeric_gradient,
    save_checkpoint,
)
from delius.rng import Rng


def _net(dims, activations, seed=0):
    return init_params(dims, activations, Rng(seed))


def _loss_of_params(params, x):
    _, out = forward(params, x)
    return mse_loss(out, x)


# ---------------------------------------------------------------------------
# initialisation


def test_init_shapes_and_zero_biases():
    params = _net([4, 3, 2], ["relu", "identity"])
    assert params.dims() == [4, 3, 2]
    assert params.activations() == ["relu", "identity"]
    assert params.layers[0].w.shape == (3, 4)
    assert params.layers[1].w.shape == (2, 3)
    for layer in params.layers:
        assert np.array_equal(layer.b, np.zeros(layer.fan_out))


def test_init_weight_scale():
    params = _net([1000, 1000], ["identity"], seed=42)
    w = params.layers[0].w
    assert abs(float(w.mean())) < 3e-5
    assert abs(float(w.std()) - 0.01) < 2e-4


def test_init_deterministic():
    a = _net([5, 4, 3], ["relu", "identity"], seed=7)
    b = _net([5, 4, 3], ["relu", "identity"], seed=7)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w, lb.w)


def test_init_rejects_bad_chain():
    with pytest.raises(ConfigError):
        init_params([4], ["relu"], Rng(0))
    with pytest.raises(ConfigError):
        init_params([4, 0], ["relu"], Rng(0))
    with pytest.raises(ConfigError):
        init_params([4, 3], ["relu", "relu"], Rng(0))
    with pytest.raises(ConfigError):
        init_params([4, 3], ["tanh"], Rng(0))


def test_params_validate_layer_compatibility():
    good = DenseLayer(w=np.zeros((3, 4)), b=np.zeros(3), activation="relu")
    bad = DenseLayer(w=np.zeros((2, 5)), b=np.zeros(2), activation="relu")
    with pytest.raises(ShapeError, match="fan-in"):
        MlpParams(layers=[good, bad])


def test_n_params_counts_weights_and_biases():
    params = _net([4, 3, 2], ["relu", "identity"])
    assert params.n_params() == (4 * 3 + 3) + (3 * 2 + 2)


# ---------------------------------------------------------------------------
# forward


def test_forward_hand_case_relu_clips():
    # One relu unit fed [2, 3] with weights [1, -1] and bias 0.5:
    # 2 - 3 + 0.5 = -0.5, clipped to 0.
    layer = DenseLayer(w=np.array([[1.0, -1.0]]), b=np.array([0.5]), activation="relu")
    params = MlpParams(layers=[layer])
    acts, out = forward(params, np.array([[2.0, 3.0]]))
    assert out.tolist() == [[0.0]]
    assert len(acts) == 2


def test_forward_identity_chain_matches_matmul_oracle():
    rng = np.random.default_rng(3)
    params = _net([6, 5, 4], ["identity", "identity"], seed=1)
    x = rng.normal(size=(7, 6))
    _, out = forward(params, x)
    expected = x
    for layer in params.layers:
        expected = expected @ layer.w.T + layer.b
    assert np.allclose(out, expected, atol=0, rtol=0)


def test_forward_relu_matches_oracle():
    rng = np.random.default_rng(4)
    params = _net([5, 8, 3], ["relu", "identity"], seed=2)
    for layer in params.layers:
        layer.w[...] = rng.normal(size=layer.w.shape)
        layer.b[...] = rng.normal(size=layer.b.shape)
    x = rng.normal(size=(10, 5))
    _, out = forward(params, x)
    h = np.maximum(x @ params.layers[0].w.T + params.layers[0].b, 0.0)
    expected = h @ params.layers[1].w.T + params.layers[1].b
    assert np.allclose(out, expected, atol=0, rtol=0)


def test_forward_rejects_wrong_width():
    params = _net([4, 2], ["identity"])
    with pytest.raises(ShapeError, match="fan-in"):
        forward(params, np.zeros((3, 5)))


def test_forward_rejects_1d_input():
    params = _net([4, 2], ["identity"])
    with pytest.raises(ShapeError):
        forward(params, np.zeros(4))


# ---------------------------------------------------------------------------
# loss


def test_mse_hand_case():
    # Single row: (1-0)^2 + (2-0)^2 = 5
    assert mse_loss(np.array([[1.0, 2.0]]), np.zeros((1, 2))) == 5.0


def test_mse_averages_over_rows_only():
    x = np.zeros((2, 3))
    recon = np.ones((2, 3))
    # sum of squares is 6, divided by 2 rows
    assert mse_loss(recon, x) == 3.0


def test_mse_zero_on_equal():
    x = np.random.default_rng(0).normal(size=(4, 4))
    assert mse_loss(x, x) == 0.0


def test_mse_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    recon = rng.normal(size=(3, 4))
    grad = mse_grad(recon, x)
    numeric = numeric_gradient(lambda r: mse_loss(r, x), recon.copy())
    assert np.allclose(grad, numeric, atol=1e-7)


# ---------------------------------------------------------------------------
# backward


def _gradcheck(params, x, rel_tol):
    acts, out = forward(params, x)
    grads = backward(params, acts, mse_grad(out, x))
    worst = 0.0
    for i, layer in enumerate(params.layers):
        for attr, analytic in (("w", grads[2 * i]), ("b", grads[2 * i + 1])):
            block = getattr(layer, attr)

            def f(values, attr=attr, layer=layer):
                saved = getattr(layer, attr).copy()
                getattr(layer, attr)[...] = values
                loss = _loss_of_params(params, x)
                getattr(layer, attr)[...] = saved
                return loss

            numeric = numeric_gradient(f, block.copy())
            scale = max(float(np.abs(numeric).max()), 1e-8)
            worst = max(worst, float(np.abs(analytic - numeric).max()) / scale)
    assert worst < rel_tol, f"worst relative gradient error {worst}"


def test_backward_matches_numeric_gradient():
    rng = np.random.default_rng(6)
    params = _net([5, 3, 2, 5], ["relu", "identity", "identity"], seed=3)
    for layer in params.layers:
        layer.w[...] = 0.5 * rng.normal(size=layer.w.shape)
        layer.b[...] = 0.1 * rng.normal(size=layer.b.shape)
    x = rng.normal(size=(4, 5))
    _gradcheck(params, x, rel_tol=1e-6)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 4))
def test_backward_gradcheck_property(seed, depth, width):
    rng = np.random.default_rng(seed)
    dims = [3] + [width + 1] * depth + [3]
    acts = ["relu"] * depth + ["identity"]
    params = _net(dims, acts, seed=seed)
    for layer in params.layers:
        layer.w[...] = 0.7 * rng.normal(size=layer.w.shape)
        layer.b[...] = 0.2 * rng.normal(size=layer.b.shape)
    x = rng.normal(size=(3, 3))
    _gradcheck(params, x, rel_tol=1e-5)


def test_inactive_relu_unit_gets_zero_weight_grad():
    # Large negative bias keeps the unit off for every row, so no
    # gradient can flow into its weights.
    layer0 = DenseLayer(
        w=np.array([[1.0, 1.0], [1.0, 1.0]]),
        b=np.array([-100.0, 0.0]),
        activation="relu",
    )
    layer1 = DenseLayer(w=np.ones((2, 2)), b=np.zeros(2), activation="identity")
    params = MlpParams(layers=[layer0, layer1])
    x = np.abs(np.random.default_rng(7).normal(size=(5, 2)))
    acts, out = forward(params, x)
    grads = backward(params, acts, mse_grad(out, x))
    assert np.array_equal(grads[0][0], [0.0, 0.0])
    assert grads[1][0] == 0.0
    assert np.abs(grads[0][1]).sum() > 0


def test_backward_out_bit_equal_and_returned():
    params = _net([7, 5, 3, 5, 7], ["relu", "identity", "relu", "identity"], seed=4)
    x = Rng(5).normal((9, 7))
    acts, out = forward(params, x)
    grad = mse_grad(out, x)
    # The backward pass as written before it took ``out``.
    frozen, g = [None] * (2 * len(params.layers)), grad
    for i in range(len(params.layers) - 1, -1, -1):
        if params.layers[i].activation == "relu":
            g = g * (acts[i + 1] > 0.0)
        frozen[2 * i : 2 * i + 2] = g.T @ acts[i], g.sum(axis=0)
        if i:
            g = g @ params.layers[i].w
    bufs = [np.full(block.shape, np.nan) for block in params.blocks()]
    assert backward(params, acts, grad, out=bufs) is bufs
    for fresh, written, old in zip(backward(params, acts, grad), bufs, frozen):
        assert fresh.tobytes() == old.tobytes()
        assert written.tobytes() == old.tobytes()


def test_backward_rejects_mismatched_out():
    params = _net([4, 3, 4], ["relu", "identity"])
    x = Rng(1).normal((5, 4))
    acts, out = forward(params, x)
    bufs = [np.empty(block.shape) for block in params.blocks()]
    with pytest.raises(ShapeError):
        backward(params, acts, mse_grad(out, x), out=bufs[:-1])
    with pytest.raises(ShapeError):
        backward(params, acts, mse_grad(out, x), out=bufs[:-1] + [np.empty(5)])


def test_backward_rejects_wrong_activation_count():
    params = _net([3, 2], ["identity"])
    acts, out = forward(params, np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        backward(params, acts[:1], np.zeros_like(out))


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_has_unit_scale():
    # With bias correction the first step is lr * g / (|g| + eps), so a
    # parameter with any non-zero gradient moves by almost exactly lr.
    p = np.array([1.0, 2.0, 3.0])
    g = np.array([0.5, -2.0, 10.0])
    state = adam_init([p], AdamConfig(lr=0.1))
    adam_step_blocks([p], [g], state)
    expected = np.array([1.0, 2.0, 3.0]) - 0.1 * np.sign(g)
    assert np.allclose(p, expected, atol=1e-6)
    assert state.t == 1


def test_adam_two_steps_match_reference_recurrence():
    # Oracle: the textbook recurrence written out longhand.
    cfg = AdamConfig(lr=0.01, beta1=0.9, beta2=0.999, epsilon=1e-8)
    p = np.array([0.5])
    gradients = [np.array([0.3]), np.array([-0.2])]
    m = v = 0.0
    expected = 0.5
    for t, g in enumerate(gradients, start=1):
        m = 0.9 * m + 0.1 * float(g[0])
        v = 0.999 * v + 0.001 * float(g[0]) ** 2
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        expected -= 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
    state = adam_init([p], cfg)
    for g in gradients:
        adam_step_blocks([p], [g], state)
    assert p[0] == pytest.approx(expected, abs=1e-15)


def test_adam_zero_lr_freezes_params_but_advances():
    p = np.array([1.0])
    state = adam_init([p], AdamConfig(lr=0.0))
    adam_step_blocks([p], [np.array([5.0])], state)
    assert p[0] == 1.0
    assert state.t == 1
    assert state.m[0][0] != 0.0


def test_adam_nonfinite_gradient_raises_before_mutation():
    p = np.array([1.0, 2.0])
    state = adam_init([p], AdamConfig(), names=["weights"])
    with pytest.raises(NumericError, match="weights"):
        adam_step_blocks([p], [np.array([1.0, np.nan])], state)
    assert np.array_equal(p, [1.0, 2.0])
    assert state.t == 0


def test_adam_partial_nonfinite_leaves_all_blocks_untouched():
    a, b = np.array([1.0]), np.array([2.0])
    state = adam_init([a, b], AdamConfig())
    with pytest.raises(NumericError):
        adam_step_blocks([a, b], [np.array([1.0]), np.array([np.inf])], state)
    assert a[0] == 1.0 and b[0] == 2.0


def test_adam_shape_mismatch():
    p = np.array([1.0, 2.0])
    state = adam_init([p], AdamConfig())
    with pytest.raises(ShapeError):
        adam_step_blocks([p], [np.array([1.0])], state)


def test_adam_shape_mismatch_leaves_all_blocks_untouched():
    # The bad gradient comes second: the first block, the moments and the
    # step count must not have moved when the error is raised.
    a, b = np.array([1.0]), np.array([2.0, 3.0])
    state = adam_init([a, b], AdamConfig(), names=["first", "second"])
    with pytest.raises(ShapeError, match="second"):
        adam_step_blocks([a, b], [np.array([1.0]), np.array([1.0])], state)
    assert a[0] == 1.0 and np.array_equal(b, [2.0, 3.0])
    assert state.t == 0
    assert not state.m[0].any() and not state.v[0].any()


def _frozen_adam_step(blocks, grads, state):
    """Adam's whole-block update as written before it ran in chunks."""
    cfg = state["config"]
    state["t"] += 1
    correct1 = 1.0 - cfg.beta1 ** state["t"]
    correct2 = 1.0 - cfg.beta2 ** state["t"]
    for p, g, m, v in zip(blocks, grads, state["m"], state["v"]):
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        p -= cfg.lr * (m / correct1) / (np.sqrt(v / correct2) + cfg.epsilon)


def _block_shape(size, ndim):
    if ndim == 1:
        return (size,)
    if size == 0:
        return (0, 3)
    rows = max(d for d in range(1, int(size**0.5) + 1) if size % d == 0)
    return (rows, size // rows)


@pytest.mark.parametrize("ndim", [1, 2])
def test_adam_chunked_step_bit_equal_to_frozen_whole_block_step(ndim):
    c = neural.ADAM_CHUNK
    shapes = [_block_shape(size, ndim) for size in (0, 1, c - 1, c, c + 1, 3 * c + 5)]
    rng = np.random.default_rng(ndim)
    # In 2-d every other block is Fortran-ordered: its flat slices are a copy.
    blocks = [rng.normal(size=shape) for shape in shapes]
    if ndim == 2:
        blocks[1::2] = [np.asfortranarray(block) for block in blocks[1::2]]
    frozen_blocks = [block.copy(order="K") for block in blocks]
    cfg = AdamConfig(lr=0.003)
    state = adam_init(blocks, cfg)
    frozen = {
        "config": cfg, "t": 0,
        "m": [np.zeros(shape) for shape in shapes], "v": [np.zeros(shape) for shape in shapes],
    }
    for step in range(5):
        # Gradients over many magnitudes, with exact zeros in every other step.
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 7), size=shape) for shape in shapes]
        if step % 2:
            for g in grads:
                g.reshape(-1)[::7] = 0.0
        adam_step_blocks(blocks, grads, state)
        _frozen_adam_step(frozen_blocks, grads, frozen)
        assert state.t == frozen["t"]
        for got, want in [*zip(blocks, frozen_blocks), *zip(state.m, frozen["m"]),
                          *zip(state.v, frozen["v"])]:
            assert got.tobytes() == want.tobytes()


def test_minibatches_draw_each_epoch_when_first_taken():
    rng, reference = Rng(3), Rng(3)
    batches = neural.minibatches(5, 2, rng)
    for _ in range(3):
        order = reference.permutation(5).tolist()
        assert [next(batches).tolist() for _ in range(3)] == [order[0:2], order[2:4], order[4:]]
    # Three whole epochs taken: the fourth permutation is not drawn yet.
    assert rng.next_u64() == reference.next_u64()


def test_blocks_and_names_in_layer_order():
    params = _net([4, 3, 2], ["relu", "identity"])
    blocks = params.blocks()
    assert params.block_names() == ["layer0.w", "layer0.b", "layer1.w", "layer1.b"]
    assert blocks[0] is params.layers[0].w and blocks[3] is params.layers[1].b
    assert params.n_params() == sum(block.size for block in blocks)


def test_adam_over_network_params_deterministic():
    def run():
        params = _net([4, 3, 4], ["relu", "identity"], seed=11)
        state = adam_init(params.blocks(), AdamConfig(lr=0.01), params.block_names())
        x = Rng(12).normal((6, 4))
        for _ in range(20):
            acts, out = forward(params, x)
            grads = backward(params, acts, mse_grad(out, x))
            adam_step(params, grads, state)
        return params

    a, b = run(), run()
    for la, lb in zip(a.layers, b.layers):
        assert la.w.tobytes() == lb.w.tobytes()
        assert la.b.tobytes() == lb.b.tobytes()


def test_adam_reduces_quadratic_loss():
    p = np.array([10.0])
    state = adam_init([p], AdamConfig(lr=0.1))
    for _ in range(500):
        adam_step_blocks([p], [2.0 * p], state)
    assert abs(p[0]) < 0.5


def test_adam_config_validation():
    with pytest.raises(ConfigError):
        adam_init([np.zeros(1)], AdamConfig(lr=-1.0))
    with pytest.raises(ConfigError):
        adam_init([np.zeros(1)], AdamConfig(beta1=1.0))
    with pytest.raises(ConfigError):
        adam_init([np.zeros(1)], AdamConfig(epsilon=0.0))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = _net([4, 3, 2, 3, 4], ["relu", "relu", "relu", "identity"], seed=13)
    centroids = Rng(14).normal((5, 2))
    ckpt = Checkpoint(params=params, seed=99, phase="dec", epoch=7, centroids=centroids)
    path = str(tmp_path / "model.delc")
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.seed == 99
    assert back.phase == "dec"
    assert back.epoch == 7
    assert back.centroids.tobytes() == centroids.tobytes()
    assert back.params.dims() == params.dims()
    assert back.params.activations() == params.activations()
    for la, lb in zip(params.layers, back.params.layers):
        assert la.w.tobytes() == lb.w.tobytes()
        assert la.b.tobytes() == lb.b.tobytes()


def test_checkpoint_without_centroids(tmp_path):
    params = _net([3, 2], ["identity"], seed=0)
    path = str(tmp_path / "model.delc")
    save_checkpoint(path, Checkpoint(params=params, seed=1, phase="pretrain", epoch=200))
    back = load_checkpoint(path)
    assert back.centroids is None
    assert back.phase == "pretrain"


def test_checkpoint_rejects_unknown_phase(tmp_path):
    params = _net([3, 2], ["identity"], seed=0)
    with pytest.raises(ConfigError):
        save_checkpoint(
            str(tmp_path / "x.delc"),
            Checkpoint(params=params, seed=0, phase="finetune", epoch=0),
        )


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "x.delc"
    path.write_bytes(b"JUNKxxxx")
    with pytest.raises(FormatError, match="byte offset 0"):
        load_checkpoint(str(path))


def test_checkpoint_truncation_detected(tmp_path):
    params = _net([3, 2], ["identity"], seed=0)
    path = str(tmp_path / "x.delc")
    save_checkpoint(path, Checkpoint(params=params, seed=0, phase="pretrain", epoch=1))
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-4])
    with pytest.raises(FormatError, match="byte offset"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_detected(tmp_path):
    params = _net([3, 2], ["identity"], seed=0)
    path = str(tmp_path / "x.delc")
    save_checkpoint(path, Checkpoint(params=params, seed=0, phase="pretrain", epoch=1))
    with open(path, "ab") as fh:
        fh.write(b"\x00\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="gone.delc"):
        load_checkpoint(str(tmp_path / "gone.delc"))


def _rewrite_preamble(path, edit):
    """Replace the JSON preamble of the checkpoint at ``path`` by ``edit(preamble)``."""
    data = open(path, "rb").read()
    (length,) = struct.unpack("<I", data[6:10])
    preamble = edit(json.loads(data[10 : 10 + length]))
    raw = json.dumps(preamble).encode("utf-8")
    open(path, "wb").write(data[:6] + struct.pack("<I", len(raw)) + raw + data[10 + length :])


def _without(key):
    def edit(preamble):
        del preamble[key]
        return preamble

    return edit


def _bad_shape(preamble):
    preamble["blocks"][0]["shape"] = "3x2"
    return preamble


def _bad_phase(preamble):
    preamble["phase"] = "zzz"
    return preamble


def _one_size(preamble):
    preamble["layer_dims"], preamble["activations"] = [3], []
    return preamble


@pytest.mark.parametrize(
    "edit",
    [lambda p: {}, lambda p: [], _without("epoch"), _bad_shape, _bad_phase, _one_size],
    ids=["empty-object", "list", "missing-key", "shape-type", "unknown-phase", "one-size"],
)
def test_checkpoint_malformed_preamble_rejected(tmp_path, edit):
    params = _net([3, 2], ["identity"], seed=0)
    path = str(tmp_path / "x.delc")
    save_checkpoint(path, Checkpoint(params=params, seed=0, phase="pretrain", epoch=1))
    _rewrite_preamble(path, edit)
    with pytest.raises(FormatError, match="preamble at byte offset 10"):
        load_checkpoint(path)


def _save_848(tmp_path):
    path = str(tmp_path / "x.delc")
    params = _net([8, 4, 8], ["relu", "identity"], seed=0)
    save_checkpoint(path, Checkpoint(params=params, seed=0, phase="pretrain", epoch=1))
    return path


def test_checkpoint_layer_dims_must_match_block_shapes(tmp_path):
    path = _save_848(tmp_path)

    def edit(preamble):
        preamble["layer_dims"] = [9, 5, 7]  # the blocks hold an 8-4-8 chain
        return preamble

    _rewrite_preamble(path, edit)
    with pytest.raises(FormatError, match=r"layer 0 blocks have shapes \(4, 8\) and \(4,\)"):
        load_checkpoint(path)


def test_checkpoint_non_finite_block_rejected(tmp_path):
    path = _save_848(tmp_path)
    data = bytearray(open(path, "rb").read())
    (length,) = struct.unpack("<I", data[6:10])
    first_weight = 10 + length + 8  # past the preamble and layer0.w's length field
    data[first_weight : first_weight + 8] = struct.pack("<d", float("nan"))
    open(path, "wb").write(bytes(data))
    with pytest.raises(FormatError, match=f"'layer0.w' at byte offset {first_weight} holds non-finite"):
        load_checkpoint(path)


def test_checkpoint_unknown_activation_rejected(tmp_path):
    path = _save_848(tmp_path)

    def edit(preamble):
        preamble["activations"] = ["tanh", "identity"]
        return preamble

    _rewrite_preamble(path, edit)
    with pytest.raises(FormatError, match="preamble at byte offset 10: unknown activation 'tanh'"):
        load_checkpoint(path)
