"""Mirrored autoencoder construction and pretraining."""

import copy
import tracemalloc

import numpy as np
import pytest

from delius import autoencoder, neural
from delius.autoencoder import AutoencoderSpec, build, encode, encoder_part, pretrain
from delius.dataio import FeatureMatrix
from delius.errors import ConfigError, NumericError, ShapeError
from delius.neural import AdamConfig
from delius.rng import Rng

from oracles import child_memory, encode_blocks_longhand, traced_peak


def test_default_chain_mirrors_encoder():
    spec = AutoencoderSpec()
    assert spec.chain(1024) == [1024, 500, 500, 2000, 10, 2000, 500, 500, 1024]


def test_tiny_chain():
    spec = AutoencoderSpec(encoder_dims=(2,))
    assert spec.chain(4) == [4, 2, 4]
    assert spec.layer_activations() == ["identity", "identity"]


def test_default_activation_pattern():
    acts = AutoencoderSpec().layer_activations()
    assert len(acts) == 8
    assert acts[3] == "identity"  # bottleneck
    assert acts[7] == "identity"  # reconstruction
    assert all(a == "relu" for i, a in enumerate(acts) if i not in (3, 7))


def test_spec_validation():
    # A spec checks itself when it is built.
    with pytest.raises(ConfigError, match="all layer sizes must be positive"):
        build(AutoencoderSpec(), 0, Rng(0))
    with pytest.raises(ConfigError, match="encoder_dims must be positive"):
        AutoencoderSpec(encoder_dims=())
    with pytest.raises(ConfigError, match="epochs must be at least 1"):
        AutoencoderSpec(epochs=0)
    with pytest.raises(ConfigError, match="batch_size must be at least 1"):
        AutoencoderSpec(batch_size=0)


def test_build_matches_spec_and_is_deterministic():
    spec = AutoencoderSpec(encoder_dims=(5, 2))
    a = build(spec, 8, Rng(3))
    b = build(spec, 8, Rng(3))
    assert a.dims() == [8, 5, 2, 5, 8]
    assert a.activations() == ["relu", "identity", "relu", "identity"]
    for la, lb in zip(a.layers, b.layers):
        assert la.w.tobytes() == lb.w.tobytes()


def test_encoder_part_takes_first_half_sharing_arrays():
    spec = AutoencoderSpec(encoder_dims=(4, 2))
    params = build(spec, 6, Rng(0))
    enc = encoder_part(params)
    assert enc.dims() == [6, 4, 2]
    assert enc.layers[0].w is params.layers[0].w


def test_encoder_part_rejects_non_mirrored():
    plain = neural.init_params([4, 3, 2], ["relu", "identity"], Rng(0))
    with pytest.raises(ConfigError, match="mirrored"):
        encoder_part(plain)


def test_encode_runs_the_given_chain():
    spec = AutoencoderSpec(encoder_dims=(3, 2))
    params = build(spec, 5, Rng(1))
    x = Rng(2).normal((9, 5))
    fm = FeatureMatrix.from_array(x)
    z = encode(encoder_part(params), fm)
    _, z_oracle = neural.forward(encoder_part(params), x)
    assert z.shape == (9, 2)
    assert np.array_equal(z, z_oracle)
    assert np.array_equal(encode(encoder_part(params), x), z_oracle)


def test_encode_palindromic_encoder_runs_whole_chain():
    # 4-3-4 reads the same both ways, yet it is an encoder, not an autoencoder
    encoder = encoder_part(build(AutoencoderSpec(encoder_dims=(3, 4)), 4, Rng(3)))
    assert encoder.dims() == [4, 3, 4]
    x = Rng(4).normal((6, 4))
    assert np.array_equal(encode(encoder, x), neural.forward(encoder, x)[1])


def _frozen_forward_output(params, x):
    # The forward pass as written before layers added their bias and
    # applied relu in place.
    a = np.asarray(x, dtype=np.float64)
    for layer in params.layers:
        z = a @ layer.w.T + layer.b
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return a


def _encoder_with_biases(dims, seed):
    # Built biases are zero; random ones make the bias add count.
    acts = ["relu"] * (len(dims) - 2) + ["identity"]
    params, rng = neural.init_params(dims, acts, Rng(seed)), Rng(seed + 1)
    for layer in params.layers:
        layer.b[:] = rng.normal(layer.b.shape, std=0.01)
    return params


# Up to ENCODE_ROWS rows are one block, and at corpus-wide's shape
# (6000x512 through 512-64-10) the blocks match the whole product too.
@pytest.mark.parametrize(
    "dims, n",
    [
        ([1024, 500, 500, 2000, 10], 300),
        ([7, 5, 3], 1001),
        ([1024, 500, 500, 2000, 10], 1024),
        ([512, 64, 10], 6000),
    ],
)
def test_encode_bit_equal_to_frozen_forward(dims, n):
    params = _encoder_with_biases(dims, 11)
    x = Rng(12).normal((n, dims[0]))
    frozen = _frozen_forward_output(params, x)
    assert encode(params, x).tobytes() == frozen.tobytes()
    assert encode(params, FeatureMatrix.from_array(x)).tobytes() == frozen.tobytes()
    assert neural.forward(params, x)[1].tobytes() == frozen.tobytes()


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3000])
def test_encode_bit_equal_to_block_loop(n):
    params = _encoder_with_biases([1024, 500, 500, 2000, 10], 13)
    x = Rng(14).normal((n, 1024))
    loop = encode_blocks_longhand(params, x, autoencoder.ENCODE_ROWS)
    assert encode(params, x).tobytes() == loop.tobytes()


def test_encode_rejects_what_forward_rejects():
    params = _encoder_with_biases([6, 4, 2], 3)
    with pytest.raises(ShapeError, match="input width 5 does not match network fan-in 6"):
        encode(params, np.zeros((3, 5)))
    with pytest.raises(ShapeError, match="input batch must be 2-d"):
        encode(params, np.zeros(6))


def test_encode_holds_two_layers_at_a_time():
    # Beside its n x (code width) result, encode holds one block's input
    # and output of one layer, so its traced peak stays near 8
    # ENCODE_ROWS (widest adjacent pair of widths) + 8 n (code width)
    # bytes.  A whole-product pass holds 8 n (widest pair): 1.9 times
    # that bound here.
    dims, n = [64, 256, 256, 256, 10], 2000
    params = _encoder_with_biases(dims, 5)
    x = Rng(6).normal((n, dims[0]))
    pair = max(a + b for a, b in zip(dims[1:], dims[2:]))
    bound = 8 * autoencoder.ENCODE_ROWS * pair + 8 * n * dims[-1]
    _, peak = traced_peak(lambda: encode(params, x))
    assert peak < 1.05 * bound, (
        f"traced peak {peak} B is {peak / bound:.2f} x the {bound} B of one block's "
        f"widest two adjacent layers and the result"
    )


def test_encode_memory_bounded_in_the_block_at_corpus_scale():
    # 20,000x1024 through the paper encoder: a whole-product pass holds
    # 20,000 x (500 + 2000) doubles, 400 MB, at the 500->2000 layer.
    # Beside the 1.6 MB result, one block's pair is 20 MB.
    setup = (
        "import numpy as np\n"
        "from delius import neural\n"
        "from delius.autoencoder import encode\n"
        "from delius.rng import Rng\n"
        "params = neural.init_params([1024, 500, 500, 2000, 10],"
        " ['relu'] * 3 + ['identity'], Rng(1))\n"
        "x = np.random.default_rng(2).standard_normal((20000, 1024))"
    )
    before, peak = child_memory(setup, "encode(params, x)")
    assert peak - before <= 64 << 20, (
        f"encode's high-water mark is {(peak - before) / 2**20:.1f} MiB above its input"
    )


def _blob_features(n=96, d=12, seed=5):
    rng = Rng(seed)
    x = rng.normal((n, d))
    return FeatureMatrix.from_array(x)


def test_pretrain_reduces_loss_and_reports_curve():
    spec = AutoencoderSpec(
        encoder_dims=(8, 3), batch_size=32, epochs=40,
        optimizer=AdamConfig(lr=0.005),
    )
    fm = _blob_features()
    params = build(spec, 12, Rng(9))
    params, report = pretrain(params, fm, spec, Rng(9))
    assert len(report.losses) == 40
    assert report.final_loss == report.losses[-1]
    assert report.final_loss < report.losses[0]


def test_pretrain_bitwise_deterministic():
    spec = AutoencoderSpec(encoder_dims=(4,), batch_size=16, epochs=5)
    fm = _blob_features()

    def run():
        params = build(spec, 12, Rng(21))
        return pretrain(params, fm, spec, Rng(21))

    (pa, ra), (pb, rb) = run(), run()
    assert ra.losses == rb.losses
    for la, lb in zip(pa.layers, pb.layers):
        assert la.w.tobytes() == lb.w.tobytes()
        assert la.b.tobytes() == lb.b.tobytes()


def test_pretrain_full_batch_row_permutation_invariant():
    # With every row in one batch the per-step gradient is a mean over
    # all rows, so shuffling the row order changes only float summation
    # order.
    fm = _blob_features(n=24, d=6)
    perm = Rng(77).permutation(24)
    fm_perm = FeatureMatrix.from_array(fm.values[perm])
    spec = AutoencoderSpec(encoder_dims=(3,), batch_size=64, epochs=30)
    _, r1 = pretrain(build(spec, 6, Rng(4)), fm, spec, Rng(5))
    _, r2 = pretrain(build(spec, 6, Rng(4)), fm_perm, spec, Rng(5))
    assert r1.final_loss == pytest.approx(r2.final_loss, abs=1e-6)


def test_pretrain_linear_identity_capacity():
    # A linear bottleneck as wide as the input can learn the identity,
    # so the reconstruction loss should approach zero.
    fm = _blob_features(n=32, d=3, seed=6)
    spec = AutoencoderSpec(
        encoder_dims=(3,), batch_size=32, epochs=800,
        optimizer=AdamConfig(lr=0.01),
    )
    params, report = pretrain(build(spec, 3, Rng(1)), fm, spec, Rng(1))
    assert report.final_loss < 1e-2
    recon = neural.forward(params, fm.values)[1]
    assert float(np.abs(recon - fm.values).max()) < 0.2


def test_pretrain_rejects_width_mismatch():
    spec = AutoencoderSpec(encoder_dims=(2,))
    fm = _blob_features(n=8, d=12)
    with pytest.raises(ShapeError, match="fan-in"):
        pretrain(build(spec, 5, Rng(0)), fm, spec, Rng(0))


def test_pretrain_bit_equal_to_frozen_loop():
    # The loop as written before pretraining and the joint loop shared one
    # batch stream: a fresh permutation per epoch, cut into batches.
    spec = AutoencoderSpec(
        encoder_dims=(6, 3), batch_size=20, epochs=4,
        optimizer=AdamConfig(lr=0.005),
    )
    fm = _blob_features(n=70)  # batches of 20, 20, 20, 10
    rng_new, rng_old = Rng(40), Rng(40)
    params, report = pretrain(build(spec, 12, Rng(41)), fm, spec, rng_new)

    frozen = build(spec, 12, Rng(41))
    state = neural.adam_init(frozen.blocks(), spec.optimizer)
    losses = []
    for _ in range(spec.epochs):
        order, batch_losses = rng_old.permutation(fm.n), []
        for start in range(0, fm.n, spec.batch_size):
            xb = fm.values[order[start : start + spec.batch_size]]
            acts, recon = neural.forward(frozen, xb)
            batch_losses.append(neural.mse_loss(recon, xb))
            grads = neural.backward(frozen, acts, neural.mse_grad(recon, xb))
            neural.adam_step_blocks(frozen.blocks(), grads, state)
        losses.append(float(np.mean(batch_losses)))

    assert [loss.hex() for loss in report.losses] == [loss.hex() for loss in losses]
    for new, old in zip(params.blocks(), frozen.blocks()):
        assert new.tobytes() == old.tobytes()
    assert rng_new.next_u64() == rng_old.next_u64()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_pretrain_nonfinite_raises_before_any_step():
    # Values around 1e200 overflow the squared error of the first batch,
    # so no step runs and the parameters stay as built.
    x = np.full((8, 4), 1e200)
    fm = FeatureMatrix.from_array(x)
    spec = AutoencoderSpec(encoder_dims=(2,), batch_size=8, epochs=3)
    params = build(spec, 4, Rng(0))
    initial = copy.deepcopy(params)
    with pytest.raises(NumericError, match="in epoch 0"):
        pretrain(params, fm, spec, Rng(0))
    for new, old in zip(params.blocks(), initial.blocks()):
        assert new.tobytes() == old.tobytes()


# With an epsilon far above every gradient, Adam is gradient descent with
# step lr / epsilon = 2, under which this linear network diverges
# geometrically: the loss overflows a few epochs in, not at once.  The
# first case overflows on the first batch of epoch 2, the second on the
# last batch of epoch 2, where the last finite-loss step and the end of
# the last completed epoch are three steps apart.
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize(
    "init_seed, shuffle_seed, failed_at", [(1, 2, (2, 0)), (2, 3, (2, 3))],
    ids=["first-batch", "later-batch"],
)
def test_pretrain_nonfinite_leaves_params_at_last_finite_step(
    init_seed, shuffle_seed, failed_at
):
    spec = AutoencoderSpec(
        encoder_dims=(3,), batch_size=10, epochs=30,
        optimizer=AdamConfig(lr=2e250, epsilon=1e250),
    )
    fm = _blob_features(n=40, d=6)  # four batches per epoch
    params = build(spec, 6, Rng(init_seed))
    with pytest.raises(NumericError) as excinfo:
        pretrain(params, fm, spec, Rng(shuffle_seed))

    # A frozen copy of the training loop that halts at the first
    # non-finite loss and also reports where its epoch started.
    def frozen_loop():
        params, rng = build(spec, 6, Rng(init_seed)), Rng(shuffle_seed)
        state = neural.adam_init(params.blocks(), spec.optimizer)
        for epoch in range(spec.epochs):
            epoch_start = copy.deepcopy(params)
            order = rng.permutation(fm.n)
            for batch, start in enumerate(range(0, fm.n, spec.batch_size)):
                xb = fm.values[order[start : start + spec.batch_size]]
                acts, recon = neural.forward(params, xb)
                if not np.isfinite(neural.mse_loss(recon, xb)):
                    return (epoch, batch), params, epoch_start
                grads = neural.backward(params, acts, neural.mse_grad(recon, xb))
                neural.adam_step_blocks(params.blocks(), grads, state)
        raise AssertionError("the frozen loop never diverged")

    position, last_step, epoch_start = frozen_loop()
    assert position == failed_at
    assert f"in epoch {position[0]}" in str(excinfo.value)
    for new, old in zip(params.blocks(), last_step.blocks()):
        assert new.tobytes() == old.tobytes()
    moved = [a.tobytes() != b.tobytes() for a, b in zip(last_step.blocks(), epoch_start.blocks())]
    assert any(moved) == (position[1] > 0)


def test_reconstruction_step_holds_one_copy_of_each_signal():
    # One paper-shape step (batch 256) holds the layer outputs, 13.7 MiB,
    # and beside them at most two 256x2000 signals: the backprop signal,
    # masked in place, and the next one.  Masking into a new array, and
    # the loss's squared-difference temporary, reach 24.1 MiB.
    spec = AutoencoderSpec()
    params = build(spec, 1024, Rng(1))
    xb = Rng(2).normal((spec.batch_size, 1024))
    state = neural.adam_init(params.blocks(), spec.optimizer, params.block_names())
    grads = [np.empty(block.shape) for block in params.blocks()]
    outputs = 8 * spec.batch_size * sum(spec.chain(1024)[1:])
    bound = outputs + 8 * 2 * spec.batch_size * 2000
    _, peak = traced_peak(lambda: autoencoder._reconstruction_step(params, xb, grads, state))
    assert peak <= bound, f"traced peak {peak} B is {peak - outputs} B above the layer outputs"


def test_pretrain_traced_peak_bounded_by_parameter_bytes():
    # The parameters (1.7 MB) outweigh a batch's activations (0.3 MB), so
    # the peak shows what training holds per parameter.  The two Adam
    # moments and the gradients are three parameter-sized arrays and
    # nothing else is parameter-sized: all the rest (activations, Adam's
    # scratch buffers) must stay under one more.  A snapshot of the
    # parameters kept for a failed run reaches 4.7.
    spec = AutoencoderSpec(encoder_dims=(400, 10), batch_size=32, epochs=3)
    fm = FeatureMatrix.from_array(Rng(1).normal((256, 256)))
    params = build(spec, 256, Rng(2))
    param_bytes = 8 * params.n_params()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        pretrain(params, fm, spec, Rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - before < 4 * param_bytes, (
        f"traced peak {peak - before} B is {(peak - before) / param_bytes:.2f} x the "
        f"{param_bytes} B of parameters"
    )


def test_loss_csv_roundtrip(tmp_path):
    spec = AutoencoderSpec(encoder_dims=(2,), batch_size=8, epochs=4)
    fm = _blob_features(n=16, d=6)
    _, report = pretrain(build(spec, 6, Rng(3)), fm, spec, Rng(3))
    path = tmp_path / "loss.csv"
    report.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 5
    for epoch, line in enumerate(lines[1:]):
        e, loss = line.split(",")
        assert int(e) == epoch
        assert float(loss) == report.losses[epoch]
