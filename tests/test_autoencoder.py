"""Mirrored autoencoder construction and pretraining."""

import tracemalloc

import numpy as np
import pytest

from delius import autoencoder, neural
from delius.autoencoder import AutoencoderSpec, build, encode, encoder_part, pretrain
from delius.dataio import FeatureMatrix
from delius.errors import ConfigError, NumericError
from delius.neural import AdamConfig
from delius.rng import Rng


def test_default_chain_mirrors_encoder():
    spec = AutoencoderSpec()
    assert spec.chain() == [1024, 500, 500, 2000, 10, 2000, 500, 500, 1024]
    assert spec.latent_dim == 10


def test_tiny_chain():
    spec = AutoencoderSpec(input_dim=4, encoder_dims=(2,))
    assert spec.chain() == [4, 2, 4]
    assert spec.layer_activations() == ["identity", "identity"]


def test_default_activation_pattern():
    acts = AutoencoderSpec().layer_activations()
    assert len(acts) == 8
    assert acts[3] == "identity"  # bottleneck
    assert acts[7] == "identity"  # reconstruction
    assert all(a == "relu" for i, a in enumerate(acts) if i not in (3, 7))


def test_spec_validation():
    with pytest.raises(ConfigError):
        AutoencoderSpec(input_dim=0).validate()
    with pytest.raises(ConfigError):
        AutoencoderSpec(encoder_dims=()).validate()
    with pytest.raises(ConfigError):
        AutoencoderSpec(epochs=0).validate()
    with pytest.raises(ConfigError):
        AutoencoderSpec(batch_size=0).validate()


def test_build_matches_spec_and_is_deterministic():
    spec = AutoencoderSpec(input_dim=8, encoder_dims=(5, 2))
    a = build(spec, Rng(3))
    b = build(spec, Rng(3))
    assert a.dims() == [8, 5, 2, 5, 8]
    assert a.activations() == ["relu", "identity", "relu", "identity"]
    for la, lb in zip(a.layers, b.layers):
        assert la.w.tobytes() == lb.w.tobytes()


def test_encoder_part_takes_first_half_sharing_arrays():
    spec = AutoencoderSpec(input_dim=6, encoder_dims=(4, 2))
    params = build(spec, Rng(0))
    enc = encoder_part(params)
    assert enc.dims() == [6, 4, 2]
    assert enc.layers[0].w is params.layers[0].w


def test_encoder_part_rejects_non_mirrored():
    plain = neural.init_params([4, 3, 2], ["relu", "identity"], Rng(0))
    with pytest.raises(ConfigError, match="mirrored"):
        encoder_part(plain)


def test_encode_runs_the_given_chain():
    spec = AutoencoderSpec(input_dim=5, encoder_dims=(3, 2))
    params = build(spec, Rng(1))
    x = Rng(2).normal((9, 5))
    fm = FeatureMatrix.from_array(x)
    z = encode(encoder_part(params), fm)
    _, z_oracle = neural.forward(encoder_part(params), x)
    assert z.shape == (9, 2)
    assert np.array_equal(z, z_oracle)
    assert np.array_equal(encode(encoder_part(params), x), z_oracle)


def test_encode_palindromic_encoder_runs_whole_chain():
    # 4-3-4 reads the same both ways, yet it is an encoder, not an autoencoder
    encoder = encoder_part(build(AutoencoderSpec(input_dim=4, encoder_dims=(3, 4)), Rng(3)))
    assert encoder.dims() == [4, 3, 4]
    x = Rng(4).normal((6, 4))
    assert np.array_equal(encode(encoder, x), neural.forward(encoder, x)[1])


def _blob_features(n=96, d=12, seed=5):
    rng = Rng(seed)
    x = rng.normal((n, d))
    return FeatureMatrix.from_array(x)


def test_pretrain_reduces_loss_and_reports_curve():
    spec = AutoencoderSpec(
        input_dim=12, encoder_dims=(8, 3), batch_size=32, epochs=40,
        optimizer=AdamConfig(lr=0.005),
    )
    fm = _blob_features()
    params = build(spec, Rng(9))
    params, report = pretrain(params, fm, spec, Rng(9))
    assert len(report.losses) == 40
    assert report.final_loss == report.losses[-1]
    assert report.final_loss < report.losses[0]
    assert report.wall_time_s >= 0.0


def test_pretrain_bitwise_deterministic():
    spec = AutoencoderSpec(input_dim=12, encoder_dims=(4,), batch_size=16, epochs=5)
    fm = _blob_features()

    def run():
        params = build(spec, Rng(21))
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
    spec = AutoencoderSpec(input_dim=6, encoder_dims=(3,), batch_size=64, epochs=30)
    _, r1 = pretrain(build(spec, Rng(4)), fm, spec, Rng(5))
    _, r2 = pretrain(build(spec, Rng(4)), fm_perm, spec, Rng(5))
    assert r1.final_loss == pytest.approx(r2.final_loss, abs=1e-6)


def test_pretrain_linear_identity_capacity():
    # A linear bottleneck as wide as the input can learn the identity,
    # so the reconstruction loss should approach zero.
    fm = _blob_features(n=32, d=3, seed=6)
    spec = AutoencoderSpec(
        input_dim=3, encoder_dims=(3,), batch_size=32, epochs=800,
        optimizer=AdamConfig(lr=0.01),
    )
    params, report = pretrain(build(spec, Rng(1)), fm, spec, Rng(1))
    assert report.final_loss < 1e-2
    recon = neural.forward(params, fm.values)[1]
    assert float(np.abs(recon - fm.values).max()) < 0.2


def test_pretrain_rejects_width_mismatch():
    spec = AutoencoderSpec(input_dim=5, encoder_dims=(2,))
    fm = _blob_features(n=8, d=12)
    with pytest.raises(ConfigError, match="columns"):
        pretrain(build(spec, Rng(0)), fm, spec, Rng(0))


def test_pretrain_bit_equal_to_frozen_loop():
    # The loop as written before pretraining and the joint loop shared one
    # batch stream: a fresh permutation per epoch, cut into batches.
    spec = AutoencoderSpec(
        input_dim=12, encoder_dims=(6, 3), batch_size=20, epochs=4,
        optimizer=AdamConfig(lr=0.005),
    )
    fm = _blob_features(n=70)  # batches of 20, 20, 20, 10
    rng_new, rng_old = Rng(40), Rng(40)
    params, report = pretrain(build(spec, Rng(41)), fm, spec, rng_new)

    frozen = build(spec, Rng(41))
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
def test_pretrain_nonfinite_aborts_with_last_good():
    # Values around 1e200 overflow the squared error immediately.
    x = np.full((8, 4), 1e200)
    fm = FeatureMatrix.from_array(x)
    spec = AutoencoderSpec(input_dim=4, encoder_dims=(2,), batch_size=8, epochs=3)
    params = build(spec, Rng(0))
    initial = params.copy()
    with pytest.raises(NumericError) as excinfo:
        pretrain(params, fm, spec, Rng(0))
    last_good = excinfo.value.last_good
    for la, lb in zip(last_good.layers, initial.layers):
        assert np.array_equal(la.w, lb.w)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_pretrain_last_good_is_the_last_completed_epoch():
    # With an epsilon far above every gradient, Adam is gradient descent
    # with step lr / epsilon = 2, under which this linear network diverges
    # geometrically: the loss overflows a few epochs in, not at once.
    spec = AutoencoderSpec(
        input_dim=6, encoder_dims=(3,), batch_size=10, epochs=30,
        optimizer=AdamConfig(lr=2e250, epsilon=1e250),
    )
    fm = _blob_features(n=40, d=6)  # four batches per epoch
    with pytest.raises(NumericError) as excinfo:
        pretrain(build(spec, Rng(1)), fm, spec, Rng(2))

    # The loop as written when every epoch end took a fresh copy.
    def frozen_loop():
        params, rng = build(spec, Rng(1)), Rng(2)
        state = neural.adam_init(params.blocks(), spec.optimizer)
        last_good = params.copy()
        for epoch in range(spec.epochs):
            order = rng.permutation(fm.n)
            for start in range(0, fm.n, spec.batch_size):
                xb = fm.values[order[start : start + spec.batch_size]]
                acts, recon = neural.forward(params, xb)
                if not np.isfinite(neural.mse_loss(recon, xb)):
                    return epoch, last_good
                grads = neural.backward(params, acts, neural.mse_grad(recon, xb))
                neural.adam_step_blocks(params.blocks(), grads, state)
            last_good = params.copy()
        raise AssertionError("the frozen loop never diverged")

    failed_epoch, last_good = frozen_loop()
    assert failed_epoch >= 1
    assert f"in epoch {failed_epoch}" in str(excinfo.value)
    for new, old in zip(excinfo.value.last_good.blocks(), last_good.blocks()):
        assert new.tobytes() == old.tobytes()


def test_pretrain_traced_peak_bounded_by_parameter_bytes():
    # The parameters (1.7 MB) outweigh a batch's activations (0.3 MB), so
    # the peak shows what training holds per parameter.  The two Adam
    # moments, the gradients and last_good are four parameter-sized
    # arrays; all the rest (activations, Adam's scratch buffers) must stay
    # under one more.  Keeping two steps' gradients alive, a fresh copy for
    # last_good and whole-block Adam temporaries together reach 5.6.
    spec = AutoencoderSpec(input_dim=256, encoder_dims=(400, 10), batch_size=32, epochs=3)
    fm = FeatureMatrix.from_array(Rng(1).normal((256, 256)))
    params = build(spec, Rng(2))
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
    assert peak - before < 5 * param_bytes, (
        f"traced peak {peak - before} B is {(peak - before) / param_bytes:.2f} x the "
        f"{param_bytes} B of parameters"
    )


def test_loss_csv_roundtrip(tmp_path):
    spec = AutoencoderSpec(input_dim=6, encoder_dims=(2,), batch_size=8, epochs=4)
    fm = _blob_features(n=16, d=6)
    _, report = pretrain(build(spec, Rng(3)), fm, spec, Rng(3))
    path = tmp_path / "loss.csv"
    report.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 5
    for epoch, line in enumerate(lines[1:]):
        e, loss = line.split(",")
        assert int(e) == epoch
        assert float(loss) == report.losses[epoch]
