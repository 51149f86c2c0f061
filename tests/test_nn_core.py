import numpy as np
import pytest

from avcount.dataio import DataError
from avcount.nn_core import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    BatchNormLayer,
    DenseLayer,
    NetworkSpec,
    NumericError,
    _forward_pass,
    forward,
    init_model,
    load_model,
    loss_and_gradients,
    param_views,
    save_model,
    train,
)


def reimplemented_infer(model, x):
    """Straight-line restatement of the infer-mode arithmetic."""
    h = np.array(x, dtype=np.float64)
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        if isinstance(layer, DenseLayer):
            h = h @ layer.weights.T + layer.bias
            if i < last:
                h = np.where(h > 0, h, 0.0)
        else:
            h_hat = (h - layer.running_mean) / np.sqrt(layer.running_var + layer.epsilon)
            h = layer.gamma * h_hat + layer.beta
    return h


def finite_difference_check(model, x, y, step=1e-5, tol=1e-4):
    from numeric_checks import fd_mismatch

    _, grads = loss_and_gradients(model, x, y)
    worst = 0.0
    for li, layer in enumerate(model.layers):
        for name, param in layer.params().items():
            flat = param.ravel()
            g = grads[li][name].ravel()
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + step
                up, _ = loss_and_gradients(model, x, y)
                flat[j] = keep - step
                down, _ = loss_and_gradients(model, x, y)
                flat[j] = keep
                fd = (up - down) / (2 * step)
                worst = max(worst, fd_mismatch(fd, g[j]))
    assert worst < tol, f"worst relative gradient error {worst}"
    return worst


class TestForward:
    def test_zero_parameters_zero_output(self):
        spec = NetworkSpec(layer_sizes=(4, 3, 1), epochs=1)
        model = init_model(spec)
        for layer in model.layers:
            if isinstance(layer, DenseLayer):
                layer.weights = np.zeros_like(layer.weights)
        x = np.random.default_rng(0).normal(size=(5, 4))
        # batch norm of a zero batch stays zero (beta is zero)
        assert np.allclose(forward(model, x), 0.0)
        train_out, _ = _forward_pass(model, x, train_mode=True)
        assert np.allclose(train_out, 0.0)

    def test_identity_dense_layer(self):
        spec = NetworkSpec(layer_sizes=(3, 3), epochs=1)
        model = init_model(spec)
        model.layers[0].weights = np.eye(3)
        model.layers[0].bias = np.zeros(3)
        x = np.random.default_rng(1).normal(size=(7, 3))
        assert np.array_equal(forward(model, x), x)

    def test_infer_matches_reimplementation(self):
        spec = NetworkSpec(layer_sizes=(6, 5, 4, 2), epochs=1, seed=9)
        model = init_model(spec)
        rng = np.random.default_rng(2)
        # non-trivial running statistics
        for layer in model.layers:
            if isinstance(layer, BatchNormLayer):
                layer.running_mean = rng.normal(size=layer.running_mean.shape)
                layer.running_var = rng.uniform(0.5, 2.0, size=layer.running_var.shape)
                layer.gamma = rng.normal(1.0, 0.2, size=layer.gamma.shape)
                layer.beta = rng.normal(size=layer.beta.shape)
        x = rng.normal(size=(11, 6))
        got = forward(model, x)
        want = reimplemented_infer(model, x)
        assert np.allclose(got, want, atol=1e-12, rtol=0)

    def test_shape_mismatch_rejected(self):
        model = init_model(NetworkSpec(layer_sizes=(4, 2), epochs=1))
        with pytest.raises(ValueError):
            forward(model, np.zeros((3, 5)))

    def test_relu_zeroes_negative_preactivations(self):
        spec = NetworkSpec(layer_sizes=(2, 2, 1), epochs=1)
        model = init_model(spec)
        model.layers[0].weights = np.array([[1.0, 0.0], [0.0, 1.0]])
        model.layers[0].bias = np.zeros(2)
        bn = model.layers[1]
        bn.running_mean = np.zeros(2)
        bn.running_var = np.ones(2) - bn.epsilon
        model.layers[2].weights = np.array([[1.0, 1.0]])
        model.layers[2].bias = np.zeros(1)
        out = forward(model, np.array([[-5.0, -3.0]]))
        assert out[0, 0] == 0.0


class TestLossAndGradients:
    def test_zero_loss_when_predictions_match(self):
        spec = NetworkSpec(layer_sizes=(2, 1), l2_factor=0.0, epochs=1)
        model = init_model(spec)
        model.layers[0].weights = np.array([[1.0, 1.0]])
        model.layers[0].bias = np.zeros(1)
        x = np.array([[1.0, 2.0], [0.5, 0.25]])
        y = x.sum(axis=1, keepdims=True)
        loss, grads = loss_and_gradients(model, x, y)
        assert loss == 0.0
        assert np.allclose(grads[0]["weights"], 0.0)
        assert np.allclose(grads[0]["bias"], 0.0)

    def test_mse_hand_value(self):
        # outputs [1, 3] vs targets [0, 0] -> (1 + 9) / 2 = 5
        spec = NetworkSpec(layer_sizes=(1, 1), l2_factor=0.0, epochs=1)
        model = init_model(spec)
        model.layers[0].weights = np.array([[1.0]])
        model.layers[0].bias = np.zeros(1)
        loss, _ = loss_and_gradients(model, np.array([[1.0], [3.0]]), np.zeros((2, 1)))
        assert loss == 5.0

    def test_l2_term_quadruples_when_weights_double(self):
        spec = NetworkSpec(layer_sizes=(3, 2, 1), l2_factor=0.5, epochs=1, seed=4)
        model = init_model(spec)
        x = np.zeros((2, 3))
        y = np.zeros((2, 1))
        for layer in model.layers:  # kill the data term
            if isinstance(layer, DenseLayer):
                layer.bias = np.zeros_like(layer.bias)
        base_reg = 0.5 * sum(
            np.sum(l.weights**2) for l in model.layers if isinstance(l, DenseLayer)
        )
        loss1, _ = loss_and_gradients(model, x, y)
        for layer in model.layers:
            if isinstance(layer, DenseLayer):
                layer.weights = 2.0 * layer.weights
        loss2, _ = loss_and_gradients(model, x, y)
        assert loss1 == pytest.approx(base_reg, rel=1e-12)
        assert loss2 == pytest.approx(4.0 * base_reg, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        spec = NetworkSpec(layer_sizes=(5, 4, 3, 1), l2_factor=1e-3, epochs=1, seed=0)
        model = init_model(spec)
        rng = np.random.default_rng(10)
        finite_difference_check(model, rng.normal(size=(8, 5)), rng.normal(size=(8, 1)))

    def test_l1_gradients_match_finite_differences(self):
        spec = NetworkSpec(layer_sizes=(4, 3, 1), loss="l1", epochs=1, seed=1)
        model = init_model(spec)
        rng = np.random.default_rng(11)
        # offsets keep |.| away from its kink; mixed signs keep the
        # gradient away from the degenerate zero-batch-mean case
        offsets = np.array([[10.0], [-10.0], [10.0], [-10.0], [10.0], [-10.0]])
        finite_difference_check(
            model, rng.normal(size=(6, 4)), rng.normal(size=(6, 1)) + offsets
        )

    def test_relu_gradient_zero_below_kink(self):
        spec = NetworkSpec(layer_sizes=(1, 1, 1), epochs=1)
        model = init_model(spec)
        model.layers[0].weights = np.array([[1.0]])
        model.layers[0].bias = np.array([-10.0])  # always negative preactivation
        _, grads = loss_and_gradients(model, np.array([[1.0]]), np.array([[5.0]]))
        assert np.all(grads[0]["weights"] == 0.0)

    def test_batch_norm_train_mode_normalizes(self):
        layer = BatchNormLayer(3, momentum=0.99, epsilon=1e-3)
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 4.0, size=(500, 3))
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        x_hat = (x - mu) / np.sqrt(var + layer.epsilon)
        assert np.allclose(x_hat.mean(axis=0), 0.0, atol=1e-6)
        # epsilon slightly shrinks the variance below 1
        assert np.allclose(x_hat.var(axis=0), var / (var + layer.epsilon), atol=1e-6)

    def test_target_shape_mismatch_rejected(self):
        model = init_model(NetworkSpec(layer_sizes=(2, 1), epochs=1))
        with pytest.raises(ValueError):
            loss_and_gradients(model, np.zeros((3, 2)), np.zeros((4, 1)))

    def test_non_finite_loss_raises(self):
        model = init_model(NetworkSpec(layer_sizes=(2, 1), epochs=1))
        model.layers[0].weights = np.array([[1e200, 1e200]])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            loss_and_gradients(model, np.full((2, 2), 1e200), np.zeros((2, 1)))


class TestTrain:
    def test_learns_linear_map(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(400, 1))
        y = 2.0 * x
        spec = NetworkSpec(
            layer_sizes=(1, 8, 1), epochs=200, batch_size=64, seed=0, l2_factor=0.0
        )
        model = train(spec, x, y)
        pred = forward(model, x)
        assert np.mean((pred - y) ** 2) < 1e-3

    def test_same_seed_identical_history(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(120, 3))
        y = rng.normal(size=(120, 1))
        spec = NetworkSpec(layer_sizes=(3, 4, 1), epochs=5, batch_size=32, seed=7)
        h1 = train(spec, x, y).train_loss_history
        h2 = train(spec, x, y).train_loss_history
        assert h1 == h2

    def test_stage1_shape_runs_with_paper_l2(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(600, 528))
        y = rng.uniform(0, 0.75, size=(600, 1))
        spec = NetworkSpec(
            layer_sizes=(528, 64, 64, 1), l2_factor=1e-4, epochs=100, batch_size=256, seed=0
        )
        model = train(spec, x, y)
        assert len(model.train_loss_history) == 100
        assert np.isfinite(model.train_loss_history).all()

    def test_validation_history_logged_but_unused(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 2))
        y = rng.normal(size=(100, 1))
        spec = NetworkSpec(layer_sizes=(2, 3, 1), epochs=4, seed=0)
        with_val = train(spec, x, y, x[:20], y[:20])
        without = train(spec, x, y)
        assert len(with_val.val_loss_history) == 4
        # validation data must not influence the fit
        assert with_val.train_loss_history == without.train_loss_history

    def test_empty_training_data_rejected(self):
        spec = NetworkSpec(layer_sizes=(2, 1), epochs=1)
        with pytest.raises(ValueError):
            train(spec, np.zeros((0, 2)), np.zeros((0, 1)))

    def test_divergence_names_epoch_and_batch(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(64, 3))
        y = rng.normal(size=(64, 1))
        # one Adam step moves every weight by about the learning rate
        spec = NetworkSpec(layer_sizes=(3, 4, 1), epochs=3, batch_size=16, learning_rate=1e200)
        with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
            train(spec, x, y)
        assert (info.value.epoch, info.value.batch) == (1, 2)
        assert "at epoch 1, batch 2" in str(info.value)

    def test_running_stats_updated_during_training(self):
        rng = np.random.default_rng(4)
        x = rng.normal(5.0, 2.0, size=(200, 2))
        y = rng.normal(size=(200, 1))
        spec = NetworkSpec(layer_sizes=(2, 3, 1), epochs=3, seed=0)
        model = train(spec, x, y)
        bn = [l for l in model.layers if isinstance(l, BatchNormLayer)][0]
        assert not np.allclose(bn.running_mean, 0.0)


class TestCheckpoint:
    def _trained(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(64, 3))
        y = rng.normal(size=(64, 1))
        spec = NetworkSpec(layer_sizes=(3, 4, 1), epochs=3, batch_size=16, seed=2)
        return train(spec, x, y), x

    def test_round_trip_byte_exact(self, tmp_path):
        model, x = self._trained()
        p1 = tmp_path / "m1.ckpt"
        p2 = tmp_path / "m2.ckpt"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_forward_bitwise_equal(self, tmp_path):
        model, x = self._trained()
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(forward(model, x), forward(back, x))
        assert back.train_loss_history == model.train_loss_history

    def test_corrupted_magic_rejected(self, tmp_path):
        model, _ = self._trained()
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        data[:6] = b"XXXXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(DataError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model, _ = self._trained()
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(DataError):
            load_model(path)

    def test_block_of_wrong_shape_rejected(self, tmp_path):
        from avcount import distreg
        from avcount.nn_core import read_checkpoint, write_checkpoint

        model = init_model(distreg.stage2_spec(k=15, epochs=1))
        path = tmp_path / "stage2.ckpt"
        save_model(model, path)
        kind, spec, blocks = read_checkpoint(path)
        blocks = [(n, np.zeros((31, 7)) if n == "layer0.weights" else a) for n, a in blocks]
        write_checkpoint(path, kind, spec, blocks)
        with pytest.raises(DataError, match=r"'layer0.weights' has shape \(31, 7\), expected \(31, 31\)"):
            load_model(path)

    def test_spec_of_wrong_type_rejected(self, tmp_path):
        from avcount.nn_core import read_checkpoint, write_checkpoint

        model, _ = self._trained()
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        kind, spec, blocks = read_checkpoint(path)
        write_checkpoint(path, kind, {**spec, "epochs": 1.5}, blocks)
        with pytest.raises(DataError, match="epochs"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda spec: {k: v for k, v in spec.items() if k != "bn_epsilon"}, r"missing .*'bn_epsilon'"),
            (lambda spec: {**spec, "dropout": 0.5}, r"unknown .*'dropout'"),
        ],
        ids=["without bn_epsilon", "with dropout"],
    )
    def test_spec_with_missing_or_extra_field_rejected(self, tmp_path, edit, message):
        from avcount.nn_core import read_checkpoint, write_checkpoint

        model, _ = self._trained()
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        kind, spec, blocks = read_checkpoint(path)
        write_checkpoint(path, kind, edit(spec), blocks)
        with pytest.raises(DataError, match=message):
            load_model(path)

    @pytest.mark.parametrize("header", [b"{}", b'{"kind": "dense"}', b"[1]", b'"x"'])
    def test_header_without_kind_and_spec_rejected(self, tmp_path, header):
        import struct

        path = tmp_path / "m.ckpt"
        path.write_bytes(b"AVCNN1" + struct.pack("<I", len(header)) + header + struct.pack("<I", 0))
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize("kind", ["dense", "conv_counter", "feature_stats", "features"])
    def test_every_reader_rejects_another_kind(self, tmp_path, kind):
        from avcount import deepcount, distreg, features
        from avcount.dataio import AudioClip
        from avcount.nn_core import write_checkpoint

        other = "features" if kind == "dense" else "dense"
        path = tmp_path / "stats.bin"  # the name load_pipeline reads
        write_checkpoint(path, other, {}, [("mean", np.zeros(3))])
        save_model(init_model(NetworkSpec(layer_sizes=(3, 1))), tmp_path / "stage1.ckpt")
        save_model(init_model(NetworkSpec(layer_sizes=(3, 1))), tmp_path / "stage2.ckpt")
        (tmp_path / "pipeline.json").write_text("{}")
        clip = AudioClip(samples=np.zeros(8000), sample_rate=44100, id="c")
        read = {
            "dense": lambda: load_model(path),
            "conv_counter": lambda: deepcount.load_counter(path),
            "feature_stats": lambda: distreg.load_pipeline(tmp_path),
            "features": lambda: features.read_feature_cache(path, clip, features.SpectrogramConfig(), 5, 2),
        }[kind]
        with pytest.raises(DataError) as err:
            read()
        assert str(err.value) == f"{path}: checkpoint kind {other!r}, expected {kind!r}"


class TestAdam:
    def test_flat_step_equals_per_array_formula(self):
        """The fused step against the textbook update, block by block."""
        rng = np.random.default_rng(12)
        model = init_model(NetworkSpec(layer_sizes=(6, 5, 3, 1), epochs=1, seed=3))
        adam = Adam(model.layers)
        ref_p = [{k: v.copy() for k, v in layer.params().items()} for layer in model.layers]
        ref_m = [{k: np.zeros_like(v) for k, v in d.items()} for d in ref_p]
        ref_v = [{k: np.zeros_like(v) for k, v in d.items()} for d in ref_p]
        lr = 3e-3
        for t in range(1, 8):
            adam.grad[:] = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=adam.grad.size)
            adam.step(lr)
            c1 = 1.0 - ADAM_BETA1**t
            c2 = 1.0 - ADAM_BETA2**t
            grads = param_views(model.layers, adam.grad)
            for layer, p, m, v, g in zip(model.layers, ref_p, ref_m, ref_v, grads):
                for name in p:
                    m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * g[name]
                    v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * g[name] ** 2
                    p[name] = p[name] - lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)
                    assert np.array_equal(getattr(layer, name), p[name])

    def test_layers_become_views_of_the_flat_vector(self):
        model = init_model(NetworkSpec(layer_sizes=(4, 3, 1), epochs=1, seed=1))
        before = [{k: v.copy() for k, v in layer.params().items()} for layer in model.layers]
        adam = Adam(model.layers)
        assert adam.params.size == sum(
            v.size for layer in model.layers for v in layer.params().values()
        )
        for layer, old in zip(model.layers, before):
            for name, value in layer.params().items():
                assert np.shares_memory(value, adam.params)
                assert np.array_equal(value, old[name])


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(layer_sizes=(4,), epochs=1)
    with pytest.raises(ValueError):
        NetworkSpec(layer_sizes=(4, 1), loss="huber", epochs=1)
    with pytest.raises(ValueError):
        NetworkSpec(layer_sizes=(4, 1), epochs=0)
    with pytest.raises(ValueError):
        NetworkSpec(layer_sizes=(4, 1), epochs=1, l2_factor=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [("epochs", 1.5), ("epochs", True), ("batch_size", "256"), ("seed", 2.0),
     ("learning_rate", "0.001"), ("l2_factor", None), ("layer_sizes", (4.0, 1))],
)
def test_spec_rejects_wrong_types(field, value):
    kwargs = {"layer_sizes": (4, 1), "epochs": 1, field: value}
    with pytest.raises(TypeError):
        NetworkSpec(**kwargs)
