import inspect

import numpy as np
import pytest

from avcount import parallel
from avcount.dataio import DataError
from avcount.deepcount import (
    ConvCounterSpec,
    conv_forward,
    init_counter,
    load_counter,
    loss_and_gradients,
    predict_count,
    save_counter,
    train_counter,
)


def naive_forward(counter, series):
    """Direct-summation restatement: explicit loops, no stride tricks."""
    x = np.asarray(series, dtype=np.float64)[None, :]
    for layer in counter.convs:
        c_out, c_in, k = layer.weights.shape
        s = layer.stride
        n = x.shape[1]
        out_len = -(-n // s)
        pad_total = max((out_len - 1) * s + k - n, 0)
        left = pad_total // 2
        xp = np.empty((c_in, n + pad_total))
        for c in range(c_in):
            xp[c] = np.concatenate(
                [np.full(left, x[c, 0]), x[c], np.full(pad_total - left, x[c, -1])]
            )
        y = np.zeros((c_out, out_len))
        for o in range(c_out):
            for j in range(out_len):
                acc = layer.bias[o]
                for ci in range(c_in):
                    for t in range(k):
                        acc += layer.weights[o, ci, t] * xp[ci, j * s + t]
                y[o, j] = acc
        x = np.maximum(y, 0.0)
    h = x.mean(axis=1)
    for i, layer in enumerate(counter.head):
        h = layer.weights @ h + layer.bias
        if i < len(counter.head) - 1:
            h = np.maximum(h, 0.0)
    return float(h[0])


SMALL = ConvCounterSpec(conv_layers=((3, 5, 2), (4, 3, 2)), epochs=2, seed=0)


class TestConvForward:
    def test_zero_weight_network_outputs_final_bias(self):
        counter = init_counter(SMALL)
        for layer in counter.convs:
            layer.weights = np.zeros_like(layer.weights)
        for layer in counter.head:
            layer.weights = np.zeros_like(layer.weights)
        counter.head[-1].bias = np.array([2.5])
        assert conv_forward(counter, np.random.default_rng(0).normal(size=50)) == 2.5

    def test_constant_input_is_length_invariant(self):
        # powers of two keep the pooled averages exact in float
        counter = init_counter(ConvCounterSpec(conv_layers=((4, 7, 2), (4, 7, 2)), epochs=1, seed=1))
        a = conv_forward(counter, np.full(128, 0.4))
        b = conv_forward(counter, np.full(256, 0.4))
        assert a == b

    def test_matches_naive_convolution_oracle(self):
        rng = np.random.default_rng(2)
        for seed in range(3):
            spec = ConvCounterSpec(
                conv_layers=((3, 5, 2), (2, 3, 1), (4, 3, 3)),
                head_sizes=(5,),
                epochs=1,
                seed=seed,
            )
            counter = init_counter(spec)
            series = rng.normal(size=int(rng.integers(20, 80)))
            got = conv_forward(counter, series)
            want = naive_forward(counter, series)
            assert got == pytest.approx(want, abs=1e-12)

    def test_variable_lengths_accepted(self):
        counter = init_counter(SMALL)
        for n in (5, 17, 54, 540):
            assert np.isfinite(conv_forward(counter, np.random.default_rng(n).normal(size=n)))

    def test_too_short_series_rejected(self):
        counter = init_counter(SMALL)
        with pytest.raises(ValueError):
            conv_forward(counter, np.zeros(3))


class TestGradients:
    def test_match_finite_differences(self):
        rng = np.random.default_rng(3)
        spec = ConvCounterSpec(
            conv_layers=((3, 5, 2), (4, 3, 2)), head_sizes=(4,), loss="l2", epochs=1, seed=5
        )
        counter = init_counter(spec)
        series = [rng.normal(size=40), rng.normal(size=60)]
        counts = [2.0, 3.0]
        from numeric_checks import fd_mismatch

        _, grads = loss_and_gradients(counter, series, counts)
        step = 1e-5
        worst = 0.0
        for li, layer in enumerate(counter.layers):
            for name, param in layer.params().items():
                flat = param.ravel()
                g = grads[li][name].ravel()
                for j in range(flat.size):
                    keep = flat[j]
                    flat[j] = keep + step
                    up, _ = loss_and_gradients(counter, series, counts)
                    flat[j] = keep - step
                    down, _ = loss_and_gradients(counter, series, counts)
                    flat[j] = keep
                    fd = (up - down) / (2 * step)
                    worst = max(worst, fd_mismatch(fd, g[j]))
        assert worst < 1e-4, f"worst relative gradient error {worst}"

    def test_l1_loss_value(self):
        counter = init_counter(SMALL)
        raw = conv_forward(counter, np.ones(30))
        loss, _ = loss_and_gradients(counter, [np.ones(30)], [raw + 2.0])
        assert loss == pytest.approx(2.0)


class TestTraining:
    def test_constant_count_fit(self):
        rng = np.random.default_rng(4)
        series = [np.clip(0.75 - np.abs(rng.normal(0, 0.3, 60)), 0, 0.75) for _ in range(12)]
        spec = ConvCounterSpec(
            conv_layers=((4, 5, 2), (4, 3, 2)), loss="l2", epochs=150,
            batch_clips=4, learning_rate=3e-3, seed=0,
        )
        counter = train_counter(spec, series, [3.0] * 12)
        preds = [conv_forward(counter, s) for s in series]
        assert np.allclose(preds, 3.0, atol=0.35)
        assert all(predict_count(counter, s) == 3 for s in series)

    @pytest.mark.parametrize("loss", ["l1", "l2"])
    def test_both_losses_runnable(self, loss):
        rng = np.random.default_rng(5)
        series = [rng.uniform(0, 0.75, 40) for _ in range(6)]
        spec = ConvCounterSpec(conv_layers=((3, 5, 2),), loss=loss, epochs=3, seed=1)
        counter = train_counter(spec, series, [1, 2, 0, 3, 1, 2])
        assert len(counter.train_loss_history) == 3

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(6)
        series = [rng.uniform(0, 1, 50) for _ in range(5)]
        counts = [1, 0, 2, 1, 3]
        spec = ConvCounterSpec(conv_layers=((3, 5, 2),), epochs=4, seed=9)
        h1 = train_counter(spec, series, counts).train_loss_history
        h2 = train_counter(spec, series, counts).train_loss_history
        assert h1 == h2

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            train_counter(SMALL, [np.zeros(30)], [-1])


class TestPredictCount:
    def _fixed_output(self, value):
        counter = init_counter(SMALL)
        for layer in counter.convs:
            layer.weights = np.zeros_like(layer.weights)
        for layer in counter.head:
            layer.weights = np.zeros_like(layer.weights)
        counter.head[-1].bias = np.array([value])
        return counter

    def test_round_half_up(self):
        assert predict_count(self._fixed_output(2.4), np.zeros(30)) == 2
        assert predict_count(self._fixed_output(2.5), np.zeros(30)) == 3

    def test_negative_floored_at_zero(self):
        assert predict_count(self._fixed_output(-0.3), np.zeros(30)) == 0
        assert predict_count(self._fixed_output(-5.0), np.zeros(30)) == 0

    def test_integer_and_nonnegative_always(self):
        rng = np.random.default_rng(7)
        counter = init_counter(SMALL)
        for _ in range(20):
            n = predict_count(counter, rng.normal(size=int(rng.integers(10, 100))))
            assert isinstance(n, int) and n >= 0

    def test_never_consumes_a_detection_threshold(self):
        # structural: the deep counting API has no t_det anywhere
        assert "t_det" not in inspect.signature(predict_count).parameters
        assert "t_det" not in inspect.signature(conv_forward).parameters
        assert "t_det" not in inspect.signature(train_counter).parameters
        assert "t_det" not in {f.name for f in ConvCounterSpec.__dataclass_fields__.values()}


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        series = [rng.uniform(0, 1, 40) for _ in range(4)]
        counter = train_counter(
            ConvCounterSpec(conv_layers=((3, 5, 2),), head_sizes=(4,), epochs=2, seed=3),
            series,
            [1, 2, 0, 1],
        )
        path = tmp_path / "deep.ckpt"
        save_counter(counter, path)
        back = load_counter(path)
        x = rng.normal(size=60)
        assert conv_forward(back, x) == conv_forward(counter, x)
        assert back.train_loss_history == counter.train_loss_history

    def test_block_of_wrong_shape_rejected(self, tmp_path):
        from avcount import nn_core

        counter = init_counter(ConvCounterSpec(conv_layers=((3, 5, 2),), head_sizes=(4,), epochs=1))
        path = tmp_path / "deep.ckpt"
        save_counter(counter, path)
        kind, spec, blocks = nn_core.read_checkpoint(path)
        blocks = [(n, np.zeros((3, 1, 7)) if n == "conv0.weights" else a) for n, a in blocks]
        nn_core.write_checkpoint(path, kind, spec, blocks)
        with pytest.raises(DataError, match=r"'conv0.weights' has shape \(3, 1, 7\), expected \(3, 1, 5\)"):
            load_counter(path)

    @pytest.mark.parametrize("field", ["head_sizes", "seed"])
    def test_spec_without_field_rejected(self, tmp_path, field):
        from avcount import nn_core

        path = tmp_path / "deep.ckpt"
        save_counter(init_counter(ConvCounterSpec(conv_layers=((3, 5, 2),), epochs=1)), path)
        kind, spec, blocks = nn_core.read_checkpoint(path)
        del spec[field]
        nn_core.write_checkpoint(path, kind, spec, blocks)
        with pytest.raises(DataError, match=f"missing .*'{field}'"):
            load_counter(path)

    def test_wrong_kind_rejected(self, tmp_path):
        from avcount import nn_core

        spec = nn_core.NetworkSpec(layer_sizes=(2, 1), epochs=1)
        model = nn_core.init_model(spec)
        path = tmp_path / "dense.ckpt"
        nn_core.save_model(model, path)
        with pytest.raises(DataError):
            load_counter(path)


def test_divergence_names_epoch_and_batch(cores):
    from avcount.nn_core import NumericError

    rng = np.random.default_rng(6)
    series = [rng.uniform(0, 0.75, size=40) for _ in range(6)]
    spec = ConvCounterSpec(
        conv_layers=((3, 5, 2),), loss="l2", epochs=3, batch_clips=2, learning_rate=1e200
    )
    pool = cores(2)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
        train_counter(spec, series, [1, 2, 0, 1, 1, 3])
    assert (info.value.epoch, info.value.batch) == (1, 2)
    assert "at epoch 1, batch 2" in str(info.value)
    assert pool.submitted == 0  # training borrows no helpers
    assert parallel._idle == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        ConvCounterSpec(conv_layers=())
    with pytest.raises(ValueError):
        ConvCounterSpec(conv_layers=((4, 6, 2),))  # even kernel
    with pytest.raises(ValueError):
        ConvCounterSpec(conv_layers=((4, 5, 2),), loss="huber")
