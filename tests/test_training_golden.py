"""Golden bytes for seeded training runs.

The digests pin the exact checkpoint bytes (every weight, running statistic
and the per-epoch loss history) of short seeded runs at the Stage-1 and
Stage-2 shapes and of a small deep counter. Any change to the order of the
floating-point operations in training shows up here as a new digest, so a
refactor of the training engine that claims bit-identical results is
checked below the benchmark. The values hold for float64 on the
OpenBLAS build that numpy ships with, run on one BLAS thread (a threaded
Stage-1 matmul may round differently); another BLAS may round differently.
"""

import hashlib

import numpy as np
import pytest

from avcount import distreg
from avcount.deepcount import ConvCounterSpec, save_counter, train_counter
from avcount.nn_core import save_model, train
from numeric_checks import one_blas_thread

GOLDEN = {
    "stage1": "5fff2b4f7630d22db0157f88b5a82e15b925795bd27e037f4e0ff68910abfc1a",
    "stage2": "e4805eb02ec50a7024406f860e0320d1ab90a6256d9f7481cd11b73e87cabd55",
    "deep": "7d925760cbbdf2f77c041aaf409c98c495b01f2262f1b3255a8592e802174d1d",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _stage_run(name):
    rng = np.random.default_rng(20)
    if name == "stage1":
        spec = distreg.stage1_spec(input_dim=528, epochs=3, seed=5)
    else:
        spec = distreg.stage2_spec(k=15, epochs=3, seed=6)
    width = spec.layer_sizes[0]
    # 600 rows: two full batches of 256 and a partial one of 88
    x = rng.normal(size=(600, width))
    y = rng.uniform(0.0, 0.75, size=600)
    return train(spec, x, y)


@pytest.mark.parametrize("name", ["stage1", "stage2"])
def test_trained_model_bytes_are_pinned(tmp_path, name):
    with one_blas_thread():
        model = _stage_run(name)
    assert model.spec.l2_factor > 0
    path = tmp_path / f"{name}.ckpt"
    save_model(model, path)
    assert _digest(path) == GOLDEN[name]


def test_trained_counter_bytes_are_pinned(tmp_path):
    rng = np.random.default_rng(21)
    # clips of different lengths, 7 clips in batches of 3 (one partial)
    series = [rng.uniform(0.0, 0.75, size=n) for n in (40, 55, 64, 37, 80, 51, 46)]
    counts = [1, 0, 2, 1, 3, 0, 2]
    spec = ConvCounterSpec(
        conv_layers=((4, 5, 2), (6, 3, 2)), head_sizes=(5,), epochs=4, batch_clips=3, seed=3
    )
    with one_blas_thread():
        counter = train_counter(spec, series, counts)
    path = tmp_path / "deep.ckpt"
    save_counter(counter, path)
    assert _digest(path) == GOLDEN["deep"]
