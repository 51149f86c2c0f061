import hashlib
import multiprocessing
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from avcount import features, parallel
from avcount.cli import main
from avcount.dataio import AudioClip
from avcount.features import SpectrogramConfig, extract_features, n_frames_for, stft_power
from avcount.synthgen import SceneSpec, generate_corpus
from numeric_checks import blas_thread_count

CFG = SpectrogramConfig()


def noise(n, seed=0):
    return AudioClip(np.random.default_rng(seed).uniform(-0.3, 0.3, n), 44100, "noise")


def serial_power(clip, cfg):
    with parallel.hold(parallel._cores):
        return stft_power(clip, cfg)


def n_blocks(clip, cfg):
    runs = features._frame_runs(clip.samples, cfg, n_frames_for(clip.samples.size, cfg.hop))
    return sum(-(-len(frames) // features._BLOCK_FRAMES) for _, frames in runs)


# 20 s clip; 3 blocks plus 5 frames; shorter than one window with 250 frames
CASES = [(882000, CFG), ((64 * 3 + 5 - 1) * CFG.hop + 1, CFG), (4000, SpectrogramConfig(hop=16))]


@pytest.mark.parametrize("helpers", [0, 1, 2, 3])
@pytest.mark.parametrize("n,cfg", CASES)
def test_stft_bytes_do_not_depend_on_helpers(helpers, n, cfg, cores):
    clip = noise(n, seed=n)
    want = serial_power(clip, cfg)
    pool = cores(helpers + 1)
    for _ in range(3):
        assert np.array_equal(stft_power(clip, cfg), want)
    assert pool.submitted == 3 * min(helpers, n_blocks(clip, cfg) - 1)
    assert parallel._idle == helpers


def test_extract_features_bytes_do_not_depend_on_helpers(cores):
    clip = noise(882000, seed=5)
    cores(1)
    want = extract_features(clip, CFG).data
    assert cores(3).submitted == 0
    assert np.array_equal(extract_features(clip, CFG).data, want)


def _rfft_failing_on_helpers(a, n=None, axis=-1, norm=None):
    if threading.current_thread().name.startswith("avcount-helper"):
        raise RuntimeError("helper failed")
    time.sleep(0.002)  # leaves the helper time to start and take a block
    return np.fft.fft(a, n=n, axis=axis, norm=norm)[..., : a.shape[axis] // 2 + 1]


def _rfft_failing(a, n=None, axis=-1, norm=None):
    raise RuntimeError("caller failed")


@pytest.mark.parametrize("rfft", [_rfft_failing_on_helpers, _rfft_failing])
def test_idle_count_returns_after_an_error(rfft, cores, monkeypatch):
    cores(3)
    monkeypatch.setattr(np.fft, "rfft", rfft)
    with pytest.raises(RuntimeError, match="failed"):
        for seed in range(5):  # a helper may start too late to take a block
            stft_power(noise(882000, seed), CFG)
    assert parallel._idle == 2


def test_idle_count_returns_after_holds_and_maps(cores):
    cores(4)

    def boom(item):
        assert parallel._idle == 0  # four workers hold the three idle cores
        raise ValueError(item)

    with pytest.raises(ValueError):
        parallel.parallel_map(boom, [1, 2, 3, 4], 4)
    with pytest.raises(KeyError), parallel.cap(1):
        assert parallel._idle == 0
        raise KeyError
    with parallel.cap(None), parallel.cap(9):
        assert parallel._idle == 3
    assert parallel._idle == 3


def test_idle_count_survives_many_concurrent_callers(cores):
    cores(3)
    clips = [noise(5 * 44100, seed) for seed in range(8)]
    want = [serial_power(c, CFG) for c in clips]

    def call(i):
        with parallel.hold(i % 2):  # half the callers also hold a core
            return stft_power(clips[i % 8], CFG)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as callers:  # more callers than cores
            got = list(callers.map(call, range(32), timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert parallel._idle == 2
    assert all(np.array_equal(p, want[i % 8]) for i, p in enumerate(got))


def test_maps_of_many_callers_keep_order_bytes_and_count(cores):
    cores(3)
    clips = [noise(5 * 44100, seed) for seed in range(6)]  # three blocks each
    want = [serial_power(c, CFG) for c in clips]

    def call(i):  # a map of clips whose STFTs map their blocks
        order = [(i + k) % 6 for k in range(4)]
        return order, parallel.parallel_map(lambda j: stft_power(clips[j], CFG), order, 1 + i % 3)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as callers:  # more callers than cores
            got = list(callers.map(call, range(16), timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert parallel._idle == 2
    for order, powers in got:
        assert len(powers) == len(order)
        assert all(np.array_equal(p, want[j]) for j, p in zip(order, powers))


def test_map_raises_the_lowest_failing_index(cores):
    cores(2)
    later_failed, ran = threading.Event(), set()

    def fn(i):
        ran.add(i)
        if i == 1:
            later_failed.set()
            raise ValueError(i)
        assert later_failed.wait(10)  # item 0 fails after item 1, on the other thread
        raise KeyError(i)

    with pytest.raises(KeyError) as exc:
        parallel.parallel_map(fn, [0, 1, 2, 3], 2)
    assert exc.value.args == (0,)
    assert ran == {0, 1}  # no thread takes an item after a failure
    assert parallel._idle == 1
    assert parallel.parallel_map(fn, [], 2) == []


@pytest.mark.parametrize("jobs,items", [(2, 2), (2, 5), (3, 5)])
def test_clip_workers_borrow_no_helpers(jobs, items, cores):
    pool = cores(2)
    clips = [noise(882000, seed) for seed in range(items)]
    powers = parallel.parallel_map(lambda c: stft_power(c, CFG), clips, jobs)
    # only the clip workers beyond the calling thread, bounded by the two cores
    assert pool.submitted == min(jobs, items, 2) - 1
    assert all(np.array_equal(p, serial_power(c, CFG)) for p, c in zip(powers, clips))
    assert parallel._idle == 1


def test_pool_never_exceeds_usable_cores_minus_one(cores):
    parallel._reset(3)
    clips = [noise(882000, seed) for seed in range(4)]
    parallel.parallel_map(lambda c: stft_power(c, CFG), clips, 1)
    with ThreadPoolExecutor(4) as outside:  # four callers at once, none holding cores
        list(outside.map(lambda c: stft_power(c, CFG), clips))
    assert parallel._pool._max_workers == 2
    assert 1 <= len(parallel._pool._threads) <= 2
    parallel._pool.shutdown()
    parallel._reset()
    if parallel.usable_cores() > 1:
        stft_power(clips[0], CFG)
        assert parallel._pool._max_workers == parallel.usable_cores() - 1


def _child_digest(conn):
    conn.send((parallel._idle, hashlib.sha256(stft_power(noise(882000), CFG).tobytes()).hexdigest()))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_forked_child_gets_a_fresh_pool_and_the_same_bytes(cores):
    cores(2)
    want = stft_power(noise(882000), CFG)  # the parent's pool has a live thread
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=_child_digest, args=(theirs,))
    with parallel.hold(1):  # the child starts from its own full count
        child.start()
    try:
        assert ours.poll(60), "forked child did not answer"
        idle, digest = ours.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert idle == parallel.usable_cores() - 1
    assert digest == hashlib.sha256(want.tobytes()).hexdigest()


# --- the CLI keeps to --jobs --------------------------------------------------


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A bundle trained for one epoch on a five-clip corpus, plus a one-clip corpus."""
    root = tmp_path_factory.mktemp("parallel")
    config = root / "config.json"
    config.write_text('{"seed": 3, "epochs": 1}')
    (root / "deep.json").write_text('{"seed": 3, "epochs": 2, "deep": {"epochs": 2}}')
    scene = SceneSpec(duration=4.0, n_vehicles=1, seed=11)
    generate_corpus(scene, 5, root / "corpus")
    assert main(["train", "--config", str(config), "--data", str(root / "corpus"),
                 "--out", str(root / "model"), "--jobs", "1"]) == 0
    generate_corpus(scene, 1, root / "one")
    return root


@pytest.mark.parametrize("command", ["count", "predict", "extract", "eval", "train", "train --deep"])
def test_jobs_1_borrows_no_helpers(command, bundle, cores, tmp_path, capsys):
    pool = cores(4)
    command, *flags = command.split()
    # training splits its corpus, so it needs more than one clip
    for audio in ("corpus",) if command == "train" else ("one", "corpus"):
        source = ["--data" if command in ("eval", "train") else "--audio", str(bundle / audio)]
        model = ["--model", str(bundle / "model")] if command in ("count", "predict", "eval") else []
        config = ["--config", str(bundle / "deep.json")] if command == "train" else []
        out = [] if command == "count" else ["--out", str(tmp_path / f"{command}_{audio}")]
        assert main([command, *flags, *model, *config, *source, *out, "--jobs", "1"]) == 0
    assert pool.submitted == 0
    assert parallel._idle == 3


def test_train_borrows_no_helpers_and_keeps_its_bytes(bundle, cores, tmp_path, capsys):
    def train(jobs):
        out = tmp_path / f"jobs{jobs}"
        argv = ["train", "--deep", "--config", str(bundle / "deep.json"),
                "--data", str(bundle / "corpus"), "--out", str(out), "--jobs", str(jobs)]
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    cores(2)
    alone = train(1)
    pool = cores(2)
    assert train(2) == alone
    # one clip worker besides the calling thread: five clips leave no idle
    # core to their STFTs, and training runs on the calling thread
    assert pool.submitted == 1
    assert parallel._idle == 1
    assert set(alone) == {"deep.ckpt", "pipeline.json", "stage1.ckpt", "stage2.ckpt", "stats.bin"}


def test_count_of_one_recording_borrows_a_helper(bundle, cores, capsys):
    argv = ["count", "--model", str(bundle / "model"), "--audio", str(bundle / "one")]
    cores(2)
    assert main(argv + ["--jobs", "1"]) == 0
    alone = capsys.readouterr().out
    pool = cores(2)
    assert main(argv + ["--jobs", "2"]) == 0
    assert pool.submitted == 1
    assert capsys.readouterr().out == alone


def test_blas_threads_reads_the_openblas_count():
    for n in (1, 2):
        with blas_thread_count(n):
            assert parallel.blas_threads() == n
