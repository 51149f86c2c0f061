"""Acceptance gates: every criterion prints one PASS line when it holds.

The end-to-end criteria train the real pipeline on frozen synthetic
corpora, so this module costs several minutes of CPU. Heavy artifacts are
cached per corpus + seed and shared between criteria.

Gate A8 runs only when AVC_VCPRG_DIR points at real recordings, laid out
as <dir>/vcprg15 and <dir>/vcprg6 corpus directories (wav files plus
annotations.csv as documented in the README).
"""

import os
import time

import numpy as np
import pytest

from numeric_checks import fd_mismatch

from avcount import deepcount, distreg, experiments, metrics, nn_core, parallel, peakdet
from avcount.config import ToolConfig
from avcount.dataio import PassByAnnotation, reference_distance, split_dataset
from avcount.features import SpectrogramConfig, extract_features
from avcount.synthgen import SceneSpec, generate_corpus

T_D = 0.75
CFG = SpectrogramConfig()
FP = CFG.frame_period


def _in_upper_range(t):
    return t >= 0.5 * T_D - 1e-12

A5_SCENE = SceneSpec(
    seed=100, noise_level=0.03, amp_range=(0.1, 0.3), envelope_width=0.12, rate=1.5
)
A7_SCENE = SceneSpec(
    seed=500, noise_level=0.03, amp_range=(0.1, 0.3), width_range=(0.25, 0.7),
    pair_fraction=0.8, pair_gap=0.8, rate=1.6, min_gap=2.5,
)


def _passline(name, detail):
    print(f"{name} PASS  {detail}")


# --- corpus + training caches -------------------------------------------------


@pytest.fixture(scope="module")
def a5_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("a5corpus")
    generate_corpus(A5_SCENE, 100, out)
    return _load_prepared(out)


@pytest.fixture(scope="module")
def a7_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("a7corpus")
    generate_corpus(A7_SCENE, 60, out)
    return _load_prepared(out)


def _load_prepared(directory):
    cfg = ToolConfig()
    assert (cfg.spectrogram, cfg.t_d, cfg.q, cfg.stride) == (CFG, T_D, 5, 2)
    ids, features, targets, anns, _ = experiments.prepare_corpus(cfg, directory, parallel.usable_cores())
    return {"ids": ids, "features": features, "targets": targets, "anns": anns}


_RUN_CACHE = {}


def _train_run(corpus, seed, cache_key):
    """Train both stages on the 80% split; predict on every clip."""
    key = (cache_key, seed)
    if key in _RUN_CACHE:
        return _RUN_CACHE[key]
    ids = corpus["ids"]
    split = split_dataset(ids, 0.8, 0)  # split fixed; run seed shuffles training
    s1 = distreg.stage1_spec(epochs=100, seed=seed)
    s2 = distreg.stage2_spec(epochs=100, seed=seed + 1)
    pipeline, _ = distreg.train_pipeline(
        [corpus["features"][i] for i in split.train_ids],
        [corpus["targets"][i] for i in split.train_ids],
        CFG,
        s1,
        s2,
    )
    coarse, fine = distreg.cascade(pipeline, [corpus["features"][i] for i in ids])
    run = {
        "pipeline": pipeline,
        "coarse": dict(zip(ids, coarse)),
        "fine": dict(zip(ids, fine)),
        "train_ids": list(split.train_ids),
        "val_ids": list(split.val_ids),
    }
    _RUN_CACHE[key] = run
    return run


def _count_report(corpus, series_by_id, detector, eval_ids=None):
    ids = eval_ids if eval_ids is not None else corpus["ids"]
    per_clip = [
        (
            metrics.build_intervals(corpus["anns"][i], T_D),
            peakdet.detect_vehicles(series_by_id[i], detector),
        )
        for i in ids
    ]
    return metrics.compute_curve(per_clip, T_D)


def _mean_abs_rvce_upper(report):
    values = [abs(r) for t, r in zip(report.t_det, report.rvce) if _in_upper_range(t)]
    return float(np.mean(values))


def _held_out_mse(corpus, run):
    m1, m2 = [], []
    for i in run["val_ids"]:
        target = corpus["targets"][i].values
        m1.append(np.mean((run["coarse"][i].values - target) ** 2))
        m2.append(np.mean((run["fine"][i].values - target) ** 2))
    return float(np.mean(m1)), float(np.mean(m2))


# --- A1: prominence equals the brute-force contour oracle --------------------


def test_a1_prominence_oracle():
    from test_peakdet import contour_oracle

    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    checked = 0
    in_peakdet = in_oracle = 0.0  # split so an overrun names the slow side
    for case in range(1000):
        n = int(rng.integers(3, 201))
        if case % 3 == 0:  # plateau-rich integer sequences
            values = rng.integers(0, 8, size=n).astype(float) / 8.0
        else:
            values = rng.uniform(0.0, 1.0, size=n)
        t0 = time.perf_counter()
        peaks = peakdet.peak_indices(values)
        in_peakdet += time.perf_counter() - t0
        for i in peaks:
            t0 = time.perf_counter()
            got = peakdet.prominence(values, int(i))
            t1 = time.perf_counter()
            want = contour_oracle(values, int(i))
            in_oracle += time.perf_counter() - t1
            in_peakdet += t1 - t0
            assert got == want, f"case {case} index {i}: {got} != {want}"
            checked += 1
    elapsed = time.perf_counter() - start
    split = f"peakdet {in_peakdet:.1f}s, contour oracle {in_oracle:.1f}s"
    assert elapsed < 10.0, f"A1 runtime {elapsed:.1f}s exceeds 10s ({split})"
    _passline("A1", f"{checked} peaks over 1000 sequences match exactly in {elapsed:.1f}s ({split})")


# --- A2: gradient checks ------------------------------------------------------


def _check_dense_grads(spec, x, y, step=1e-5):
    model = nn_core.init_model(spec)
    _, grads = nn_core.loss_and_gradients(model, x, y)
    worst = 0.0
    for li, layer in enumerate(model.layers):
        for name, param in layer.params().items():
            flat = param.ravel()
            g = grads[li][name].ravel()
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + step
                up, _ = nn_core.loss_and_gradients(model, x, y)
                flat[j] = keep - step
                down, _ = nn_core.loss_and_gradients(model, x, y)
                flat[j] = keep
                fd = (up - down) / (2 * step)
                worst = max(worst, fd_mismatch(fd, g[j]))
    return worst


def _check_conv_grads(spec, series, counts, step=1e-5):
    counter = deepcount.init_counter(spec)
    _, grads = deepcount.loss_and_gradients(counter, series, counts)
    worst = 0.0
    for li, layer in enumerate(counter.layers):
        for name, param in layer.params().items():
            flat = param.ravel()
            g = grads[li][name].ravel()
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + step
                up, _ = deepcount.loss_and_gradients(counter, series, counts)
                flat[j] = keep - step
                down, _ = deepcount.loss_and_gradients(counter, series, counts)
                flat[j] = keep
                fd = (up - down) / (2 * step)
                worst = max(worst, fd_mismatch(fd, g[j]))
    return worst


def test_a2_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    worst = 0.0

    dense_specs = [
        nn_core.NetworkSpec(layer_sizes=(7, 5, 3, 1), l2_factor=1e-3, loss="mse", epochs=1, seed=0),
        nn_core.NetworkSpec(layer_sizes=(5, 4, 1), l2_factor=0.0, loss="mse", epochs=1, seed=1),
        nn_core.NetworkSpec(layer_sizes=(6, 5, 4, 2), l2_factor=1e-4, loss="mse", epochs=1, seed=2),
        nn_core.NetworkSpec(layer_sizes=(4, 6, 1), l2_factor=5e-6, loss="l1", epochs=1, seed=3),
        nn_core.NetworkSpec(layer_sizes=(8, 3, 3, 1), l2_factor=1e-2, loss="mse", epochs=1, seed=4),
    ]
    for spec in dense_specs:
        n_in, n_out = spec.layer_sizes[0], spec.layer_sizes[-1]
        x = rng.normal(size=(6, n_in))
        y = rng.normal(size=(6, n_out))
        if spec.loss == "l1":  # stay away from the |.| kink, mix signs
            y = y + np.where(np.arange(6)[:, None] % 2 == 0, 10.0, -10.0)
        worst = max(worst, _check_dense_grads(spec, x, y))

    conv_specs = [
        deepcount.ConvCounterSpec(conv_layers=((2, 3, 1),), loss="l2", epochs=1, seed=0),
        deepcount.ConvCounterSpec(conv_layers=((3, 5, 2), (2, 3, 1)), loss="l2", epochs=1, seed=1),
        deepcount.ConvCounterSpec(conv_layers=((2, 3, 2), (2, 3, 2)), head_sizes=(3,), loss="l2", epochs=1, seed=2),
        deepcount.ConvCounterSpec(conv_layers=((4, 7, 2),), loss="l2", epochs=1, seed=3),
        deepcount.ConvCounterSpec(conv_layers=((2, 5, 3),), head_sizes=(4,), loss="l1", epochs=1, seed=4),
    ]
    for spec in conv_specs:
        series = [rng.normal(size=30), rng.normal(size=45)]
        counts = [20.0, -20.0] if spec.loss == "l1" else [2.0, 1.0]
        worst = max(worst, _check_conv_grads(spec, series, counts))

    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"worst relative gradient error {worst}"
    assert elapsed < 30.0, f"A2 runtime {elapsed:.1f}s exceeds 30s"
    _passline("A2", f"10 configurations, worst relative error {worst:.2e} in {elapsed:.1f}s")


# --- A3: reference distance properties ---------------------------------------


def test_a3_reference_distance_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    for case in range(200):
        n_vehicles = int(rng.integers(0, 6))
        n_frames = int(rng.integers(30, 600))
        frame_period = FP
        duration = n_frames * frame_period
        frames = rng.choice(n_frames, size=min(n_vehicles, n_frames), replace=False)
        instants = tuple(sorted(float(m) * frame_period for m in frames))
        ann = PassByAnnotation(f"case{case}", instants, duration)
        combined = reference_distance(ann, n_frames, frame_period, T_D)

        assert np.all(combined.values >= 0.0) and np.all(combined.values <= T_D)
        for t in instants:  # instants sit on the frame grid: exact zeros
            assert combined.values[round(t / frame_period)] == 0.0
        if instants:
            singles = np.stack(
                [
                    reference_distance(
                        PassByAnnotation("s", (t,), duration), n_frames, frame_period, T_D
                    ).values
                    for t in instants
                ]
            )
            assert np.array_equal(combined.values, singles.min(axis=0))
        else:
            assert np.all(combined.values == T_D)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"A3 runtime {elapsed:.1f}s exceeds 5s"
    _passline("A3", f"200 random annotations, all properties exact in {elapsed:.1f}s")


# --- A4: metric identities ----------------------------------------------------


def test_a4_metric_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(41)

    # random detection sets: identities and monotonicity on the full grid
    per_clip = []
    for c in range(8):
        instants = tuple(np.sort(rng.uniform(1, 19, int(rng.integers(1, 5)))))
        ann = PassByAnnotation(f"c{c}", instants, 20.0)
        intervals = metrics.build_intervals(ann, T_D)
        distances = rng.uniform(0, T_D, int(rng.integers(0, 7)))
        times = np.array([float(rng.uniform(0, 20)) for _ in distances])
        order = np.argsort(times, kind="stable")
        dets = peakdet.Detections(
            frame_index=np.zeros(distances.size, dtype=int),
            time=times[order],
            magnitude=T_D - distances[order],
            prominence=np.full(distances.size, 0.1),
            distance=distances[order],
        )
        per_clip.append((intervals, dets))
    report = metrics.compute_curve(per_clip, T_D)
    assert len(report.t_det) == 100
    for p_tp, p_fn in zip(report.p_tp, report.p_fn):
        assert p_tp + p_fn == pytest.approx(1.0, abs=1e-12)
    p_tps = report.p_tp.tolist()
    assert all(b >= a for a, b in zip(p_tps, p_tps[1:]))

    # constructed crossing: 3 TPs, 1 FN, 1 FP -> p_fp = p_fn = 0.25 exactly
    anns = [PassByAnnotation("x", (3.0, 8.0, 13.0, 18.0), 20.0)]
    intervals = metrics.build_intervals(anns[0], T_D)
    # the last detection lies outside every interval
    dets = peakdet.Detections(
        [0] * 4, [3.0, 8.0, 13.0, 5.5], [T_D - 0.1] * 4, [0.5] * 4, [0.1] * 4
    )
    crossing = metrics.compute_curve([(intervals, dets)], T_D)
    assert crossing.efp_tdet is not None
    assert crossing.efp_value == pytest.approx(0.25)
    at = dict(zip(crossing.t_det.tolist(), crossing.rvce.tolist()))[crossing.efp_tdet]
    assert at == pytest.approx(0.0, abs=1e-12)  # N_est == N_true at the crossing
    n_true = 4
    tp, fp, fn = metrics.classify_detections(intervals, dets, crossing.efp_tdet)
    assert tp + fp == n_true == tp + fn

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"A4 runtime {elapsed:.1f}s exceeds 5s"
    _passline("A4", f"identities hold at all 100 grid points; N_est = N_true at the crossing ({elapsed:.1f}s)")


# --- A5: end-to-end desk scale -------------------------------------------------


def test_a5_end_to_end_desk_scale(a5_corpus):
    start = time.perf_counter()
    run = _train_run(a5_corpus, 0, "a5")
    report = _count_report(a5_corpus, run["fine"], experiments.TUNED_DETECTORS["VCNN"])
    mean_rvce = _mean_abs_rvce_upper(report)
    elapsed = time.perf_counter() - start
    n_total = sum(a.n_vehicles for a in a5_corpus["anns"].values())
    assert n_total > 100  # ~150 vehicles by construction
    assert mean_rvce <= 5.0, f"mean |RVCE| {mean_rvce:.2f}% exceeds 5%"
    assert report.area_ptp >= 0.90, f"area_ptp {report.area_ptp:.3f} below 0.90"
    assert elapsed <= 600.0, f"A5 runtime {elapsed:.0f}s exceeds 10 minutes"
    _passline(
        "A5",
        f"{n_total} vehicles: mean |RVCE| {mean_rvce:.2f}%, area_ptp {report.area_ptp:.3f} in {elapsed:.0f}s",
    )


# --- A6: two-stage ordering -----------------------------------------------------


def test_a6_two_stage_ordering(a5_corpus):
    wins = 0
    pairs = []
    for seed in range(5):
        run = _train_run(a5_corpus, seed, "a5")
        m1, m2 = _held_out_mse(a5_corpus, run)
        pairs.append((m1, m2))
        if m2 <= m1:
            wins += 1
    assert wins >= 4, f"stage 2 beat stage 1 in only {wins}/5 runs: {pairs}"
    detail = ", ".join(f"{m1:.1e}->{m2:.1e}" for m1, m2 in pairs)
    _passline("A6", f"stage2 <= stage1 on held-out clips in {wins}/5 runs ({detail})")


# --- A7: the magnitude clause matters on close pairs ----------------------------


def test_a7_magnitude_clause_on_close_pairs(a7_corpus):
    run = _train_run(a7_corpus, 0, "a7")
    vcnn = _mean_abs_rvce_upper(
        _count_report(a7_corpus, run["fine"], experiments.TUNED_DETECTORS["VCNN"])
    )
    pp15 = _mean_abs_rvce_upper(
        _count_report(a7_corpus, run["fine"], experiments.pp_detector(0.15))
    )
    assert vcnn < pp15, f"VCNN {vcnn:.2f}% not strictly below PP15 {pp15:.2f}%"
    _passline("A7", f"paired vehicles: VCNN {vcnn:.2f}% < prominence-only {pp15:.2f}%")


# --- A8: real data, when supplied ------------------------------------------------


@pytest.mark.skipif(
    "AVC_VCPRG_DIR" not in os.environ,
    reason="set AVC_VCPRG_DIR to a directory with vcprg15/ and vcprg6/ corpora",
)
def test_a8_vcprg_protocol():
    base = os.environ["AVC_VCPRG_DIR"]
    train_dir = os.path.join(base, "vcprg15")
    test_dir = os.path.join(base, "vcprg6")
    train = _load_prepared(train_dir)
    test = _load_prepared(test_dir)

    split = split_dataset(train["ids"], 0.8, 0)
    pipeline, _ = distreg.train_pipeline(
        [train["features"][i] for i in split.train_ids],
        [train["targets"][i] for i in split.train_ids],
        CFG,
        distreg.stage1_spec(epochs=100, seed=0),
        distreg.stage2_spec(epochs=100, seed=1),
    )
    _, fine = distreg.cascade(pipeline, [test["features"][i] for i in test["ids"]])
    fine = dict(zip(test["ids"], fine))
    report = _count_report(test, fine, experiments.TUNED_DETECTORS["VCNN"])
    mse = experiments.mean_mse(fine, test["targets"])
    assert report.area_ptp >= 0.80
    assert report.efp_value is not None and report.efp_value <= 0.03
    assert mse <= 4e-3
    _passline(
        "A8",
        f"VC-PRG: area {report.area_ptp:.3f}, EFP {report.efp_value:.4f}, MSE {mse:.2e}",
    )


# --- A9: shape contract -----------------------------------------------------------


def test_a9_shape_contract():
    from avcount.dataio import AudioClip

    rng = np.random.default_rng(9)
    clip = AudioClip(samples=rng.uniform(-0.5, 0.5, 882000), sample_rate=44100, id="s")
    fm = extract_features(clip, CFG)
    assert fm.frames == 540
    assert fm.dim == 528
    ann = PassByAnnotation("s", (4.0, 11.0), clip.duration)
    ref = reference_distance(ann, fm.frames, FP, T_D)
    assert ref.n_frames == 540
    _passline("A9", "20 s at 44.1 kHz -> 540 frames x 528 dims, 540-value distance series")
