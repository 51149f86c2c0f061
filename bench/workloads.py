"""The three benchmark workloads: train, count and evaluate.

Each workload builds its inputs from the benchmark seed in ``setup``, then
runs operations one at a time (a closed loop with one client) through
``cli.main`` and the public functions of the package. Every operation checks
its own outputs; an operation that raises, exits non-zero or returns other
outputs than expected counts as failed.

``train`` and ``evaluate`` alternate between two input sets: a fixed
reference set whose outputs are recorded in ``expected.json``, and a set made
from the seed, whose outputs must repeat exactly from one operation to the
next. ``count`` checks the library path against the CLI batch pass.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import time
from dataclasses import dataclass, replace

import numpy as np

from avcount import cli, dataio, distreg, experiments, peakdet, synthgen
from avcount.nn_core import NumericError

T_D = 0.75
# the A5 acceptance scene: 20 s clips, about 1.5 vehicles per clip
A5_SCENE = synthgen.SceneSpec(
    noise_level=0.03, amp_range=(0.1, 0.3), envelope_width=0.12, rate=1.5
)
REFERENCE_SCENE_SEED = 100
HELDOUT_OFFSET = 5000

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def scene_seed(seed: int) -> int:
    """Base scene seed for benchmark seed ``seed``; clear of the reference range."""
    return 1_000_000 + 20_000 * seed


def run_cli(argv):
    """cli.main with its stdout captured -> (exit code, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def sha256_dir(directory) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class OpFailed(Exception):
    """An operation ran but its outputs are wrong or it exited non-zero."""


def check_outputs(kind, got, expected):
    if got != expected:
        keys = [k for k in set(got) | set(expected) if got.get(k) != expected.get(k)]
        diff = {k: (got.get(k), expected.get(k)) for k in keys}
        raise OpFailed(f"{kind} outputs differ from expected (got, expected): {diff}")


@dataclass
class OpResult:
    times: dict  # metric name -> seconds
    outputs: dict


class Workload:
    """One workload: set up once per run, then run operations on demand."""

    name = ""
    rate_key = None  # the OpResult time audio_x is taken from; None: the op

    def __init__(self, seed, workdir, jobs):
        self.seed = seed
        self.workdir = workdir
        self.jobs = jobs
        self._seen = {}
        with open(EXPECTED_PATH) as fh:
            self.expected = json.load(fh).get(self.name)

    def checked_outputs(self):
        """The outputs each input set produced, as checked."""
        return self._seen

    def setup(self, directory):
        raise NotImplementedError

    def op(self, index) -> OpResult:
        raise NotImplementedError

    def _check(self, key, outputs):
        """Reference outputs must equal the recorded ones; others the first op's."""
        first = self._seen.setdefault(key, outputs)
        expected = self.expected if key == "reference" else first
        check_outputs(f"{self.name} {key}", outputs, expected)


# --- train -------------------------------------------------------------------

TRAIN_CLIPS = 12
HELDOUT_CLIPS = 6
TRAIN_CONFIG = {
    "seed": 0,
    "epochs": 20,
    "deep": {"epochs": 5},
    "variants": ["VCNN", "VCNN_S1"],
}
_MSE_RE = re.compile(r"val MSE stage1 (\S+), stage2 (\S+)\)")
_EVAL_RE = re.compile(r"^VCNN: area_ptp (\S+), efp (\S+)$", re.M)


def make_corpora(directory, base_seed, n_train, n_heldout, scene=A5_SCENE):
    train_dir = os.path.join(directory, "train")
    heldout_dir = os.path.join(directory, "heldout")
    synthgen.generate_corpus(replace(scene, seed=base_seed), n_train, train_dir)
    synthgen.generate_corpus(
        replace(scene, seed=base_seed + HELDOUT_OFFSET), n_heldout, heldout_dir
    )
    return train_dir, heldout_dir


def write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


class TrainWorkload(Workload):
    """`avcount train --deep` then `avcount eval`, on 12 + 6 A5 clips."""

    name = "train"
    warmup_ops = 1
    rate_audio_s = (TRAIN_CLIPS + HELDOUT_CLIPS) * A5_SCENE.duration  # per op

    def setup(self, directory):
        self.corpora = {
            "reference": make_corpora(
                os.path.join(directory, "reference"),
                REFERENCE_SCENE_SEED,
                TRAIN_CLIPS,
                HELDOUT_CLIPS,
            ),
            "seed": make_corpora(
                os.path.join(directory, "seed"),
                scene_seed(self.seed),
                TRAIN_CLIPS,
                HELDOUT_CLIPS,
            ),
        }
        self.config = write_config(os.path.join(directory, "config.json"), TRAIN_CONFIG)

    def op(self, index):
        key = ("reference", "seed")[index % 2]
        train_dir, heldout_dir = self.corpora[key]
        out = os.path.join(self.workdir, f"train_op{index}")
        try:
            return self._train_and_eval(key, train_dir, heldout_dir, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _train_and_eval(self, key, train_dir, heldout_dir, out):
        model, reports = os.path.join(out, "model"), os.path.join(out, "reports")
        code, train_stdout, train_s = run_cli(
            ["train", "--config", self.config, "--data", train_dir, "--out", model,
             "--deep", "--jobs", str(self.jobs)]
        )
        if code != 0:
            raise OpFailed(f"train exited with code {code}")
        code, eval_stdout, eval_s = run_cli(
            ["eval", "--model", model, "--data", heldout_dir, "--out", reports,
             "--config", self.config, "--jobs", str(self.jobs)]
        )
        if code != 0:
            raise OpFailed(f"eval exited with code {code}")
        mse = _MSE_RE.search(train_stdout)
        quality = _EVAL_RE.search(eval_stdout)
        if mse is None or quality is None:
            raise OpFailed(f"unparsable output: {train_stdout!r} {eval_stdout!r}")
        outputs = {
            "stage1_val_mse": mse.group(1),
            "stage2_val_mse": mse.group(2),
            "area_ptp": quality.group(1),
            "efp_value": quality.group(2),
            "reports_sha256": sha256_dir(reports),
        }
        self._check(key, outputs)
        return OpResult({"train_s": train_s, "eval_s": eval_s}, outputs)


# --- count -------------------------------------------------------------------

COUNT_TRAIN_CLIPS = 6
COUNT_CLIPS = 12
COUNT_CONFIG = {"seed": 0, "epochs": 20}
COUNT_DETECTOR = experiments.TUNED_DETECTORS["VCNN"]  # what `avcount count` uses


class CountWorkload(Workload):
    """A bundle trained on 6 clips counts 12 fresh 20 s clips, one per request."""

    name = "count"
    warmup_ops = COUNT_CLIPS
    rate_key = "count_batch_s"  # audio_x comes from the batch passes, not the ops

    def setup(self, directory):
        train_dir, self.clips_dir = make_corpora(
            directory, scene_seed(self.seed), COUNT_TRAIN_CLIPS, COUNT_CLIPS
        )
        self.model_dir = os.path.join(directory, "model")
        config = write_config(os.path.join(directory, "config.json"), COUNT_CONFIG)
        code, _, _ = run_cli(
            ["train", "--config", config, "--data", train_dir,
             "--out", self.model_dir, "--jobs", str(self.jobs)]
        )
        if code != 0:
            raise RuntimeError(f"set-up train exited with code {code}")
        self.pipeline = distreg.load_pipeline(self.model_dir)
        self.paths = sorted(
            os.path.join(self.clips_dir, f)
            for f in os.listdir(self.clips_dir)
            if f.endswith(".wav")
        )
        self.rate_audio_s = sum(dataio.load_clip(p).duration for p in self.paths)
        self.counts = self._seen = {}

    def op(self, index):
        """One request: the calls `avcount count` makes for one clip."""
        path = self.paths[index % len(self.paths)]
        start = time.perf_counter()
        clip = dataio.load_clip(path)
        series = distreg.predict_distance(self.pipeline, clip)
        detections = peakdet.detect_vehicles(series, COUNT_DETECTOR)
        n = peakdet.count_at_threshold(detections, self.pipeline.t_d)
        elapsed = time.perf_counter() - start
        if self.counts.setdefault(clip.id, n) != n:
            raise OpFailed(f"{clip.id}: count {n} != earlier {self.counts[clip.id]}")
        return OpResult({"count_clip_s": elapsed}, {clip.id: n})

    def batch(self):
        """`avcount count --jobs <nproc>` over the directory; must agree per clip."""
        code, stdout, seconds = run_cli(
            ["count", "--model", self.model_dir, "--audio", self.clips_dir,
             "--jobs", str(self.jobs)]
        )
        if code != 0:
            raise OpFailed(f"count exited with code {code}")
        lines = dict(line.split(",") for line in stdout.split())
        total = int(lines.pop("TOTAL"))
        cli_counts = {cid: int(n) for cid, n in lines.items()}
        if total != sum(cli_counts.values()):
            raise OpFailed(f"TOTAL {total} != sum of per-clip lines")
        if set(cli_counts) != {os.path.basename(p)[:-4] for p in self.paths}:
            raise OpFailed("batch pass lists other clips than the directory holds")
        for cid, n in cli_counts.items():
            if self.counts.setdefault(cid, n) != n:
                raise OpFailed(f"{cid}: batch count {n} != per-clip count {self.counts[cid]}")
        return OpResult({"count_batch_s": seconds}, cli_counts)


# --- evaluate ----------------------------------------------------------------

# long dense scenes; only the annotations are used, so the audio is made at
# 1 kHz with a 37-sample hop (37 ms frames), which keeps set-up cheap
EVAL_SCENE = synthgen.SceneSpec(
    duration=120.0,
    n_vehicles=40,
    pair_fraction=0.5,
    sample_rate=1000,
    hop=37,
    band=(250.0, 300.0),
)
EVAL_CLIPS = 2
STAGE2_NOISE = 0.10
STAGE1_NOISE = 0.15
ABLATION_VARIANTS = ("VCNN", "VCNN_S1", "VCNN_PP5", "VCNN_PP10", "VCNN_PP15")


@dataclass
class SeriesSet:
    annotations: list
    stage2: list
    context: experiments.EvalContext


def make_series_set(base_seed, n_clips):
    """Reference distance plus seeded noise for each dense scene."""
    rng = np.random.default_rng(base_seed)
    anns, stage1, stage2 = [], [], []
    for i in range(n_clips):
        clip, ann = synthgen.generate_scene(replace(EVAL_SCENE, seed=base_seed + i))
        ann = replace(ann, clip_id=f"scene{i:02d}")
        n_frames = (clip.samples.size - 1) // EVAL_SCENE.hop + 1
        ref = dataio.reference_distance(ann, n_frames, EVAL_SCENE.frame_period, T_D)
        for out, sd in ((stage1, STAGE1_NOISE), (stage2, STAGE2_NOISE)):
            noisy = np.clip(ref.values + sd * rng.standard_normal(n_frames), 0.0, T_D)
            out.append(replace(ref, values=noisy))
        anns.append(ann)
    ctx = experiments.EvalContext(
        annotations={a.clip_id: a for a in anns},
        stage2={s.clip_id: s for s in stage2},
        stage1={s.clip_id: s for s in stage1},
        t_d=T_D,
    )
    return SeriesSet(anns, stage2, ctx)


class EvaluateWorkload(Workload):
    """Detector grid search plus the ablation reports on fixed series."""

    name = "evaluate"
    warmup_ops = 2
    rate_audio_s = EVAL_CLIPS * EVAL_SCENE.duration  # per op

    def setup(self, directory):
        self.sets = {
            "reference": make_series_set(REFERENCE_SCENE_SEED, EVAL_CLIPS),
            "seed": make_series_set(scene_seed(self.seed), EVAL_CLIPS),
        }

    def op(self, index):
        key = ("reference", "seed")[index % 2]
        s = self.sets[key]
        start = time.perf_counter()
        best, table = experiments.grid_search(
            s.stage2, s.annotations, experiments.GridSpec(), T_D
        )
        reports = [experiments.run_ablation(v, s.context) for v in ABLATION_VARIANTS]
        elapsed = time.perf_counter() - start
        rows = [
            [list(r["smoother"]), repr(r["m_frac"]), repr(r["p_frac"]), repr(r["mean_abs_rvce"])]
            for r in table
        ]
        rows += [
            [v, repr(r.area_ptp), repr(r.efp_tdet), repr(r.efp_value)]
            for v, r in zip(ABLATION_VARIANTS, reports)
        ]
        outputs = {
            "best": f"{list(best.smoother.lengths)} {best.m_frac!r} {best.p_frac!r}",
            "table_sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        }
        self._check(key, outputs)
        return OpResult({"evaluate_op_s": elapsed}, outputs)


WORKLOADS = {w.name: w for w in (TrainWorkload, CountWorkload, EvaluateWorkload)}
FAILURES = (OpFailed, NumericError, dataio.DataError, ValueError)
