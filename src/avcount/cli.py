"""Command-line surface: synth, extract, train, predict, count, eval,
gridsearch, experiment.

Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure. Every
failure prints a one-line diagnostic on stderr. Outputs carry no
timestamps, so any subcommand is byte-for-byte reproducible from its
config and seed (AVC_SEED overrides the configured seed) for a fixed BLAS
thread count: threaded matrix products round differently, so bundles,
features and experiment reports made under another thread count may
differ in the last bits.

Threads: a command never runs more than ``--jobs`` threads, nor more than
the usable cores. Its clips and each clip's front-end blocks go through one
map, ``parallel.parallel_map``, whose helpers claim idle cores, so a clip's
front end gets only the cores that the clip workers leave idle. ``predict``,
``count`` and ``eval`` share one clip worker, which loads a WAV and runs the
cascade with the bundle's settings and no others. A library
call such as ``distreg.predict_distance`` may use every usable core for one
clip's front end. Outputs depend on none of this. ``synth`` and ``experiment`` take
no ``--jobs``; they run as library calls do, so ``synth`` writes its clips
and ``experiment`` extracts its clips on up to usable-cores clip workers.
"""

import argparse
import os
import sys
from dataclasses import replace

from . import deepcount, distreg, experiments, metrics, parallel, peakdet, synthgen
from .config import load_config
from .dataio import DataError, corpus_annotations, load_clip, wav_paths
from .features import extract_features, write_feature_cache
from .metrics import cell, write_csv
from .nn_core import NumericError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_jobs(parser):
    parser.add_argument(
        "--jobs",
        type=int,
        default=parallel.usable_cores(),
        help="most worker threads, clip workers and STFT helpers together "
        "(default: usable cores); outputs do not depend on it",
    )


def cmd_synth(args):
    cfg = load_config(args.spec)
    scene = replace(cfg.scene, seed=cfg.seed)
    manifest = synthgen.generate_corpus(scene, cfg.n_clips, args.out)
    total = sum(n for _, n in manifest)
    print(f"wrote {len(manifest)} clips, {total} vehicles to {args.out}")
    return 0


def cmd_extract(args):
    cfg = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    paths = wav_paths(args.audio)

    def one(path):
        clip = load_clip(path)
        fm = extract_features(clip, cfg.spectrogram, cfg.q, cfg.stride)
        write_feature_cache(
            os.path.join(args.out, clip.id + ".avcf"), clip, fm, cfg.spectrogram, cfg.q, cfg.stride
        )
        return clip.id

    ids = parallel.parallel_map(one, paths, args.jobs)
    print(f"cached features for {len(ids)} clips in {args.out}")
    return 0


def cmd_train(args):
    cfg = load_config(args.config)
    ids, features, targets, anns_by_id, _ = experiments.prepare_corpus(
        cfg, args.data, args.jobs, cache_dir=args.cache
    )
    split, pipeline, train_coarse, coarse, fine = experiments.train_and_predict(
        cfg, ids, features, targets, cfg.seed
    )
    deep_path = os.path.join(args.out, "deep.ckpt")
    if os.path.exists(deep_path):  # a bundle holds a deep counter only if this run trained one
        os.remove(deep_path)
    distreg.save_pipeline(pipeline, args.out)
    m1, m2 = experiments.mean_mse(coarse, targets), experiments.mean_mse(fine, targets)
    print(f"saved pipeline to {args.out} (val MSE stage1 {m1:.3e}, stage2 {m2:.3e})")

    if args.deep:
        counter = experiments.train_deep_counter(
            cfg.deep or deepcount.ConvCounterSpec(),
            pipeline,
            train_coarse,
            anns_by_id,
            split.train_ids,
            cfg.seed,
        )
        deepcount.save_counter(counter, deep_path)
        print(f"saved deep counter to {deep_path}")
    return 0


def _clip_series(pipeline, paths, jobs):
    """(clip id, duration, Stage-1 series, Stage-2 series) per WAV, in path order."""

    def one(path):
        clip = load_clip(path)
        fm = extract_features(clip, pipeline.spectrogram, pipeline.q, pipeline.stride)
        (coarse,), (fine,) = distreg.cascade(pipeline, [fm])
        return clip.id, clip.duration, coarse, fine

    return parallel.parallel_map(one, paths, jobs)


def cmd_predict(args):
    pipeline = distreg.load_pipeline(args.model)
    results = _clip_series(pipeline, wav_paths(args.audio), args.jobs)
    rows = (
        [clip_id, m, cell(m * series.frame_period), cell(value)]
        for clip_id, _, _, series in results
        for m, value in enumerate(series.values)
    )
    write_csv(args.out, ["clip_id", "frame", "t_s", "d_hat_s"], rows)
    print(f"wrote predictions for {len(results)} clips to {args.out}")
    return 0


def cmd_count(args):
    pipeline = distreg.load_pipeline(args.model)
    cfg = load_config(args.config)
    t_det = args.tdet if args.tdet is not None else pipeline.t_d
    if not 0 <= t_det <= pipeline.t_d:
        raise DataError(f"--tdet must lie in [0, {pipeline.t_d}]")
    total = 0
    for clip_id, _, _, series in _clip_series(pipeline, wav_paths(args.audio), args.jobs):
        detections = peakdet.detect_vehicles(series, cfg.detector)
        n = peakdet.count_at_threshold(detections, t_det)
        total += n
        print(f"{clip_id},{n}")
    print(f"TOTAL,{total}")
    return 0


def cmd_eval(args):
    cfg = load_config(args.config)
    variants = cfg.variants if args.config else ("VCNN",)
    if "VCNN_f0" in variants:
        raise DataError("VCNN_f0 requires a retrain; use the experiment command")
    pipeline = distreg.load_pipeline(args.model)
    ids, durations, coarse, fine = zip(*_clip_series(pipeline, wav_paths(args.data), args.jobs))
    ctx = experiments.EvalContext(
        annotations={a.clip_id: a for a in corpus_annotations(args.data, dict(zip(ids, durations)))},
        stage2=dict(zip(ids, fine)),
        stage1=dict(zip(ids, coarse)),
        t_d=pipeline.t_d,
        detector=cfg.detector,
    )
    os.makedirs(args.out, exist_ok=True)
    for variant in variants:
        report = experiments.run_ablation(variant, ctx)
        metrics.write_curve_csv(os.path.join(args.out, f"{variant}_curve.csv"), report)
        metrics.write_summary_csv(
            os.path.join(args.out, f"{variant}_summary.csv"), report
        )
        efp = "n/a" if report.efp_value is None else f"{report.efp_value:.4f}"
        print(f"{variant}: area_ptp {report.area_ptp:.4f}, efp {efp}")
    return 0


def cmd_gridsearch(args):
    cfg = load_config(args.config)
    ids, features, targets, anns_by_id, _ = experiments.prepare_corpus(cfg, args.data, args.jobs)
    *_, fine = experiments.train_and_predict(cfg, ids, features, targets, cfg.seed)
    best, table = experiments.grid_search(
        fine.values(), [anns_by_id[i] for i in fine], cfg.grid, cfg.t_d
    )
    rows = [
        [" ".join(map(str, r["smoother"])), f"{r['m_frac']:.2f}", f"{r['p_frac']:.2f}",
         cell(r["mean_abs_rvce"])]
        for r in table
    ]
    rows.append(
        ["BEST " + " ".join(map(str, best.smoother.lengths)), f"{best.m_frac:.2f}", f"{best.p_frac:.2f}", ""]
    )
    write_csv(args.out or sys.stdout, ["smoother", "m_frac", "p_frac", "mean_abs_rvce"], rows)
    return 0


def cmd_experiment(args):
    cfg = load_config(args.config)
    data_dir = cfg.paths.get("data_dir")
    out_dir = cfg.paths.get("out_dir")
    if not data_dir or not out_dir:
        raise DataError("experiment config needs paths.data_dir and paths.out_dir")
    results, failures, bands = experiments.multi_run(cfg)
    os.makedirs(out_dir, exist_ok=True)
    for res in results:
        for variant, report in res.reports.items():
            metrics.write_curve_csv(
                os.path.join(out_dir, f"run{res.run_seed}_{variant}_curve.csv"), report
            )
    for variant, rows in bands.items():
        write_csv(
            os.path.join(out_dir, f"{variant}_bands.csv"),
            ["t_det", "rvce_mean", "rvce_low", "rvce_high"],
            ([cell(x) for x in row] for row in rows),
        )
    header = ["run_seed", "stage1_mse", "stage2_mse"]
    for variant in cfg.variants:
        header += [f"{variant}_area_ptp", f"{variant}_efp"]
    if cfg.deep is not None:
        header.append("deep_rvce")
    summary = []
    for res in results:
        row = [res.run_seed, f"{res.stage1_mse:.6e}", f"{res.stage2_mse:.6e}"]
        for variant in cfg.variants:
            row += [cell(res.reports[variant].area_ptp), cell(res.reports[variant].efp_value)]
        if cfg.deep is not None:
            row.append(cell(res.deep_rvce))
        summary.append(row)
    write_csv(os.path.join(out_dir, "summary.csv"), header, summary)
    for seed, message in failures:
        print(f"run {seed} diverged: {message}", file=sys.stderr)
    print(
        f"completed {len(results)}/{cfg.n_runs} runs, reports in {out_dir}"
        + (f" ({len(failures)} diverged)" if failures else "")
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="avcount", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--spec", help="config file with the scene section", default=None)
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="write per-clip feature cache files")
    p.add_argument("--config", default=None, help="config file")
    p.add_argument("--audio", required=True, help="directory of wav files")
    p.add_argument("--out", required=True, help="cache output directory")
    _add_jobs(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train the two-stage pipeline bundle")
    p.add_argument("--config", default=None, help="config file")
    p.add_argument("--data", required=True, help="corpus directory (wav + annotations.csv)")
    p.add_argument("--out", required=True, help="model bundle directory")
    p.add_argument("--deep", action="store_true", help="also train the deep counter")
    p.add_argument("--cache", default=None, help="reuse feature cache files from this directory")
    _add_jobs(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write per-clip predicted distance CSV")
    p.add_argument("--model", required=True, help="pipeline bundle directory")
    p.add_argument("--audio", required=True, help="directory of wav files")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_jobs(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("count", help="count vehicles per clip and in total")
    p.add_argument("--model", required=True, help="pipeline bundle directory")
    p.add_argument("--audio", required=True, help="directory of wav files")
    p.add_argument(
        "--tdet",
        type=float,
        default=None,
        help="detection threshold in seconds (default: t_d)",
    )
    p.add_argument("--config", default=None, help="config file for the detector")
    _add_jobs(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("eval", help="write metric CSVs for a labeled corpus")
    p.add_argument("--model", required=True, help="pipeline bundle directory")
    p.add_argument("--data", required=True, help="corpus directory (wav + annotations.csv)")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--config", default=None, help="config file selecting variants")
    _add_jobs(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gridsearch", help="search detection parameters on the val split")
    p.add_argument("--config", default=None, help="config file with the grid section")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--out", default=None, help="write the table here instead of stdout")
    _add_jobs(p)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("experiment", help="multi-run protocol with confidence bands")
    p.add_argument("--config", required=True, help="config file with paths + n_runs")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        with parallel.cap(getattr(args, "jobs", None)):
            return args.func(args)
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
