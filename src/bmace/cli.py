"""Command-line surface for the chord estimation pipeline.

Subcommands: train, evaluate, params, flops, gradcheck, bench.
Exit codes are uniform: 0 success, 1 a verification check failed, 2 usage
or input error. Commands that write files also write a JSON run manifest
next to their outputs with every default materialized, so a run is fully
described by its manifest. Outputs carry no timestamps; identical flags,
seeds, and inputs reproduce identical bytes on the same machine, numpy and
BLAS build, and BLAS thread count.
"""

from __future__ import annotations

import os

# BLAS runs one thread unless the caller sets a count: the pin only works
# before numpy first loads, so this runs ahead of every other import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import chords
from . import features as ft
from . import gradcheck as gc
from . import metrics as mt
from . import model as md
from . import tensorio
from . import training as tr
from .numerics import STANDARD, Tensor

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


def write_run_manifest(base, command, config, seeds, inputs, outputs):
    """Write the self-describing record of one file-producing run beside ``base``."""
    tensorio.write_json(tensorio.sibling(base, ".manifest.json"), {
        "command": command, "config": config, "seeds": seeds,
        "inputs": inputs, "outputs": outputs, "version": __version__})


def _ensure_outputs(*paths):
    """Make each output's directory, and reject an output that is one.

    Called before the expensive work, so a bad ``--out`` costs none of it.
    """
    for path in map(Path, paths):
        parent = path.resolve().parent
        try:
            parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError(f"cannot create output directory {parent}: {exc}") from exc
        if path.is_dir():
            raise CliError(f"output path {path} is a directory")


def _read_clip(path):
    try:
        clip = ft.read_wav(path)
    except (ft.WavFormatError, ft.UnsupportedRateError, OSError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if clip.n_samples == 0:
        raise CliError(f"{path} holds no audio samples")
    return clip


def _load_lab(path):
    try:
        return chords.parse_lab(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (chords.ParseError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_reference(path):
    """The annotation of a reference ``.lab``, which must hold an interval."""
    reference = _load_lab(path)
    if not reference.intervals:  # an empty estimate is valid: it reads as no-chord
        raise CliError(f"reference annotation for song id {path.stem!r} holds no intervals")
    return reference


def _audio_lab_pairs(audio_dir):
    """(stem, clip, sibling reference ``.lab``) per WAV of ``audio_dir``, in stem order.

    A clip holds its WAV's bytes; ``cqt`` decodes them block by block.
    """
    audio_dir = Path(audio_dir)
    wavs = sorted(audio_dir.glob("*.wav"))
    if not wavs:
        raise CliError(f"no input WAV files in {audio_dir}")
    for wav in wavs:
        lab = wav.with_suffix(".lab")
        if not lab.is_file():
            raise CliError(f"missing annotation for song id {wav.stem!r}: {lab}")
        annotation = _load_reference(lab)  # first: a bad .lab costs no decode or CQT
        yield wav.stem, _read_clip(wav), annotation


# --------------------------------------------------------------------------
# train


def cmd_train(args):
    history_path = tensorio.sibling(args.out, ".history.json")
    _ensure_outputs(tensorio.manifest_path(args.out), tensorio.blob_path(args.out),
                    history_path, tensorio.sibling(args.out, ".manifest.json"))
    vocab = chords.VOCABS[args.vocab]
    try:
        model_cfg = md.ModelConfig(variant=args.variant,
                                   n_classes=vocab.n_classes, seed=args.seed)
        train_cfg = tr.TrainConfig(learning_rate=args.learning_rate,
                                   batch_size=args.batch_size,
                                   max_epochs=args.epochs,
                                   patience=args.patience, seed=args.seed)
        if args.audio:
            corpus = [tr.ClipExample(stem, ft.log_amplitude(ft.cqt(clip)), ann)
                      for stem, clip, ann in _audio_lab_pairs(args.audio)]
        else:
            corpus = tr.make_synthetic_corpus(args.synthetic, vocab, args.seed,
                                              duration_s=args.duration)
        train_clips, val_clips, _ = tr.split_dataset(corpus, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    try:
        result = tr.train(model_cfg, train_cfg, train_clips, val_clips, vocab)
    except tr.TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:  # an empty split, or one with no frame to score
        raise CliError(str(exc)) from exc
    mpath, bpath = md.save_checkpoint(args.out, model_cfg, result.params, extra_meta={
        "stats": result.stats.to_dict(),
        "vocab": vocab.name,
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
    })
    tensorio.write_json(history_path, {
        "history": list(result.history),
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
    })
    write_run_manifest(
        args.out, "train",
        config={
            "model": model_cfg.to_dict(),
            "train": {
                "learning_rate": train_cfg.learning_rate,
                "beta1": tr.BETA1,
                "beta2": tr.BETA2,
                "adam_eps": tr.ADAM_EPS,
                "batch_size": train_cfg.batch_size,
                "max_epochs": train_cfg.max_epochs,
                "patience": train_cfg.patience,
                "clip_norm": tr.CLIP_NORM,
            },
            "vocab": vocab.name,
            "synthetic": None if args.audio else args.synthetic,
            "duration_s": None if args.audio else args.duration,
            "audio": args.audio,
        },
        seeds={"seed": args.seed},
        inputs=[args.audio] if args.audio else [],
        outputs=[str(mpath), str(bpath), str(history_path)],
    )
    print(f"trained {args.variant} for {len(result.history)} epochs, "
          f"best val loss {result.best_val_loss:.4f} at epoch {result.best_epoch}")
    print(f"checkpoint: {mpath}")
    return EXIT_OK


# --------------------------------------------------------------------------
# evaluate

def _lab_pairs(ref_dir, est_dir):
    """(stem, reference, estimate) per ``.lab`` of ``ref_dir``, in stem order."""
    ref_dir, est_dir = Path(ref_dir), Path(est_dir)
    refs = sorted(ref_dir.glob("*.lab"))
    if not refs:
        raise CliError(f"no .lab files in {ref_dir}")
    for ref_path in refs:
        est_path = est_dir / ref_path.name
        if not est_path.is_file():
            raise CliError(f"missing estimate for song id {ref_path.stem!r}: {est_path}")
        yield ref_path.stem, _load_reference(ref_path), _load_lab(est_path)


def _model_pairs(ckpt_path, audio_dir):
    """(stem, reference, model estimate) per WAV of ``audio_dir``, in stem order.

    Prints one stderr line per song: its audio seconds and the wall
    seconds of its CQT (decode included) and of the model pass.
    """
    try:
        cfg, params, meta = md.load_checkpoint(ckpt_path)
    except (OSError, tensorio.BlobFormatError, KeyError, ValueError) as exc:
        raise CliError(f"cannot load checkpoint {ckpt_path}: {exc}") from exc
    if "stats" not in meta or "vocab" not in meta:
        raise CliError(f"checkpoint {ckpt_path} lacks normalization stats or vocabulary")
    try:
        stats = ft.NormStats.from_dict(meta["stats"])
    except KeyError as exc:
        raise CliError(f"checkpoint {ckpt_path}: stats lack {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliError(f"checkpoint {ckpt_path}: stats are invalid: {exc}") from exc
    try:
        vocab = chords.VOCABS[meta["vocab"]]
    except (KeyError, TypeError):
        raise CliError(f"checkpoint {ckpt_path}: vocab {meta['vocab']!r} is not one of "
                       f"{sorted(chords.VOCABS)}") from None
    if vocab.n_classes != cfg.n_classes:
        raise CliError(f"checkpoint {ckpt_path}: vocab {vocab.name!r} has {vocab.n_classes} "
                       f"classes but the model head has {cfg.n_classes}")
    for stem, clip, ref in _audio_lab_pairs(audio_dir):
        started = time.perf_counter()
        feats = ft.log_amplitude(ft.cqt(clip))
        transformed = time.perf_counter()
        est = tr.predict_annotation(params, cfg, stats, feats, vocab)
        print(f"{stem}: {clip.duration:.2f} s of audio, CQT {transformed - started:.3f} s, "
              f"model {time.perf_counter() - transformed:.3f} s", file=sys.stderr)
        yield stem, ref, est


def cmd_evaluate(args):
    if args.out:
        _ensure_outputs(args.out, tensorio.sibling(args.out, ".manifest.json"))
    if args.model:
        pairs = _model_pairs(args.model, args.audio)
    else:
        pairs = _lab_pairs(args.ref, args.est)
    results = {}
    for stem, ref, est in pairs:
        results[stem] = mt.evaluate_all(ref, est)
    report = {
        "songs": {stem: result.to_dict() for stem, result in results.items()},
        "aggregate": mt.aggregate(list(results.values())),
    }
    print(tensorio.json_text(report), end="")
    if args.out:
        tensorio.write_json(args.out, report)
        write_run_manifest(
            args.out, "evaluate",
            config={"ref": args.ref, "est": args.est, "model": args.model,
                    "audio": args.audio},
            seeds={},
            inputs=[p for p in (args.ref, args.est, args.model, args.audio) if p],
            outputs=[str(Path(args.out))],
        )
    return EXIT_OK


# --------------------------------------------------------------------------
# accounting, checks, bench

def _config_for(variant, vocab_name):
    vocab = chords.VOCABS[vocab_name]
    return md.ModelConfig(variant=variant, n_classes=vocab.n_classes)


def cmd_params(args):
    print(md.count_params(_config_for(args.variant, args.vocab)))
    return EXIT_OK


def cmd_flops(args):
    try:
        flops = md.count_flops(_config_for(args.variant, args.vocab), args.frames)
    except ValueError as exc:
        raise CliError(f"bad --frames value: {exc}") from exc
    print(flops)
    print(f"gflops {flops / 1e9:.6f}")
    return EXIT_OK


def cmd_gradcheck(args):
    variants = md.VARIANTS if args.variant == "all" else (args.variant,)
    worst = 0.0
    for variant in variants:
        err = gc.model_gradcheck(variant, seed=args.seed)
        worst = max(worst, err)
        print(f"{variant}: max relative gradient error {err:.3e} "
              f"(threshold {gc.REL_TOLERANCE:.0e})")
    if worst > gc.REL_TOLERANCE:
        print("gradcheck FAILED", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_bench(args):
    try:
        lengths = [int(part) for part in args.lengths.split(",") if part]
    except ValueError as exc:
        raise CliError(f"bad --lengths value: {args.lengths}") from exc
    if not lengths or min(lengths) < 1:
        raise CliError(f"bad --lengths value: {args.lengths}")
    cfg = _config_for(args.variant, args.vocab)
    params = md.init_model(cfg, dtype=STANDARD)
    rng = np.random.default_rng(args.seed)
    # One untimed run absorbs allocator and cache warm-up.
    warm = Tensor(rng.standard_normal((min(lengths), cfg.n_bins)), dtype=STANDARD)
    md.forward(params, cfg, warm)
    for length in lengths:
        x = Tensor(rng.standard_normal((length, cfg.n_bins)), dtype=STANDARD)
        t0 = time.perf_counter()
        md.forward(params, cfg, x)
        seconds = time.perf_counter() - t0
        print(f"L={length} flops={md.count_flops(cfg, length)} seconds={seconds:.4f}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="bmace",
        description="Chord estimation toolkit: training and evaluation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on synthetic or supplied audio")
    p.add_argument("--variant", required=True, choices=md.VARIANTS)
    p.add_argument("--vocab", default="majmin", choices=sorted(chords.VOCABS))
    p.add_argument("--synthetic", type=int, default=20,
                   help="number of synthetic clips (default %(default)s)")
    p.add_argument("--audio", default=None,
                   help="directory of WAV + .lab pairs to train on instead")
    p.add_argument("--duration", type=float, default=10.0,
                   help="synthetic clip length in seconds (default %(default)s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=tr.TrainConfig.max_epochs)
    p.add_argument("--batch-size", type=int, default=tr.TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=tr.TrainConfig.learning_rate)
    p.add_argument("--patience", type=int, default=tr.TrainConfig.patience)
    p.add_argument("--out", required=True, help="checkpoint path (.json/.bin pair)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score estimates against references")
    p.add_argument("--ref", help="directory of reference .lab files")
    p.add_argument("--est", help="directory of estimated .lab files")
    p.add_argument("--model", help="checkpoint to run instead of --est")
    p.add_argument("--audio", help="directory of WAV + .lab pairs for --model")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("params", help="print the exact parameter count")
    p.add_argument("--variant", required=True, choices=md.VARIANTS)
    p.add_argument("--vocab", default="majmin", choices=sorted(chords.VOCABS))
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("flops", help="print exact forward FLOPs for a length")
    p.add_argument("--variant", required=True, choices=md.VARIANTS)
    p.add_argument("--vocab", default="majmin", choices=sorted(chords.VOCABS))
    p.add_argument("--frames", type=int, default=108)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--variant", default="all", choices=("all",) + md.VARIANTS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="wall time and FLOPs across lengths")
    p.add_argument("--variant", default="bmace", choices=md.VARIANTS)
    p.add_argument("--vocab", default="majmin", choices=sorted(chords.VOCABS))
    p.add_argument("--lengths", default="256,512,1024",
                   help="comma-separated frame counts (default %(default)s)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate":
        flags = (args.ref, args.est, args.model, args.audio)
        if [bool(f) for f in flags] not in ([True, True, False, False],
                                            [False, False, True, True]):
            parser.error("evaluate needs exactly one of --ref/--est or --model/--audio")
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
