"""The benchmark's workloads.

Each workload makes its inputs from the seed in ``setup``, runs one round
of operations in ``run_round`` the way a ``bmace`` subcommand would, and
checks every operation's output in ``check`` against a computation made
apart from the package (see ``oracle.py``). Every round runs the same
operations, so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from bmace import chords
from bmace import features as ft
from bmace import metrics as mt
from bmace import model as md
from bmace import training as tr
from bmace.numerics import HIGH, STANDARD, Tensor, grad

SR = 22050
HOP = 2048
WINDOW = 108  # frames in the 10-s model window
STRIDE = 54   # window start spacing: 10-s windows overlapping by 5 s
PITCH_SHARP = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
PITCH_FLAT = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")
MODEL_PATH = Path(__file__).resolve().parent / "data" / "songs_model.npz"
clock = time.perf_counter


def n_frames(n_samples):
    """Frame law: one frame per full hop, plus the frame at 0."""
    return n_samples // HOP + 1


def uncovered_tail(frames):
    """Frames after the last full window that the model never runs on."""
    return 0 if frames <= WINDOW else (frames - WINDOW) % STRIDE


def windows(frames):
    return 1 if frames <= WINDOW else (frames - WINDOW) // STRIDE + 1


@dataclass
class Op:
    """A timed call into the package, standing for ``count`` operations."""

    name: str
    seconds: float
    audio_s: float
    output: object
    count: int = 1


def label_text(label, rng=None):
    """Harte text for an oracle label; ``rng`` varies the spelling."""
    if label[0] != "chord":
        return label[0]
    _, root, quality = label
    names = PITCH_FLAT if rng is not None and rng.uniform() < 0.5 else PITCH_SHARP
    if quality == "maj" and rng is not None and rng.uniform() < 0.5:
        return names[root]
    return f"{names[root]}:{quality}"


def lab_lines(intervals, rng=None):
    return "".join(f"{s:.6f} {e:.6f} {label_text(lab, rng)}\n" for s, e, lab in intervals)


def majmin_targets(ref, frames):
    return np.array([oracle.majmin_class(oracle.label_at(ref, t * oracle.HOP_S))
                     for t in range(frames)], dtype=np.int64)


def as_oracle(annotation):
    return [(s, e, oracle.from_program_label(lab)) for s, e, lab in annotation.intervals]


class TrainSynth:
    """``bmace train`` on a seeded corpus of 10-s synthetic maj-min clips.

    Set-up builds the corpus and its features. A round trains the default
    bmace model for a fixed number of epochs (patience equals epochs, so
    early stopping never shortens it) and writes the checkpoint; its
    operations are the training segments it processes. Batch size 4 gives
    the ten training clips three Adam steps per epoch.
    """

    CLIPS = 12
    CLIP_S = 10.0
    EPOCHS = 12
    BATCH = 4
    # Pooled maj-min WCSR of the returned model on its training clips
    # (chance is 0.04). The held-out test clip is scored and reported but
    # not gated: with one validation clip, validation loss turns up after
    # 3 epochs on some seeds and ``train`` returns that early model, which
    # scored 0.009 on seed 4004's test clip. Over 23 seeds the training
    # clips scored 0.49-0.98 and the test clip 0.009-0.98.
    TRAIN_BAR = 0.3
    GRAD_TOLERANCE = 1e-8  # relative, directional derivative against central differences

    def __init__(self, seed):
        self.seed = seed

    def setup(self, workdir):
        vocab = chords.MAJMIN_25
        corpus = tr.make_synthetic_corpus(self.CLIPS, vocab, 1000 * self.seed, self.CLIP_S)
        self.train, self.val, self.test = tr.split_dataset(corpus, self.seed)
        self.vocab = vocab
        self.model_cfg = md.ModelConfig(variant="bmace", n_classes=vocab.n_classes, seed=self.seed)
        self.train_cfg = tr.TrainConfig(batch_size=self.BATCH, max_epochs=self.EPOCHS,
                                        patience=self.EPOCHS, seed=self.seed)
        self.workdir = workdir
        clip_frames = n_frames(int(round(self.CLIP_S * SR)))
        self.segments = self.EPOCHS * windows(clip_frames) * len(self.train)

    def run_round(self, r, mark):
        mark(f"round{r}/train")
        start = clock()
        result = tr.train(self.model_cfg, self.train_cfg, self.train, self.val, self.vocab)
        paths = md.save_checkpoint(self.workdir / f"model-r{r}", self.model_cfg, result.params,
                                   extra_meta={"stats": result.stats.to_dict(),
                                               "vocab": self.vocab.name,
                                               "best_epoch": result.best_epoch,
                                               "best_val_loss": result.best_val_loss})
        seconds = clock() - start
        audio_s = self.segments * WINDOW * HOP / SR
        return [Op("train", seconds, audio_s, (result, paths), count=self.segments)]

    def _gradient_error(self):
        """Relative gap between the tape's directional derivative and FD.

        The direction is a seeded random unit vector plus the unit gradient.
        A random direction alone is nearly orthogonal to the gradient of
        140k parameters: its derivative can be as small as 7e-6, where the
        roundoff of a central difference of an O(1) loss is already 1e-5 of
        it. A wrong tape gradient g' still shows: its derivative g'.d differs
        from the loss's own unless the error is orthogonal to d.
        """
        cfg = self.model_cfg
        params = md.init_model(cfg, dtype=HIGH)
        names = [name for name, _ in params.named_tensors()]
        tensors = [t for _, t in params.named_tensors()]
        clip = self.train[0]
        values = clip.features.values
        x = Tensor((values - values.mean()) / values.std(), dtype=HIGH)
        targets = majmin_targets(as_oracle(clip.annotation), clip.features.frames)

        def loss(ts):
            logits = md.forward(md.params_from_dict(dict(zip(names, ts))), cfg, x)
            return tr.cross_entropy(logits, targets)

        def unit(arrays):
            norm = math.sqrt(sum(float((a * a).sum()) for a in arrays))
            return [a / norm for a in arrays]

        grads = [g.data for g in grad(lambda: loss(tensors), tensors)]
        rng = np.random.default_rng(self.seed)
        random = unit([rng.standard_normal(t.shape) for t in tensors])
        direction = unit([r + g for r, g in zip(random, unit(grads))])

        def along(step):
            moved = [Tensor(t.data + step * d, dtype=HIGH) for t, d in zip(tensors, direction)]
            return float(loss(moved).data)

        analytic = sum(float((g * d).sum()) for g, d in zip(grads, direction))
        h = 1e-5
        numeric = (along(h) - along(-h)) / (2 * h)
        return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)

    def check(self, ops):
        problems = []
        err = self._gradient_error()
        if not err <= self.GRAD_TOLERANCE:
            problems.append(f"directional derivative off by {err:.2e} relative")
        digests = set()
        for op in ops:
            _, paths = op.output
            digests.add(hashlib.sha256(b"".join(Path(p).read_bytes() for p in paths)).hexdigest())
        if len(digests) != 1:
            problems.append(f"{len(digests)} different checkpoints from identical training runs")
        result = ops[-1].output[0]
        notes = {"gradient_rel_error": err}
        for split, clips in (("train", self.train), ("test", self.test)):
            matched = total = 0.0
            for clip in clips:
                est = tr.predict_annotation(result.params, self.model_cfg, result.stats,
                                            clip.features, self.vocab)
                score, duration = oracle.wcsr(as_oracle(clip.annotation), as_oracle(est),
                                              ("majmin",))["majmin"]
                matched += score * duration
                total += duration
            notes[f"{split}_majmin_wcsr"] = matched / total
        if not notes["train_majmin_wcsr"] >= self.TRAIN_BAR:
            problems.append(f"training-clip maj-min WCSR {notes['train_majmin_wcsr']:.3f} "
                            f"below {self.TRAIN_BAR}")
        return 0, problems, notes


@dataclass
class Song:
    name: str
    frames: int
    ref: list
    wav: Path
    lab: Path


class TranscribeSongs:
    """``bmace evaluate --model --audio`` over seeded synthetic songs.

    Three songs of distinct lengths, 20, 23 and 45 s. Every round reads
    the same files, so the CQT plans of round 0 serve the later rounds.
    """

    # Frame counts: 216 and 486 end on a full window; 250 leaves 34 frames
    # after the last window (see ``uncovered_tail``).
    SONG_FRAMES = (216, 250, 486)
    EXTRA = 100         # samples past the last full hop
    TAIL_FRAMES = 54    # the last 5 s
    WCSR_BAR = 0.75
    TAIL_BAR = 0.7

    def __init__(self, seed):
        self.seed = seed

    def _progression(self, rng, total_s):
        out = []
        t = 0.0
        while t < total_s - 1e-6:
            end = min(round(t + rng.uniform(1.0, 2.5), 6), total_s)
            if rng.uniform() < 0.08:
                label = oracle.NO_CHORD
            else:
                cls = int(rng.integers(24))
                # Uncovered tail frames read as class 0 (C:maj); keep it out
                # of the last 6 s so they can never match by chance.
                while cls == 0 and end > total_s - 6.0:
                    cls = int(rng.integers(24))
                label = ("chord", cls // 2, "min" if cls % 2 else "maj")
            out.append((t, end, label))
            t = end
        return out

    def setup(self, workdir):
        with np.load(MODEL_PATH, allow_pickle=False) as saved:
            meta = json.loads(str(saved["meta"]))
            arrays = {name: saved[name] for name in saved.files if name != "meta"}
        cfg = md.ModelConfig.from_dict(meta["config"])
        params = md.params_from_dict({name: Tensor(a, dtype=STANDARD) for name, a in arrays.items()})
        md.save_checkpoint(workdir / "model", cfg, params,
                           extra_meta={"stats": meta["stats"], "vocab": meta["vocab"]})
        self.cfg, self.params, ckpt_meta = md.load_checkpoint(workdir / "model")
        self.stats = ft.NormStats.from_dict(ckpt_meta["stats"])
        self.vocab = chords.VOCABS[ckpt_meta["vocab"]]

        self.songs = []
        for i, frames in enumerate(self.SONG_FRAMES):
            n = (frames - 1) * HOP + self.EXTRA
            rng = np.random.default_rng([self.seed, i])
            ref = self._progression(rng, float(f"{n / SR:.6f}"))
            progression = chords.Annotation(tuple(
                (s, e, chords.parse_chord(label_text(lab))) for s, e, lab in ref))
            clip = ft.synth_chord_clip(progression, seed=1000 * self.seed + i)
            if clip.samples.size != n:
                raise RuntimeError(f"song {i}: synthesised {clip.samples.size} samples, not {n}")
            song = Song(f"song{i}-{frames}f", frames, ref,
                        workdir / f"song{i}.wav", workdir / f"song{i}.lab")
            song.lab.write_text(lab_lines(ref), encoding="utf-8")
            ft.write_wav(song.wav, clip)
            self.songs.append(song)

    def run_round(self, r, mark):
        ops = []
        for song in self.songs:
            mark(f"round{r}/{song.name}")
            start = clock()
            clip = ft.read_wav(song.wav)
            feats = ft.log_amplitude(ft.cqt(clip))
            est = tr.predict_annotation(self.params, self.cfg, self.stats, feats, self.vocab)
            ref = chords.parse_lab(song.lab.read_text(encoding="utf-8"))
            result = mt.evaluate_all(ref, est)
            ops.append(Op(song.name, clock() - start, clip.duration,
                          (est, result, feats.frames)))
        mt.aggregate([op.output[1] for op in ops])
        return ops

    def check(self, ops):
        songs = {song.name: song for song in self.songs}
        failed = 0
        problems = []
        notes = {}
        for op in ops:
            song = songs[op.name]
            est, result, frames = op.output
            if frames != song.frames:
                problems.append(f"{op.name}: {frames} frames, frame law gives {song.frames}")
            est_t = as_oracle(est)
            score = oracle.wcsr(song.ref, est_t, ("majmin",))["majmin"][0]
            tail = oracle.tail_accuracy(song.ref, est_t, song.frames, self.TAIL_FRAMES)
            if abs(result.scores["majmin"] - score) > 1e-9:
                problems.append(f"{op.name}: evaluate_all maj-min {result.scores['majmin']!r}, "
                                f"oracle {score!r}")
            notes[op.name] = {"majmin_wcsr": score, "tail_accuracy": tail,
                              "uncovered_tail_frames": uncovered_tail(song.frames)}
            if score >= self.WCSR_BAR and tail >= self.TAIL_BAR:
                continue
            failed += 1
            if uncovered_tail(song.frames) == 0:
                problems.append(f"{op.name}: maj-min WCSR {score:.3f}, tail accuracy {tail:.3f}")
        return failed, problems, notes


class ScoreLabs:
    """``bmace evaluate --ref --est`` over large-vocabulary .lab pairs.

    References are 200-260 s songs with chord-length intervals. Six
    estimates keep chord-length intervals; seven flicker at frame level,
    with 300 to 2,400 intervals. The odd split keeps the per-pair median
    inside one group. Span and interval counts depend on the pair's index
    only, so every seed asks for the same amount of work; the seed draws
    the boundaries and labels.
    """

    SMOOTH = 6
    FLICKER_INTERVALS = (2400, 1600, 1100, 800, 550, 400, 300)
    MEAN_CHORD_S = 1.8
    TOLERANCE = 1e-9

    def __init__(self, seed):
        self.seed = seed

    @staticmethod
    def _random_label(rng, differ_from=None):
        while True:
            u = rng.uniform()
            if u < 0.05:
                label = oracle.NO_CHORD
            elif u < 0.07:
                label = oracle.UNKNOWN
            else:
                label = ("chord", int(rng.integers(12)), oracle.QUALITIES[int(rng.integers(14))])
            if label != differ_from:
                return label

    def _labels(self, rng, bounds, truth):
        """One label per interval, mostly ``truth``'s, never the previous one."""
        out = []
        previous = None
        for s, e in zip(bounds, bounds[1:]):
            label = oracle.label_at(truth, s) if truth and rng.uniform() < 0.7 else None
            if label is None or label == previous:
                label = self._random_label(rng, previous)
            out.append((s, e, label))
            previous = label
        return out

    def _pair(self, rng, index):
        span = 200.0 + 5.0 * index
        n_ref = round(span / self.MEAN_CHORD_S)
        weights = rng.uniform(0.6, 3.0, n_ref)
        inner = np.round(np.cumsum(weights)[:-1] * (span / weights.sum()), 3)
        bounds = [0.0, *inner.tolist(), span]
        ref = self._labels(rng, bounds, None)
        if index < self.SMOOTH:
            # Shifts stay under half the shortest chord, so no interval vanishes.
            shift = np.round(rng.uniform(-0.15, 0.15, n_ref - 1), 3)
            est_bounds = [0.0, *(inner + shift).tolist(), span]
        else:
            count = self.FLICKER_INTERVALS[index - self.SMOOTH]
            frames = int(span / oracle.HOP_S)
            cuts = np.sort(rng.choice(np.arange(1, frames), count - 1, replace=False))
            est_bounds = [0.0, *np.round(cuts * oracle.HOP_S, 6).tolist(), span]
        return ref, self._labels(rng, est_bounds, ref)

    def setup(self, workdir):
        self.pairs = []
        (workdir / "ref").mkdir()
        (workdir / "est").mkdir()
        for i in range(self.SMOOTH + len(self.FLICKER_INTERVALS)):
            rng = np.random.default_rng([self.seed, 7, i])
            ref, est = self._pair(rng, i)
            name = f"pair{i:02d}-{'smooth' if i < self.SMOOTH else 'flicker'}"
            ref_path, est_path = workdir / "ref" / f"{name}.lab", workdir / "est" / f"{name}.lab"
            ref_path.write_text(f"# reference {name}\n" + lab_lines(ref, rng), encoding="utf-8")
            est_path.write_text(f"# estimate {name}\n" + lab_lines(est, rng), encoding="utf-8")
            self.pairs.append((name, ref, est, ref_path, est_path))

    def run_round(self, r, mark):
        ops = []
        results = []
        for name, ref_t, _, ref_path, est_path in self.pairs:
            mark(f"round{r}/{name}")
            start = clock()
            ref = chords.parse_lab(ref_path.read_text(encoding="utf-8"))
            est = chords.parse_lab(est_path.read_text(encoding="utf-8"))
            results.append(mt.evaluate_all(ref, est))
            ops.append(Op(name, clock() - start, ref_t[-1][1], results[-1].scores))
        mt.aggregate(results)
        return ops

    def check(self, ops):
        problems = []
        expected = {name: oracle.wcsr(ref, est) for name, ref, est, _, _ in self.pairs}
        for op in ops:
            for kind, (want, _) in expected[op.name].items():
                got = op.output[kind]
                if (got is None) != (want is None) or (
                        want is not None and abs(got - want) > self.TOLERANCE):
                    problems.append(f"{op.name} {kind}: evaluate_all {got!r}, oracle {want!r}")
        for name, _, _, ref_path, _ in self.pairs:
            ref = chords.parse_lab(ref_path.read_text(encoding="utf-8"))
            for kind, score in mt.evaluate_all(ref, ref).scores.items():
                if score is not None and abs(score - 1.0) > self.TOLERANCE:
                    problems.append(f"{name} {kind}: identical pair scores {score!r}")
        counts = {name: len(est) for name, _, est, _, _ in self.pairs}
        return 0, problems, {"estimate_intervals": counts}


WORKLOADS = {
    "train-synth": TrainSynth,
    "transcribe-songs": TranscribeSongs,
    "score-labs": ScoreLabs,
}
