"""Training loop tests: loss oracles, optimizer algebra, determinism."""

import math
import multiprocessing
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from bmace import chords
from bmace import cli
from bmace import features as ft
from bmace import gradcheck as gc
from bmace import mamba as mb
from bmace import model as md
from bmace import numerics as nm
from bmace import training as tr
from bmace.numerics import HIGH, STANDARD, Tape, Tensor

SKIP = chords.SKIP


def tiny_config(variant=md.MACE_V, n_classes=25, seed=0):
    return md.ModelConfig(variant=variant, n_classes=n_classes, d_model=8,
                          n_state=2, dt_rank=2, conv_k=2, expand=1, seed=seed)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = tr.TrainConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.patience == 5
        assert tr.CLIP_NORM == 5.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            tr.TrainConfig(learning_rate=rate)

    def test_rejects_nonpositive_patience(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(patience=0)


def reference_cross_entropy(logits, targets):
    """(value, logits gradient) of the three taped ops cross_entropy replaced.

    Log-softmax rows, then the mean over non-SKIP rows of the target
    entries, then a negation; the gradient replays their adjoints in turn.
    """
    x = logits.data
    shifted = x - x.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.nonzero(targets != SKIP)[0]
    minus_one = x.dtype.type(-1.0)
    value = np.asarray(logp[rows, targets[rows]].mean(), dtype=x.dtype) * minus_one
    g = np.ones((), dtype=x.dtype) * minus_one
    gx = np.zeros(x.shape, dtype=x.dtype)
    gx[rows, targets[rows]] = g / rows.size
    return value, gx - np.exp(logp) * gx.sum(axis=1, keepdims=True)


class TestCrossEntropy:
    @pytest.mark.parametrize("dtype", [STANDARD, HIGH], ids=["float32", "float64"])
    def test_matches_three_op_reference_bit_for_bit(self, dtype):
        rng = np.random.default_rng(8)
        for _ in range(30):
            L, C = int(rng.integers(1, 40)), int(rng.integers(2, 30))
            logits = Tensor(rng.standard_normal((L, C)) * 4.0, dtype=dtype)
            targets = rng.integers(0, C, size=L)
            targets[rng.random(L) < 0.3] = SKIP
            targets[rng.integers(L)] = rng.integers(C)
            with Tape() as tape:
                loss = tr.cross_entropy(logits, targets)
            (g,) = tape.gradients(loss, [logits])
            want_value, want_grad = reference_cross_entropy(logits, targets)
            untaped = tr.cross_entropy(logits, targets)
            assert loss.dtype == dtype and g.dtype == dtype
            assert loss.data.tobytes() == untaped.data.tobytes() == want_value.tobytes()
            assert g.data.tobytes() == want_grad.tobytes()

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 5))
        shifted = x + rng.uniform(-100.0, 100.0, size=(6, 1))
        targets = np.array([0, SKIP, 4, 2, 1, SKIP])
        grads = []
        for values in (x, shifted):
            logits = Tensor(values)
            with Tape() as tape:
                loss = tr.cross_entropy(logits, targets)
            grads.append((loss.item(), tape.gradients(loss, [logits])[0].data))
        (a, ga), (b, gb) = grads
        assert abs(a - b) <= 1e-12
        assert np.max(np.abs(ga - gb)) <= 1e-12

    def test_uniform_logits_give_log_n_classes(self):
        logits = Tensor(np.zeros((7, 25)))
        targets = np.arange(7) % 25
        loss = tr.cross_entropy(logits, targets)
        assert abs(loss.data - math.log(25)) < 1e-12

    def test_confident_logits_give_near_zero(self):
        targets = np.array([3, 1, 0, 2])
        logits_arr = np.zeros((4, 4))
        logits_arr[np.arange(4), targets] = 30.0
        loss = tr.cross_entropy(Tensor(logits_arr), targets)
        assert loss.data < 1e-9

    def test_two_frame_value(self):
        # Row 0: softmax([0, ln 3]) puts 3/4 on class 1. Row 1 is uniform.
        logits = Tensor(np.array([[0.0, math.log(3.0)], [0.0, 0.0]]))
        loss = tr.cross_entropy(logits, np.array([1, 0]))
        expected = 0.5 * (-math.log(0.75) - math.log(0.5))
        assert abs(loss.data - expected) < 1e-12

    def test_all_skip_rejected(self):
        logits = Tensor(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            tr.cross_entropy(logits, np.array([SKIP, SKIP, SKIP]))

    def test_out_of_range_target_rejected(self):
        logits = Tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            tr.cross_entropy(logits, np.array([0, 4]))

    def test_skip_frames_do_not_touch_the_loss(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((4, 3))
        targets = np.array([0, SKIP, 2, SKIP])
        bumped = base.copy()
        bumped[1] += 0.37
        bumped[3] -= 1.25
        a = tr.cross_entropy(Tensor(base), targets)
        b = tr.cross_entropy(Tensor(bumped), targets)
        assert a.data == b.data

    def test_skip_frames_get_exactly_zero_gradient(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((4, 3)))
        targets = np.array([0, SKIP, 2, SKIP])
        with Tape() as tape:
            loss = tr.cross_entropy(logits, targets)
        (g,) = tape.gradients(loss, [logits])
        assert np.all(g.data[[1, 3]] == 0.0)
        assert np.any(g.data[[0, 2]] != 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.standard_normal((5, 4)), dtype=HIGH)
        targets = np.array([0, 3, SKIP, 1, 2])

        def loss(ps):
            return tr.cross_entropy(ps[0], targets)

        assert gc.check_gradients(loss, [logits]) < gc.REL_TOLERANCE


class TestAdam:
    def test_zero_gradients_leave_params_bitwise_unchanged(self):
        flat = np.array([1.0, -2.0, 3.5])
        state = tr.adam_init(flat)
        new, state = tr.adam_step(flat, np.zeros(3), state, tr.TrainConfig())
        assert np.array_equal(new, flat)
        assert state.t == 1

    def test_first_step_moves_by_learning_rate_times_sign(self):
        cfg = tr.TrainConfig(learning_rate=1e-2)
        flat = np.zeros(2)
        new, _ = tr.adam_step(flat, np.array([0.5, -0.25]), tr.adam_init(flat), cfg)
        # Bias correction makes m_hat = g and v_hat = g*g, so the update is
        # lr * g / (|g| + eps), within eps of lr * sign(g).
        assert np.allclose(new, [-1e-2, 1e-2], atol=1e-9)

    def test_elements_update_independently(self):
        flat = np.array([1.0, 2.0])
        new, _ = tr.adam_step(flat, np.array([0.3, 0.0]), tr.adam_init(flat), tr.TrainConfig())
        assert new[0] != flat[0]
        assert new[1] == flat[1]

    def test_shape_mismatch_rejected(self):
        flat = np.zeros(4)
        with pytest.raises(nm.ShapeError):
            tr.adam_step(flat, np.zeros((2, 2)), tr.adam_init(flat), tr.TrainConfig())

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(4)
        flat = rng.standard_normal(6)
        grad = rng.standard_normal(6)

        def run():
            p, s = flat, tr.adam_init(flat)
            for _ in range(5):
                p, s = tr.adam_step(p, grad, s, tr.TrainConfig())
            return p

        assert np.array_equal(run(), run())


class TestClipGradients:
    def test_small_gradients_pass_through(self):
        grad = np.array([3.0, 0.0, 0.0, 4.0])
        clipped, norm = tr.clip_gradients(grad, 5.0)
        assert norm == 5.0
        assert np.array_equal(clipped, grad)

    def test_large_gradients_scaled_to_max_norm(self):
        grad = np.array([6.0, 0.0, 0.0, 8.0])
        clipped, norm = tr.clip_gradients(grad, 5.0)
        assert norm == 10.0
        assert abs(math.sqrt(float(np.sum(clipped ** 2))) - 5.0) < 1e-12

    def test_zero_gradients_survive(self):
        clipped, norm = tr.clip_gradients(np.zeros(3), 5.0)
        assert norm == 0.0
        assert np.array_equal(clipped, np.zeros(3))


def dict_batch_step(named, m, v, t, model_cfg, segments, lr):
    """Per-tensor reference for ``training._adam_batch_step``.

    Name-keyed dicts of arrays, updated in place: per-segment gradients
    summed from zeros in order, their mean clipped by the sum of per-tensor
    squared norms, then Adam tensor by tensor. Returns (t, pre-clip norm).
    """
    acc = {k: np.zeros_like(a) for k, a in named.items()}
    for feats, targets in segments:
        tensors = {k: Tensor(a, dtype=STANDARD) for k, a in named.items()}
        with Tape() as tape:
            logits = md.forward(md.params_from_dict(tensors), model_cfg,
                                Tensor(feats, dtype=STANDARD))
            loss = tr.cross_entropy(logits, targets)
        for k, g in zip(tensors, tape.gradients(loss, list(tensors.values()))):
            acc[k] += g.data
    grads = {k: g / len(segments) for k, g in acc.items()}
    norm = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
    if norm > tr.CLIP_NORM:
        grads = {k: g * np.float32(tr.CLIP_NORM / norm) for k, g in grads.items()}
    t += 1
    for k, g in grads.items():
        m[k] = tr.BETA1 * m[k] + (1.0 - tr.BETA1) * g
        v[k] = tr.BETA2 * v[k] + (1.0 - tr.BETA2) * g * g
        m_hat = m[k] / (1.0 - tr.BETA1 ** t)
        v_hat = v[k] / (1.0 - tr.BETA2 ** t)
        named[k] = named[k] - lr * m_hat / (np.sqrt(v_hat) + tr.ADAM_EPS)
    return t, norm


def flatten(named):
    return np.concatenate([a.ravel() for a in named.values()])


class TestFlatStep:
    @pytest.mark.parametrize("scale, clips", [(1.0, False), (30.0, True)])
    def test_matches_per_tensor_reference_bit_for_bit(self, scale, clips):
        # Scaled-up features push the mean gradient past CLIP_NORM. With
        # one worker, the parent computes segment 0 and the worker segment 1.
        cfg = tiny_config(variant=md.BMACE, n_classes=5)
        tcfg = tr.TrainConfig(learning_rate=1e-2)
        rng = np.random.default_rng(27)
        segments = [((scale * rng.standard_normal((12, 144))).astype(np.float32),
                     rng.integers(0, 5, size=12)) for _ in range(2)]
        for workers in (0, 1):
            flat, state = tr._init_training(cfg)
            named = {name: t.data.copy()
                     for name, t in md.init_model(cfg, dtype=STANDARD).named_tensors()}
            assert list(named) == list(md.tensor_shapes(cfg))
            m = {k: np.zeros_like(a) for k, a in named.items()}
            v = {k: np.zeros_like(a) for k, a in named.items()}
            t = 0
            with tr._GradientPool(cfg, segments, workers, batch_size=2) as pool:
                for _ in range(2):
                    flat, state, _, norm = tr._adam_batch_step(flat, state, tcfg, pool, [0, 1])
                    t, ref_norm = dict_batch_step(named, m, v, t, cfg, segments,
                                                  tcfg.learning_rate)
                    assert (norm > tr.CLIP_NORM) == clips
                    assert abs(norm - ref_norm) <= 1e-12 * ref_norm
                    assert state.t == t
                    for ours, ref in ((flat, named), (state.m, m), (state.v, v)):
                        assert ours.dtype == np.float32
                        assert np.array_equal(ours, flatten(ref))

    def test_non_finite_parameter_is_named(self):
        cfg = tiny_config(variant=md.BMACE, n_classes=3)
        flat, state = tr._init_training(cfg)
        shapes = md.tensor_shapes(cfg)
        ends = dict(zip(shapes, np.cumsum([math.prod(s) for s in shapes.values()])))
        flat[ends["block_a.D"] + 1] = np.nan  # inside block_a.out_proj
        flat[ends["block_b.A_log"] - 1] = np.inf  # a later tensor
        rng = np.random.default_rng(28)
        segment = (rng.standard_normal((8, 144)).astype(np.float32), np.zeros(8, dtype=np.int64))
        for workers in (0, 1):
            with tr._GradientPool(cfg, [segment] * 2, workers, batch_size=2) as pool:
                with pytest.raises(tr.TrainingDivergedError,
                                   match=r"^parameter block_a\.out_proj became non-finite$"):
                    tr._adam_batch_step(flat, state, tr.TrainConfig(), pool, [0, 1])


class TestSplitDataset:
    def test_ten_items_split_eight_one_one(self):
        train, val, test = tr.split_dataset(list(range(10)), seed=0)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_partition_is_exact(self):
        items = [object() for _ in range(23)]
        train, val, test = tr.split_dataset(items, seed=5)
        seen = [id(x) for x in train + val + test]
        assert sorted(seen) == sorted(id(x) for x in items)
        assert len(set(seen)) == len(items)

    def test_same_seed_same_split(self):
        items = list(range(12))
        assert tr.split_dataset(items, seed=7) == tr.split_dataset(items, seed=7)

    def test_different_seed_usually_differs(self):
        items = list(range(40))
        a = tr.split_dataset(items, seed=0)
        b = tr.split_dataset(items, seed=1)
        assert a != b

    def test_too_few_items_rejected(self):
        with pytest.raises(ValueError):
            tr.split_dataset([1, 2], seed=0)


class TestClipSegments:
    def test_exact_window_clip_has_no_padding(self):
        example = tr.synth_clip_example(11, chords.MAJMIN_25, duration_s=10.0)
        stats = ft.compute_norm_stats([example.features])
        segments = tr.clip_segments(example, chords.MAJMIN_25, stats)
        assert len(segments) == 1
        feats, targets = segments[0]
        assert feats.shape == (108, 144)
        expected = chords.framewise_targets(example.annotation, 108, chords.MAJMIN_25)
        assert np.array_equal(targets, expected)
        assert not np.any(targets == SKIP) or np.array_equal(targets, expected)

    def test_short_clip_pads_targets_with_skip(self):
        example = tr.synth_clip_example(12, chords.MAJMIN_25, duration_s=3.0)
        stats = ft.compute_norm_stats([example.features])
        (feats, targets), = tr.clip_segments(example, chords.MAJMIN_25, stats)
        real = example.features.frames
        assert real < 108
        assert np.all(targets[real:] == SKIP)
        expected = chords.framewise_targets(example.annotation, real, chords.MAJMIN_25)
        assert np.array_equal(targets[:real], expected)

    def test_long_clip_windows_align_with_full_targets(self):
        example = tr.synth_clip_example(13, chords.MAJMIN_25, duration_s=15.0)
        stats = ft.compute_norm_stats([example.features])
        segments = tr.clip_segments(example, chords.MAJMIN_25, stats)
        frames = example.features.frames
        full = np.asarray(chords.framewise_targets(example.annotation, frames,
                                                   chords.MAJMIN_25))
        starts = [int(w[0]) for w in ft.windows(np.arange(frames))]
        assert len(segments) == len(starts)
        for (feats, targets), start in zip(segments, starts):
            assert np.array_equal(targets, full[start:start + 108])

    def test_every_frame_of_a_250_frame_clip_trains_with_its_target(self):
        # 23.2 s -> 250 frames: windows starting every 54 frames alone
        # would stop at frame 215.
        example = tr.synth_clip_example(15, chords.MAJMIN_25, duration_s=23.2)
        frames = example.features.frames
        assert frames == 250
        stats = ft.compute_norm_stats([example.features])
        rows = ft.znormalize(example.features, stats).values.astype(np.float32)
        frame_of = {row.tobytes(): t for t, row in enumerate(rows)}
        assert len(frame_of) == frames
        full = chords.framewise_targets(example.annotation, frames, chords.MAJMIN_25)
        seen = {}
        for feats, targets in tr.clip_segments(example, chords.MAJMIN_25, stats):
            for row, target in zip(feats, targets):
                seen[frame_of[row.tobytes()]] = int(target)
        assert sorted(seen) == list(range(frames))
        assert [seen[t] for t in range(frames)] == list(full)

    def test_features_are_normalized_float32(self):
        example = tr.synth_clip_example(14, chords.MAJMIN_25, duration_s=4.0)
        stats = ft.compute_norm_stats([example.features])
        (feats, _), = tr.clip_segments(example, chords.MAJMIN_25, stats)
        assert feats.dtype == np.float32


class TestBuildDataset:
    def test_all_skip_windows_are_left_out(self):
        # 270 frames (25.1 s): C:sus4, which the 25-class vocabulary cannot
        # express, for 15 s, then C:maj. The first two windows are all SKIP.
        rng = np.random.default_rng(40)
        annotation = chords.Annotation(((0.0, 15.0, chords.parse_chord("C:sus4")),
                                        (15.0, 26.0, chords.parse_chord("C"))))
        example = tr.ClipExample("half", ft.FeatureMatrix(rng.standard_normal((270, 144))),
                                 annotation)
        stats = ft.compute_norm_stats([example.features])
        windows = tr.clip_segments(example, chords.MAJMIN_25, stats)
        kept = tr.build_dataset([example], chords.MAJMIN_25, stats, "training")
        scorable = [w for w in windows if np.any(w[1] != SKIP)]
        assert len(windows) - len(scorable) == 2 and len(kept) == len(scorable)
        for (feats, targets), (want_feats, want_targets) in zip(kept, scorable):
            assert np.array_equal(feats, want_feats)
            assert np.array_equal(targets, want_targets)


class TestCorpus:
    def test_corpus_is_deterministic(self):
        a = tr.make_synthetic_corpus(2, chords.MAJMIN_25, seed=9, duration_s=2.0)
        b = tr.make_synthetic_corpus(2, chords.MAJMIN_25, seed=9, duration_s=2.0)
        for x, y in zip(a, b):
            assert x.name == y.name
            assert np.array_equal(x.features.values, y.features.values)
            assert x.annotation.intervals == y.annotation.intervals

    def test_clip_names_are_unique(self):
        corpus = tr.make_synthetic_corpus(3, chords.MAJMIN_25, seed=0, duration_s=2.0)
        names = [c.name for c in corpus]
        assert len(set(names)) == 3


class TestTrainLoop:
    def make_corpus(self):
        return tr.make_synthetic_corpus(5, chords.MAJMIN_25, seed=3, duration_s=2.0)

    def test_smoke_run_and_history(self):
        corpus = self.make_corpus()
        cfg = tiny_config()
        tcfg = tr.TrainConfig(max_epochs=3, batch_size=2, seed=0)
        result = tr.train(cfg, tcfg, corpus[:4], corpus[4:], chords.MAJMIN_25)
        assert 1 <= len(result.history) <= 3
        assert result.best_val_loss == min(h["val_loss"] for h in result.history)
        assert result.history[0]["epoch"] == 1
        for record in result.history:
            assert math.isfinite(record["train_loss"])
            assert 0.0 <= record["val_accuracy"] <= 1.0
        for _, tensor in result.params.named_tensors():
            assert np.all(np.isfinite(tensor.data))

    def test_two_runs_are_bit_identical(self):
        corpus = self.make_corpus()
        cfg = tiny_config()
        tcfg = tr.TrainConfig(max_epochs=2, batch_size=2, seed=1)

        def run():
            return tr.train(cfg, tcfg, corpus[:4], corpus[4:], chords.MAJMIN_25)

        a, b = run(), run()
        assert a.history == b.history
        for (name_a, ta), (name_b, tb) in zip(a.params.named_tensors(),
                                              b.params.named_tensors()):
            assert name_a == name_b
            assert np.array_equal(ta.data, tb.data)

    def test_one_progress_line_per_epoch_on_stderr(self, capsys, monkeypatch):
        monkeypatch.setattr(tr, "_gradient_workers", lambda batch_size: (1, "forced"))
        corpus = self.make_corpus()
        tcfg = tr.TrainConfig(max_epochs=2, batch_size=2, seed=0)
        result = tr.train(tiny_config(), tcfg, corpus[:4], corpus[4:], chords.MAJMIN_25)
        captured = capsys.readouterr()
        first, *lines, last = captured.err.splitlines()
        assert captured.out == ""
        assert first == "gradients on the parent and 1 forked worker(s) (forced)"
        assert re.fullmatch(r"gradient workers' peak RSS \d+\.\d MB", last)
        assert len(lines) == len(result.history)
        for record, line in zip(result.history, lines):
            assert line.startswith(f"epoch {record['epoch']}: ")
            assert f"val loss {record['val_loss']:.4f}" in line
            for field in ("train loss", "val accuracy", "segments/s", "grad norm"):
                assert field in line
            # Wall times stay out of the history.
            assert set(record) == {"epoch", "train_loss", "val_loss", "val_accuracy"}

    def test_empty_split_rejected(self):
        corpus = self.make_corpus()
        with pytest.raises(ValueError):
            tr.train(tiny_config(), tr.TrainConfig(), [], corpus[:1], chords.MAJMIN_25)


class TestGradientPool:
    """Forked gradient workers change neither bytes nor errors, and leave nothing running."""

    CORPORA = {}

    @staticmethod
    def force_workers(monkeypatch, workers):
        monkeypatch.setattr(tr, "_gradient_workers", lambda batch_size: (workers, "forced"))

    @pytest.fixture
    def cached_corpus(self, monkeypatch):
        # Each vocabulary's corpus is synthesized once for the whole class.
        make = tr.make_synthetic_corpus

        def cached(*args, **kwargs):
            key = (args, tuple(sorted(kwargs.items())))
            if key not in self.CORPORA:
                self.CORPORA[key] = make(*args, **kwargs)
            return self.CORPORA[key]

        monkeypatch.setattr(tr, "make_synthetic_corpus", cached)

    @pytest.mark.parametrize("batch_size", [1, 3, 4])
    @pytest.mark.parametrize("vocab", ["majmin", "large"])
    def test_checkpoint_bytes_do_not_depend_on_the_worker_count(
            self, capsys, monkeypatch, tmp_path, cached_corpus, vocab, batch_size):
        # Five training clips: batches of 3 and 4 leave a shorter last batch.
        outputs = {}
        for workers in (0, 1, 2, 3):
            self.force_workers(monkeypatch, workers)
            out = tmp_path / f"w{workers}" / "model"
            assert cli.main(["train", "--variant", "bmace", "--vocab", vocab,
                             "--synthetic", "7", "--duration", "2.0", "--epochs", "2",
                             "--batch-size", str(batch_size), "--seed", "5",
                             "--out", str(out)]) == cli.EXIT_OK
            assert multiprocessing.active_children() == []
            outputs[workers] = [out.with_name(out.name + suffix).read_bytes()
                                for suffix in (".json", ".bin", ".history.json")]
        capsys.readouterr()
        assert all(files == outputs[0] for files in outputs.values())

    def segments(self, bad):
        """Four segments; ``bad`` maps a position to "nan" features or "skip" targets."""
        rng = np.random.default_rng(29)
        out = []
        for pos in range(4):
            feats = rng.standard_normal((8, 144)).astype(np.float32)
            targets = rng.integers(0, 3, size=8)
            if bad.get(pos) == "nan":
                feats[3, 7] = np.nan
            elif bad.get(pos) == "skip":
                targets[:] = SKIP
            out.append((feats, targets))
        return out

    @pytest.mark.parametrize("bad, error, message", [
        ({3: "nan"}, tr.TrainingDivergedError,
         "^non-finite feature values reached a training step$"),
        ({2: "skip", 3: "nan"}, ValueError, "masked out"),
        ({0: "nan", 1: "skip"}, tr.TrainingDivergedError, "non-finite feature"),
        ({1: "skip", 2: "nan"}, ValueError, "masked out"),
    ], ids=["nan-last", "skip-before-nan", "nan-before-skip", "skip-then-nan-mid-batch"])
    def test_the_earliest_failing_segment_raises_as_without_workers(self, bad, error, message):
        cfg = tiny_config(n_classes=3)
        segments = self.segments(bad)
        for workers in (0, 1, 3):
            flat, _ = tr._init_training(cfg)
            with tr._GradientPool(cfg, segments, workers, batch_size=4) as pool:
                with pytest.raises(error, match=message):
                    pool.gradient(flat, [0, 1, 2, 3])
            assert multiprocessing.active_children() == []

    def test_nan_feature_on_a_worker_stops_train_with_the_serial_error(self, monkeypatch):
        corpus = tr.make_synthetic_corpus(5, chords.MAJMIN_25, seed=3, duration_s=2.0)
        build = tr.build_dataset

        def poisoned(examples, vocab, stats, split):
            segments = build(examples, vocab, stats, split)
            if split == "training":
                # The last segment of the first batch, which the third worker takes.
                assert len(segments) == 4
                last = int(np.random.default_rng(0).permutation(4)[-1])
                segments[last][0][0, 0] = np.nan
            return segments

        monkeypatch.setattr(tr, "build_dataset", poisoned)
        messages = []
        for workers in (0, 3):
            self.force_workers(monkeypatch, workers)
            with pytest.raises(tr.TrainingDivergedError) as exc:
                tr.train(tiny_config(), tr.TrainConfig(batch_size=4, seed=0), corpus[:4],
                         corpus[4:], chords.MAJMIN_25)
            messages.append(str(exc.value))
            assert multiprocessing.active_children() == []
        assert messages == ["non-finite feature values reached a training step"] * 2

    def test_a_worker_that_dies_raises_instead_of_hanging(self, monkeypatch):
        parent = os.getpid()
        loss_and_grads = tr._loss_and_grads

        def dies_in_a_worker(*args):
            if os.getpid() != parent:
                os._exit(3)
            return loss_and_grads(*args)

        monkeypatch.setattr(tr, "_loss_and_grads", dies_in_a_worker)
        self.force_workers(monkeypatch, 1)
        corpus = tr.make_synthetic_corpus(5, chords.MAJMIN_25, seed=3, duration_s=2.0)
        with pytest.raises(RuntimeError, match=r"gradient worker \d+ died \(exit code 3\)"):
            tr.train(tiny_config(), tr.TrainConfig(batch_size=2), corpus[:4], corpus[4:],
                     chords.MAJMIN_25)
        assert multiprocessing.active_children() == []

    def test_worker_count_follows_cpus_batch_threads_and_fork(self, monkeypatch):
        monkeypatch.setattr(ft, "available_cpus", lambda: 4)
        assert tr._gradient_workers(8) == (3, "4 CPUs")
        assert tr._gradient_workers(4) == (3, "4 CPUs")
        assert tr._gradient_workers(2) == (1, "batch size 2")
        assert tr._gradient_workers(1) == (0, "batch size 1")
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert tr._gradient_workers(8) == (0, "threads alive")
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert tr._gradient_workers(8) == (0, "no fork")


class TestOverfit:
    def test_loss_decreases_on_one_segment(self):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((20, 144)).astype(np.float32)
        targets = rng.integers(0, 3, size=20)
        cfg = tiny_config(n_classes=3)
        tcfg = tr.TrainConfig(learning_rate=1e-2)
        _, losses = tr.overfit_segment(cfg, feats, targets, steps=150, train_cfg=tcfg)
        assert losses[-1] < 0.5 * losses[0]
        assert losses[-1] < 0.5

    def test_stop_below_halts_early(self):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((10, 144)).astype(np.float32)
        targets = rng.integers(0, 3, size=10)
        cfg = tiny_config(n_classes=3)
        _, losses = tr.overfit_segment(cfg, feats, targets, steps=50, stop_below=100.0)
        assert len(losses) == 1

    def test_all_skip_segment_raises(self):
        feats = np.zeros((8, 144), dtype=np.float32)
        targets = np.full(8, tr.SKIP, dtype=np.int64)
        with pytest.raises(ValueError, match="masked out"):
            tr.overfit_segment(tiny_config(n_classes=3), feats, targets, steps=3)

    def test_nan_features_raise_diverged(self):
        feats = np.full((8, 144), np.nan, dtype=np.float32)
        targets = np.zeros(8, dtype=np.int64)
        with pytest.raises(tr.TrainingDivergedError):
            tr.overfit_segment(tiny_config(n_classes=3), feats, targets, steps=3)


class TestPrediction:
    def test_predict_classes_covers_every_frame(self):
        example = tr.synth_clip_example(20, chords.MAJMIN_25, duration_s=15.0)
        stats = ft.compute_norm_stats([example.features])
        cfg = tiny_config()
        params = md.init_model(cfg, dtype=STANDARD)
        classes = tr.predict_classes(params, cfg, stats, example.features)
        assert classes.shape == (example.features.frames,)
        assert classes.min() >= 0
        assert classes.max() < 25

    def test_every_frame_gets_a_model_prediction(self):
        # With class 0 pushed down by 1e3, only frames the model never
        # ran on could come out as class 0.
        rng = np.random.default_rng(22)
        feats = ft.FeatureMatrix(rng.normal(size=(250, 144)))
        cfg = tiny_config()
        bias = np.zeros(25)
        bias[0] = -1e3
        params = md.init_model(cfg, dtype=STANDARD)
        params["head_bias"] = Tensor(params["head_bias"].data + bias.astype(np.float32))
        classes = tr.predict_classes(params, cfg, ft.NormStats(0.0, 1.0), feats)
        assert classes.shape == (250,)
        assert not np.any(classes == 0)

    def test_one_model_pass_per_clip(self, monkeypatch):
        calls = []
        forward = md.forward

        def counting_forward(params, cfg, x, **kwargs):
            calls.append(x.shape[0])
            return forward(params, cfg, x, **kwargs)

        monkeypatch.setattr(md, "forward", counting_forward)
        rng = np.random.default_rng(23)
        feats = ft.FeatureMatrix(rng.normal(size=(250, 144)))
        cfg = tiny_config()
        tr.predict_classes(md.init_model(cfg, dtype=STANDARD), cfg,
                           ft.NormStats(0.0, 1.0), feats)
        assert calls == [250]

    def test_training_and_prediction_run_the_sequential_scan(self, monkeypatch):
        impls = []
        recurrence = mb.linear_recurrence

        def spy(a, b, impl="seq", **kwargs):
            impls.append(impl)
            return recurrence(a, b, impl=impl, **kwargs)

        monkeypatch.setattr(mb, "linear_recurrence", spy)
        cfg = tiny_config(variant=md.BMACE)
        flat, _ = tr._init_training(cfg)
        rng = np.random.default_rng(25)
        feats = rng.standard_normal((20, 144)).astype(np.float32)
        tr._loss_and_grads(tr._params_from_flat(flat, cfg), cfg, feats,
                           rng.integers(0, 25, size=20))
        # Two blocks, each with a forward and an adjoint recurrence.
        assert impls == ["seq"] * 4
        tr.predict_classes(md.init_model(cfg, dtype=STANDARD), cfg,
                           ft.NormStats(0.0, 1.0), ft.FeatureMatrix(feats))
        assert impls == ["seq"] * 6

    def test_whole_clip_pass_memory_is_bounded(self):
        # 486 frames (about 45 s) with the default bmace model. One pass
        # peaked at 4.1 MB with numpy 2.4.6; the untaped scan keeps one
        # chunk of state, and the (L, d) activations grow with length.
        rng = np.random.default_rng(24)
        feats = ft.FeatureMatrix(rng.normal(size=(486, 144)))
        cfg = md.ModelConfig(variant=md.BMACE, n_classes=25)
        params = md.init_model(cfg, dtype=STANDARD)
        stats = ft.NormStats(0.0, 1.0)
        tracemalloc.start()
        try:
            tr.predict_classes(params, cfg, stats, feats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20

    def test_long_clip_pass_keeps_one_chunk_of_scan_state(self):
        # 2,600 frames (about 4 min) with the default bmace model peaked at
        # 14.0 MB with numpy 2.4.6. Whole-clip scan state would add two
        # 21-MB frames x d_inner x n_state arrays per block.
        rng = np.random.default_rng(26)
        feats = ft.FeatureMatrix(rng.normal(size=(2600, 144)))
        cfg = md.ModelConfig(variant=md.BMACE, n_classes=25)
        params = md.init_model(cfg, dtype=STANDARD)
        stats = ft.NormStats(0.0, 1.0)
        tracemalloc.start()
        try:
            tr.predict_classes(params, cfg, stats, feats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    def test_untaped_blocks_drop_their_intermediates(self):
        # 10,000 frames with the default bmace model peaked at 52.8 MB with
        # numpy 2.4.6. Blocks that kept every intermediate alive until they
        # returned peaked at 77.5 MB.
        rng = np.random.default_rng(29)
        feats = ft.FeatureMatrix(rng.normal(size=(10_000, 144)))
        cfg = md.ModelConfig(variant=md.BMACE, n_classes=25)
        params = md.init_model(cfg, dtype=STANDARD)
        stats = ft.NormStats(0.0, 1.0)
        tracemalloc.start()
        try:
            tr.predict_classes(params, cfg, stats, feats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 66 * 2 ** 20

    def test_predict_annotation_spans_the_clip(self):
        example = tr.synth_clip_example(21, chords.MAJMIN_25, duration_s=4.0)
        stats = ft.compute_norm_stats([example.features])
        cfg = tiny_config()
        params = md.init_model(cfg, dtype=STANDARD)
        annotation = tr.predict_annotation(params, cfg, stats, example.features,
                                           chords.MAJMIN_25)
        frames = example.features.frames
        assert abs(annotation.duration - frames * 2048 / 22050) < 1e-9
