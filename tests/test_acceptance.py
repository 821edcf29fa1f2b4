"""Acceptance gate: ten checks, one printed verdict line each.

Each check prints "[acceptance] criterion N: PASS/FAIL (...)" before
asserting, so the verdict is visible either way; run with -s to see the
lines for passing checks too. Criterion 9 trains two full models and
dominates the runtime; everything else finishes in seconds.
"""

import math
import time
from pathlib import Path

import numpy as np

from bmace import chords
from bmace import features as ft
from bmace import gradcheck as gc
from bmace import mamba as mb
from bmace import metrics as mt
from bmace import model as md
from bmace import numerics as nm
from bmace import training as tr
from bmace.numerics import HIGH, STANDARD, Tensor

README = Path(__file__).resolve().parent.parent / "README.md"

TINY = dict(d_model=4, n_state=2, dt_rank=2, conv_k=2, expand=1)


def verdict(n, ok, detail):
    line = f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def default_config(variant, vocab):
    return md.ModelConfig(variant=variant, n_classes=vocab.n_classes)


def random_scan_instance(rng, L, d, n):
    t64 = lambda v: nm.tensor(v, dtype=HIGH)
    inputs = mb.ScanInputs(
        u=t64(rng.standard_normal((L, d))),
        delta=t64(rng.uniform(0.01, 1.5, size=(L, d))),
        B=t64(rng.standard_normal((L, n))),
        C=t64(rng.standard_normal((L, n))))
    A = t64(-rng.uniform(0.1, 3.0, size=(d, n)))
    D = t64(rng.standard_normal(d))
    return inputs, A, D


def random_annotation(rng, duration):
    out = []
    t = 0.0
    while t < duration - 1e-9:
        end = min(t + rng.uniform(0.4, 2.0), duration)
        if rng.uniform() < 0.15:
            text = "N" if rng.uniform() < 0.7 else "X"
        else:
            text = chords.class_to_label(int(rng.integers(168)), chords.LARGE_170)
        out.append((t, end, chords.parse_chord(text)))
        t = end
    return chords.Annotation(tuple(out))


def oracle_wcsr(ref, est, kind):
    """Quadratic interval-intersection oracle for same-span annotations."""
    matched = 0.0
    total = 0.0
    for ref_start, ref_end, ref_label in ref.intervals:
        for est_start, est_end, est_label in est.intervals:
            lo = max(ref_start, est_start)
            hi = min(ref_end, est_end)
            if hi <= lo:
                continue
            result = mt.compare(kind, ref_label, est_label)
            if result == mt.SKIPPED:
                continue
            total += hi - lo
            if result == mt.MATCH:
                matched += hi - lo
    return (matched / total if total > 0 else None), total


def tone(freq, seconds=10.0):
    t = np.arange(int(seconds * ft.SAMPLE_RATE)) / ft.SAMPLE_RATE
    return ft.AudioClip(0.3 * np.sin(2.0 * math.pi * freq * t))


class TestAcceptance:
    def test_criterion_01_parameter_count_identities(self):
        t0 = time.perf_counter()
        counts = {}
        for variant in md.VARIANTS:
            for vocab in (chords.MAJMIN_25, chords.LARGE_170):
                counts[variant, vocab.name] = md.count_params(
                    default_config(variant, vocab))
        checks = [
            counts["mace-h", "majmin"] - counts["mace-v", "majmin"] == 3200,
            counts["mace-h", "large"] - counts["mace-v", "large"] == 21760,
            counts["bmace", "majmin"] == counts["mace-h", "majmin"],
            counts["bmace", "large"] == counts["mace-h", "large"],
            counts["mace-v", "large"] - counts["mace-v", "majmin"] == 18705,
            counts["mace-h", "large"] - counts["mace-h", "majmin"] == 37265,
            counts["bmace", "large"] - counts["bmace", "majmin"] == 37265,
        ]
        elapsed = time.perf_counter() - t0
        verdict(1, all(checks) and elapsed < 1.0,
                f"7/7 integer identities hold, {elapsed:.3f}s; absolute totals "
                f"are reference-only, not gated")

    def test_criterion_02_scan_equivalence(self):
        t0 = time.perf_counter()
        lengths = [1, 2, 3, 16, 100, 512]
        rng = np.random.default_rng(3)
        worst = 0.0
        for i in range(100):
            L = lengths[i % len(lengths)]
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 5))
            inputs, A, D = random_scan_instance(rng, L, d, n)
            y_seq = mb.selective_scan_seq(inputs, A, D)
            y_assoc = mb.selective_scan_assoc(inputs, A, D)
            worst = max(worst, float(np.max(np.abs(y_seq.data - y_assoc.data))))
        elapsed = time.perf_counter() - t0
        verdict(2, worst <= 1e-10 and elapsed < 10.0,
                f"max |seq - assoc| = {worst:.2e} over 100 instances, "
                f"L up to 512, {elapsed:.1f}s")

    def test_criterion_03_gradient_correctness(self):
        t0 = time.perf_counter()
        errors = {variant: gc.model_gradcheck(variant) for variant in md.VARIANTS}
        worst = max(errors.values())
        elapsed = time.perf_counter() - t0
        verdict(3, worst <= gc.REL_TOLERANCE and elapsed < 120.0,
                f"worst relative gradient error {worst:.2e} over "
                f"{len(errors)} variants, {elapsed:.1f}s")

    def test_criterion_04_bidirectional_symmetry(self):
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(20):
            cfg = md.ModelConfig(variant=md.BMACE, n_classes=25, seed=seed, **TINY)
            params = md.init_model(cfg, dtype=HIGH)
            rng = np.random.default_rng(1000 + seed)
            x = nm.tensor(rng.standard_normal((33, cfg.n_bins)), dtype=HIGH)
            lhs = md.forward(params.swap_blocks(), cfg, nm.reverse_time(x)).data
            rhs = nm.reverse_time(md.forward(params, cfg, x)).data
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        elapsed = time.perf_counter() - t0
        verdict(4, worst <= 1e-10 and elapsed < 30.0,
                f"max |forward(rev(x)) - rev(forward(x))| = {worst:.2e} "
                f"over 20 seeds, {elapsed:.1f}s")

    def test_criterion_05_linear_scaling(self):
        t0 = time.perf_counter()
        cfg = default_config(md.BMACE, chords.MAJMIN_25)
        exact = all(md.count_flops(cfg, 2 * L) == 2 * md.count_flops(cfg, L)
                    for L in (1, 54, 108, 512, 1000))
        params = md.init_model(cfg, dtype=STANDARD)
        rng = np.random.default_rng(0)
        inputs = {L: Tensor(rng.standard_normal((L, cfg.n_bins)), dtype=STANDARD)
                  for L in (512, 1024)}
        for x in inputs.values():
            md.forward(params, cfg, x, scan_impl="assoc")  # warm-up
        # The lengths take turns, so a burst of host load slows both alike.
        timings = dict.fromkeys(inputs, math.inf)
        for _ in range(5):
            for L, x in inputs.items():
                t_run = time.perf_counter()
                md.forward(params, cfg, x, scan_impl="assoc")
                timings[L] = min(timings[L], time.perf_counter() - t_run)
        ratio = timings[1024] / timings[512]
        elapsed = time.perf_counter() - t0
        verdict(5, exact and ratio <= 2.5 and elapsed < 60.0,
                f"FLOPs exactly double for 2x length; wall ratio "
                f"512->1024 = {ratio:.2f} (limit 2.5), {elapsed:.1f}s")

    def test_criterion_06_wcsr_oracle_and_nesting(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(200):
            duration = float(rng.uniform(4.0, 12.0))
            ref = random_annotation(rng, duration)
            est = random_annotation(rng, duration)
            for kind in mt.COMPARATORS:
                got, _ = mt.wcsr(ref, est, kind)
                want, _ = oracle_wcsr(ref, est, kind)
                if got is None or want is None:
                    assert got is None and want is None
                else:
                    worst = max(worst, abs(got - want))
        labels = [chords.parse_chord(chords.class_to_label(k, chords.LARGE_170))
                  for k in range(170)]
        implications = ((mt.TETRADS, mt.TRIADS), (mt.TRIADS, mt.THIRDS),
                        (mt.THIRDS, mt.ROOT), (mt.TRIADS, mt.MIREX))
        nested = all(
            mt.compare(looser, ref, est) == mt.MATCH
            for ref in labels for est in labels
            for stricter, looser in implications
            if mt.compare(stricter, ref, est) == mt.MATCH)
        elapsed = time.perf_counter() - t0
        verdict(6, worst <= 1e-9 and nested and elapsed < 60.0,
                f"max |wcsr - oracle| = {worst:.2e} over 200 pairs x 7 "
                f"comparators; nesting holds on the 170x170 grid, {elapsed:.1f}s")

    def test_criterion_07_feature_pipeline(self):
        t0 = time.perf_counter()
        c1 = ft.cqt(tone(32.7032))
        a4 = ft.cqt(tone(440.0))
        c1_peak = int(np.argmax(c1.values.mean(axis=0)))
        a4_peak = int(np.argmax(a4.values.mean(axis=0)))
        frames_ok = c1.frames == 108 and a4.frames == 108
        pool = [tr.synth_clip_example(seed, chords.MAJMIN_25, duration_s=5.0).features
                for seed in range(3)]
        stats = ft.compute_norm_stats(pool)
        normalized = np.concatenate(
            [ft.znormalize(f, stats).values.ravel() for f in pool])
        mean_err = abs(float(normalized.mean()))
        var_err = abs(float(normalized.var()) - 1.0)
        elapsed = time.perf_counter() - t0
        verdict(7, c1_peak == 0 and a4_peak == 90 and frames_ok
                and mean_err <= 1e-9 and var_err <= 1e-9 and elapsed < 60.0,
                f"C1 peaks at bin {c1_peak}, A4 at bin {a4_peak}, 10 s gives "
                f"108 frames, pooled mean/var off by {mean_err:.1e}/{var_err:.1e}, "
                f"{elapsed:.1f}s")

    def test_criterion_08_vocabulary_round_trip(self):
        t0 = time.perf_counter()
        sizes_ok = (chords.MAJMIN_25.n_classes == 25
                    and chords.LARGE_170.n_classes == 170)
        round_trip = all(
            chords.to_class(chords.parse_chord(
                chords.class_to_label(k, vocab)), vocab) == k
            for vocab in (chords.MAJMIN_25, chords.LARGE_170)
            for k in range(vocab.n_classes))
        elapsed = time.perf_counter() - t0
        verdict(8, sizes_ok and round_trip and elapsed < 1.0,
                f"sizes 25/170, all {25 + 170} classes round-trip, {elapsed:.3f}s")

    def test_criterion_09_desk_scale_learnability(self):
        t0 = time.perf_counter()
        # Part 1: single-segment overfit with a small bidirectional model.
        example = tr.synth_clip_example(123, chords.MAJMIN_25, duration_s=10.0)
        stats = ft.compute_norm_stats([example.features])
        (feats, targets), = tr.clip_segments(example, chords.MAJMIN_25, stats)
        overfit_cfg = md.ModelConfig(variant=md.BMACE, n_classes=25, d_model=16,
                                     n_state=4, dt_rank=4, conv_k=4, expand=1)
        _, losses = tr.overfit_segment(overfit_cfg, feats, targets, steps=500,
                                       stop_below=0.05)
        overfit_ok = min(losses) < 0.05

        # Part 2: held-out recall on a 200-clip synthetic corpus, default
        # model configuration, bidirectional versus forward-only.
        corpus = tr.make_synthetic_corpus(200, chords.MAJMIN_25, seed=2025,
                                          duration_s=10.0)
        train_clips, val_clips, test_clips = tr.split_dataset(corpus, seed=2025)
        scores = {}
        for variant in (md.BMACE, md.MACE_V):
            cfg = default_config(variant, chords.MAJMIN_25)
            result = tr.train(cfg, tr.TrainConfig(seed=0), train_clips,
                              val_clips, chords.MAJMIN_25)
            evals = []
            for clip in test_clips:
                est = tr.predict_annotation(result.params, cfg, result.stats,
                                            clip.features, chords.MAJMIN_25)
                evals.append(mt.evaluate_all(clip.annotation, est))
            scores[variant] = mt.aggregate(evals)["weighted"]["majmin"]
        elapsed = time.perf_counter() - t0
        bmace_ok = scores[md.BMACE] >= 0.90
        order_ok = scores[md.MACE_V] <= scores[md.BMACE] + 0.02
        verdict(9, overfit_ok and bmace_ok and order_ok and elapsed <= 1800.0,
                f"overfit loss {min(losses):.4f} in {len(losses)} steps; "
                f"held-out majmin WCSR bmace {scores[md.BMACE]:.4f}, "
                f"mace-v {scores[md.MACE_V]:.4f}, {elapsed:.0f}s")

    def test_criterion_10_non_reproduced_scores_documented(self):
        text = README.read_text(encoding="utf-8")
        needed = ("uspop2002", "0.8212", "0.7678", "not reproduced")
        missing = [needle for needle in needed if needle not in text]
        verdict(10, not missing,
                "README documents the non-reproduced published corpus scores"
                if not missing else f"README lacks {missing}")
