"""Comparator truth tables, recall scoring, and aggregation tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bmace.metrics as mt
from bmace.chords import (
    LARGE_170,
    MAJMIN_25,
    PITCH_NAMES,
    QUALITIES,
    SKIP,
    TEMPLATES,
    Annotation,
    ChordLabel,
    class_to_label,
    frame_time,
    framewise_targets,
    parse_chord,
    parse_lab,
    reduce_quality,
    to_class,
)
from bmace.metrics import (
    COMPARATORS,
    MATCH,
    MISMATCH,
    SKIPPED,
    aggregate,
    compare,
    evaluate_all,
    frames_to_annotation,
    wcsr,
)

HOP_S = 2048 / 22050

ALL_LARGE_LABELS = [parse_chord(class_to_label(k, LARGE_170)) for k in range(170)]

# N and X, every root with every template and extended shorthand, and
# degree-list, omission and bass spellings, some of which reduce to no
# template (C:(b3,5), E:min(*5), C:(1,5), G:(3), A:maj(*3)).
SPELLED_LABELS = ["N", "X"] + [
    f"{root}:{quality}" for root in PITCH_NAMES
    for quality in QUALITIES + ("9", "maj9", "min9", "11", "13")
] + ["C:(b3,5)", "E:min(*5)", "C:(1,5)", "G:(3)", "A:maj(*3)", "D:(1,4,5)",
     "Eb:(1,b3,b5,bb7)", "Bb:7(9)", "C:sus4(b7)", "F:min7/b7", "C#:maj/3"]


def reference_compare(kind, ref, est):
    """The branchy per-pair comparator that the keyed one replaced."""
    def canonical(label):
        if label.special is not None:
            return label.special, None, None
        quality = label.quality or reduce_quality(label.intervals)
        return ("chord", label.root, quality) if quality else ("X", None, None)

    (ref_kind, ref_root, ref_q), (est_kind, est_root, est_q) = canonical(ref), canonical(est)
    if ref_kind == "X":
        return SKIPPED
    if kind == mt.MIREX:
        if ref_kind == "N":
            return MATCH if est_kind == "N" else MISMATCH
        return MATCH if len(ref.pitch_classes() & est.pitch_classes()) >= 3 else MISMATCH
    if kind == mt.MAJMIN:
        ref_class = to_class(ref, MAJMIN_25)
        if ref_class == SKIP:
            return SKIPPED
        return MATCH if to_class(est, MAJMIN_25) == ref_class else MISMATCH
    if kind == mt.SEVENTHS and ref_kind == "chord" and ref_q not in ("maj", "min", "7", "maj7", "min7"):
        return SKIPPED
    if ref_kind == "N" or est_kind != "chord":
        return MATCH if ref_kind == est_kind == "N" else MISMATCH
    view = {mt.ROOT: lambda t: 0,
            mt.THIRDS: lambda t: "maj" if 4 in t else "min" if 3 in t else "none",
            mt.TRIADS: lambda t: t & set(range(9)),
            mt.SEVENTHS: lambda t: t & (set(range(9)) | {10, 11}),
            mt.TETRADS: lambda t: t}[kind]
    same = ref_root == est_root and view(TEMPLATES[ref_q]) == view(TEMPLATES[est_q])
    return MATCH if same else MISMATCH


def label_at(annotation, t):
    """Label active at time ``t``; no-chord outside every interval."""
    i = annotation.indices_at(t)
    return annotation.intervals[i][2] if i >= 0 else ChordLabel.no_chord()


def reference_evaluate(ref, est):
    """Per-kind loop of ``reference_compare`` over label segments, as (score, duration)."""
    span_start, span_end = ref.intervals[0][0], ref.intervals[-1][1]
    order = sorted({t for annotation in (ref, est) for start, end, _ in annotation.intervals
                    for t in (start, end) if span_start <= t <= span_end})
    segments = [(hi - lo, label_at(ref, 0.5 * (lo + hi)), label_at(est, 0.5 * (lo + hi)))
                for lo, hi in zip(order, order[1:])]
    out = {}
    for kind in COMPARATORS:
        matched = total = 0.0
        for duration, ref_label, est_label in segments:
            result = reference_compare(kind, ref_label, est_label)
            if result != SKIPPED:
                total += duration
                if result == MATCH:
                    matched += duration
        out[kind] = (matched / total if total > 0.0 else None, total)
    return out


def random_annotation(rng, duration, include_specials=True):
    """Contiguous random annotation over [0, duration]."""
    out = []
    t = 0.0
    while t < duration - 1e-9:
        end = min(t + rng.uniform(0.4, 2.0), duration)
        if include_specials and rng.uniform() < 0.15:
            text = "N" if rng.uniform() < 0.7 else "X"
        else:
            text = class_to_label(int(rng.integers(168)), LARGE_170)
        out.append((t, end, parse_chord(text)))
        t = end
    return Annotation(tuple(out))


def oracle_wcsr(ref, est, kind):
    """Quadratic oracle: intersect every pair of intervals directly.

    Valid when both annotations cover the same span with no gaps.
    """
    matched = 0.0
    total = 0.0
    for ref_start, ref_end, ref_label in ref.intervals:
        for est_start, est_end, est_label in est.intervals:
            lo = max(ref_start, est_start)
            hi = min(ref_end, est_end)
            if hi <= lo:
                continue
            result = compare(kind, ref_label, est_label)
            if result == SKIPPED:
                continue
            total += hi - lo
            if result == MATCH:
                matched += hi - lo
    return (matched / total if total > 0 else None), total


class TestPitchClasses:
    def test_templates_transpose(self):
        assert parse_chord("C:maj").pitch_classes() == frozenset({0, 4, 7})
        assert parse_chord("A:min7").pitch_classes() == frozenset({9, 0, 4, 7})

    def test_no_chord_is_empty(self):
        assert parse_chord("N").pitch_classes() == frozenset()


class TestCompare:
    def test_maj7_vs_maj_truth_table(self):
        ref = parse_chord("C:maj7")
        est = parse_chord("C:maj")
        assert compare(mt.ROOT, ref, est) == MATCH
        assert compare(mt.THIRDS, ref, est) == MATCH
        assert compare(mt.TRIADS, ref, est) == MATCH
        assert compare(mt.SEVENTHS, ref, est) == MISMATCH
        assert compare(mt.TETRADS, ref, est) == MISMATCH
        assert compare(mt.MIREX, ref, est) == MATCH

    def test_reflexivity_never_mismatches(self):
        for label in ALL_LARGE_LABELS:
            for kind in COMPARATORS:
                assert compare(kind, label, label) != MISMATCH

    def test_reflexivity_matches_in_domain(self):
        ref = parse_chord("D:min7")
        for kind in COMPARATORS:
            assert compare(kind, ref, ref) == MATCH

    def test_no_chord_pairs(self):
        n = ChordLabel.no_chord()
        chord = parse_chord("C:maj")
        for kind in COMPARATORS:
            assert compare(kind, n, n) == MATCH
            assert compare(kind, n, chord) == MISMATCH
            assert compare(kind, chord, n) == MISMATCH

    def test_unknown_reference_skips_everywhere(self):
        x = ChordLabel.unknown()
        est = parse_chord("C:maj")
        for kind in COMPARATORS:
            assert compare(kind, x, est) == SKIPPED

    def test_unknown_estimate_matches_nothing(self):
        ref = parse_chord("C:maj")
        x = ChordLabel.unknown()
        for kind in COMPARATORS:
            assert compare(kind, ref, x) == MISMATCH

    def test_sevenths_domain_restriction(self):
        est = parse_chord("C:maj")
        for text in ("C:dim", "C:aug", "C:sus2", "C:maj6", "C:dim7", "C:hdim7", "C:minmaj7"):
            assert compare(mt.SEVENTHS, parse_chord(text), est) == SKIPPED
        for text in ("C:maj", "C:min", "C:7", "C:maj7", "C:min7"):
            assert compare(mt.SEVENTHS, parse_chord(text), parse_chord(text)) == MATCH

    def test_majmin_skips_thirdless_references(self):
        est = parse_chord("C:maj")
        assert compare(mt.MAJMIN, parse_chord("C:sus2"), est) == SKIPPED
        assert compare(mt.MAJMIN, parse_chord("C:sus4"), est) == SKIPPED

    def test_majmin_follows_third_rule(self):
        assert compare(mt.MAJMIN, parse_chord("C:dim"), parse_chord("C:min")) == MATCH
        assert compare(mt.MAJMIN, parse_chord("C:aug"), parse_chord("C:maj")) == MATCH
        assert compare(mt.MAJMIN, parse_chord("C:min7"), parse_chord("C:min")) == MATCH

    def test_thirds_ignores_everything_above_the_third(self):
        assert compare(mt.THIRDS, parse_chord("C:maj"), parse_chord("C:aug")) == MATCH
        assert compare(mt.THIRDS, parse_chord("C:min"), parse_chord("C:dim7")) == MATCH
        assert compare(mt.THIRDS, parse_chord("C:maj"), parse_chord("C:min")) == MISMATCH
        assert compare(mt.THIRDS, parse_chord("C:sus2"), parse_chord("C:sus4")) == MATCH

    def test_triads_distinguish_sus_flavors(self):
        assert compare(mt.TRIADS, parse_chord("C:sus2"), parse_chord("C:sus4")) == MISMATCH
        assert compare(mt.TRIADS, parse_chord("C:maj6"), parse_chord("C:maj")) == MATCH
        assert compare(mt.TRIADS, parse_chord("C:dim7"), parse_chord("C:dim")) == MATCH

    def test_sevenths_ignore_sixths(self):
        # maj6 as an estimate agrees with maj through the seventh.
        assert compare(mt.SEVENTHS, parse_chord("C:maj"), parse_chord("C:maj6")) == MATCH
        assert compare(mt.TETRADS, parse_chord("C:maj"), parse_chord("C:maj6")) == MISMATCH

    def test_roots_differ(self):
        for kind in (mt.ROOT, mt.THIRDS, mt.TRIADS, mt.TETRADS):
            assert compare(kind, parse_chord("C:maj"), parse_chord("D:maj")) == MISMATCH

    def test_mirex_counts_shared_tones(self):
        # A:min7 = {9, 0, 4, 7} shares three classes with C:maj.
        assert compare(mt.MIREX, parse_chord("C:maj"), parse_chord("A:min7")) == MATCH
        assert compare(mt.MIREX, parse_chord("C:maj"), parse_chord("D:maj")) == MISMATCH

    def test_raw_sets_reduce_before_comparing(self):
        ref = parse_chord("C:9")  # reduces to C:7
        assert compare(mt.SEVENTHS, ref, parse_chord("C:7")) == MATCH
        assert compare(mt.TETRADS, ref, parse_chord("C:7")) == MATCH

    def test_irreducible_reference_skips(self):
        power = parse_chord("C:(1,5)")
        for kind in COMPARATORS:
            assert compare(kind, power, parse_chord("C:maj")) == SKIPPED

    def test_unknown_comparator_rejected(self):
        with pytest.raises(ValueError):
            compare("octaves", parse_chord("C"), parse_chord("C"))

    def test_keyed_compare_equals_reference_on_every_spelled_pair(self):
        labels = [parse_chord(text) for text in SPELLED_LABELS]
        assert len(labels) == 241
        wrong = [(kind, SPELLED_LABELS[i], SPELLED_LABELS[j])
                 for i, ref in enumerate(labels) for j, est in enumerate(labels)
                 for kind in COMPARATORS
                 if compare(kind, ref, est) != reference_compare(kind, ref, est)]
        assert wrong == []

    def test_spelled_labels_hold_the_label_invariants(self):
        # ChordLabel checks nothing itself; parse_chord must guarantee these.
        for text in SPELLED_LABELS:
            label = parse_chord(text)
            if text in ("N", "X"):
                assert (label.special, label.root, label.quality, label.intervals,
                        label.bass) == (text, None, None, frozenset(), 0)
                continue
            assert label.special is None
            assert type(label.root) is int and 0 <= label.root <= 11, text
            assert all(type(i) is int and 0 <= i <= 11 for i in label.intervals), text
            assert type(label.bass) is int and 0 <= label.bass <= 11, text
            matches = [q for q in QUALITIES if TEMPLATES[q] == label.intervals]
            assert label.quality == (matches[0] if matches else None), text

    def test_match_sets_nest_over_the_full_grid(self):
        implications = (
            (mt.TETRADS, mt.TRIADS),
            (mt.TRIADS, mt.THIRDS),
            (mt.THIRDS, mt.ROOT),
            (mt.TRIADS, mt.MIREX),
        )
        for ref in ALL_LARGE_LABELS:
            for est in ALL_LARGE_LABELS:
                for stricter, looser in implications:
                    if compare(stricter, ref, est) == MATCH:
                        assert compare(looser, ref, est) == MATCH


class TestWcsr:
    def test_perfect_estimate(self):
        ref = parse_lab("0 4 C:maj\n4 7 A:min\n7 10 N")
        for kind in COMPARATORS:
            score, duration = wcsr(ref, ref, kind)
            assert score == 1.0
            assert duration == pytest.approx(10.0)

    def test_duration_arithmetic_example(self):
        ref = parse_lab("0 10 C:maj")
        est = parse_lab("0 4 C:maj\n4 10 D:maj")
        score, duration = wcsr(ref, est, mt.ROOT)
        assert score == pytest.approx(0.4)
        assert duration == pytest.approx(10.0)

    def test_short_estimate_extended_with_no_chord(self):
        ref = parse_lab("0 10 C:maj")
        est = parse_lab("0 5 C:maj")
        score, _ = wcsr(ref, est, mt.ROOT)
        assert score == pytest.approx(0.5)

    def test_long_estimate_truncated(self):
        ref = parse_lab("0 10 C:maj")
        est = parse_lab("0 15 C:maj")
        score, duration = wcsr(ref, est, mt.ROOT)
        assert score == 1.0
        assert duration == pytest.approx(10.0)

    def test_all_skip_reports_none(self):
        ref = parse_lab("0 10 X")
        est = parse_lab("0 10 C:maj")
        score, duration = wcsr(ref, est, mt.ROOT)
        assert score is None
        assert duration == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            wcsr(Annotation(()), parse_lab("0 1 C:maj"), mt.ROOT)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            duration = float(rng.uniform(5.0, 20.0))
            ref = random_annotation(rng, duration)
            est = random_annotation(rng, duration)
            for kind in COMPARATORS:
                got_score, got_dur = wcsr(ref, est, kind)
                exp_score, exp_dur = oracle_wcsr(ref, est, kind)
                assert abs(got_dur - exp_dur) <= 1e-9
                if exp_score is None:
                    assert got_score is None
                else:
                    assert abs(got_score - exp_score) <= 1e-9

    def test_refinement_invariance(self):
        ref = parse_lab("0 2 C:maj\n2 4 G:7\n4 8 N")
        est = parse_lab("0 3 C:maj\n3 8 G:7")
        split = Annotation((
            (0.0, 1.0, parse_chord("C:maj")),
            (1.0, 2.0, parse_chord("C:maj")),
            (2.0, 4.0, parse_chord("G:7")),
            (4.0, 6.0, parse_chord("N")),
            (6.0, 8.0, parse_chord("N")),
        ))
        for kind in COMPARATORS:
            assert wcsr(ref, est, kind) == wcsr(split, est, kind)

    def test_time_shift_invariance(self):
        ref = Annotation(((0.0, 2.0, parse_chord("C:maj")), (2.0, 5.0, parse_chord("A:min"))))
        est = Annotation(((0.0, 3.0, parse_chord("C:maj")), (3.0, 5.0, parse_chord("A:min"))))
        shift = 4.0
        ref_shifted = Annotation(tuple((s + shift, e + shift, l) for s, e, l in ref.intervals))
        est_shifted = Annotation(tuple((s + shift, e + shift, l) for s, e, l in est.intervals))
        for kind in COMPARATORS:
            assert wcsr(ref, est, kind) == wcsr(ref_shifted, est_shifted, kind)


class TestEvaluateAll:
    def test_perfect_scores(self):
        ref = parse_lab("0 5 C:maj\n5 10 F:min7")
        result = evaluate_all(ref, ref)
        for kind in COMPARATORS:
            assert result.scores[kind] == 1.0

    def test_all_no_chord_estimate(self):
        ref = parse_lab("0 10 C:maj")
        est = parse_lab("0 10 N")
        result = evaluate_all(ref, est)
        for kind in COMPARATORS:
            assert result.scores[kind] == 0.0

    def test_agrees_with_wcsr(self):
        rng = np.random.default_rng(7)
        ref = random_annotation(rng, 12.0)
        est = random_annotation(rng, 12.0)
        result = evaluate_all(ref, est)
        for kind in COMPARATORS:
            assert (result.scores[kind], result.durations[kind]) == wcsr(ref, est, kind)

    def test_flickering_pair_matches_reference_bit_for_bit(self):
        # Frame-level estimate in flat and sharp spellings; both sides have gaps.
        rng = np.random.default_rng(12)
        hop = 2048 / 22050
        ref_texts = ["C:maj", "E:min", "Db:min", "C#:min", "F#:7", "Gb:7", "A:min7", "N", "X",
                     "C:(1,5)"]
        est_texts = ref_texts + ["C:(b3,5)", "E:min(*5)", "Bb:maj6", "A#:maj6", "D:9"]
        ref = []
        t = 0.0
        while t < 60.0:
            end = t + float(rng.uniform(0.5, 3.0))
            ref.append((t, end, parse_chord(ref_texts[int(rng.integers(len(ref_texts)))])))
            t = end + (float(rng.uniform(0.1, 1.0)) if rng.uniform() < 0.2 else 0.0)
        est = []
        for k in range(int(t / hop) - 10):
            if rng.uniform() < 0.9:
                est.append((k * hop, (k + 1) * hop,
                            parse_chord(est_texts[int(rng.integers(len(est_texts)))])))
        ref, est = Annotation(tuple(ref)), Annotation(tuple(est))
        result = evaluate_all(ref, est)
        want = reference_evaluate(ref, est)
        assert {kind: (result.scores[kind], result.durations[kind]) for kind in COMPARATORS} == want

    @staticmethod
    def _intervals(rng, start, stop, gap_rate=0.0):
        """Random spelled labels over [start, stop); a gap follows an interval at ``gap_rate``."""
        out = []
        t = start
        while t < stop:
            end = min(t + float(rng.uniform(0.2, 2.5)), stop)
            out.append((t, end, parse_chord(SPELLED_LABELS[int(rng.integers(len(SPELLED_LABELS)))])))
            t = end + (float(rng.uniform(0.05, 1.0)) if rng.uniform() < gap_rate else 0.0)
        return out

    def _shapes(self, rng):
        """(name, ref, est) for each annotation shape the merge walk must handle."""
        late = self._intervals(rng, float(rng.uniform(0.5, 4.0)), 30.0)
        yield "reference starts after 0", late, self._intervals(rng, 0.0, 30.0)
        yield "estimate overhangs both ends", late, self._intervals(rng, 0.0, 34.0, 0.1)
        yield "empty estimate", late, []
        ref = self._intervals(rng, 0.0, 25.0, 0.2)
        shared = [(start, end, parse_chord(SPELLED_LABELS[int(rng.integers(len(SPELLED_LABELS)))]))
                  for start, end, _ in ref]
        yield "every boundary shared", ref, shared
        yield "identical pair", ref, ref
        yield "gaps inside both", self._intervals(rng, 0.3, 28.0, 0.3), self._intervals(
            rng, 0.0, 26.0, 0.3)

    @staticmethod
    def _relabel(rng, bounds, ref=None):
        """Spelled labels over consecutive ``bounds``, half of them ``ref``'s at the start."""
        return [(start, end, label_at(ref, start) if ref and rng.uniform() < 0.5 else
                 parse_chord(SPELLED_LABELS[int(rng.integers(len(SPELLED_LABELS)))]))
                for start, end in zip(bounds, bounds[1:])]

    def _song_shapes(self, rng, count):
        """(name, ref, estimate bounds or None): a 230-260-s reference with
        chord-length intervals against ``count`` frame-level intervals (or
        none), in each way the two can meet."""
        span = 230.0 + 30.0 * float(rng.uniform())
        weights = rng.uniform(0.6, 3.0, round(span / 1.8))
        inner = (np.cumsum(weights)[:-1] * (span / weights.sum())).tolist()
        ref = Annotation(tuple(self._relabel(rng, [0.0, *inner, span])))
        late = Annotation(tuple(self._relabel(rng, [1.5, *(t for t in inner if t > 1.5), span])))

        def frames(start, stop, extra=()):
            cuts = rng.choice(np.arange(1, int((stop - start) / HOP_S)), count - 1, replace=False)
            return sorted({start, stop, *(start + cuts * HOP_S).tolist(), *extra})

        yield "estimate ends early", ref, frames(0.0, span - 4.0)
        yield "estimate overhangs both ends", late, frames(0.0, span + 3.0)
        yield "every reference boundary shared", ref, frames(0.0, span, inner)
        yield "empty estimate", ref, None

    @pytest.mark.parametrize("count", [2400, 1600, 1100, 800, 550, 400, 300])
    def test_songs_at_benchmark_scale_match_reference_bit_for_bit(self, count):
        rng = np.random.default_rng([count, 23])
        for shape, ref, bounds in self._song_shapes(rng, count):
            est = Annotation(tuple(self._relabel(rng, bounds, ref)) if bounds else ())
            result = evaluate_all(ref, est)
            got = {kind: (result.scores[kind], result.durations[kind]) for kind in COMPARATORS}
            assert got == reference_evaluate(ref, est), shape
            assert {kind: wcsr(ref, est, kind) for kind in COMPARATORS} == got, shape

    def test_scoring_a_song_holds_little_memory_and_leaves_numpy_ma_unloaded(self):
        # Run apart: another test may have imported numpy.ma or filled the caches.
        # numpy.ma costs about 1.3 MB of resident memory; numpy 2 loads it only
        # on first use (np.unique is one), numpy 1 with numpy itself.
        script = (
            "import json, sys, tracemalloc\n"
            "import numpy as np\n"
            "numpy_ma = 'numpy.ma' in sys.modules\n"
            "from bmace import chords, metrics\n"
            "rng = np.random.default_rng(5)\n"
            "names = [chords.class_to_label(k, chords.LARGE_170) for k in range(170)]\n"
            "def lab(bounds):\n"
            "    return ''.join(f'{s!r} {e!r} {names[int(rng.integers(170))]}\\n'\n"
            "                   for s, e in zip(bounds, bounds[1:]))\n"
            "song = np.round(np.cumsum(rng.uniform(0.6, 3.0, 133)), 3)\n"
            "song *= 240.0 / song[-1]\n"
            "cuts = np.sort(rng.choice(np.arange(1, 2583), 2399, replace=False))\n"
            "ref = chords.parse_lab(lab([0.0, *song.tolist()]))\n"
            "est = chords.parse_lab(lab([0.0, *(cuts * 2048 / 22050).tolist(), 240.0]))\n"
            "tracemalloc.start()\n"
            "metrics.evaluate_all(ref, est)\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "print(json.dumps([len(est.intervals), peak, numpy_ma, 'numpy.ma' in sys.modules]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.returncode == 0, out.stderr
        n_est, peak, ma_with_numpy, ma_after_scoring = json.loads(out.stdout)
        assert n_est == 2400
        assert ma_after_scoring == ma_with_numpy
        assert peak < 1_000_000, f"evaluate_all peaked at {peak} bytes"

    @pytest.mark.parametrize("seed", range(60))
    def test_merge_walk_matches_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng([seed, 17])
        for shape, ref, est in self._shapes(rng):
            ref, est = Annotation(tuple(ref)), Annotation(tuple(est))
            result = evaluate_all(ref, est)
            got = {kind: (result.scores[kind], result.durations[kind]) for kind in COMPARATORS}
            assert got == reference_evaluate(ref, est), shape
            assert {kind: wcsr(ref, est, kind) for kind in COMPARATORS} == got, shape

    def test_scores_read_as_a_mapping_in_comparator_order(self):
        result = evaluate_all(parse_lab("0 10 X"), parse_lab("0 4 C:maj\n4 10 D:maj"))
        assert list(result.scores) == list(COMPARATORS)
        assert dict(result.scores) == {kind: None for kind in COMPARATORS}
        assert result.scores == {kind: None for kind in COMPARATORS}
        assert dict(result.durations) == {kind: 0.0 for kind in COMPARATORS}
        assert result.scores.get("nonsense", "missing") == "missing"
        with pytest.raises(KeyError):
            result.scores["nonsense"]
        # Sevenths and maj-min skip a sus4 reference; the others grade it.
        scores = evaluate_all(parse_lab("0 10 C:sus4"), parse_lab("0 10 C:maj")).scores
        assert dict(scores) == {mt.ROOT: 1.0, mt.THIRDS: 0.0, mt.TRIADS: 0.0, mt.SEVENTHS: None,
                                mt.TETRADS: 0.0, mt.MAJMIN: None, mt.MIREX: 0.0}
        assert repr(scores) == repr(dict(scores))

    def test_to_dict_fields(self):
        ref = parse_lab("0 10 C:maj")
        d = evaluate_all(ref, ref).to_dict()
        for kind in COMPARATORS:
            assert kind in d
        assert set(d["durations"]) == set(COMPARATORS)


class TestFramesToAnnotation:
    def test_merges_runs(self):
        width = 2048 / 22050
        ann = frames_to_annotation([0, 0, 1, 1, 24], MAJMIN_25)
        assert len(ann.intervals) == 3
        start, end, label = ann.intervals[0]
        assert (start, end) == (0.0, pytest.approx(1.5 * width))
        assert label.quality == "maj"
        assert ann.intervals[2][2].is_no_chord

    def test_skip_becomes_unknown(self):
        ann = frames_to_annotation([SKIP, SKIP, 0], MAJMIN_25)
        assert ann.intervals[0][2].is_unknown

    def test_round_trip_with_framewise_targets(self):
        classes = [0, 0, 0, 5, 5, 24, 24, 3, 3, 3]
        ann = frames_to_annotation(classes, MAJMIN_25)
        assert framewise_targets(ann, len(classes), MAJMIN_25).tolist() == classes

    def test_round_trip_for_every_run_start(self):
        # Both directions place frame t at chords.frame_time(t), so a
        # boundary at any frame reads back on that frame.
        wrong = []
        for k in range(1, 3000):
            classes = [0] * k + [5]
            ann = frames_to_annotation(classes, MAJMIN_25)
            if framewise_targets(ann, k + 1, MAJMIN_25).tolist() != classes:
                wrong.append(k)
        assert wrong == []

    def test_flickering_classes_label_every_run(self):
        ann = frames_to_annotation([0, 1, 0, SKIP, 1, 1, 24, 0], MAJMIN_25)
        want = [ChordLabel.unknown() if c == SKIP else parse_chord(class_to_label(c, MAJMIN_25))
                for c in (0, 1, 0, SKIP, 1, 24, 0)]
        assert [label for _, _, label in ann.intervals] == want

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            frames_to_annotation([], MAJMIN_25)

    def test_one_frame_is_one_interval(self):
        ann = frames_to_annotation(np.array([7]), MAJMIN_25)
        assert ann.intervals == ((0.0, frame_time(0.5), parse_chord(class_to_label(7, MAJMIN_25))),)

    def test_all_skip_frames_are_one_unknown_interval(self):
        ann = frames_to_annotation([SKIP] * 9, MAJMIN_25)
        assert ann.intervals == ((0.0, frame_time(8.5), ChordLabel.unknown()),)

    def test_classes_alternating_every_frame_give_one_interval_per_frame(self):
        classes = np.array([3, 168] * 20)
        ann = frames_to_annotation(classes, LARGE_170)
        want = [(max(frame_time(t - 0.5), 0.0), frame_time(t + 0.5),
                 parse_chord(class_to_label(c, LARGE_170)))
                for t, c in enumerate(classes.tolist())]
        assert list(ann.intervals) == want
        assert framewise_targets(ann, len(classes), LARGE_170).tolist() == classes.tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_perfect_frames_put_each_boundary_within_half_a_hop(self, seed):
        # Frame t's audio is centred at frame_time(t), so a boundary read
        # back from perfect frames is off by at most half a hop either way.
        rng = np.random.default_rng(seed)
        hop = frame_time(1)
        times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 60.0, 40)), [60.0]))
        times = times[np.concatenate(([True], np.diff(times) > 2 * hop))]
        labels = [parse_chord(class_to_label(k % 24, MAJMIN_25)) for k in range(len(times) - 1)]
        ref = Annotation(tuple(zip(times[:-1].tolist(), times[1:].tolist(), labels)))
        n = int(times[-1] / hop) + 1
        est = frames_to_annotation(framewise_targets(ref, n, MAJMIN_25), MAJMIN_25)
        assert [label for _, _, label in est.intervals] == labels
        shifts = [e - r for (e, _, _), r in zip(est.intervals[1:], times[1:-1])]
        assert max(map(abs, shifts)) <= hop / 2 + 1e-9, shifts


class TestAggregate:
    def test_weighted_and_mean(self):
        a = mt.EvalResult({k: 1.0 for k in COMPARATORS}, {k: 10.0 for k in COMPARATORS})
        b = mt.EvalResult({k: 0.5 for k in COMPARATORS}, {k: 30.0 for k in COMPARATORS})
        rolled = aggregate([a, b])
        assert rolled["weighted"][mt.ROOT] == pytest.approx(0.625)
        assert rolled["per_song_mean"][mt.ROOT] == pytest.approx(0.75)

    def test_undefined_comparators_propagate(self):
        a = mt.EvalResult({k: None for k in COMPARATORS}, {k: 0.0 for k in COMPARATORS})
        rolled = aggregate([a])
        assert rolled["weighted"][mt.MAJMIN] is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
