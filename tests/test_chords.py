"""Chord grammar, annotation parsing, and vocabulary mapping tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bmace.chords as ch
from bmace.chords import (
    LARGE_170,
    MAJMIN_25,
    SKIP,
    Annotation,
    ChordLabel,
    ParseError,
    class_to_label,
    framewise_targets,
    parse_chord,
    parse_lab,
    reduce_quality,
    to_class,
)


def label_at(annotation, t):
    """The label ``indices_at`` finds at ``t``; no-chord outside every interval."""
    i = annotation.indices_at(t)
    return annotation.intervals[i][2] if i >= 0 else ChordLabel.no_chord()


def scan_label_at(annotation, t):
    """Reference lookup: the first interval holding ``t``, else no-chord."""
    for start, end, label in annotation.intervals:
        if start <= t < end:
            return label
    return ChordLabel.no_chord()


class TestParseChord:
    def test_bare_root_is_major(self):
        label = parse_chord("C")
        assert label.root == 0
        assert label.quality == "maj"
        assert label.intervals == frozenset({0, 4, 7})
        assert label.bass == 0

    def test_all_naturals(self):
        # Pitch-class arithmetic oracle: semitone offsets of the majors.
        for name, pc in [("C", 0), ("D", 2), ("E", 4), ("F", 5), ("G", 7), ("A", 9), ("B", 11)]:
            assert parse_chord(name).root == pc

    def test_flat_root_and_seventh_bass(self):
        label = parse_chord("Db:min7/b7")
        assert label.root == 1
        assert label.quality == "min7"
        # b7 = 11 - 1 semitones above the root.
        assert label.bass == 10

    def test_interval_list_matches_template(self):
        label = parse_chord("F#:(1,3,5)")
        assert label.root == 6
        assert label.intervals == frozenset({0, 4, 7})
        assert label.quality == "maj"

    def test_modifier_stacking(self):
        assert parse_chord("C##").root == 2
        assert parse_chord("Fbb").root == 3
        assert parse_chord("Cb").root == 11

    def test_enharmonic_roots_agree(self):
        assert parse_chord("C#:min").root == parse_chord("Db:min").root

    def test_every_canonical_quality(self):
        for name, template in ch.TEMPLATES.items():
            label = parse_chord(f"E:{name}")
            assert label.quality == name
            assert label.intervals == template

    def test_added_degree_leaves_canonical_set(self):
        label = parse_chord("C:maj(9)")
        assert label.intervals == frozenset({0, 2, 4, 7})
        assert label.quality is None

    def test_omitted_degree(self):
        label = parse_chord("C:maj7(*5)")
        assert label.intervals == frozenset({0, 4, 11})
        assert label.quality is None

    def test_mixed_add_and_omit(self):
        label = parse_chord("A:7(*5,9)")
        assert label.intervals == frozenset({0, 2, 4, 10})

    def test_modified_degree_in_list(self):
        assert parse_chord("C:(1,b3,5)").intervals == frozenset({0, 3, 7})
        assert parse_chord("C:(1,3,#5)").intervals == frozenset({0, 4, 8})

    def test_bass_without_quality(self):
        label = parse_chord("C/5")
        assert label.quality == "maj"
        assert label.bass == 7

    def test_bass_on_shorthand(self):
        assert parse_chord("G:7/3").bass == 4

    def test_extended_shorthand_keeps_full_set(self):
        label = parse_chord("C:9")
        assert label.intervals == frozenset({0, 2, 4, 7, 10})
        assert label.quality is None

    def test_no_chord_and_unknown(self):
        assert parse_chord("N").is_no_chord
        assert parse_chord("X").is_unknown
        assert parse_chord("N").pitch_classes() == frozenset()

    def test_pitch_classes_are_absolute(self):
        assert parse_chord("G:maj").pitch_classes() == frozenset({7, 11, 2})

    def test_bad_root_points_at_column_zero(self):
        with pytest.raises(ParseError) as err:
            parse_chord("H:maj")
        assert err.value.column == 0

    def test_unknown_quality_points_at_its_column(self):
        with pytest.raises(ParseError) as err:
            parse_chord("C:majj")
        assert err.value.column == 2

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_chord("C:maj!")
        with pytest.raises(ParseError):
            parse_chord("Nope")

    def test_unterminated_list_rejected(self):
        with pytest.raises(ParseError):
            parse_chord("C:maj(9")
        with pytest.raises(ParseError):
            parse_chord("C:()")

    def test_degree_out_of_range(self):
        with pytest.raises(ParseError):
            parse_chord("C:(1,3,14)")

    def test_empty_token(self):
        with pytest.raises(ParseError):
            parse_chord("")

    # One token per message parse_chord can raise, with the column of the fault.
    @pytest.mark.parametrize("token, message, column", [
        ("", "empty chord token", 0),
        ("Nope", "unexpected text after 'N'", 1),
        ("H:maj", "expected a root letter A..G, got 'H'", 0),
        ("C:", "missing quality after ':'", 2),
        ("C:majj", "unknown quality 'majj'", 2),
        ("C:(1,b)", "expected a degree number", 6),
        ("C:(1,3,14)", "degree 14 out of range 1..13", 7),
        ("C:(1;3)", "expected ',' or ')' in degree list", 4),
        ("C:(", "unterminated degree list", 3),
        ("C:maj(9", "unterminated degree list", 7),
        ("C:maj!", "unexpected trailing text '!'", 5),
    ], ids=["empty", "text-after-N", "bad-root", "missing-quality", "unknown-quality",
            "no-degree-number", "degree-out-of-range", "bad-list-separator",
            "unterminated-empty-list", "unterminated-list", "trailing-text"])
    def test_error_message_and_column(self, token, message, column):
        with pytest.raises(ParseError) as err:
            parse_chord(token)
        assert str(err.value) == f"{message} (column {column})"
        assert err.value.column == column

    @pytest.mark.parametrize("token, column", [("C/²", 2), ("C:(1,²)", 5)])
    def test_non_decimal_digit_is_not_a_degree_number(self, token, column):
        # "²" is a digit to str.isdigit, but int() cannot read it.
        with pytest.raises(ParseError) as err:
            parse_chord(token)
        assert str(err.value) == f"expected a degree number (column {column})"
        assert err.value.column == column

    def test_decimal_digits_of_any_script_read_as_degrees(self):
        assert parse_chord("C/\u0663") == parse_chord("C/3")  # ARABIC-INDIC DIGIT THREE


class TestChordLabelHash:
    @pytest.mark.parametrize("spellings", [("C", "C:maj", "C:(1,3,5)"), ("Db:min", "C#:min"),
                                           ("G:7", "G:(1,3,5,b7)"), ("N",), ("X",)])
    def test_equal_spellings_share_a_hash_and_a_dict_slot(self, spellings):
        labels = [parse_chord(text) for text in spellings]
        # parse_chord shares one object per label; a label built directly is another.
        assert len({id(label) for label in labels}) == 1
        labels.append(ChordLabel(labels[0].root, labels[0].quality, labels[0].intervals,
                                 labels[0].bass, labels[0].special))
        assert labels[-1] is not labels[0]
        assert len({hash(label) for label in labels}) == 1
        slots = {}
        for label in labels:
            slots[label] = slots.get(label, 0) + 1
        assert list(slots.values()) == [len(labels)]

    def test_a_pickled_label_hashes_anew_under_another_hash_seed(self):
        # The cached hash mixes in str hashes, which PYTHONHASHSEED changes.
        script = (
            "import pickle, sys\n"
            "from bmace.chords import parse_chord\n"
            "texts = ['C:maj', 'A:min7', 'Bb:sus4(b7)', 'N', 'X']\n"
            "if sys.argv[1] == 'dump':\n"
            "    labels = [parse_chord(text) for text in texts]\n"
            "    assert len({label: text for label, text in zip(labels, texts)}) == 5\n"
            "    sys.stdout.buffer.write(pickle.dumps((hash('maj'), labels)))\n"
            "else:\n"
            "    dumper_maj_hash, labels = pickle.loads(sys.stdin.buffer.read())\n"
            "    assert hash('maj') != dumper_maj_hash\n"
            "    lookup = {parse_chord(text): text for text in texts}\n"
            "    assert [lookup.get(label) for label in labels] == texts\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        dumped = subprocess.run([sys.executable, "-c", script, "dump"], capture_output=True,
                                check=True, env=dict(env, PYTHONHASHSEED="1")).stdout
        loaded = subprocess.run([sys.executable, "-c", script, "load"], input=dumped,
                                capture_output=True, env=dict(env, PYTHONHASHSEED="2"))
        assert loaded.returncode == 0, loaded.stderr.decode()


class TestParseLab:
    def test_two_line_file(self):
        ann = parse_lab("0.0 2.5 C:maj\n2.5 4.0 G:7")
        assert len(ann.intervals) == 2
        assert ann.intervals[0][2].quality == "maj"
        assert ann.duration == 4.0

    def test_gap_filled_with_no_chord(self):
        ann = parse_lab("0.0 4.0 C:maj\n5.0 6.0 D:min")
        kinds = [(s, e, lab.is_no_chord) for s, e, lab in ann.intervals]
        assert kinds == [(0.0, 4.0, False), (4.0, 5.0, True), (5.0, 6.0, False)]

    def test_leading_gap_filled(self):
        ann = parse_lab("1.5 2.0 A:min")
        assert ann.intervals[0][:2] == (0.0, 1.5)
        assert ann.intervals[0][2].is_no_chord

    def test_unsorted_lines_are_sorted(self):
        ann = parse_lab("2.0 3.0 D:min\n0.0 2.0 C:maj")
        assert [s for s, _, _ in ann.intervals] == [0.0, 2.0]

    def test_overlap_error_names_both_lines(self):
        with pytest.raises(ParseError, match="lines 1 and 2"):
            parse_lab("0.0 2.0 C:maj\n1.0 3.0 D:min")

    def test_comments_and_blank_lines_skipped(self):
        ann = parse_lab("# header\n\n0.0 1.0 C:maj\n  # indented comment\n1.0 2.0 N\n")
        assert len(ann.intervals) == 2

    def test_crlf_line_endings(self):
        ann = parse_lab("0.0 1.0 C:maj\r\n1.0 2.0 F#:min7\r\n")
        assert len(ann.intervals) == 2
        assert ann.intervals[1][2].quality == "min7"

    def test_non_numeric_time_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_lab("0.0 1.0 C:maj\nabc 2.0 D:min")

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_lab("0.0 C:maj")

    def test_zero_length_interval_rejected(self):
        with pytest.raises(ParseError):
            parse_lab("1.0 1.0 C:maj")

    def test_bad_label_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_lab("0.0 1.0 H:maj")

    def test_non_decimal_digit_in_a_label_reports_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_lab("0 1 C/²\n")
        assert str(err.value) == "line 1: expected a degree number (column 2)"

    def test_repeated_bad_label_reports_its_first_line(self):
        with pytest.raises(ParseError, match="^line 2: "):
            parse_lab("0 1 C:maj\n1 2 H:min\n2 3 C:maj\n3 4 H:min")

    # A good file that puts every valid token of the bad files below in
    # parse_chord's cache before each bad file is read.
    CACHED_TOKENS = "0 1 C:maj\n1 2 D:min\n"

    @pytest.mark.parametrize("text, message", [
        ("0 1 C:maj\nabc 2.0 D:min", "line 2: non-numeric time in 'abc 2.0 D:min'"),
        ("0 1 C:maj\n1.0 nan D:min", "line 2: non-finite time in '1.0 nan D:min'"),
        ("0 1 C:maj\ninf 2 D:min", "line 2: non-finite time in 'inf 2 D:min'"),
        ("0 1 C:maj\n1 -inf D:min", "line 2: non-finite time in '1 -inf D:min'"),
        ("0 1 C:maj\n1.0 1.0 D:min", "line 2: invalid interval [1.0, 1.0)"),
        ("0 1 C:maj\n-1.0 2.0 D:min", "line 2: invalid interval [-1.0, 2.0)"),
        ("0 1 C:maj\n3.0 2.0 D:min", "line 2: invalid interval [3.0, 2.0)"),
        ("0 1 C:maj\n1 2 D:min\n2 3 H:min\n3 4 C:maj",
         "line 3: expected a root letter A..G, got 'H' (column 0)"),
        ("0 1 C:maj\n1 2 D:mn", "line 2: unknown quality 'mn' (column 2)"),
        ("# c\n\n0 1 C:maj\n 2 3 D:min\n1 2 C:maj\n1.5 1.7 D:min", "lines 5 and 6 overlap"),
    ])
    def test_errors_hold_after_their_tokens_are_cached(self, text, message):
        for _ in range(2):
            parse_lab(self.CACHED_TOKENS)
            with pytest.raises(ParseError) as info:
                parse_lab(text)
            assert str(info.value) == message

    def test_negative_zero_start_accepted_after_caching(self):
        parse_lab(self.CACHED_TOKENS)
        ann = parse_lab("-0.0 1 C:maj\n1 2 D:min")
        assert ann.intervals == ((0.0, 1.0, parse_chord("C:maj")), (1.0, 2.0, parse_chord("D:min")))

    def test_one_token_gives_one_shared_label(self):
        first, second = parse_lab("0 1 F#:7\n1 2 F#:7").intervals
        assert first[2] is second[2] is parse_chord("F#:7")

    @pytest.mark.parametrize("start, end", [
        (0.0, float("inf")), (float("nan"), 1.0), (0.0, float("nan")),
        (float("-inf"), 1.0), (float("inf"), float("inf")),
    ])
    def test_annotation_rejects_non_finite_bounds(self, start, end):
        with pytest.raises(ValueError, match="^non-finite time in "):
            Annotation(((start, end, parse_chord("C:maj")),))

    @pytest.mark.parametrize("start, end, message", [
        (-1.0, 1.0, "negative start time -1.0"),
        (1.0, 1.0, r"empty interval \[1.0, 1.0\)"),
        (2.0, 1.0, r"empty interval \[2.0, 1.0\)"),
    ])
    def test_annotation_rejects_invalid_bounds(self, start, end, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Annotation(((start, end, parse_chord("C:maj")),))

    def test_enharmonic_tokens_parse_equal(self):
        ann = parse_lab("0 1 Db:min\n1 2 C#:min\n2 3 Db:min")
        assert {label for _, _, label in ann.intervals} == {parse_chord("C#:min")}

    def test_empty_text_is_empty_annotation(self):
        assert parse_lab("").intervals == ()

    def test_label_at_covers_gaps(self):
        ann = Annotation(((0.0, 1.0, parse_chord("C:maj")),))
        assert label_at(ann, 0.5).quality == "maj"
        assert label_at(ann, 2.0).is_no_chord

    @pytest.mark.parametrize("t", [
        -1.0, 0.0, 0.4, 0.5, 0.9, 1.0, 1.5, 2.0, 2.5, 3.0, 3.0000001, 3.5, 4.0, 9.0,
        float("inf"), float("-inf"), float("nan"),
    ])
    def test_label_at_matches_linear_scan(self, t):
        # Starts after 0, a boundary at 1.0, a gap [2.0, 3.0), last end 4.0.
        ann = Annotation((
            (0.5, 1.0, parse_chord("C:maj")),
            (1.0, 2.0, parse_chord("A:min")),
            (3.0, 4.0, parse_chord("G:7")),
        ))
        assert label_at(ann, t) == scan_label_at(ann, t)

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.999, 4.0, float("nan")])
    def test_index_at_matches_linear_scan(self, t):
        ann = Annotation((
            (0.5, 1.0, parse_chord("C:maj")),
            (1.0, 2.0, parse_chord("A:min")),
            (3.0, 4.0, parse_chord("G:7")),
        ))
        want = next((i for i, (s, e, _) in enumerate(ann.intervals) if s <= t < e), -1)
        assert ann.indices_at(t) == want

    @pytest.mark.parametrize("t", [-1.0, 0.0, 5.0])
    def test_empty_annotation_is_no_chord(self, t):
        assert Annotation(()).indices_at(t) == -1
        assert label_at(Annotation(()), t).is_no_chord

    def test_gaps_share_one_no_chord_label(self):
        ann = parse_lab("1 2 C:maj\n3 4 C\n5 6 C:(1,3,5)")
        gaps = [label for _, _, label in ann.intervals if label.is_no_chord]
        majors = [label for _, _, label in ann.intervals if not label.is_no_chord]
        assert len(gaps) == 3 and all(label is ChordLabel.no_chord() for label in gaps)
        assert len(majors) == 3 and all(label is majors[0] for label in majors)


def scan_indices(annotation, times):
    """Reference lookup: per time, the first interval holding it, else -1."""
    return [next((i for i, (s, e, _) in enumerate(annotation.intervals) if s <= t < e), -1)
            for t in times]


class TestIndicesAt:
    # A leading gap [0, 0.5), a shared boundary at 1.0, a gap [2.0, 3.0), last end 4.0.
    ANN = Annotation((
        (0.5, 1.0, parse_chord("C:maj")),
        (1.0, 2.0, parse_chord("A:min")),
        (3.0, 4.0, parse_chord("G:7")),
    ))

    def test_exact_bounds_gaps_and_both_tails_match_a_linear_scan(self):
        bounds = [t for start, end, _ in self.ANN.intervals for t in (start, end)]
        times = np.array(sorted({-1.0, 0.0, 0.25, 2.5, 4.0, 4.5, 1e9, *bounds,
                                 *np.nextafter(bounds, -np.inf), *np.nextafter(bounds, np.inf)}))
        got = self.ANN.indices_at(times)
        assert got.shape == times.shape
        assert got.tolist() == scan_indices(self.ANN, times)

    def test_random_times_match_a_linear_scan(self):
        times = np.random.default_rng(3).uniform(-1.0, 5.0, 500)
        assert self.ANN.indices_at(times).tolist() == scan_indices(self.ANN, times)

    @pytest.mark.parametrize("t, want", [(0.75, 0), (1.0, 1), (2.0, -1), (4.0, -1)])
    def test_a_scalar_time_gives_a_scalar_index(self, t, want):
        got = self.ANN.indices_at(t)
        assert np.ndim(got) == 0 and got == want

    def test_an_empty_annotation_holds_no_time(self):
        empty = Annotation(())
        assert empty.indices_at(np.array([-1.0, 0.0, 2.0])).tolist() == [-1, -1, -1]
        assert empty.indices_at(np.array([])).shape == (0,)
        assert empty.indices_at(0.0) == -1

    def test_bounds_are_read_only_float64_arrays(self):
        for times, want in ((self.ANN.starts, [0.5, 1.0, 3.0]), (self.ANN.ends, [1.0, 2.0, 4.0])):
            assert times.dtype == np.float64 and times.tolist() == want
            with pytest.raises(ValueError):
                times[0] = 0.0


class TestVocabularies:
    def test_sizes(self):
        assert MAJMIN_25.n_classes == 25
        assert LARGE_170.n_classes == 170

    def test_class_tables_list_every_class(self):
        # Built independently: sharp roots, each across the qualities in
        # class order, then no-chord, then unknown in the large vocabulary.
        roots = "C C# D D# E F F# G G# A A# B".split()
        large = ("maj min dim aug sus2 sus4 maj6 min6 7 maj7 min7 minmaj7 dim7 hdim7").split()
        for vocab, qualities, tail in ((MAJMIN_25, ["maj", "min"], ["N"]),
                                       (LARGE_170, large, ["N", "X"])):
            expected = [f"{r}:{q}" for r in roots for q in qualities] + tail
            assert vocab.n_classes == len(expected)
            assert [class_to_label(k, vocab) for k in range(vocab.n_classes)] == expected

    def test_canonical_anchor_classes(self):
        c_maj = parse_chord("C:maj")
        assert to_class(c_maj, MAJMIN_25) == 0
        assert to_class(c_maj, LARGE_170) == 0
        n = parse_chord("N")
        assert to_class(n, MAJMIN_25) == 24
        assert to_class(n, LARGE_170) == 168

    def test_dominant_seventh_example(self):
        g7 = parse_chord("G:7")
        assert to_class(g7, MAJMIN_25) == 14
        assert to_class(g7, LARGE_170) == 106

    def test_round_trip_all_majmin_classes(self):
        for k in range(25):
            assert to_class(parse_chord(class_to_label(k, MAJMIN_25)), MAJMIN_25) == k

    def test_round_trip_all_large_classes(self):
        for k in range(170):
            assert to_class(parse_chord(class_to_label(k, LARGE_170)), LARGE_170) == k

    def test_enharmonic_labels_share_classes(self):
        for vocab in (MAJMIN_25, LARGE_170):
            assert to_class(parse_chord("C#:maj"), vocab) == to_class(parse_chord("Db:maj"), vocab)

    def test_unknown_maps_to_skip_or_last(self):
        x = parse_chord("X")
        assert to_class(x, MAJMIN_25) == SKIP
        assert to_class(x, LARGE_170) == 169

    def test_thirdless_qualities_skip_in_majmin(self):
        for text in ("C:sus2", "C:sus4"):
            assert to_class(parse_chord(text), MAJMIN_25) == SKIP

    def test_third_rule_covers_every_quality(self):
        # Independent check: class parity must equal the template's third.
        for name, template in ch.TEMPLATES.items():
            got = to_class(parse_chord(f"D:{name}"), MAJMIN_25)
            if 4 in template:
                assert got == 2 * 2
            elif 3 in template:
                assert got == 2 * 2 + 1
            else:
                assert got == SKIP

    def test_sevenths_reduce_to_their_triad(self):
        assert to_class(parse_chord("E:maj7"), MAJMIN_25) == to_class(parse_chord("E:maj"), MAJMIN_25)
        assert to_class(parse_chord("E:min7"), MAJMIN_25) == to_class(parse_chord("E:min"), MAJMIN_25)

    def test_unmatched_set_is_unknown_class(self):
        power = parse_chord("C:(1,5)")
        assert to_class(power, LARGE_170) == 169
        assert to_class(power, MAJMIN_25) == SKIP

    def test_extended_chord_reduces_to_largest_template(self):
        # {0,2,4,7,10} contains both maj (3 notes) and 7 (4 notes).
        assert to_class(parse_chord("C:9"), LARGE_170) == ch.QUALITIES.index("7") + 0 * 14

    def test_added_ninth_tie_breaks_to_earliest(self):
        # {0,2,4,7} contains maj and sus2, both size 3; maj is listed first.
        assert to_class(parse_chord("C:maj(9)"), LARGE_170) == 0

    def test_reduction_against_brute_force_oracle(self):
        # Oracle: scan every template, keep the best by (size, earliest).
        sets = [
            frozenset({0, 4, 7}),
            frozenset({0, 2, 4, 7, 10}),
            frozenset({0, 2, 4, 5, 7, 9, 10}),
            frozenset({0, 3, 6, 9, 2}),
            frozenset({0, 2, 7}),
            frozenset({0, 1, 2}),
            frozenset({0, 3, 4, 7}),
            frozenset(range(12)),
        ]
        for s in sets:
            candidates = [q for q in ch.QUALITIES if ch.TEMPLATES[q] <= s]
            expected = None
            if candidates:
                best_size = max(len(ch.TEMPLATES[q]) for q in candidates)
                expected = next(q for q in candidates if len(ch.TEMPLATES[q]) == best_size)
            assert reduce_quality(s) == expected

    def test_class_to_label_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            class_to_label(25, MAJMIN_25)
        with pytest.raises(ValueError):
            class_to_label(170, LARGE_170)
        with pytest.raises(ValueError):
            class_to_label(-1, LARGE_170)

    def test_labels_emit_sharps(self):
        assert class_to_label(6 * 14 + ch.QUALITIES.index("min7"), LARGE_170) == "F#:min7"


class TestFramewiseTargets:
    HOP = 2048
    SR = 22050

    def test_single_interval_fills_all_frames(self):
        ann = parse_lab("0 10 C:maj")
        targets = framewise_targets(ann, 108, MAJMIN_25)
        assert targets.tolist() == [0] * 108

    def test_boundary_on_frame_center_goes_to_later(self):
        boundary = 3 * self.HOP / self.SR
        ann = parse_lab(f"0 {boundary} C:maj\n{boundary} 1.0 D:min")
        targets = framewise_targets(ann, 6, MAJMIN_25)
        assert targets[2] == 0
        assert targets[3] == to_class(parse_chord("D:min"), MAJMIN_25)

    def test_equal_halves_split_within_one_frame(self):
        ann = parse_lab("0 5 C:maj\n5 10 G:maj")
        targets = framewise_targets(ann, 108, MAJMIN_25)
        first = np.count_nonzero(targets == 0)
        second = np.count_nonzero(targets == to_class(parse_chord("G:maj"), MAJMIN_25))
        assert first + second == 108
        assert abs(first - second) <= 2

    def test_matches_brute_force_lookup(self):
        ann = parse_lab("0 1.7 C:maj\n1.7 3.2 A:min7\n4.0 6.0 X\n6.0 9.5 F:sus2")
        for vocab in (MAJMIN_25, LARGE_170):
            targets = framewise_targets(ann, 108, vocab)
            for t, got in enumerate(targets):
                expected = to_class(scan_label_at(ann, t * self.HOP / self.SR), vocab)
                assert got == expected

    def test_tail_beyond_annotation_is_no_chord(self):
        ann = parse_lab("0 1.0 C:maj")
        targets = framewise_targets(ann, 30, LARGE_170)
        assert targets[-1] == 168

    def test_skip_frames_come_from_unmappable_labels(self):
        ann = parse_lab("0 1.0 X")
        targets = framewise_targets(ann, 10, MAJMIN_25)
        assert targets[0] == SKIP
        assert SKIP in targets

    def test_bounds_on_frame_centers_and_a_leading_gap_match_a_linear_scan(self):
        # No interval before frame 3; every boundary lands on a frame center.
        at = ch.frame_time
        ann = Annotation((
            (at(3), at(10), parse_chord("C:maj")),
            (at(10), at(11), parse_chord("A:min7")),
            (at(11), at(20), parse_chord("X")),
            (at(25), at(40), parse_chord("F:sus2")),
            (at(40), at(41), parse_chord("E:min")),
        ))
        for vocab in (MAJMIN_25, LARGE_170):
            targets = framewise_targets(ann, 50, vocab)
            assert targets.dtype == np.int64
            assert targets.tolist() == [to_class(scan_label_at(ann, at(t)), vocab)
                                        for t in range(50)]
            assert targets[:3].tolist() == [vocab.n_chords] * 3
            assert targets[10] == to_class(parse_chord("A:min7"), vocab)

    def test_no_frames_give_an_empty_array(self):
        targets = framewise_targets(parse_lab("0 1 C:maj"), 0, LARGE_170)
        assert targets.dtype == np.int64 and targets.shape == (0,)
