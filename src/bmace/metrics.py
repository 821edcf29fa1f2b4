"""Duration-weighted chord symbol recall over interval annotations.

Seven comparators grade an estimated annotation against a reference at
increasing strictness: root only, root plus third, the triad, the triad
plus seventh, the full quality template, the major/minor reduction, and
a shared-pitch-class rule (at least three common tones). Each segment of
the merged partition scores MATCH, MISMATCH, or SKIPPED; a comparator's
recall is matched duration over non-skipped duration.

Each label is reduced once per call to a reference key and an estimate
key per comparator. Under the first six comparators a segment is skipped
when the reference key is None and matches when the two keys are equal.
MIREX keys are pitch-class bitmasks, and a segment matches when the two
share at least three bits.

Reference labels that cannot be read (unknown, or an interval set no
template fits) are skipped by every comparator. Estimated labels never
cause a skip. An unreadable estimate matches nothing under the first
five comparators; the major/minor reduction still reads its third, and
MIREX its pitch classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import chords

MATCH = "match"
MISMATCH = "mismatch"
SKIPPED = "skipped"

ROOT = "root"
THIRDS = "thirds"
TRIADS = "triads"
SEVENTHS = "sevenths"
TETRADS = "tetrads"
MAJMIN = "majmin"
MIREX = "mirex"
COMPARATORS = (ROOT, THIRDS, TRIADS, SEVENTHS, TETRADS, MAJMIN, MIREX)

# Interval classes making up the triad (root, third or sus tone, fifth)
# and the same plus the seventh. Class 9 is excluded from the seventh
# view: it is a sixth in every quality whose comparison reaches here.
_TRIAD_CLASSES = frozenset(range(9))
_SEVENTH_CLASSES = frozenset(range(9)) | {10, 11}

_SEVENTHS_DOMAIN = frozenset({"maj", "min", "7", "maj7", "min7"})

# Equality keys of the two labels without a chord quality. Chord keys are
# ints and tuples, so neither string equals any of them.
_NO_CHORD_KEY = "N"
_UNREADABLE_KEY = "X"
# No-chord's MIREX mask: three bits above the twelve pitch classes, so it
# shares three tones with itself and none with any chord.
_NO_CHORD_MASK = 0b111 << 12
_MIREX_COLUMN = COMPARATORS.index(MIREX)


def _third_class(template):
    if 4 in template:
        return "maj"
    if 3 in template:
        return "min"
    return "none"


def _keys(label):
    """(reference keys, estimate keys) of one label, one per comparator.

    The quality is the label's own or its raw interval set's largest
    template. A reference key of None skips the segment; the last key of
    each side is the MIREX pitch-class mask.
    """
    majmin = chords.to_class(label, chords.MAJMIN_25)
    if label.is_no_chord:
        est = (_NO_CHORD_KEY,) * 5 + (majmin, _NO_CHORD_MASK)
        return est, est
    mask = sum(1 << pc for pc in label.pitch_classes())
    quality = None if label.is_unknown else (
        label.quality or chords.reduce_quality(label.intervals))
    if quality is None:
        return (None,) * 7, (_UNREADABLE_KEY,) * 5 + (majmin, mask)
    root = label.root
    template = chords.TEMPLATES[quality]
    est = (root, (root, _third_class(template)), (root, template & _TRIAD_CLASSES),
           (root, template & _SEVENTH_CLASSES), (root, template), majmin, mask)
    # As a reference, a chord outside the sevenths domain or without a
    # third is skipped by that comparator.
    ref = est[:3] + (est[3] if quality in _SEVENTHS_DOMAIN else None, est[4],
                     None if majmin == chords.SKIP else majmin, mask)
    return ref, est


def _grade(column, ref_keys, est_keys):
    """True (match), False (mismatch) or None (skipped) under one comparator."""
    ref_key = ref_keys[column]
    if ref_key is None:
        return None
    if column == _MIREX_COLUMN:
        return (ref_key & est_keys[column]).bit_count() >= 3
    return ref_key == est_keys[column]


def _column(kind):
    try:
        return COMPARATORS.index(kind)
    except ValueError:
        raise ValueError(f"unknown comparator {kind!r}") from None


def compare(kind, ref, est):
    """Grade one (reference, estimate) label pair under a comparator."""
    grade = _grade(_column(kind), _keys(ref)[0], _keys(est)[1])
    return SKIPPED if grade is None else MATCH if grade else MISMATCH


def _merged_segments(ref, est):
    """(segments, keys) over the merged partition of the two annotations.

    Each segment is (duration, ref id, est id); an id numbers a distinct
    label of this call (0 is no-chord), and ``keys[id]`` holds its
    ``_keys``. The partition spans the reference annotation; estimate
    time outside its own intervals (including beyond its end) reads as
    no-chord, so the estimate is implicitly truncated or extended to the
    span.
    """
    if not ref.intervals:
        raise ValueError("empty reference annotation")
    span_start = ref.intervals[0][0]
    span_end = ref.intervals[-1][1]
    points = {span_start, span_end}
    for annotation in (ref, est):
        for start, end, _ in annotation.intervals:
            for t in (start, end):
                if span_start < t < span_end:
                    points.add(t)
    order = sorted(points)
    ids = {chords.ChordLabel.no_chord(): 0}
    ref_ids = [ids.setdefault(label, len(ids)) for _, _, label in ref.intervals]
    est_ids = [ids.setdefault(label, len(ids)) for _, _, label in est.intervals]
    segments = []
    for lo, hi in zip(order, order[1:]):
        mid = 0.5 * (lo + hi)
        i, j = ref.index_at(mid), est.index_at(mid)
        segments.append((hi - lo, 0 if i is None else ref_ids[i], 0 if j is None else est_ids[j]))
    return segments, [_keys(label) for label in ids]


def _recalls(segments, keys, kinds):
    """Per kind: (matched / non-skipped duration or None, non-skipped duration).

    A reference id's graded kinds and each distinct (ref id, est id)
    pair's matched kinds are worked out once. Durations still add up
    segment by segment, in order, as a per-segment loop would.
    """
    columns = [_column(kind) for kind in kinds]
    graded = [[j for j, c in enumerate(columns) if ref_keys[c] is not None]
              for ref_keys, _ in keys]
    matched = [0.0] * len(kinds)
    total = [0.0] * len(kinds)
    pairs = {}
    for duration, ref_id, est_id in segments:
        for j in graded[ref_id]:
            total[j] += duration
        hits = pairs.get((ref_id, est_id))
        if hits is None:
            ref_keys, est_keys = keys[ref_id][0], keys[est_id][1]
            hits = pairs[ref_id, est_id] = [
                j for j in graded[ref_id] if _grade(columns[j], ref_keys, est_keys)]
        for j in hits:
            matched[j] += duration
    return [(m / t if t > 0.0 else None, t) for m, t in zip(matched, total)]


def wcsr(ref, est, kind):
    """One comparator's recall: (score or None, evaluated duration).

    Score is matched duration over non-skipped duration; when every
    segment is skipped the score is undefined and reported as None.
    """
    return _recalls(*_merged_segments(ref, est), (kind,))[0]


@dataclass(frozen=True)
class EvalResult:
    """Per-comparator scores (None where undefined) and evaluated durations."""

    scores: dict
    durations: dict

    def to_dict(self):
        out = {kind: self.scores[kind] for kind in COMPARATORS}
        out["durations"] = {kind: self.durations[kind] for kind in COMPARATORS}
        return out


def evaluate_all(ref, est):
    """Run every comparator over one (reference, estimate) pair."""
    recalls = _recalls(*_merged_segments(ref, est), COMPARATORS)
    return EvalResult({kind: score for kind, (score, _) in zip(COMPARATORS, recalls)},
                      {kind: total for kind, (_, total) in zip(COMPARATORS, recalls)})


def frames_to_annotation(classes, vocab):
    """Merge a framewise class sequence into an interval annotation.

    Frame t owns [frame_time(t), frame_time(t + 1)), so ``framewise_targets``
    reads ``classes`` back. Runs of one class fuse; SKIP becomes unknown.
    """
    if len(classes) == 0:
        raise ValueError("empty class sequence")
    labels = {chords.SKIP: chords.ChordLabel.unknown()}
    intervals = []
    run_start = 0
    for t in range(1, len(classes) + 1):
        if t < len(classes) and classes[t] == classes[run_start]:
            continue
        class_id = classes[run_start]
        label = labels.get(class_id)
        if label is None:
            label = labels[class_id] = chords.parse_chord(chords.class_to_label(class_id, vocab))
        intervals.append((chords.frame_time(run_start), chords.frame_time(t), label))
        run_start = t
    return chords.Annotation(tuple(intervals))


def aggregate(results):
    """Corpus roll-up of per-song results.

    ``weighted`` pools matched duration over the corpus (songs weighted
    by evaluated duration); ``per_song_mean`` averages the defined
    per-song scores. Comparators undefined everywhere report None.
    """
    if not results:
        raise ValueError("no results to aggregate")
    weighted = {}
    per_song = {}
    for kind in COMPARATORS:
        pairs = [(r.scores[kind], r.durations[kind]) for r in results
                 if r.scores[kind] is not None]
        if not pairs:
            weighted[kind] = None
            per_song[kind] = None
            continue
        total = sum(duration for _, duration in pairs)
        weighted[kind] = sum(score * duration for score, duration in pairs) / total
        per_song[kind] = sum(score for score, _ in pairs) / len(pairs)
    return {"weighted": weighted, "per_song_mean": per_song}
