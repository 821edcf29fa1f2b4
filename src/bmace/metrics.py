"""Duration-weighted chord symbol recall over interval annotations.

Seven comparators grade an estimated annotation against a reference at
increasing strictness: root only, root plus third, the triad, the triad
plus seventh, the full quality template, the major/minor reduction, and
a shared-pitch-class rule (at least three common tones). Each segment of
the merged partition scores MATCH, MISMATCH, or SKIPPED; a comparator's
recall is matched duration over non-skipped duration.

Reference labels that cannot be read (unknown, or an interval set no
template fits) are skipped by every comparator. Estimated labels never
cause a skip; an unreadable estimate simply matches nothing.
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


def _canonical(label):
    """Normalize to ('chord', root, quality) or a special kind.

    Raw interval sets reduce through the same largest-template rule the
    vocabularies use; an irreducible set behaves like unknown.
    """
    if label.is_no_chord:
        return ("no_chord", None, None)
    if label.is_unknown:
        return ("unknown", None, None)
    quality = label.quality or chords.reduce_quality(label.intervals)
    if quality is None:
        return ("unknown", None, None)
    return ("chord", label.root, quality)


def _third_class(quality):
    template = chords.TEMPLATES[quality]
    if 4 in template:
        return "maj"
    if 3 in template:
        return "min"
    return "none"


def compare(kind, ref, est):
    """Grade one (reference, estimate) label pair under a comparator."""
    ref_kind, ref_root, ref_quality = _canonical(ref)
    if ref_kind == "unknown":
        return SKIPPED

    if kind == MIREX:
        est_kind = _canonical(est)[0]
        if ref_kind == "no_chord":
            return MATCH if est_kind == "no_chord" else MISMATCH
        shared = ref.pitch_classes() & est.pitch_classes()
        return MATCH if len(shared) >= 3 else MISMATCH

    if kind == MAJMIN:
        ref_class = chords.to_class(ref, chords.MAJMIN_25)
        if ref_class == chords.SKIP:
            return SKIPPED
        return MATCH if chords.to_class(est, chords.MAJMIN_25) == ref_class else MISMATCH

    if kind == SEVENTHS and ref_kind == "chord" and ref_quality not in _SEVENTHS_DOMAIN:
        return SKIPPED

    est_kind, est_root, est_quality = _canonical(est)
    if ref_kind == "no_chord" or est_kind != "chord":
        return MATCH if (ref_kind == "no_chord" and est_kind == "no_chord") else MISMATCH
    if ref_root != est_root:
        return MISMATCH

    if kind == ROOT:
        return MATCH
    if kind == THIRDS:
        return MATCH if _third_class(ref_quality) == _third_class(est_quality) else MISMATCH
    ref_template = chords.TEMPLATES[ref_quality]
    est_template = chords.TEMPLATES[est_quality]
    if kind == TRIADS:
        same = ref_template & _TRIAD_CLASSES == est_template & _TRIAD_CLASSES
        return MATCH if same else MISMATCH
    if kind == SEVENTHS:
        same = ref_template & _SEVENTH_CLASSES == est_template & _SEVENTH_CLASSES
        return MATCH if same else MISMATCH
    if kind == TETRADS:
        return MATCH if ref_template == est_template else MISMATCH
    raise ValueError(f"unknown comparator {kind!r}")


def _merged_segments(ref, est):
    """(duration, ref_label, est_label) over the merged partition.

    The partition spans the reference annotation; estimate time outside
    its own intervals (including beyond its end) reads as no-chord, so
    the estimate is implicitly truncated or extended to the span.
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
    out = []
    for lo, hi in zip(order, order[1:]):
        mid = 0.5 * (lo + hi)
        out.append((hi - lo, ref.label_at(mid), est.label_at(mid)))
    return out


def _recall(segments, kind):
    """(matched / non-skipped duration or None, non-skipped duration)."""
    matched = 0.0
    total = 0.0
    for duration, ref_label, est_label in segments:
        result = compare(kind, ref_label, est_label)
        if result == SKIPPED:
            continue
        total += duration
        if result == MATCH:
            matched += duration
    return (matched / total if total > 0.0 else None), total


def wcsr(ref, est, kind):
    """One comparator's recall: (score or None, evaluated duration).

    Score is matched duration over non-skipped duration; when every
    segment is skipped the score is undefined and reported as None.
    """
    return _recall(_merged_segments(ref, est), kind)


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
    segments = _merged_segments(ref, est)
    recalls = {kind: _recall(segments, kind) for kind in COMPARATORS}
    return EvalResult({kind: score for kind, (score, _) in recalls.items()},
                      {kind: total for kind, (_, total) in recalls.items()})


def frames_to_annotation(classes, vocab):
    """Merge a framewise class sequence into an interval annotation.

    Frame t owns [frame_time(t), frame_time(t + 1)), so ``framewise_targets``
    reads ``classes`` back. Runs of one class fuse; SKIP becomes unknown.
    """
    if len(classes) == 0:
        raise ValueError("empty class sequence")
    intervals = []
    run_start = 0
    for t in range(1, len(classes) + 1):
        if t < len(classes) and classes[t] == classes[run_start]:
            continue
        class_id = classes[run_start]
        if class_id == chords.SKIP:
            label = chords.ChordLabel.unknown()
        else:
            label = chords.parse_chord(chords.class_to_label(class_id, vocab))
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
