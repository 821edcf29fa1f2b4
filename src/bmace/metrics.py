"""Duration-weighted chord symbol recall over interval annotations.

Seven comparators grade an estimated annotation against a reference at
increasing strictness: root only, root plus third, the triad, the triad
plus seventh, the full quality template, the major/minor reduction, and
a shared-pitch-class rule (at least three common tones). One walk over
both interval lists, in time order, cuts the reference span into
segments at every boundary of either annotation. Each segment scores
MATCH, MISMATCH, or SKIPPED; a comparator's recall is matched duration
over non-skipped duration.

Each distinct label is reduced once per process (a bounded cache) to a
reference key and an estimate key per comparator. Under the first six
comparators a segment is skipped when the reference key is None and
matches when the two keys are equal. MIREX keys are pitch-class
bitmasks, and a segment matches when the two share at least three bits.

Reference labels that cannot be read (unknown, or an interval set no
template fits) are skipped by every comparator. Estimated labels never
cause a skip. An unreadable estimate matches nothing under the first
five comparators; the major/minor reduction still reads its third, and
MIREX its pitch classes.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections.abc import Mapping
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
_COLUMNS = {kind: column for column, kind in enumerate(COMPARATORS)}

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
_MIREX_COLUMN = _COLUMNS[MIREX]
# Stands in for the estimate's next interval once the walk has passed its last.
_PAST_END = (math.inf, math.inf, None)


# Bounded by distinct labels (a few hundred in any corpus), not by songs.
@functools.lru_cache(maxsize=1024)
def _keys(label):
    """(reference keys, estimate keys) of one label, one per comparator.

    The quality is the large vocabulary's: the label's own, or its raw
    interval set's largest template. A reference key of None skips the segment; the last key of
    each side is the MIREX pitch-class mask.
    """
    majmin = chords.to_class(label, chords.MAJMIN_25)
    if label.is_no_chord:
        est = (_NO_CHORD_KEY,) * 5 + (majmin, _NO_CHORD_MASK)
        return est, est
    mask = sum(1 << pc for pc in label.pitch_classes())
    quality = chords.LARGE_170.quality_of(label)
    if quality is None:
        return (None,) * 7, (_UNREADABLE_KEY,) * 5 + (majmin, mask)
    root = label.root
    template = chords.TEMPLATES[quality]
    est = (root, (root, chords.third_quality(template)), (root, template & _TRIAD_CLASSES),
           (root, template & _SEVENTH_CLASSES), (root, template), majmin, mask)
    # As a reference, a chord outside the sevenths domain or without a
    # third is skipped by that comparator.
    ref = est[:3] + (est[3] if quality in _SEVENTHS_DOMAIN else None, est[4],
                     None if majmin == chords.SKIP else majmin, mask)
    return ref, est


def _hits(columns, graded, ref_keys, est_keys):
    """The indices j in ``graded`` whose comparator ``columns[j]`` matches.

    ``graded`` lists only indices whose reference key is not None. Under
    MIREX the two pitch-class masks must share three bits; under every
    other comparator the keys must be equal.
    """
    hits = []
    for j in graded:
        c = columns[j]
        if c == _MIREX_COLUMN:
            if (ref_keys[c] & est_keys[c]).bit_count() >= 3:
                hits.append(j)
        elif ref_keys[c] == est_keys[c]:
            hits.append(j)
    return hits


def _column(kind):
    try:
        return _COLUMNS[kind]
    except KeyError:
        raise ValueError(f"unknown comparator {kind!r}") from None


def compare(kind, ref, est):
    """Grade one (reference, estimate) label pair under a comparator."""
    column = _column(kind)
    ref_keys = _keys(ref)[0]
    if ref_keys[column] is None:
        return SKIPPED
    return MATCH if _hits((column,), (0,), ref_keys, _keys(est)[1]) else MISMATCH


def _walk(ref, ref_ids, est, est_ids):
    """Yield (duration, ref id, est id) per segment of the merged partition.

    One pass with an index into each interval list. A segment runs from
    one boundary of either annotation to the next inside the reference
    span, and a side with no interval there reads id 0 (no-chord).
    """
    lo, span_end = ref[0][0], ref[-1][1]
    i = j = 0
    n_est = len(est)
    while j < n_est and est[j][1] <= lo:
        j += 1
    while lo < span_end:
        ref_start, ref_end, _ = ref[i]
        est_start, est_end, _ = est[j] if j < n_est else _PAST_END
        if ref_start <= lo:
            hi, ref_id = ref_end, ref_ids[i]
        else:
            hi, ref_id = ref_start, 0
        if est_start <= lo:
            est_id = est_ids[j]
            if est_end < hi:
                hi = est_end
        else:
            est_id = 0
            if est_start < hi:
                hi = est_start
        yield hi - lo, ref_id, est_id
        lo = hi
        if ref_end <= lo:
            i += 1
        if est_end <= lo:
            j += 1


def _merged_segments(ref, est):
    """(segments, keys) over the merged partition of the two annotations.

    ``segments`` yields (duration, ref id, est id) in time order; an id
    numbers a distinct label of this call (0 is no-chord), and
    ``keys[id]`` holds its ``_keys``. The partition spans the reference
    annotation; estimate time outside its own intervals (including
    beyond its end) reads as no-chord, so the estimate is implicitly
    truncated or extended to the span.
    """
    if not ref.intervals:
        raise ValueError("empty reference annotation")
    ids = {chords.ChordLabel.no_chord(): 0}
    ref_ids = [ids.setdefault(label, len(ids)) for _, _, label in ref.intervals]
    est_ids = [ids.setdefault(label, len(ids)) for _, _, label in est.intervals]
    return (_walk(ref.intervals, ref_ids, est.intervals, est_ids),
            [_keys(label) for label in ids])


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
        ref_graded = graded[ref_id]
        for j in ref_graded:
            total[j] += duration
        hits = pairs.get((ref_id, est_id))
        if hits is None:
            hits = pairs[ref_id, est_id] = _hits(columns, ref_graded, keys[ref_id][0],
                                                 keys[est_id][1])
        for j in hits:
            matched[j] += duration
    return [(m / t if t > 0.0 else None, t) for m, t in zip(matched, total)]


def wcsr(ref, est, kind):
    """One comparator's recall: (score or None, evaluated duration).

    Score is matched duration over non-skipped duration; when every
    segment is skipped the score is undefined and reported as None.
    """
    return _recalls(*_merged_segments(ref, est), (kind,))[0]


class PerComparator(Mapping):
    """Read-only {comparator: float or None} in COMPARATORS order.

    The values sit in one float64 array, with NaN for None, so a result
    kept per song costs about 180 bytes where a dict of floats costs 440.
    No defined score or duration is NaN: annotation times are finite.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = array("d", (math.nan if v is None else v for v in values))

    def __getitem__(self, kind):
        value = self._values[_COLUMNS[kind]]
        return None if math.isnan(value) else value

    def __iter__(self):
        return iter(COMPARATORS)

    def __len__(self):
        return len(COMPARATORS)

    def __repr__(self):
        return repr(dict(self))


@dataclass(frozen=True)
class EvalResult:
    """Per-comparator scores (None where undefined) and evaluated durations."""

    scores: Mapping
    durations: Mapping

    def to_dict(self):
        out = {kind: self.scores[kind] for kind in COMPARATORS}
        out["durations"] = {kind: self.durations[kind] for kind in COMPARATORS}
        return out


def evaluate_all(ref, est):
    """Run every comparator over one (reference, estimate) pair."""
    recalls = _recalls(*_merged_segments(ref, est), COMPARATORS)
    return EvalResult(PerComparator(score for score, _ in recalls),
                      PerComparator(total for _, total in recalls))


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
        label = (chords.ChordLabel.unknown() if class_id == chords.SKIP
                 else chords.parse_chord(chords.class_to_label(class_id, vocab)))
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
