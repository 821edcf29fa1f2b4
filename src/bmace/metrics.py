"""Duration-weighted chord symbol recall over interval annotations.

Seven comparators grade an estimated annotation against a reference at
increasing strictness: root only, root plus third, the triad, the triad
plus seventh, the full quality template, the major/minor reduction, and
a shared-pitch-class rule (at least three common tones). Every boundary
of either annotation inside the reference span cuts it into segments,
and each segment reads the label each side holds there through
``Annotation.indices_at`` (no-chord where a side has no interval). Each
segment scores MATCH, MISMATCH, or SKIPPED; a comparator's recall is
matched duration over non-skipped duration, both summed over the
segments in time order.

Each distinct label is reduced once per process (a bounded cache) to a
reference code and an estimate code per comparator, all ints. Under the
first six comparators a segment is skipped when the reference code is
the skip code and matches when the two codes are equal. MIREX codes are
pitch-class bitmasks, and a segment matches when the two share at least
three bits.

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

import numpy as np

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
# The reference code that skips a segment; every other code is at least 0.
_SKIP = -1
# Comparator keys numbered in the order first met. Each is built from a
# root and one of fourteen templates, so there are a few hundred at most.
_KEY_CODES = {}
# _TONES[m] counts the set bits of a 15-bit mask m (numpy 1.24 has no
# bitwise_count): each doubling appends every mask with one more high bit.
_TONES = np.zeros(1, np.uint8)
for _ in range(15):
    _TONES = np.concatenate((_TONES, _TONES + 1))


def _coded(ref, est):
    """Comparator keys as one read-only (2, 7) int array: the reference row,
    then the estimate row. None is _SKIP and the MIREX mask stays itself."""
    codes = np.array([[_SKIP if key is None else _KEY_CODES.setdefault(key, len(_KEY_CODES))
                       for key in keys[:_MIREX_COLUMN]] + [_SKIP if keys[-1] is None else keys[-1]]
                      for keys in (ref, est)], np.int32)
    codes.flags.writeable = False
    return codes


# Bounded by distinct labels (a few hundred in any corpus), not by songs.
@functools.lru_cache(maxsize=1024)
def _codes(label):
    """One label's codes: a (2, 7) array of its reference row, then its
    estimate row, with one column per comparator.

    The quality is the large vocabulary's: the label's own, or its raw
    interval set's largest template. A reference code of _SKIP skips the
    segment; the last code of each side is the MIREX pitch-class mask.
    """
    majmin = chords.to_class(label, chords.MAJMIN_25)
    if label.is_no_chord:
        est = (_NO_CHORD_KEY,) * 5 + (majmin, _NO_CHORD_MASK)
        return _coded(est, est)
    mask = sum(1 << pc for pc in label.pitch_classes())
    quality = chords.LARGE_170.quality_of(label)
    if quality is None:
        return _coded((None,) * 7, (_UNREADABLE_KEY,) * 5 + (majmin, mask))
    root = label.root
    template = chords.TEMPLATES[quality]
    est = (root, (root, chords.third_quality(template)), (root, template & _TRIAD_CLASSES),
           (root, template & _SEVENTH_CLASSES), (root, template), majmin, mask)
    # As a reference, a chord outside the sevenths domain or without a
    # third is skipped by that comparator.
    ref = est[:3] + (est[3] if quality in _SEVENTHS_DOMAIN else None, est[4],
                     None if majmin == chords.SKIP else majmin, mask)
    return _coded(ref, est)


def _column(kind):
    try:
        return _COLUMNS[kind]
    except KeyError:
        raise ValueError(f"unknown comparator {kind!r}") from None


def compare(kind, ref, est):
    """Grade one (reference, estimate) label pair under a comparator."""
    column = _column(kind)
    ref_code = _codes(ref)[0, column]
    if ref_code == _SKIP:
        return SKIPPED
    est_code = _codes(est)[1, column]
    if column == _MIREX_COLUMN:
        return MATCH if _TONES[ref_code & est_code] >= 3 else MISMATCH
    return MATCH if ref_code == est_code else MISMATCH


def _recalls(ref, est):
    """Per comparator: (matched / non-skipped duration or None, non-skipped duration).

    Segments run between the distinct boundaries of both annotations
    inside the reference span; estimate time outside its own intervals
    (including beyond its end) reads as no-chord, so the estimate is
    implicitly truncated or extended to the span. The sums run segment
    by segment in time order, as a loop over the segments would add.
    """
    if not ref.intervals:
        raise ValueError("empty reference annotation")
    bounds = np.concatenate((ref.starts, ref.ends, est.starts, est.ends))
    # Boundaries outside the span clip onto its ends; sorting puts copies side by side.
    bounds = np.sort(np.clip(bounds, ref.starts[0], ref.ends[-1]))
    lengths = np.diff(bounds)
    cut = lengths > 0.0
    times, durations = bounds[:-1][cut], lengths[cut]
    # Per side, the pair's id of each interval's label, then no-chord's for index -1.
    ids = {}
    ref_ids, est_ids = (
        np.array([ids.setdefault(label, len(ids)) for _, _, label in side.intervals]
                 + [ids.setdefault(chords.ChordLabel.no_chord(), len(ids))])
        for side in (ref, est))
    # One row per comparator, one column per segment.
    codes = np.array([_codes(label) for label in ids]).T
    ref_codes = codes[:, 0, ref_ids[ref.indices_at(times)]]
    est_codes = codes[:, 1, est_ids[est.indices_at(times)]]
    hits = ref_codes == est_codes
    mirex = ref_codes[_MIREX_COLUMN] & est_codes[_MIREX_COLUMN]
    hits[_MIREX_COLUMN] = _TONES[mirex] >= 3
    graded = np.where(ref_codes != _SKIP, durations, 0.0)
    matched = np.where(hits, graded, 0.0)
    # In place: the running sums need no arrays beyond these two.
    matched = np.add.accumulate(matched, axis=1, out=matched)[:, -1].tolist()
    total = np.add.accumulate(graded, axis=1, out=graded)[:, -1].tolist()
    return [(m / t if t > 0.0 else None, t) for m, t in zip(matched, total)]


def wcsr(ref, est, kind):
    """One comparator's recall: (score or None, evaluated duration).

    Score is matched duration over non-skipped duration; when every
    segment is skipped the score is undefined and reported as None.
    """
    column = _column(kind)
    return _recalls(ref, est)[column]


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
    recalls = _recalls(ref, est)
    return EvalResult(PerComparator(score for score, _ in recalls),
                      PerComparator(total for _, total in recalls))


def frames_to_annotation(classes, vocab):
    """Merge a framewise class sequence into an interval annotation.

    Frame t owns [frame_time(t - 1/2), frame_time(t + 1/2)) around the
    centre of its audio, the first from 0, so ``framewise_targets`` reads
    ``classes`` back. The last end, frame_time(n - 1/2), is not clamped to
    the clip, whose sample count this function does not see. Runs of one
    class fuse; SKIP becomes unknown.
    """
    classes = np.asarray(classes)
    if classes.size == 0:
        raise ValueError("empty class sequence")
    # Frame indices where a run starts, then the end of the last run.
    changes = np.flatnonzero(classes[1:] != classes[:-1]) + 1
    bounds = np.concatenate(([0], changes, [classes.size]))
    times = chords.frame_time(np.maximum(bounds - 0.5, 0.0)).tolist()
    labels = [chords.ChordLabel.unknown() if class_id == chords.SKIP
              else chords.parse_chord(chords.class_to_label(class_id, vocab))
              for class_id in classes[bounds[:-1]].tolist()]
    return chords.Annotation(tuple(zip(times, times[1:], labels)))


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
