"""Scores computed apart from the package, to check its outputs against.

Labels here are plain tuples: ``("N",)`` for no-chord, ``("X",)`` for
unknown, and ``("chord", root, quality)`` with a Harte shorthand quality.
The comparator rules are written out from their definitions (root, third,
triad, seventh, full template, major/minor reduction, three shared pitch
classes) and do not call the package. Recall is matched duration over
graded duration, summed over the pairwise intersections of reference and
estimate intervals; reference time that no estimate interval covers is
graded against no-chord.
"""

from __future__ import annotations

HOP_S = 2048 / 22050
NO_CHORD = ("N",)
UNKNOWN = ("X",)

TEMPLATES = {
    "maj": {0, 4, 7}, "min": {0, 3, 7}, "dim": {0, 3, 6}, "aug": {0, 4, 8},
    "sus2": {0, 2, 7}, "sus4": {0, 5, 7}, "maj6": {0, 4, 7, 9}, "min6": {0, 3, 7, 9},
    "7": {0, 4, 7, 10}, "maj7": {0, 4, 7, 11}, "min7": {0, 3, 7, 10},
    "minmaj7": {0, 3, 7, 11}, "dim7": {0, 3, 6, 9}, "hdim7": {0, 3, 6, 10},
}
QUALITIES = tuple(TEMPLATES)
COMPARATORS = ("root", "thirds", "triads", "sevenths", "tetrads", "majmin", "mirex")
_TRIAD = set(range(9))
_SEVENTH = set(range(9)) | {10, 11}
_SEVENTHS_DOMAIN = {"maj", "min", "7", "maj7", "min7"}


def from_program_label(label):
    """Tuple form of a parsed label, read from its data fields only."""
    if label.special == "N":
        return NO_CHORD
    if label.special == "X":
        return UNKNOWN
    intervals = set(label.intervals)
    for quality, template in TEMPLATES.items():
        if template == intervals:
            return ("chord", label.root, quality)
    raise ValueError(f"no template for intervals {sorted(intervals)}")


def pitch_classes(label):
    if label[0] != "chord":
        return set()
    return {(label[1] + i) % 12 for i in TEMPLATES[label[2]]}


def majmin_class(label):
    """0..23 for root*2 (+1 if minor), 24 for no-chord, None when skipped."""
    if label == NO_CHORD:
        return 24
    if label == UNKNOWN:
        return None
    template = TEMPLATES[label[2]]
    if 4 in template:
        return 2 * label[1]
    if 3 in template:
        return 2 * label[1] + 1
    return None


def _third(template):
    return "maj" if 4 in template else "min" if 3 in template else "none"


def grade(kind, ref, est):
    """True (match), False (mismatch) or None (the reference is skipped)."""
    if ref == UNKNOWN:
        return None
    if kind == "majmin":
        ref_class = majmin_class(ref)
        return None if ref_class is None else majmin_class(est) == ref_class
    if kind == "mirex":
        if ref == NO_CHORD:
            return est == NO_CHORD
        return len(pitch_classes(ref) & pitch_classes(est)) >= 3
    if kind == "sevenths" and ref != NO_CHORD and ref[2] not in _SEVENTHS_DOMAIN:
        return None
    if ref == NO_CHORD or est[0] != "chord":
        return ref == NO_CHORD and est == NO_CHORD
    if ref[1] != est[1]:
        return False
    ref_t, est_t = TEMPLATES[ref[2]], TEMPLATES[est[2]]
    if kind == "root":
        return True
    if kind == "thirds":
        return _third(ref_t) == _third(est_t)
    if kind == "triads":
        return ref_t & _TRIAD == est_t & _TRIAD
    if kind == "sevenths":
        return ref_t & _SEVENTH == est_t & _SEVENTH
    if kind == "tetrads":
        return ref_t == est_t
    raise ValueError(f"unknown comparator {kind!r}")


def overlaps(ref, est):
    """(duration, ref label, est label) for every overlapping interval pair.

    ``ref`` and ``est`` are sorted lists of (start, end, label). Reference
    time outside every estimate interval is paired with no-chord.
    """
    out = []
    j = 0
    for r_start, r_end, r_label in ref:
        while j < len(est) and est[j][1] <= r_start:
            j += 1
        covered = 0.0
        k = j
        while k < len(est) and est[k][0] < r_end:
            lo, hi = max(r_start, est[k][0]), min(r_end, est[k][1])
            if hi > lo:
                out.append((hi - lo, r_label, est[k][2]))
                covered += hi - lo
            k += 1
        gap = (r_end - r_start) - covered
        if gap > 1e-9:
            out.append((gap, r_label, NO_CHORD))
    return out


def wcsr(ref, est, kinds=COMPARATORS):
    """{kind: (score or None, graded duration)} over the reference span."""
    pieces = overlaps(ref, est)
    out = {}
    for kind in kinds:
        matched = total = 0.0
        for duration, r_label, e_label in pieces:
            result = grade(kind, r_label, e_label)
            if result is None:
                continue
            total += duration
            if result:
                matched += duration
        out[kind] = (matched / total if total > 0.0 else None, total)
    return out


def label_at(intervals, t):
    for start, end, label in intervals:
        if start <= t < end:
            return label
    return NO_CHORD


def tail_accuracy(ref, est, n_frames, tail_frames):
    """Maj-min frame accuracy over the last ``tail_frames`` frames.

    Frame t's reference is the label at its centre t*hop; its estimate is
    the estimate interval covering the middle of its hop, (t + 0.5)*hop.
    """
    frames = range(max(0, n_frames - tail_frames), n_frames)
    hits = sum(majmin_class(label_at(ref, t * HOP_S)) == majmin_class(label_at(est, (t + 0.5) * HOP_S))
               for t in frames)
    return hits / len(frames)
