"""Chord-label grammar, annotation files, and class vocabularies.

Labels follow the common ``ROOT[:QUALITY][(DEGREES)][/BASS]`` text syntax,
which the regular expression ``_CHORD`` states: a natural root A..G with
any number of ``#`` or ``b`` modifiers, an optional shorthand quality, an
optional parenthesised degree list whose entries add degrees (or remove
them when starred, e.g. ``*3``), and an optional bass degree. A degree
(``_DEGREE``) is modifiers then a decimal number. ``N`` is the no-chord
token and ``X`` marks a label that could not be read. Equal labels are
one shared object, however they are spelled. ``Annotation.indices_at``
is the one lookup from times to intervals; ``framewise_targets`` reads
each frame's class through it at ``frame_time``.

Two class vocabularies are supported: a 25-class one (12 roots as major
or minor, plus no-chord) and a 170-class one (12 roots across 14
qualities, plus no-chord, plus unknown). A ``Vocab`` states its layout:
chord class ``root * len(qualities) + quality index``, then no-chord,
then unknown where the vocabulary has it. Labels a vocabulary cannot
express map to SKIP, which downstream code excludes from losses and
score denominators.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .features import HOP, SAMPLE_RATE

SKIP = -1

NO_CHORD = "N"
UNKNOWN = "X"

_NATURALS = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

# Canonical output spelling uses sharps.
PITCH_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

# Quality order is load-bearing: it fixes class ids in the large
# vocabulary and breaks ties in the largest-template reduction.
QUALITIES = (
    "maj", "min", "dim", "aug", "sus2", "sus4", "maj6", "min6",
    "7", "maj7", "min7", "minmaj7", "dim7", "hdim7",
)

TEMPLATES = {
    "maj": frozenset({0, 4, 7}),
    "min": frozenset({0, 3, 7}),
    "dim": frozenset({0, 3, 6}),
    "aug": frozenset({0, 4, 8}),
    "sus2": frozenset({0, 2, 7}),
    "sus4": frozenset({0, 5, 7}),
    "maj6": frozenset({0, 4, 7, 9}),
    "min6": frozenset({0, 3, 7, 9}),
    "7": frozenset({0, 4, 7, 10}),
    "maj7": frozenset({0, 4, 7, 11}),
    "min7": frozenset({0, 3, 7, 10}),
    "minmaj7": frozenset({0, 3, 7, 11}),
    "dim7": frozenset({0, 3, 6, 9}),
    "hdim7": frozenset({0, 3, 6, 10}),
}

# Extended shorthands parse to their full pitch-class sets; they reduce
# to a canonical quality only when mapped into a vocabulary.
_EXTENDED = {
    "9": frozenset({0, 2, 4, 7, 10}),
    "maj9": frozenset({0, 2, 4, 7, 11}),
    "min9": frozenset({0, 2, 3, 7, 10}),
    "11": frozenset({0, 2, 4, 5, 7, 10}),
    "13": frozenset({0, 2, 4, 5, 7, 9, 10}),
}

# Scale-degree numbers to semitones above the root (major scale, with
# compound degrees an octave up).
_DEGREE_SEMITONES = {
    1: 0, 2: 2, 3: 4, 4: 5, 5: 7, 6: 9, 7: 11,
    8: 12, 9: 14, 10: 16, 11: 17, 12: 19, 13: 21,
}

# The token grammar, ROOT[:QUALITY][(DEGREES)][/BASS]. A quality is the
# run of letters and digits after ':', and the degree list runs to the
# first ')', so parse_chord can name the column of a fault inside either.
_CHORD = re.compile(r"(?P<root>[A-G][#b]*)(?::(?P<quality>[^\W_]*)"
                    r"(?:\((?P<degrees>[^)]*)(?P<close>\))?)?)?(?:/(?P<bass>[#b]*\d*))?")
# One degree: sharps and flats, then a decimal number.
_DEGREE = re.compile(r"([#b]*)(\d*)")


class ParseError(ValueError):
    """Malformed chord token or annotation line.

    For single-token errors ``column`` carries the 0-based offset of the
    offending character; line-level errors embed the line number in the
    message instead.
    """

    def __init__(self, message, column=None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column


@dataclass(frozen=True)
class ChordLabel:
    """A parsed chord symbol.

    ``root`` is a pitch class 0..11 and ``intervals`` the set of
    semitone offsets sounding above it. ``quality`` names the canonical
    template when the interval set matches one exactly, else None.
    ``bass`` is the bass degree as semitones above the root and plays no
    part in classification. The two tokens without pitch content set
    ``special`` to NO_CHORD or UNKNOWN and leave the rest empty.

    Labels are built only by ``parse_chord``, ``no_chord`` and
    ``unknown``, which guarantee all of the above (so the class checks
    nothing) and share one object per distinct label.
    """

    root: int | None
    quality: str | None
    intervals: frozenset
    bass: int = 0
    special: str | None = None

    def __post_init__(self):
        # Scoring looks each label up in dicts and caches many times over:
        # hash the fields once. Equal labels still hash alike.
        object.__setattr__(self, "_hash", hash(self._fields()))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: str fields hash differently in another
        # process, so the cached hash must not travel with a pickle.
        return type(self), self._fields()

    def _fields(self):
        return self.root, self.quality, self.intervals, self.bass, self.special

    @classmethod
    @functools.cache
    def no_chord(cls):
        return cls(None, None, frozenset(), 0, NO_CHORD)

    @classmethod
    @functools.cache
    def unknown(cls):
        return cls(None, None, frozenset(), 0, UNKNOWN)

    @property
    def is_no_chord(self):
        return self.special == NO_CHORD

    @property
    def is_unknown(self):
        return self.special == UNKNOWN

    def pitch_classes(self):
        """Absolute pitch classes sounding in this chord (empty for N/X)."""
        if self.special is not None:
            return frozenset()
        return frozenset((self.root + i) % 12 for i in self.intervals)


def _degree(text, pos):
    """(semitones, end column) of the degree ``[#b]*DIGITS`` at ``pos``."""
    m = _DEGREE.match(text, pos)
    if not m[2]:
        raise ParseError("expected a degree number", m.start(2))
    number = int(m[2])
    if number not in _DEGREE_SEMITONES:
        raise ParseError(f"degree {number} out of range 1..13", pos)
    return (_DEGREE_SEMITONES[number] + m[1].count("#") - m[1].count("b")) % 12, m.end()


# Labels are frozen, so every caller may share one per label. Both caches
# are bounded: tokens and labels repeat across the files of a corpus.
_shared_label = functools.lru_cache(maxsize=1024)(ChordLabel)


@functools.lru_cache(maxsize=1024)
def parse_chord(text):
    """Parse one chord token into a ChordLabel.

    Raises ParseError with the offending column for malformed input: the
    groups of ``_CHORD`` are checked left to right, so the first fault in
    the token is the one reported.
    """
    if not text:
        raise ParseError("empty chord token", 0)
    if text == NO_CHORD:
        return ChordLabel.no_chord()
    if text == UNKNOWN:
        return ChordLabel.unknown()
    if text[0] in (NO_CHORD, UNKNOWN):
        raise ParseError(f"unexpected text after {text[0]!r}", 1)
    m = _CHORD.match(text)
    if m is None:
        raise ParseError(f"expected a root letter A..G, got {text[0]!r}", 0)
    root = _NATURALS[text[0]] + m["root"].count("#") - m["root"].count("b")
    quality, degrees = m["quality"], m["degrees"]
    if quality == "" and degrees is None:
        raise ParseError("missing quality after ':'", m.start("quality"))
    if quality and quality not in TEMPLATES and quality not in _EXTENDED:
        raise ParseError(f"unknown quality {quality!r}", m.start("quality"))
    if quality:
        intervals = set(TEMPLATES.get(quality) or _EXTENDED[quality])
    else:
        intervals = set() if degrees is not None else set(TEMPLATES["maj"])
    omits = set()  # removed after every added degree is in
    if degrees is not None:
        pos = m.start("degrees")
        for item in degrees.split(","):
            if pos == len(text):
                raise ParseError("unterminated degree list", pos)
            omit = item.startswith("*")
            degree, end = _degree(text, pos + omit)
            (omits if omit else intervals).add(degree)
            pos += len(item)
            if end != pos:
                raise ParseError("expected ',' or ')' in degree list", end)
            pos += 1
        if m["close"] is None:
            raise ParseError("unterminated degree list", len(text))
    bass = 0 if m["bass"] is None else _degree(text, m.start("bass"))[0]
    if m.end() != len(text):
        raise ParseError(f"unexpected trailing text {text[m.end():]!r}", m.end())
    intervals = frozenset(intervals - omits)
    quality = next((q for q in QUALITIES if TEMPLATES[q] == intervals), None)
    return _shared_label(root % 12, quality, intervals, bass)


@dataclass(frozen=True)
class Annotation:
    """Sorted, non-overlapping labeled time intervals.

    Gaps are legal; consumers treat uncovered time as no-chord. The
    bounds are also kept as read-only float64 arrays ``starts`` and ``ends``.
    """

    intervals: tuple

    def __post_init__(self):
        prev_end = 0.0
        starts, ends = [], []
        for start, end, label in self.intervals:
            if not 0.0 <= start < end < math.inf:
                if not (math.isfinite(start) and math.isfinite(end)):
                    raise ValueError(f"non-finite time in [{start}, {end})")
                if start < 0:
                    raise ValueError(f"negative start time {start}")
                raise ValueError(f"empty interval [{start}, {end})")
            if start < prev_end:
                raise ValueError("overlapping intervals")
            if not isinstance(label, ChordLabel):
                raise TypeError("interval labels must be ChordLabel")
            prev_end = end
            starts.append(start)
            ends.append(end)
        for name, times in (("starts", starts), ("ends", ends)):
            times = np.array(times, float)
            times.flags.writeable = False
            object.__setattr__(self, name, times)

    @property
    def duration(self):
        return self.intervals[-1][1] if self.intervals else 0.0

    def indices_at(self, times):
        """Index of the interval holding each of ``times``; -1 outside every interval."""
        if not self.intervals:
            return np.full(np.shape(times), -1)
        # Starts increase: only the last interval starting at or before t can hold it.
        i = self.starts.searchsorted(times, "right") - 1
        return np.where((i >= 0) & (times < self.ends[i]), i, -1)


def parse_lab(text):
    """Parse annotation text: one ``start end label`` line per interval.

    Lines whose first non-blank character is ``#`` are comments. Input
    lines may arrive in any order; the result is sorted, any overlap is
    an error naming both lines, and gaps (leading or internal) are
    filled with no-chord intervals.
    """
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 'start end label', got {raw!r}")
        try:
            start = float(fields[0])
            end = float(fields[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric time in {raw!r}") from None
        if not 0.0 <= start < end < math.inf:
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ParseError(f"line {lineno}: non-finite time in {raw!r}")
            raise ParseError(f"line {lineno}: invalid interval [{start}, {end})")
        try:
            label = parse_chord(fields[2])
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        entries.append((start, end, lineno, label))

    entries.sort()  # line numbers are distinct, so labels are never compared
    filled = []
    prev_end = 0.0
    prev_line = None
    for start, end, lineno, label in entries:
        if start < prev_end:
            raise ParseError(f"lines {prev_line} and {lineno} overlap")
        if start > prev_end:
            filled.append((prev_end, start, ChordLabel.no_chord()))
        filled.append((start, end, label))
        prev_end = end
        prev_line = lineno
    return Annotation(tuple(filled))


def reduce_quality(intervals):
    """Largest canonical template contained in the set, or None.

    Equal-size candidates resolve to the earliest in QUALITIES order.
    """
    best = None
    for name in QUALITIES:
        template = TEMPLATES[name]
        if template <= intervals and (best is None or len(template) > len(TEMPLATES[best])):
            best = name
    return best


def third_quality(intervals):
    """Third rule: a major third makes a chord "maj", else a minor third
    makes it "min"; a thirdless chord has no such quality (None)."""
    if 4 in intervals:
        return "maj"
    if 3 in intervals:
        return "min"
    return None


@dataclass(frozen=True)
class Vocab:
    """A class inventory: each root across ``qualities``, then no-chord,
    then unknown if ``has_unknown``. ``quality_of`` reduces a label to one
    of ``qualities``, or None (the unknown class, else SKIP)."""

    name: str
    qualities: tuple
    has_unknown: bool
    quality_of: Callable[[ChordLabel], str | None]

    @functools.cached_property
    def n_chords(self):
        return 12 * len(self.qualities)

    @functools.cached_property
    def n_classes(self):
        return self.n_chords + 1 + self.has_unknown


MAJMIN_25 = Vocab("majmin", ("maj", "min"), False,
                  lambda label: third_quality(label.intervals))
LARGE_170 = Vocab("large", QUALITIES, True,
                  lambda label: label.quality or reduce_quality(label.intervals))
VOCABS = {v.name: v for v in (MAJMIN_25, LARGE_170)}


def to_class(label, vocab):
    """Map a label to a class id in ``vocab``, or SKIP."""
    if label.is_no_chord:
        return vocab.n_chords
    # Unknown labels sound no interval, so they reduce to no quality.
    quality = vocab.quality_of(label)
    if quality is None:
        return vocab.n_chords + 1 if vocab.has_unknown else SKIP
    return label.root * len(vocab.qualities) + vocab.qualities.index(quality)


def class_to_label(class_id, vocab):
    """Canonical text for a class id (sharps for black keys)."""
    if class_id == vocab.n_chords:
        return NO_CHORD
    if vocab.has_unknown and class_id == vocab.n_chords + 1:
        return UNKNOWN
    if not 0 <= class_id < vocab.n_chords:
        raise ValueError(f"class {class_id} outside the {vocab.n_classes}-class vocabulary")
    root, quality = divmod(class_id, len(vocab.qualities))
    return f"{PITCH_NAMES[root]}:{vocab.qualities[quality]}"


def frame_time(t):
    """Center of frame ``t`` in s: t * HOP / SAMPLE_RATE, in that order."""
    return t * HOP / SAMPLE_RATE


def framewise_targets(annotation, n_frames, vocab):
    """Class id per frame (int64): the label active at each ``frame_time``.

    Intervals are half-open, so a boundary landing exactly on a center
    belongs to the later interval. Gaps and time beyond the annotation
    are no-chord: index -1 reads the class appended after the intervals'.
    """
    classes = np.array([to_class(label, vocab) for _, _, label in annotation.intervals]
                       + [to_class(ChordLabel.no_chord(), vocab)], np.int64)
    return classes[annotation.indices_at(frame_time(np.arange(n_frames)))]
