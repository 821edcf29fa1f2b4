"""Audio ingestion and the feature pipeline feeding the chord models.

The chain is: WAV in, constant-Q magnitude spectrogram (144 bins, 24 per
octave from C1, hop 2048 at 22,050 Hz), log amplitude, global scalar
z-normalization with statistics pooled over the training set. Training
cuts clips into 10-second windows with 5-second overlap (``windows``);
inference does not window, because the model's scan is linear in length
and runs over a whole song in one pass.

A clip keeps its samples as its source stores them: ``read_wav`` keeps
the data chunk, in a stored format of the one table ``_FORMATS``, and
``AudioClip.decode`` turns any range of it into float64 on request. So
no whole-song float copy exists between the file and the features.

The constant-Q transform is the time-domain kernel-matrix form (Brown &
Puckette 1992): each octave's 24 kernels sit, zero-padded and centred,
in one real kernel matrix, each bin's real and imaginary columns side by
side in bin order. Frames start one hop apart, so the signal is read as
a view of hop rows, and the kernel matrix is stored cut into hop-length
pieces laid side by side plus a shorter tail. Shorter kernels sit inside
longer ones, so each piece keeps only its prefix of bins with a row in
it: the plan for clips past the longest kernel holds 15.2 MB, not 17.4.
An octave is then one wide product of the hop rows with the pieces,
summed along the diagonal of pieces, plus the tail rows' product with
the tail; no frame's window is ever copied. The song is walked in time
blocks of frames: a block decodes the one span its longest windows read
straight into one array, reflects with ``np.pad`` only the samples past
an end of the song, and runs each octave's product over it as one job on
the module's one thread pool (``_cqt_pool``). So decoding and
transforming hold a block's samples, not the song's, and the output's
bytes do not depend on the worker count. Kernels depend on the clip
length only below the longest kernel (~1.04 s), so one plan serves every
longer clip.

The module also synthesizes deterministic chord audio so the models can
be trained and scored at desk scale without any external corpus: each
chord is an additive stack of its pitch classes in octaves 3 and 4 with
four harmonics, cosine cross-fades at boundaries, and a -40 dB noise
floor. Each chord interval is rendered as one real matrix product of
per-block and per-offset phasors.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import threading
import wave
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 22050
HOP = 2048
N_BINS = 144
BINS_PER_OCTAVE = 24
FMIN = 32.7032
LOG_EPS = 1e-6
WINDOW_FRAMES = 108  # 10 s: n_frames(10 * SAMPLE_RATE)
WINDOW_STRIDE = 54   # 5 s, so consecutive windows overlap by half

FADE_SECONDS = 0.010
# Noise sits 40 dB under the 0.5 synthesis peak: 0.5 * 10**(-40/20).
NOISE_STD = 0.005


class WavFormatError(ValueError):
    """Unreadable WAV container; ``offset`` is the offending byte."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedRateError(ValueError):
    """Sample rate other than the canonical 22,050 Hz."""


# WAVE_FORMAT_EXTENSIBLE's tag. Its SubFormat GUID is a plain format tag
# of _TAGS in two little-endian bytes, then this fixed tail.
_EXTENSIBLE = 0xFFFE
_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")
_TAGS = {1: "PCM", 3: "float"}
# Each (format tag, bits) read_wav accepts: the dtype of one stored value and the
# divisor AudioClip.decode scales it by. PCM24's three bytes widen to int32 first.
_FORMATS = {
    (1, 16): (np.dtype("<i2"), 32767.0),
    (1, 24): (np.dtype(("u1", 3)), 8388607.0),
    (3, 32): (np.dtype("<f4"), 1.0),
}


class AudioClip:
    """Mono audio at SAMPLE_RATE, kept as its source stores it.

    The source is either a 1-D float array, of which ``AudioClip(samples)``
    keeps a read-only copy, or a WAV file's data chunk as ``read_wav``
    views it (``_FORMATS``): one row per sample and one column per channel
    (PCM24 adds an axis of each value's three bytes). Every sample is
    finite. ``decode`` turns a range of the source into float64 samples,
    so a clip read from a file never holds a float copy of the song.
    """

    def __init__(self, samples):
        arr = np.array(samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
        if _first_nonfinite(arr) is not None:
            raise ValueError("samples must be finite")
        arr.flags.writeable = False
        self._source = arr

    @classmethod
    def _of_chunk(cls, frames, divisor):
        # Internal: a data chunk's view and divisor, as ``_FORMATS`` gives them.
        clip = object.__new__(cls)
        clip._source, clip._divisor = frames, divisor
        return clip

    @property
    def n_samples(self):
        return len(self._source)

    @property
    def sample_rate(self) -> int:
        """Every clip runs at SAMPLE_RATE: ``read_wav`` rejects other rates."""
        return SAMPLE_RATE

    @property
    def duration(self):
        return self.n_samples / self.sample_rate

    @property
    def samples(self):
        """The whole clip as read-only float64: a fresh decode for a WAV clip."""
        x = self.decode(0, self.n_samples)
        x.flags.writeable = False
        return x

    def decode(self, start, stop, out=None):
        """Samples ``start`` to ``stop - 1`` (0 <= start <= stop <= n_samples) as float64.

        A float array's samples come as they are, as a view, or copied into
        ``out`` when given. A data chunk's come by one rule, whatever the
        format and range: divided by its ``_FORMATS`` divisor into float64,
        channels averaged, clipped to [-1, 1], written into ``out`` (a
        float64 vector of ``stop - start`` samples) when given. Each sample
        depends on its own row only, so a range decodes to the same bytes as
        the same samples of a whole-clip decode.
        """
        raw = self._source[start:stop]
        if raw.ndim == 1:
            if out is None:
                return raw
            out[:] = raw
            return out
        if out is None:
            out = np.empty(len(raw))
        if raw.ndim == 3:  # PCM24: three little-endian bytes, the last one signed
            word = np.zeros(raw.shape[:2] + (4,), np.uint8)
            word[..., 1:] = raw
            raw = word.view("<i4")[..., 0] >> 8
        # Mono divides straight into ``out``; more channels divide first, then average.
        wide = out[:, None] if raw.shape[1] == 1 else np.empty(raw.shape)
        np.divide(raw, self._divisor, out=wide)
        if raw.shape[1] > 1:
            wide.mean(axis=1, out=out)
        return np.clip(out, -1.0, 1.0, out=out)


@dataclass(frozen=True)
class FeatureMatrix:
    """Frames-by-bins feature values on the HOP / FMIN / BINS_PER_OCTAVE grid."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, order="C")
        if arr.ndim != 2 or arr.shape[1] != N_BINS:
            raise ValueError(f"expected (frames, {N_BINS}) values, got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("need at least one frame")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def _wrap(cls, arr):
        # Internal: adopt a fresh (frames, N_BINS) float64 array the caller owns, without copying.
        matrix = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(matrix, "values", arr)
        return matrix

    @property
    def frames(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class NormStats:
    """Scalar mean and variance pooled over every training cell."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("statistics must be finite")
        if self.variance <= 0:
            raise ValueError(f"variance must be positive, got {self.variance}")

    def to_dict(self):
        return {"mean": self.mean, "variance": self.variance}

    @classmethod
    def from_dict(cls, d):
        return cls(float(d["mean"]), float(d["variance"]))


def read_wav(path):
    """Read a RIFF/WAVE file in a stored format of ``_FORMATS``, any channel count.

    The format tag is 1 (PCM), 3 (IEEE float) or WAVE_FORMAT_EXTENSIBLE
    with the PCM or IEEE float SubFormat GUID. Rates other than 22,050 Hz
    are rejected; resampling is out of scope. The clip keeps the data
    chunk's values as the file stores them and decodes them on request
    (``AudioClip.decode``), so reading holds the file's bytes and no float
    copy. A float32 file's stored values are checked a block at a time:
    NaN or +-inf in any channel is rejected at the byte offset of its row.
    """
    data = memoryview(Path(path).read_bytes())  # chunk bodies are views, not copies
    if len(data) < 12:
        raise WavFormatError("file too short for a RIFF header", 0)
    if data[0:4] != b"RIFF":
        raise WavFormatError(f"bad magic {bytes(data[0:4])!r}", 0)
    if data[8:12] != b"WAVE":
        raise WavFormatError(f"bad form type {bytes(data[8:12])!r}", 8)

    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise WavFormatError("truncated chunk", pos)
        if chunk_id == b"fmt ":
            if size < 16:
                raise WavFormatError("fmt chunk too short", pos)
            fmt = (body, pos)
        elif chunk_id == b"data":
            raw = (body, pos)
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError("missing fmt chunk", len(data))
    if raw is None:
        raise WavFormatError("missing data chunk", len(data))
    fmt_body, fmt_pos = fmt
    body, data_pos = raw
    audio_format, n_channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt_body, 0)
    if audio_format == _EXTENSIBLE:
        if len(fmt_body) < 40:
            raise WavFormatError("extensible fmt chunk too short", fmt_pos)
        guid = bytes(fmt_body[24:40])
        audio_format = int.from_bytes(guid[:2], "little")
        if guid[2:] != _GUID_TAIL or audio_format not in _TAGS:
            raise WavFormatError(f"unsupported extensible SubFormat {guid.hex()}", fmt_pos + 32)
    if n_channels < 1:
        raise WavFormatError("zero channels", fmt_pos)
    if audio_format not in _TAGS:
        raise WavFormatError(f"unsupported audio format {audio_format}", fmt_pos)
    if (audio_format, bits) not in _FORMATS:
        raise WavFormatError(f"unsupported {_TAGS[audio_format]} depth {bits}", fmt_pos)
    if rate != SAMPLE_RATE:  # checked before the finiteness pass reads any sample
        raise UnsupportedRateError(f"sample rate {rate} unsupported, expected {SAMPLE_RATE}")

    dtype, divisor = _FORMATS[audio_format, bits]
    row_bytes = dtype.itemsize * n_channels
    count = len(body) // row_bytes
    frames = np.frombuffer(body, dtype, count * n_channels).reshape(count, n_channels, *dtype.shape)
    # PCM values are always finite; float32 ones are checked as stored.
    if frames.dtype.kind == "f" and (bad := _first_nonfinite(frames)) is not None:
        raise WavFormatError("sample is not finite",
                             data_pos + 8 + bad * row_bytes)
    return AudioClip._of_chunk(frames, divisor)


def _first_nonfinite(rows):
    """Index of the first row of ``rows`` holding NaN or +-inf, else None; a block at a time."""
    for start in range(0, len(rows), _CQT_BLOCK * HOP):
        finite = np.isfinite(rows[start:start + _CQT_BLOCK * HOP])
        if not finite.all():
            return start + int(np.argmin(finite.reshape(len(finite), -1).all(axis=1)))
    return None


def write_wav(path, clip):
    """Write a clip as mono PCM16, quantized by the format's ``_FORMATS`` divisor."""
    dtype, divisor = _FORMATS[1, 16]
    q = np.clip(np.round(clip.samples * divisor), -32768, 32767).astype(dtype)
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(clip.sample_rate)
        w.writeframes(q.tobytes())


def n_frames(n_samples):
    """Frame-count law: one frame per full hop, plus the frame at 0."""
    return n_samples // HOP + 1


_Q = 1.0 / (2.0 ** (1.0 / BINS_PER_OCTAVE) - 1.0)
# Longest kernel (bin 0); every kernel is the same for clips this long or longer.
N_MAX = math.ceil(_Q * SAMPLE_RATE / FMIN)
# Frames per time block of ``cqt``, and so per job of each octave. A job
# multiplies _CQT_BLOCK + full - 1 hop rows by the pieces, so it recomputes
# the full - 1 rows it shares with the next block (4% at octave 0, where
# full is 11); its largest product is about 266 * 436 * 8 bytes (0.9 MB)
# per worker. A block's decoded span is _CQT_BLOCK - 1 hops plus the
# longest kernel: 545,251 samples, 4.4 MB of float64, at N_MAX.
_CQT_BLOCK = 256

# ``cqt``'s one thread pool (``_cqt_pool``), and the lock that makes it once.
_POOL = None
_POOL_LOCK = threading.Lock()

# Synthesis block: an interval is rendered as rows of this many samples.
_SYNTH_BLOCK = 1024
# Each pitch class's partials, in phase-draw order: octave 3 then octave 4,
# harmonics 1-4. _PARTIAL_K is the multiple of the octave-3 fundamental,
# _PARTIAL_HARMONIC the harmonic number h that sets the amplitude 1/h.
_PARTIAL_K = np.array([1, 2, 3, 4, 2, 4, 6, 8])
_PARTIAL_HARMONIC = np.array([1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0])


def _octave_plan(lo, key):
    """One octave's kernels in hop-row layout: (pieces, tail, n_oct, widths).

    Think of the octave as a real (n_oct, 48) matrix, n_oct being its
    longest kernel, with its columns in bin order: columns 2j and 2j + 1
    hold the real and imaginary parts of bin lo + j's kernel, zero-padded
    and centred at row offset n_oct//2 - n_b//2. Its first full*HOP rows,
    full being (n_oct - 1) // HOP, are cut into HOP-row pieces; the
    remaining 1 to HOP rows are ``tail``. Kernels shorten as the bin rises
    and share one centre, so the bins with a row in a piece are a prefix
    of the octave's: piece p keeps only its first widths[p] columns, and
    the tail its first ``tail.shape[1]``; every column dropped is zero.
    ``pieces`` (HOP, sum(widths)) lays the kept pieces side by side in
    piece order. The matrix itself is never built: each kernel column is
    written straight into the two.
    """
    freqs = [FMIN * 2.0 ** (b / BINS_PER_OCTAVE) for b in range(lo, lo + BINS_PER_OCTAVE)]
    lengths = [min(math.ceil(_Q * SAMPLE_RATE / f), key) for f in freqs]
    n_oct = max(lengths)
    full = (n_oct - 1) // HOP
    offsets = [n_oct // 2 - n_b // 2 for n_b in lengths]

    def width(top, bottom):
        # Columns of the bins whose kernel has a row in [top, bottom).
        return 2 * sum(off < bottom and off + n_b > top for off, n_b in zip(offsets, lengths))

    widths = tuple(width(p * HOP, (p + 1) * HOP) for p in range(full))
    starts = np.cumsum((0,) + widths)
    pieces = np.zeros((HOP, starts[-1]))
    tail = np.zeros((n_oct - full * HOP, width(full * HOP, n_oct)))
    column = np.empty(n_oct)
    for j, (freq, n_b, off) in enumerate(zip(freqs, lengths, offsets)):
        window = np.hanning(n_b) if n_b > 1 else np.ones(1)
        phase = np.exp(-2j * np.pi * freq / SAMPLE_RATE * np.arange(n_b))
        kernel = window * phase / n_b
        for c, part in ((2 * j, kernel.real), (2 * j + 1, kernel.imag)):
            column[:] = 0.0
            column[off:off + n_b] = part
            for p, start in enumerate(starts[:-1]):
                if c < widths[p]:
                    pieces[:, start + c] = column[p * HOP:(p + 1) * HOP]
            if c < tail.shape[1]:
                tail[:, c] = column[full * HOP:]
    return pieces, tail, n_oct, widths


def _cqt_plan(n_samples):
    """Per-octave kernel pieces (``_octave_plan``), octave 0's the longest.

    Kernels are clamped to the clip length only below N_MAX, so only the
    N_MAX plan, which serves every longer clip, is kept (``_long_plan``).
    Octaves are built one at a time: building holds little more than it.
    """
    if n_samples >= N_MAX:
        return _long_plan()
    return [_octave_plan(lo, n_samples) for lo in range(0, N_BINS, BINS_PER_OCTAVE)]


@functools.cache
def _long_plan():
    return [_octave_plan(lo, N_MAX) for lo in range(0, N_BINS, BINS_PER_OCTAVE)]


def _span(clip, start, stop):
    """Samples ``start`` to ``stop - 1`` of the clip, reflected about its ends.

    An index outside [0, n) reads the sample ``np.pad(..., mode="reflect")``
    puts there; the span holds at least one sample of the clip. Its clip
    samples are decoded once, straight into a new array, and ``np.pad``
    reflects the span's own samples beside each end into any part past it.
    Only where the span holds too few of them to reflect, as for a clip
    shorter than its pad, is the whole clip decoded and padded.
    """
    n = clip.n_samples
    lo, hi = max(start, 0), min(stop, n)
    lead, trail = lo - start, stop - hi
    if max(lead, trail) >= hi - lo:
        return np.pad(clip.decode(0, n), (lead, trail), mode="reflect")[lo:lo + stop - start]
    span = np.empty(stop - start)
    clip.decode(lo, hi, out=span[lead:lead + hi - lo])
    if lead:
        span[:lead] = np.pad(span[lead:2 * lead + 1], (lead, 0), mode="reflect")[:lead]
    if trail:
        span[-trail:] = np.pad(span[-2 * trail - 1:-trail], (0, trail), mode="reflect")[-trail:]
    return span


def available_cpus():
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no affinity mask
        return os.cpu_count() or 1


def _cqt_pool():
    """``cqt``'s executor, made on first use: one worker per CPU this process may run on."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=available_cpus())
        return _POOL


def shutdown_cqt_pool():
    """Join ``cqt``'s worker threads; the next ``cqt`` makes a new pool.

    Call it while no ``cqt`` runs, before forking: a fork copies only the
    calling thread, so a process with live workers cannot fork safely.
    """
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


def _cqt_block(rows, tails, pieces, tail, widths, dest):
    """Magnitudes of one block of frames in one octave, written into ``dest``.

    Frame i of the block is hop rows i to i + full - 1 of ``rows`` and
    tail row i of ``tails``. Frame i's sum starts from its tail row times
    ``tail``, and row i + p times piece p is added to its first widths[p]
    columns, in piece order. ``dest`` is the block's (frames, 24) slice of
    the output, which no other block touches.
    """
    f = len(dest)
    y = np.zeros((f, 2 * BINS_PER_OCTAVE))
    y[:, :tail.shape[1]] = tails @ tail
    z = rows @ pieces
    start = 0
    for p, w in enumerate(widths):
        y[:, :w] += z[p:p + f, start:start + w]
        start += w
    np.hypot(y[:, 0::2], y[:, 1::2], out=dest)


def cqt(clip):
    """Magnitude constant-Q transform, frames centered at t*hop.

    Bin b has center frequency fmin * 2**(b/24) and window length
    min(ceil(Q*sr/f_b), len) under a Hann window, normalized by the
    window length. The signal is reflection-padded so every frame
    center has a full window. Frames start one hop apart, so for each
    octave the signal, read from frame t's window start, is a view of
    HOP-sample rows, and frame t's window is rows t to t + full - 1
    followed by the first len(tail) samples of row t + full. One product
    ``rows @ pieces`` then gives every row times every piece; frame t
    starts from its tail row times ``tail`` and adds row t + p's product
    with piece p, over p in order, to the bins piece p keeps
    (``_octave_plan``). A bin's magnitude is the hypot of its real and
    imaginary columns.

    The song is walked in time blocks of _CQT_BLOCK frames. A block
    decodes once the span octave 0's windows cover, which holds every
    other octave's windows, reflected only where it crosses an end of the
    clip (``_span``), and submits one job per octave to the module's one
    thread pool (``_cqt_pool``), made on first use with a worker per
    available CPU and kept from call to call until ``shutdown_cqt_pool``;
    numpy's products release the GIL, so jobs run at once. A block's jobs
    run while the next block decodes, so at most two spans are held. Every
    job does the same arithmetic whichever worker runs it, and the blocks
    depend on the frame count only, so the output's bytes do not depend on
    the number of workers.
    """
    n = clip.n_samples
    if n < 1:
        raise ValueError("cannot transform an empty clip")
    octaves = _cqt_plan(n)
    reach = octaves[0][2]
    frames = n_frames(n)
    out = np.empty((frames, N_BINS))
    pool = _cqt_pool()
    running = jobs = []
    try:
        for t in range(0, frames, _CQT_BLOCK):
            f = min(_CQT_BLOCK, frames - t)
            first = t * HOP - reach // 2  # frame t's octave-0 window start
            span = _span(clip, first, first + (f - 1) * HOP + reach)
            jobs = []
            for lo, (pieces, tail, n_oct, widths) in zip(range(0, N_BINS, BINS_PER_OCTAVE),
                                                         octaves):
                full = len(widths)
                start = reach // 2 - n_oct // 2  # frame t's window start in this octave
                rows = span[start:start + (f + full - 1) * HOP].reshape(-1, HOP)
                # tails[i]: the last len(tail) samples of frame t + i's window.
                tails = np.lib.stride_tricks.sliding_window_view(
                    span[start + full * HOP:], len(tail))[::HOP][:f]
                jobs.append(pool.submit(
                    _cqt_block, rows, tails, pieces, tail, widths,
                    out[t:t + f, lo:lo + BINS_PER_OCTAVE]))
            for job in running:
                job.result()
            running = jobs
        for job in running:
            job.result()
    finally:
        wait(running + jobs)  # no job outlives the call, even when one fails
    return FeatureMatrix._wrap(out)


def log_amplitude(f):
    """Elementwise ln(S + LOG_EPS)."""
    if f.values.min() < 0:
        raise ValueError("log amplitude expects nonnegative magnitudes")
    out = f.values + LOG_EPS
    return FeatureMatrix._wrap(np.log(out, out=out))


def compute_norm_stats(features):
    """Pool every cell of every matrix into one scalar mean/variance."""
    if not features:
        raise ValueError("need at least one feature matrix")
    pool = np.concatenate([f.values.ravel() for f in features])
    variance = float(pool.var())
    if variance <= 0:
        raise ValueError("pooled variance is zero; cannot normalize")
    return NormStats(float(pool.mean()), variance)


def znormalize(f, stats):
    """(F - mean) / sqrt(variance) with the pooled scalar statistics."""
    out = f.values - stats.mean
    return FeatureMatrix._wrap(np.divide(out, math.sqrt(stats.variance), out=out))


def windows(values, fill=0):
    """Training windows along the first (frame) axis of ``values``.

    Windows hold WINDOW_FRAMES frames and start every WINDOW_STRIDE
    frames; the last one ends on the last frame, so every frame lies in
    some window. A clip shorter than one window gives one window padded
    with ``fill``.
    """
    values = np.asarray(values)
    last = max(len(values) - WINDOW_FRAMES, 0)
    out = []
    for start in [*range(0, last, WINDOW_STRIDE), last]:
        piece = values[start:start + WINDOW_FRAMES]
        if len(piece) < WINDOW_FRAMES:
            pad = np.full((WINDOW_FRAMES - len(piece),) + values.shape[1:], fill, values.dtype)
            piece = np.concatenate([piece, pad])
        out.append(piece)
    return out


def synth_chord_clip(progression, seed=0):
    """Render a contiguous chord progression as deterministic audio.

    Each chord sums sines at its pitch classes in octaves 3 and 4 with
    four harmonics at amplitude 1/h and seeded random phases, shaped by
    10 ms cosine fades at interval boundaries. The mix is peak-normalized
    to 0.5 and white noise 40 dB down is added. No-chord intervals stay
    silent apart from the noise floor. Phases are drawn chord by chord in
    _PARTIAL_K order, then the noise, so the random stream is fixed by
    the seed.
    """
    intervals = progression.intervals
    if not intervals:
        raise ValueError("empty progression")
    if abs(intervals[0][0]) > 1e-9:
        raise ValueError("progression must start at time 0")
    for (_, prev_end, _), (start, _, _) in zip(intervals, intervals[1:]):
        if abs(start - prev_end) > 1e-9:
            raise ValueError("progression intervals must be contiguous")

    rng = np.random.default_rng(seed)
    total = int(round(intervals[-1][1] * SAMPLE_RATE))
    fade = int(round(FADE_SECONDS * SAMPLE_RATE))
    signal = np.zeros(total)
    for start_s, end_s, label in intervals:
        if label.is_unknown:
            raise ValueError("cannot synthesize an unknown label")
        n0 = min(int(round(start_s * SAMPLE_RATE)), total)
        n1 = min(int(round(end_s * SAMPLE_RATE)), total)
        if n1 <= n0:
            continue
        pcs = sorted(label.pitch_classes())
        if not pcs:
            continue
        # Partial p is Im(amp[p] * exp(i * omega[p] * n)), omega in radians
        # per sample. Splitting n = block start + offset factors the phasor
        # into left (blocks, partials) and right (partials, _SYNTH_BLOCK), so
        # the interval is Im(left @ right), taken as one real product.
        fundamental = 2.0 * np.pi * FMIN * 4.0 * 2.0 ** (np.array(pcs) / 12.0) / SAMPLE_RATE
        omega = np.outer(fundamental, _PARTIAL_K).ravel()
        phases = rng.uniform(0.0, 2.0 * np.pi, omega.size)
        amp = np.exp(1j * phases) / np.tile(_PARTIAL_HARMONIC, len(pcs))
        starts = np.arange(n0, n1, _SYNTH_BLOCK)
        left = amp * np.exp(1j * np.outer(starts, omega))
        # Offset phasors of multiple k are the k-th powers of the fundamental's.
        base = np.exp(1j * np.outer(fundamental, np.arange(_SYNTH_BLOCK)))
        powers = np.cumprod(np.repeat(base[:, None], _PARTIAL_K.max(), axis=1), axis=1)
        right = powers[:, _PARTIAL_K - 1].reshape(omega.size, _SYNTH_BLOCK)
        seg = (np.hstack([left.real, left.imag]) @ np.vstack([right.imag, right.real])
               ).ravel()[:n1 - n0]
        envelope = np.ones(n1 - n0)
        if fade > 0:
            m = min(fade, n1 - n0)
            ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / fade))
            envelope[:m] *= ramp
            envelope[-m:] *= ramp[::-1]
        signal[n0:n1] = seg * envelope

    peak = np.abs(signal).max()
    if peak > 0:
        signal *= 0.5 / peak
    signal += rng.normal(0.0, NOISE_STD, total)
    return AudioClip(signal)
