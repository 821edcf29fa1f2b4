"""Audio ingestion and the feature pipeline feeding the chord models.

The chain is: WAV in, constant-Q magnitude spectrogram (144 bins, 24 per
octave from C1, hop 2048 at 22,050 Hz), log amplitude, global scalar
z-normalization with statistics pooled over the training set. Training
cuts clips into 10-second windows with 5-second overlap (``windows``);
inference does not window, because the model's scan is linear in length
and runs over a whole song in one pass.

The constant-Q transform is the time-domain kernel-matrix form (Brown &
Puckette 1992): each octave's 24 kernels sit, zero-padded and centred,
in one real ``[Re | Im]`` kernel matrix. Frames start one hop apart, so
the padded signal is read as a view of hop rows, and the kernel matrix
is stored cut into hop-length pieces laid side by side plus a shorter
tail. An octave is then one wide product of the hop rows with the
pieces, summed along the diagonal of pieces, plus the tail rows' product
with the tail; no frame's window is ever copied. Each (octave, block of
frames) is one job on a thread pool with one worker per available CPU,
and the output's bytes do not depend on the worker count. Kernels
depend on the clip length only below the longest kernel (~1.04 s), so
one plan serves every longer clip.

The module also synthesizes deterministic chord audio so the models can
be trained and scored at desk scale without any external corpus: each
chord is an additive stack of its pitch classes in octaves 3 and 4 with
four harmonics, cosine cross-fades at boundaries, and a -40 dB noise
floor. Each chord interval is rendered as one real matrix product of
per-block and per-offset phasors.
"""

from __future__ import annotations

import math
import os
import struct
import wave
from concurrent.futures import ThreadPoolExecutor
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


@dataclass(frozen=True)
class AudioClip:
    """Mono audio: float samples in [-1, 1] at SAMPLE_RATE."""

    samples: np.ndarray

    def __post_init__(self):
        self._keep(np.array(self.samples, dtype=np.float64))

    @classmethod
    def _adopt(cls, arr):
        # Internal: keep a fresh float64 array the caller owns, without copying.
        clip = object.__new__(cls)
        clip._keep(arr)
        return clip

    def _keep(self, arr):
        if arr.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
        # NaN propagates through min and max, so no full-size temporary is needed.
        if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise ValueError("samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def sample_rate(self) -> int:
        """Every clip runs at SAMPLE_RATE: ``read_wav`` rejects other rates."""
        return SAMPLE_RATE

    @property
    def duration(self):
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class FeatureMatrix:
    """Frames-by-bins feature values on the HOP / FMIN / BINS_PER_OCTAVE grid."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != N_BINS:
            raise ValueError(f"expected (frames, {N_BINS}) values, got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("need at least one frame")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

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
    """Decode a RIFF/WAVE file (PCM16 or float32, mono or stereo).

    Stereo is averaged to mono. Rates other than 22,050 Hz are rejected;
    resampling is out of scope.
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
            fmt = struct.unpack_from("<HHIIHH", body, 0) + (pos,)
        elif chunk_id == b"data":
            raw = (body, pos)
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError("missing fmt chunk", len(data))
    if raw is None:
        raise WavFormatError("missing data chunk", len(data))
    audio_format, n_channels, rate, _, _, bits, fmt_pos = fmt
    body, _ = raw
    if n_channels < 1:
        raise WavFormatError("zero channels", fmt_pos)

    if audio_format == 1:
        if bits != 16:
            raise WavFormatError(f"unsupported PCM depth {bits}", fmt_pos)
        frame_bytes = 2 * n_channels
        usable = len(body) - len(body) % frame_bytes
        pcm = np.frombuffer(body, dtype="<i2", count=usable // 2)
        x = np.divide(pcm, 32767.0, out=np.empty(pcm.size))
    elif audio_format == 3:
        if bits != 32:
            raise WavFormatError(f"unsupported float depth {bits}", fmt_pos)
        frame_bytes = 4 * n_channels
        usable = len(body) - len(body) % frame_bytes
        x = np.frombuffer(body, dtype="<f4", count=usable // 4).astype(np.float64)
    else:
        raise WavFormatError(f"unsupported audio format {audio_format}", fmt_pos)

    if n_channels > 1:
        x = x.reshape(-1, n_channels).mean(axis=1)
    if rate != SAMPLE_RATE:
        raise UnsupportedRateError(f"sample rate {rate} unsupported, expected {SAMPLE_RATE}")
    return AudioClip._adopt(np.clip(x, -1.0, 1.0, out=x))


def write_wav(path, clip):
    """Write a clip as mono PCM16."""
    q = np.clip(np.round(clip.samples * 32767.0), -32768, 32767).astype("<i2")
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
# Frames per block of an octave's product, and so per job of ``cqt``. A
# block multiplies _CQT_BLOCK + full - 1 hop rows by the pieces, so it
# recomputes the full - 1 rows it shares with the next block (4% at octave
# 0, where full is 11); its largest product is about 266 * 528 * 8 bytes
# (1.1 MB) per worker.
_CQT_BLOCK = 256

_PLAN_CACHE = {}

# Synthesis block: an interval is rendered as rows of this many samples.
_SYNTH_BLOCK = 1024
# Each pitch class's partials, in phase-draw order: octave 3 then octave 4,
# harmonics 1-4. _PARTIAL_K is the multiple of the octave-3 fundamental,
# _PARTIAL_HARMONIC the harmonic number h that sets the amplitude 1/h.
_PARTIAL_K = np.array([1, 2, 3, 4, 2, 4, 6, 8])
_PARTIAL_HARMONIC = np.array([1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0])


def _octave_plan(lo, key):
    """One octave's kernels in hop-row layout: (pieces, tail, n_oct).

    Think of the octave as a real (n_oct, 48) matrix, n_oct being its
    longest kernel: column j holds the real part and column 24 + j the
    imaginary part of bin lo + j's kernel, zero-padded and centred at row
    offset n_oct//2 - n_b//2. Its first full*HOP rows, full being
    (n_oct - 1) // HOP, are cut into HOP-row pieces laid side by side as
    ``pieces`` (HOP, full*48), piece p in columns 48p to 48p + 47; the
    remaining 1 to HOP rows are ``tail``. The matrix itself is never
    built: each kernel column is written straight into the two.
    """
    width = 2 * BINS_PER_OCTAVE
    freqs = [FMIN * 2.0 ** (b / BINS_PER_OCTAVE) for b in range(lo, lo + BINS_PER_OCTAVE)]
    lengths = [min(math.ceil(_Q * SAMPLE_RATE / f), key) for f in freqs]
    n_oct = max(lengths)
    full = (n_oct - 1) // HOP
    pieces = np.zeros((HOP, full, width))
    tail = np.zeros((n_oct - full * HOP, width))
    column = np.empty(n_oct)
    for j, (freq, n_b) in enumerate(zip(freqs, lengths)):
        window = np.hanning(n_b) if n_b > 1 else np.ones(1)
        phase = np.exp(-2j * np.pi * freq / SAMPLE_RATE * np.arange(n_b))
        kernel = window * phase / n_b
        off = n_oct // 2 - n_b // 2
        for c, part in ((j, kernel.real), (BINS_PER_OCTAVE + j, kernel.imag)):
            column[:] = 0.0
            column[off:off + n_b] = part
            pieces[:, :, c] = column[:full * HOP].reshape(full, HOP).T
            tail[:, c] = column[full * HOP:]
    return pieces.reshape(HOP, full * width), tail, n_oct


def _cqt_plan(n_samples):
    """Per-octave kernel pieces (``_octave_plan``) and the reflection pad.

    Kernels are clamped to the clip length only below N_MAX, so only the
    N_MAX plan, which serves every longer clip, is cached. Octaves are
    built one at a time: building holds little more than the plan.
    """
    key = min(n_samples, N_MAX)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        return plan
    octaves = [_octave_plan(lo, key) for lo in range(0, N_BINS, BINS_PER_OCTAVE)]
    pad = max(n_oct for _, _, n_oct in octaves) // 2 + 1
    plan = (octaves, pad)
    if key == N_MAX:
        _PLAN_CACHE[key] = plan
    return plan


def available_cpus():
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no affinity mask
        return os.cpu_count() or 1


def _cqt_pool():
    """Executor for ``cqt``'s jobs: one worker per CPU this process may run on."""
    return ThreadPoolExecutor(max_workers=available_cpus())


def _cqt_block(rows, tails, pieces, tail, dest):
    """Magnitudes of one block of frames in one octave, written into ``dest``.

    Frame i of the block is hop rows i to i + full - 1 of ``rows`` and
    tail row i of ``tails``; row i + p times piece p is added to frame
    i's sum. ``dest`` is the block's (frames, 24) slice of the output,
    which no other block touches.
    """
    f = len(dest)
    width = 2 * BINS_PER_OCTAVE
    y = tails @ tail
    z = rows @ pieces
    for p in range(pieces.shape[1] // width):
        y += z[p:p + f, p * width:(p + 1) * width]
    np.hypot(y[:, :BINS_PER_OCTAVE], y[:, BINS_PER_OCTAVE:], out=dest)


def cqt(clip):
    """Magnitude constant-Q transform, frames centered at t*hop.

    Bin b has center frequency fmin * 2**(b/24) and window length
    min(ceil(Q*sr/f_b), len) under a Hann window, normalized by the
    window length. The signal is reflection-padded so every frame
    center has a full window. Frames start one hop apart, so for each
    octave the padded signal, read from frame 0's window start, is a
    view of HOP-sample rows, and frame t's window is rows t to
    t + full - 1 followed by the first len(tail) samples of row t + full.
    One product ``rows @ pieces`` then gives every row times every
    piece; frame t sums row t + p's product with piece p over p, and
    adds its tail row times ``tail``. A bin's magnitude is the hypot of
    its real and imaginary columns.

    Each octave's frames are cut into blocks of _CQT_BLOCK, and each
    (octave, block) is one job on a thread pool with a worker per
    available CPU; numpy's products release the GIL, so jobs run at
    once. Every job does the same arithmetic whichever worker runs it,
    and the blocks depend on the frame count only, so the output's bytes
    do not depend on the number of workers.
    """
    if clip.samples.size < 1:
        raise ValueError("cannot transform an empty clip")
    x = clip.samples
    octaves, pad = _cqt_plan(x.size)
    padded = np.pad(x, pad, mode="reflect")
    frames = n_frames(x.size)
    out = np.empty((frames, N_BINS))
    with _cqt_pool() as pool:
        jobs = []
        for lo, (pieces, tail, n_oct) in zip(range(0, N_BINS, BINS_PER_OCTAVE), octaves):
            full = pieces.shape[1] // (2 * BINS_PER_OCTAVE)
            start = pad - n_oct // 2
            n_rows = (padded.size - start) // HOP
            rows = padded[start:start + n_rows * HOP].reshape(n_rows, HOP)
            # tails[t]: the last len(tail) samples of frame t's window.
            tails = np.lib.stride_tricks.sliding_window_view(
                padded, len(tail))[start + full * HOP::HOP]
            for t in range(0, frames, _CQT_BLOCK):
                f = min(_CQT_BLOCK, frames - t)
                jobs.append(pool.submit(
                    _cqt_block, rows[t:t + f + full - 1], tails[t:t + f], pieces, tail,
                    out[t:t + f, lo:lo + BINS_PER_OCTAVE]))
        for job in jobs:
            job.result()
    return FeatureMatrix(out)


def log_amplitude(f):
    """Elementwise ln(S + LOG_EPS)."""
    if f.values.min() < 0:
        raise ValueError("log amplitude expects nonnegative magnitudes")
    return FeatureMatrix(np.log(f.values + LOG_EPS))


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
    vals = (f.values - stats.mean) / math.sqrt(stats.variance)
    return FeatureMatrix(vals)


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
