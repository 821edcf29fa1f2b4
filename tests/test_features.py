"""Audio I/O, constant-Q transform, normalization, and synthesis tests."""

import functools
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import wave
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import bmace.features as ft
from bmace.chords import LARGE_170, MAJMIN_25, Annotation, parse_chord, parse_lab
from bmace.features import (
    AudioClip,
    FeatureMatrix,
    NormStats,
    UnsupportedRateError,
    WavFormatError,
    compute_norm_stats,
    cqt,
    log_amplitude,
    n_frames,
    read_wav,
    synth_chord_clip,
    windows,
    write_wav,
    znormalize,
)
from bmace.training import make_random_progression

SR = ft.SAMPLE_RATE
# Samples of _CQT_BLOCK frames' hops: a clip of BLOCK samples is one frame
# past one time block of ``cqt``.
BLOCK = ft._CQT_BLOCK * ft.HOP
# The PCM and IEEE float SubFormat GUIDs of WAVE_FORMAT_EXTENSIBLE end so.
GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def tone(freq, seconds=10.0, amp=0.5):
    t = np.arange(int(seconds * SR)) / SR
    return AudioClip(amp * np.sin(2 * np.pi * freq * t))


@functools.lru_cache(maxsize=None)
def tone_cqt(freq):
    return cqt(tone(freq))


def cqt_per_bin(clip):
    """Reference CQT: one complex kernel product per bin over every frame."""
    x = clip.samples
    q = 1.0 / (2.0 ** (1.0 / ft.BINS_PER_OCTAVE) - 1.0)
    kernels = []
    for b in range(ft.N_BINS):
        freq = ft.FMIN * 2.0 ** (b / ft.BINS_PER_OCTAVE)
        n_b = min(math.ceil(q * SR / freq), x.size)
        window = np.hanning(n_b) if n_b > 1 else np.ones(1)
        phase = np.exp(-2j * np.pi * freq / SR * np.arange(n_b))
        kernels.append((window * phase / n_b, n_b))
    pad = max(n_b for _, n_b in kernels) // 2 + 1
    padded = np.pad(x, pad, mode="reflect")
    centers = np.arange(n_frames(x.size)) * ft.HOP + pad
    out = np.empty((centers.size, ft.N_BINS))
    for b, (kernel, n_b) in enumerate(kernels):
        windows = np.lib.stride_tricks.sliding_window_view(padded, n_b)[centers - n_b // 2]
        out[:, b] = np.abs(windows @ kernel)
    return out


def synth_per_partial(progression, seed=0):
    """Reference synthesis: one sine evaluation per partial over each interval."""
    intervals = progression.intervals
    rng = np.random.default_rng(seed)
    total = int(round(intervals[-1][1] * SR))
    fade = int(round(ft.FADE_SECONDS * SR))
    signal = np.zeros(total)
    for start_s, end_s, label in intervals:
        n0 = min(int(round(start_s * SR)), total)
        n1 = min(int(round(end_s * SR)), total)
        pcs = sorted(label.pitch_classes())
        if n1 <= n0 or not pcs:
            continue
        t = np.arange(n0, n1) / SR
        seg = np.zeros(n1 - n0)
        for pc in pcs:
            for octave in (3, 4):
                base = ft.FMIN * 2.0 ** (octave - 1) * 2.0 ** (pc / 12.0)
                for harmonic in range(1, 5):
                    phase = rng.uniform(0.0, 2.0 * np.pi)
                    seg += np.sin(2.0 * np.pi * base * harmonic * t + phase) / harmonic
        envelope = np.ones(n1 - n0)
        m = min(fade, n1 - n0)
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / fade))
        envelope[:m] *= ramp
        envelope[-m:] *= ramp[::-1]
        signal[n0:n1] = seg * envelope
    peak = np.abs(signal).max()
    if peak > 0:
        signal *= 0.5 / peak
    signal += rng.normal(0.0, ft.NOISE_STD, total)
    return signal


def max_rel_diff(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def pitch_class_bins(pc):
    # Even bins sit on exact semitones; (b // 2) % 12 is the pitch class.
    return [b for b in range(ft.N_BINS) if b % 2 == 0 and (b // 2) % 12 == pc]


def riff(fmt, body):
    """A RIFF/WAVE file of one ``fmt `` chunk and one ``data`` chunk."""
    payload = (b"WAVE"
               + b"fmt " + struct.pack("<I", len(fmt)) + fmt
               + b"data" + struct.pack("<I", len(body)) + body)
    return b"RIFF" + struct.pack("<I", len(payload)) + payload


def plain_fmt(code, channels):
    """A 16-byte fmt chunk body: PCM16 (code 1) or float32 (code 3)."""
    bits = 16 if code == 1 else 32
    width = bits // 8 * channels
    return struct.pack("<HHIIHH", code, channels, SR, SR * width, width, bits)


def extensible_fmt(code, channels, guid=None):
    """A 40-byte WAVE_FORMAT_EXTENSIBLE body whose SubFormat GUID names ``code``."""
    guid = struct.pack("<H", code) + GUID_TAIL if guid is None else guid
    bits = 16 if code == 1 else 32
    return (struct.pack("<H", 0xFFFE) + plain_fmt(code, channels)[2:]
            + struct.pack("<HHI", 22, bits, 0) + guid)


def song_codes(rng, code, n):
    """Random PCM16 codes or float32 values, some of them past full scale."""
    if code == 1:
        return rng.integers(-32768, 32768, n).astype("<i2")
    return rng.uniform(-1.25, 1.25, n).astype("<f4")


class TestWavIO:
    def test_round_trip_quantization_error(self, tmp_path):
        clip = tone(440.0, seconds=1.0, amp=0.9)
        path = tmp_path / "sine.wav"
        write_wav(path, clip)
        back = read_wav(path)
        assert back.sample_rate == SR
        assert back.samples.size == clip.samples.size
        assert np.max(np.abs(back.samples - clip.samples)) <= 1.0 / 32767.0

    def test_rifx_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        write_wav(path, tone(440.0, seconds=0.01))
        data = bytearray(path.read_bytes())
        data[0:4] = b"RIFX"
        path.write_bytes(bytes(data))
        with pytest.raises(WavFormatError) as err:
            read_wav(path)
        assert err.value.offset == 0
        assert str(err.value) == "bad magic b'RIFX' (byte offset 0)"

    def test_opposite_stereo_channels_cancel(self, tmp_path):
        x = (np.sin(2 * np.pi * 220.0 * np.arange(SR // 10) / SR) * 20000).astype("<i2")
        interleaved = np.empty(2 * x.size, dtype="<i2")
        interleaved[0::2] = x
        interleaved[1::2] = -x
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(SR)
            w.writeframes(interleaved.tobytes())
        clip = read_wav(path)
        assert np.max(np.abs(clip.samples)) <= 1.0 / 32767.0

    def test_float32_payload(self, tmp_path):
        samples = np.array([0.0, 0.25, -0.5, 1.0], dtype="<f4")
        body = samples.tobytes()
        fmt = struct.pack("<HHIIHH", 3, 1, SR, SR * 4, 4, 32)
        payload = (b"WAVE"
                   + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                   + b"data" + struct.pack("<I", len(body)) + body)
        path = tmp_path / "float.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(payload)) + payload)
        clip = read_wav(path)
        assert np.allclose(clip.samples, [0.0, 0.25, -0.5, 1.0], atol=1e-7)

    def test_wrong_rate_rejected(self, tmp_path):
        path = tmp_path / "fast.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(44100)
            w.writeframes(np.zeros(100, dtype="<i2").tobytes())
        with pytest.raises(UnsupportedRateError):
            read_wav(path)

    def test_truncated_chunk_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, tone(440.0, seconds=0.05))
        full = path.read_bytes()
        path.write_bytes(full[:60])
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, SR, SR * 2, 2, 16)
        payload = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        path = tmp_path / "nodata.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(WavFormatError, match="data"):
            read_wav(path)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_pcm16_decode_bytes_match_reference(self, tmp_path, channels):
        # Every int16 value, -32768 included, which decodes below -1 and is clipped.
        codes = np.arange(-32768, 32768, dtype="<i2")
        path = tmp_path / "all.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(channels)
            w.setsampwidth(2)
            w.setframerate(SR)
            w.writeframes(codes.tobytes())
        ref = codes.astype(np.float64) / 32767.0
        if channels > 1:
            ref = ref.reshape(-1, channels).mean(axis=1)
        ref = np.clip(ref, -1.0, 1.0)
        assert read_wav(path).samples.tobytes() == ref.tobytes()

    def test_non_finite_float_sample_names_its_offset(self, tmp_path):
        values = np.zeros(8, dtype="<f4")
        values[5] = np.nan  # stereo row 2, right channel
        path = tmp_path / "nan.wav"
        path.write_bytes(riff(plain_fmt(3, 2), values.tobytes()))
        with pytest.raises(WavFormatError, match="finite") as err:
            read_wav(path)
        assert err.value.offset == 12 + 8 + 16 + 8 + 2 * 8

    def test_audio_clip_validates(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros((2, 2)))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                AudioClip(np.array([0.0, bad, 0.0]))
        # A clip keeps its own read-only copy of what callers pass.
        samples = np.zeros(4)
        clip = AudioClip(samples)
        samples[0] = 0.5
        assert clip.samples[0] == 0.0
        assert not clip.samples.flags.writeable

    @pytest.mark.parametrize("channels", [1, 2])
    def test_float32_decode_bytes_match_reference(self, tmp_path, channels):
        values = np.random.default_rng(31).uniform(-1.5, 1.5, 4 * channels).astype("<f4")
        values[:2] = [1.0, -1.25]  # a full-scale sample and one that is clipped
        body = values.tobytes()
        fmt = struct.pack("<HHIIHH", 3, channels, SR, SR * 4 * channels, 4 * channels, 32)
        payload = (b"WAVE"
                   + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                   + b"data" + struct.pack("<I", len(body)) + body)
        path = tmp_path / "float.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(payload)) + payload)
        ref = values.astype(np.float64)
        if channels > 1:
            ref = ref.reshape(-1, channels).mean(axis=1)
        assert read_wav(path).samples.tobytes() == np.clip(ref, -1.0, 1.0).tobytes()

    def test_read_holds_no_float_copy_of_the_song(self, tmp_path):
        # 10 s of PCM16: reading holds the file's bytes (2 per sample) and
        # nothing more; a float64 decode of the song would add 4 times that.
        path = tmp_path / "song.wav"
        write_wav(path, AudioClip(np.random.default_rng(32).uniform(-0.9, 0.9, 10 * SR)))
        tracemalloc.start()
        try:
            clip = read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert clip.n_samples == 10 * SR
        assert peak <= 1.1 * path.stat().st_size

    def test_other_rate_is_rejected_before_the_decode(self, tmp_path):
        # 20 s of 44.1-kHz stereo PCM16. Reading the file holds its bytes;
        # decoding them first would add 8 bytes of float per sample.
        path = tmp_path / "cd.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(44100)
            w.writeframes(np.random.default_rng(33).integers(
                -20000, 20000, 2 * 20 * 44100, dtype="<i2").tobytes())
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedRateError,
                               match="^sample rate 44100 unsupported, expected 22050$"):
                read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * path.stat().st_size


class TestExtensibleWav:
    @pytest.mark.parametrize("code", [1, 3])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_decodes_as_the_plain_format_does(self, tmp_path, code, channels):
        body = song_codes(np.random.default_rng([code, channels]), code, 600 * channels).tobytes()
        plain, extensible = tmp_path / "plain.wav", tmp_path / "extensible.wav"
        plain.write_bytes(riff(plain_fmt(code, channels), body))
        extensible.write_bytes(riff(extensible_fmt(code, channels), body))
        assert read_wav(extensible).samples.tobytes() == read_wav(plain).samples.tobytes()

    @pytest.mark.parametrize("guid", [
        struct.pack("<H", 2) + GUID_TAIL,  # ADPCM
        struct.pack("<H", 1) + bytes(14),  # a PCM code under another tail
    ], ids=["adpcm", "foreign-tail"])
    def test_unknown_subformat_names_its_offset(self, tmp_path, guid):
        path = tmp_path / "odd.wav"
        path.write_bytes(riff(extensible_fmt(1, 1, guid), bytes(200)))
        with pytest.raises(WavFormatError, match=f"SubFormat {guid.hex()}") as err:
            read_wav(path)
        assert err.value.offset == 12 + 8 + 24  # the GUID, in the fmt chunk at byte 12

    def test_short_extensible_fmt_chunk_names_its_offset(self, tmp_path):
        path = tmp_path / "short.wav"
        path.write_bytes(riff(extensible_fmt(1, 1)[:18], bytes(200)))
        with pytest.raises(WavFormatError, match="extensible fmt chunk too short") as err:
            read_wav(path)
        assert err.value.offset == 12

    def test_depth_is_checked_after_the_subformat(self, tmp_path):
        fmt = bytearray(extensible_fmt(1, 1))
        fmt[14:16] = struct.pack("<H", 20)
        path = tmp_path / "deep.wav"
        path.write_bytes(riff(bytes(fmt), bytes(300)))
        with pytest.raises(WavFormatError, match="unsupported PCM depth 20"):
            read_wav(path)


class TestPcm24:
    @staticmethod
    def fmt(channels, extensible):
        body = struct.pack("<HHIIHH", 1, channels, SR, SR * 3 * channels, 3 * channels, 24)
        if not extensible:
            return body
        return (struct.pack("<H", 0xFFFE) + body[2:] + struct.pack("<HHI", 22, 24, 0)
                + struct.pack("<H", 1) + GUID_TAIL)

    @pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_decode_bytes_match_reference(self, tmp_path, channels, extensible):
        # Both extremes: -8388608 decodes below -1 and is clipped.
        values = np.random.default_rng(channels).integers(-8388608, 8388608, 3000 * channels)
        values[:2] = [-8388608, 8388607]
        path = tmp_path / "deep.wav"
        body = b"".join(struct.pack("<i", int(v))[:3] for v in values)
        path.write_bytes(riff(self.fmt(channels, extensible), body))
        ref = [min(max(sum(row) / channels, -1.0), 1.0)
               for row in (values / 8388607.0).reshape(-1, channels)]
        clip = read_wav(path)
        assert clip.samples.tobytes() == np.array(ref).tobytes()
        # Any range decodes to the same bytes as the whole song's samples.
        for start, stop in ((0, 1), (17, 2048), (2999, 3000), (1000, 1000)):
            assert clip.decode(start, stop).tobytes() == np.array(ref[start:stop]).tobytes()


class TestBlockDecode:
    # BLOCK - HOP + N_MAX - 1 samples: the first block's span starts before
    # the clip and ends inside it, yet is longer than the clip.
    @pytest.mark.parametrize("samples", [1, 2, 3, 2047, 2049, ft.N_MAX - 1, ft.N_MAX,
                                         ft.N_MAX + 1, BLOCK - 1, BLOCK,
                                         BLOCK - ft.HOP + ft.N_MAX - 1, 2 * BLOCK - 1,
                                         2 * BLOCK])
    @pytest.mark.parametrize("code", [1, 3])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_blocks_match_the_whole_song_decode(self, tmp_path, code, channels, samples):
        values = song_codes(np.random.default_rng([samples, code, channels]), code,
                            samples * channels)
        whole = values / 32767.0 if code == 1 else values.astype(np.float64)
        whole = np.clip(whole.reshape(-1, channels).mean(axis=1), -1.0, 1.0)
        path = tmp_path / "song.wav"
        path.write_bytes(riff(plain_fmt(code, channels), values.tobytes()))
        clip = read_wav(path)
        assert clip.decode(0, samples).tobytes() == whole.tobytes()
        # Each time block's span, reflected where it crosses an end, equals
        # the same samples of the whole song under np.pad's reflection.
        reach = ft._cqt_plan(samples)[0][2]
        padded = np.pad(whole, reach, mode="reflect")
        frames = n_frames(samples)
        for t in range(0, frames, ft._CQT_BLOCK):
            first = t * ft.HOP - reach // 2
            stop = first + (min(ft._CQT_BLOCK, frames - t) - 1) * ft.HOP + reach
            span = ft._span(clip, first, stop)
            assert span.tobytes() == padded[reach + first:reach + stop].tobytes(), t
        assert cqt(clip).values.tobytes() == cqt(AudioClip(whole)).values.tobytes()

    def test_long_song_decode_and_cqt_peak_under_three_file_sizes(self, tmp_path):
        # 5 min of mono PCM16, 13.2 MB. A whole-song float64 decode (4 times
        # the file) and its reflection-padded copy (4 more) peaked at 8.6
        # times the file; block by block it is about 2.1.
        script = (
            "import sys, tracemalloc, wave\n"
            "import numpy as np\n"
            "from bmace import features as ft\n"
            "codes = np.random.default_rng(34).integers(-30000, 30000, 300 * ft.SAMPLE_RATE)\n"
            "with wave.open(sys.argv[1], 'wb') as w:\n"
            "    w.setnchannels(1)\n"
            "    w.setsampwidth(2)\n"
            "    w.setframerate(ft.SAMPLE_RATE)\n"
            "    w.writeframes(codes.astype('<i2').tobytes())\n"
            "del codes\n"
            "ft._cqt_plan(ft.N_MAX)\n"
            "tracemalloc.start()\n"
            "frames = ft.cqt(ft.read_wav(sys.argv[1])).frames\n"
            "print(frames, tracemalloc.get_traced_memory()[1])\n"
        )
        path = tmp_path / "song.wav"
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.returncode == 0, out.stderr
        frames, peak = map(int, out.stdout.split())
        assert frames == n_frames(300 * SR)
        assert peak <= 3 * path.stat().st_size, f"peak {peak / path.stat().st_size:.2f}x the file"


class TestCqt:
    def test_c1_tone_peaks_at_bin_zero(self):
        mean_mag = tone_cqt(32.7032).values.mean(axis=0)
        assert int(np.argmax(mean_mag)) == 0

    def test_a4_tone_peaks_at_bin_ninety(self):
        mean_mag = tone_cqt(440.0).values.mean(axis=0)
        assert int(np.argmax(mean_mag)) == 90

    def test_ten_seconds_gives_108_frames(self):
        assert tone_cqt(440.0).frames == 108

    def test_frame_count_law(self):
        for samples in (1, 100, 2047, 2048, 2049, 220500, 661500):
            clip = AudioClip(np.zeros(samples))
            assert cqt(clip).frames == samples // 2048 + 1
            assert n_frames(samples) == samples // 2048 + 1

    def test_silence_gives_zero_magnitudes(self):
        out = cqt(AudioClip(np.zeros(5000)))
        assert np.all(out.values == 0.0)

    def test_nonnegative_magnitudes(self):
        assert tone_cqt(440.0).values.min() >= 0.0

    def test_linearity_in_amplitude(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.4, 0.4, 22050)
        one = cqt(AudioClip(x)).values
        two = cqt(AudioClip(2.0 * x)).values
        nz = one > 1e-12
        assert np.max(np.abs(two[nz] / one[nz] - 2.0)) <= 1e-6

    def test_empty_clip_rejected(self):
        with pytest.raises(ValueError):
            cqt(AudioClip(np.zeros(0)))

    def test_single_sample_clip(self):
        out = cqt(AudioClip(np.array([0.25])))
        assert out.frames == 1

    @pytest.mark.parametrize("freq", [32.7032, 440.0])
    def test_tone_matches_per_bin_reference(self, freq):
        clip = tone(freq)
        assert max_rel_diff(tone_cqt(freq).values, cqt_per_bin(clip)) <= 1e-9

    def test_chord_song_matches_per_bin_reference(self):
        clip = synth_chord_clip(make_random_progression(5, duration_s=12.0), seed=5)
        assert max_rel_diff(cqt(clip).values, cqt_per_bin(clip)) <= 1e-9

    @pytest.mark.parametrize("samples", [
        1, 100, 2047, 2048, 2049, 23010, 23011, 23012, 30000,
        *((frames - 1) * ft.HOP + extra
          for frames in (127, 128, 129, 255, 256, 257, 513) for extra in (0, 2047)),
    ])
    def test_noise_matches_per_bin_reference(self, samples):
        # Below N_MAX some kernels are clamped to the clip length, so an
        # octave can mix clamped and unclamped bins. 255 to 513 frames
        # straddle one and two _CQT_BLOCK blocks, and 127 to 129 half of
        # one (a 12-s clip is 130 frames); with 2,047 extra samples
        # the last frame's tail row ends at the end of the padded signal.
        clip = AudioClip(np.random.default_rng(samples).uniform(-0.5, 0.5, samples))
        assert max_rel_diff(cqt(clip).values, cqt_per_bin(clip)) <= 1e-9

    def test_plan_build_holds_little_more_than_the_plan(self, monkeypatch):
        monkeypatch.setattr(ft, "_PLAN_CACHE", {})
        tracemalloc.start()
        try:
            octaves = ft._cqt_plan(ft.N_MAX)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(pieces.nbytes + tail.nbytes for pieces, tail, *_ in octaves)
        # Each hop piece, and the tail, holds the real and imaginary columns
        # of the bins whose centred kernel has a row in it, and no others:
        # 15,154,176 bytes, against 17,397,504 for all 48 columns in each.
        q = 1.0 / (2.0 ** (1.0 / ft.BINS_PER_OCTAVE) - 1.0)
        trimmed = 0
        for lo in range(0, ft.N_BINS, ft.BINS_PER_OCTAVE):
            lengths = [math.ceil(q * SR / (ft.FMIN * 2.0 ** (b / ft.BINS_PER_OCTAVE)))
                       for b in range(lo, lo + ft.BINS_PER_OCTAVE)]
            n_oct = max(lengths)
            edges = [*range(0, n_oct, ft.HOP), n_oct]
            for top, bottom in zip(edges, edges[1:]):
                held = [n_oct // 2 - n // 2 < bottom and n_oct // 2 - n // 2 + n > top
                        for n in lengths]
                trimmed += (bottom - top) * 2 * sum(held) * 8
        assert kept == trimmed
        assert peak <= 1.1 * kept

    @pytest.fixture
    def swap_pool(self, monkeypatch):
        # Puts another executor, or None, in the place of ``cqt``'s one pool,
        # and shuts down whatever pool is there when the test ends.
        yield lambda pool: monkeypatch.setattr(ft, "_POOL", pool)
        ft.shutdown_cqt_pool()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_output_does_not_depend_on_worker_count(self, swap_pool, workers):
        clip = AudioClip(np.random.default_rng(21).uniform(-0.5, 0.5, 520 * ft.HOP))
        expected = cqt(clip).values
        submitted = []

        class Recording(ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(fn)
                return super().submit(fn, *args)

        swap_pool(Recording(max_workers=workers))
        assert np.array_equal(cqt(clip).values, expected)
        assert len(submitted) == 6 * 3  # octaves times blocks of 521 frames

    def test_pool_without_affinity_mask(self, monkeypatch, swap_pool):
        # macOS and Windows have no os.sched_getaffinity: one worker per CPU.
        clip = AudioClip(np.random.default_rng(23).uniform(-0.5, 0.5, 300 * ft.HOP))
        expected = cqt(clip).values
        monkeypatch.delattr(ft.os, "sched_getaffinity", raising=False)
        swap_pool(None)  # the next call makes the pool
        assert ft._cqt_pool()._max_workers == (ft.os.cpu_count() or 1)
        assert np.array_equal(cqt(clip).values, expected)

    def test_concurrent_calls_match_sequential(self, monkeypatch, swap_pool):
        # Two callers share the plan cache and the one pool, which has more
        # workers than there are cores, switching threads as often as the
        # interpreter can.
        rng = np.random.default_rng(22)
        clips = [AudioClip(rng.uniform(-0.5, 0.5, n)) for n in (600 * ft.HOP, 400 * ft.HOP + 77)]
        expected = [cqt(clip).values for clip in clips]
        monkeypatch.setattr(ft, "_PLAN_CACHE", {})
        swap_pool(ThreadPoolExecutor(max_workers=(ft.os.cpu_count() or 1) + 1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as callers:
                futures = [callers.submit(cqt, clip) for clip in clips]
                got = [future.result(timeout=120).values for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    def test_pool_is_made_once_and_again_after_shutdown(self, swap_pool):
        clip = AudioClip(np.random.default_rng(24).uniform(-0.5, 0.5, 3 * ft.HOP))
        swap_pool(None)
        expected = cqt(clip).values
        pool = ft._POOL
        assert np.array_equal(cqt(clip).values, expected)
        assert ft._POOL is pool
        ft.shutdown_cqt_pool()
        assert ft._POOL is None and pool._shutdown
        assert np.array_equal(cqt(clip).values, expected)
        assert ft._POOL is not None and ft._POOL is not pool

    def test_one_plan_for_every_long_clip(self, monkeypatch):
        assert ft.N_MAX == 23011
        assert ft._cqt_plan(30_000) is ft._cqt_plan(900_000)
        monkeypatch.setattr(ft, "_PLAN_CACHE", {})
        rng = np.random.default_rng(9)
        for k in range(20):
            cqt(AudioClip(rng.uniform(-0.5, 0.5, ft.N_MAX + 1 + 997 * k)))
        assert len(ft._PLAN_CACHE) == 1

    def test_short_clip_plans_are_not_kept(self, monkeypatch):
        # Each short-clip plan serves one length only; caching them held
        # about 16 MB per distinct length.
        monkeypatch.setattr(ft, "_PLAN_CACHE", {})
        lengths = [16_000 + 797 * k for k in range(8)]
        rng = np.random.default_rng(12)
        clips = [AudioClip(rng.uniform(-0.5, 0.5, n)) for n in lengths]
        tracemalloc.start()
        try:
            for clip in clips:
                cqt(clip)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ft._PLAN_CACHE == {}
        octaves = ft._cqt_plan(max(lengths))
        assert held <= sum(pieces.nbytes + tail.nbytes for pieces, tail, *_ in octaves)

    def test_memory_bounded_on_long_clip(self):
        # A 45-s clip: copying every frame's window per bin peaked at 264 MB.
        clip = AudioClip(np.random.default_rng(4).uniform(-0.5, 0.5, int(45.1 * SR)))
        ft._cqt_plan(clip.n_samples)
        tracemalloc.start()
        try:
            cqt(clip)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64e6

    def test_feature_matrix_shape_checked(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((4, 10)))
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((0, ft.N_BINS)))


class TestLogAmplitude:
    def test_zero_cell_hits_log_eps(self):
        out = log_amplitude(FeatureMatrix(np.zeros((2, ft.N_BINS))))
        assert np.allclose(out.values, np.log(1e-6))
        assert abs(out.values[0, 0] + 13.8155) < 1e-3

    def test_one_minus_eps_is_zero(self):
        out = log_amplitude(FeatureMatrix(np.full((1, ft.N_BINS), 1.0 - 1e-6)))
        assert np.max(np.abs(out.values)) < 1e-12

    def test_monotone(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 2, (5, ft.N_BINS))
        b = a + rng.uniform(0, 1, a.shape)
        la = log_amplitude(FeatureMatrix(a)).values
        lb = log_amplitude(FeatureMatrix(b)).values
        assert np.all(la <= lb)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            log_amplitude(FeatureMatrix(-np.ones((1, ft.N_BINS))))


class TestNormalization:
    def test_two_cell_pool_by_hand(self):
        # Pool {0, 2}: mean 1, variance 1, normalized {-1, +1}. Built as
        # two constant matrices so the pool has exactly those values.
        a = FeatureMatrix(np.zeros((1, ft.N_BINS)))
        b = FeatureMatrix(np.full((1, ft.N_BINS), 2.0))
        stats = compute_norm_stats([a, b])
        assert stats.mean == pytest.approx(1.0)
        assert stats.variance == pytest.approx(1.0)
        assert np.allclose(znormalize(a, stats).values, -1.0)
        assert np.allclose(znormalize(b, stats).values, 1.0)

    def test_normalizing_the_pool_itself(self):
        rng = np.random.default_rng(11)
        feats = [FeatureMatrix(rng.normal(3.0, 2.0, (9, ft.N_BINS))) for _ in range(4)]
        stats = compute_norm_stats(feats)
        pooled = np.concatenate([znormalize(f, stats).values.ravel() for f in feats])
        assert abs(pooled.mean()) < 1e-9
        assert abs(pooled.var() - 1.0) < 1e-9

    def test_constant_pool_rejected(self):
        with pytest.raises(ValueError):
            compute_norm_stats([FeatureMatrix(np.full((3, ft.N_BINS), 5.0))])

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            compute_norm_stats([])

    def test_inverse_affine_recovers_input(self):
        rng = np.random.default_rng(12)
        f = FeatureMatrix(rng.normal(0.5, 1.5, (7, ft.N_BINS)))
        stats = compute_norm_stats([f])
        z = znormalize(f, stats)
        back = z.values * np.sqrt(stats.variance) + stats.mean
        assert np.max(np.abs(back - f.values)) < 1e-9

    def test_stats_dict_round_trip(self):
        stats = NormStats(0.25, 2.5)
        assert NormStats.from_dict(stats.to_dict()) == stats

    def test_stats_validate(self):
        with pytest.raises(ValueError):
            NormStats(0.0, 0.0)
        with pytest.raises(ValueError):
            NormStats(float("nan"), 1.0)

    def test_log_and_normalize_each_fill_one_fresh_matrix(self):
        # A 5-min song's features: each step holds its input and its own
        # output, and no copy of either.
        rng = np.random.default_rng(13)
        feats = cqt(AudioClip(rng.uniform(-0.5, 0.5, 300 * SR)))
        size = feats.values.nbytes
        tracemalloc.start()
        try:
            z = znormalize(log_amplitude(feats), NormStats(-5.0, 4.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert z.frames == n_frames(300 * SR)
        assert peak <= 2.1 * size, f"peak {peak / size:.2f} times the features"


def window_starts(frames):
    # Window frame indices: the first entry of each window is its start.
    return [int(w[0]) for w in windows(np.arange(frames))]


class TestSegmentation:
    def test_thirty_second_clip(self):
        # 661,500 samples -> 323 frames; the last window ends on frame 322.
        frames = n_frames(661500)
        assert frames == 323
        assert window_starts(frames) == [0, 54, 108, 162, 215]
        assert all(len(w) == 108 for w in windows(np.arange(frames)))

    def test_one_more_frame_admits_a_fifth_window(self):
        assert window_starts(324) == [0, 54, 108, 162, 216]

    def test_exactly_one_window(self):
        (piece,) = windows(np.arange(108))
        assert np.array_equal(piece, np.arange(108))

    def test_every_frame_lies_in_a_window(self):
        for frames in (1, 107, 108, 109, 161, 162, 163, 250, 323, 1000):
            covered = np.unique(np.concatenate(windows(np.arange(frames))))
            assert np.array_equal(covered, np.arange(frames))

    def test_short_clip_zero_padded(self):
        pieces = windows(np.ones((50, ft.N_BINS)))
        assert len(pieces) == 1
        assert pieces[0].shape == (108, ft.N_BINS)
        assert np.all(pieces[0][:50] == 1.0)
        assert np.all(pieces[0][50:] == 0.0)

    def test_consecutive_windows_overlap_by_54(self):
        rng = np.random.default_rng(5)
        pieces = windows(rng.normal(size=(324, ft.N_BINS)))
        for left, right in zip(pieces, pieces[1:]):
            assert np.array_equal(left[54:], right[:54])


class TestSynthesis:
    def test_same_seed_bit_identical(self):
        prog = make_random_progression(3, duration_s=2.0)
        a = synth_chord_clip(prog, seed=17)
        b = synth_chord_clip(prog, seed=17)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        prog = make_random_progression(3, duration_s=2.0)
        a = synth_chord_clip(prog, seed=17)
        b = synth_chord_clip(prog, seed=18)
        assert not np.array_equal(a.samples, b.samples)

    def test_no_chord_is_noise_only(self):
        prog = parse_lab("0.0 10.0 N")
        clip = synth_chord_clip(prog, seed=1)
        rms = float(np.sqrt(np.mean(clip.samples ** 2)))
        assert rms <= 0.012

    def test_peak_is_half(self):
        prog = parse_lab("0.0 2.0 C:maj")
        clip = synth_chord_clip(prog, seed=1)
        peak = float(np.max(np.abs(clip.samples)))
        assert 0.45 <= peak <= 0.55

    def test_chord_energy_lands_on_its_pitch_classes(self):
        prog = parse_lab("0.0 10.0 C:maj")
        clip = synth_chord_clip(prog, seed=2)
        mean_mag = cqt(clip).values.mean(axis=0)
        on = np.concatenate([mean_mag[pitch_class_bins(pc)] for pc in (0, 4, 7)])
        off = np.concatenate([mean_mag[pitch_class_bins(pc)] for pc in (1, 2, 6)])
        assert on.mean() >= 10.0 * off.mean()

    def test_unknown_label_rejected(self):
        prog = Annotation(((0.0, 1.0, parse_chord("X")),))
        with pytest.raises(ValueError):
            synth_chord_clip(prog)

    def test_non_contiguous_progression_rejected(self):
        prog = Annotation(((0.0, 1.0, parse_chord("C")), (2.0, 3.0, parse_chord("D"))))
        with pytest.raises(ValueError):
            synth_chord_clip(prog)

    @pytest.mark.parametrize("seed, seconds, vocab", [
        (1, 10.0, MAJMIN_25),
        (2, 240.0, MAJMIN_25),
        (3, 60.0, LARGE_170),
    ])
    def test_matches_per_partial_reference(self, seed, seconds, vocab):
        prog = make_random_progression(seed, duration_s=seconds, vocab=vocab)
        got = synth_chord_clip(prog, seed=seed + 10).samples
        assert np.max(np.abs(got - synth_per_partial(prog, seed=seed + 10))) <= 1e-9

    def test_short_intervals_match_reference(self):
        # Lengths in samples: under one fade (220), under two fades, under
        # one block, and one either side of one and two blocks.
        lengths = [100, 300, 1000, 1023, 1025, 2047, 2049, 3000]
        bounds = np.concatenate([[0], np.cumsum(lengths)]) / SR
        names = ["C", "A:min", "F#:maj", "Bb:min7", "E:7", "D:dim", "G:sus4", "C#:hdim7"]
        prog = Annotation(tuple((float(s), float(e), parse_chord(name))
                                for s, e, name in zip(bounds, bounds[1:], names)))
        got = synth_chord_clip(prog, seed=4).samples
        assert got.size == sum(lengths)
        assert np.max(np.abs(got - synth_per_partial(prog, seed=4))) <= 1e-9

    def test_no_chord_bytes_match_reference(self):
        prog = parse_lab("0.0 10.0 N")
        got = synth_chord_clip(prog, seed=1).samples
        assert got.tobytes() == synth_per_partial(prog, seed=1).tobytes()

    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan"), float("inf")])
    def test_random_progression_rejects_bad_duration(self, seconds):
        with pytest.raises(ValueError, match="duration"):
            make_random_progression(1, duration_s=seconds)

    def test_random_progression_covers_duration(self):
        prog = make_random_progression(9, duration_s=10.0)
        assert prog.intervals[0][0] == 0.0
        assert prog.intervals[-1][1] == pytest.approx(10.0)
        for (_, e, _), (s, _, _) in zip(prog.intervals, prog.intervals[1:]):
            assert s == pytest.approx(e)

    def test_random_progression_deterministic(self):
        a = make_random_progression(4)
        b = make_random_progression(4)
        assert a == b
