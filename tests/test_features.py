"""Audio I/O, constant-Q transform, normalization, and synthesis tests."""

import functools
import math
import struct
import sys
import tracemalloc
import wave
from concurrent.futures import ThreadPoolExecutor

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

    def test_decode_holds_one_float_copy_of_the_song(self, tmp_path):
        # 10 s of PCM16: the file's bytes (2 per sample) plus the kept float64
        # samples (8 per sample) peak at 1.29 times the samples; a second
        # float copy would bring that to 2.3 or more.
        path = tmp_path / "song.wav"
        write_wav(path, AudioClip(np.random.default_rng(32).uniform(-0.9, 0.9, 10 * SR)))
        tracemalloc.start()
        try:
            clip = read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * clip.samples.nbytes


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
            octaves, _ = ft._cqt_plan(ft.N_MAX)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(pieces.nbytes + tail.nbytes for pieces, tail, _ in octaves)
        assert kept > 17e6
        assert peak <= 1.1 * kept

    @pytest.mark.parametrize("workers", [1, 3])
    def test_output_does_not_depend_on_worker_count(self, monkeypatch, workers):
        clip = AudioClip(np.random.default_rng(21).uniform(-0.5, 0.5, 520 * ft.HOP))
        expected = cqt(clip).values
        submitted = []

        class Recording(ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(fn)
                return super().submit(fn, *args)

        monkeypatch.setattr(ft, "_cqt_pool", lambda: Recording(max_workers=workers))
        assert np.array_equal(cqt(clip).values, expected)
        assert len(submitted) == 6 * 3  # octaves times blocks of 521 frames

    def test_pool_without_affinity_mask(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity: one worker per CPU.
        clip = AudioClip(np.random.default_rng(23).uniform(-0.5, 0.5, 300 * ft.HOP))
        expected = cqt(clip).values
        monkeypatch.delattr(ft.os, "sched_getaffinity", raising=False)
        with ft._cqt_pool() as pool:
            assert pool._max_workers == (ft.os.cpu_count() or 1)
        assert np.array_equal(cqt(clip).values, expected)

    def test_concurrent_calls_match_sequential(self, monkeypatch):
        # Two callers share the plan cache, and each runs its own pool with
        # more workers than there are cores, switching threads as often as
        # the interpreter can.
        rng = np.random.default_rng(22)
        clips = [AudioClip(rng.uniform(-0.5, 0.5, n)) for n in (600 * ft.HOP, 400 * ft.HOP + 77)]
        expected = [cqt(clip).values for clip in clips]
        monkeypatch.setattr(ft, "_PLAN_CACHE", {})
        workers = (ft.os.cpu_count() or 1) + 1
        monkeypatch.setattr(ft, "_cqt_pool", lambda: ThreadPoolExecutor(max_workers=workers))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as callers:
                futures = [callers.submit(cqt, clip) for clip in clips]
                got = [future.result(timeout=120).values for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))

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
        octaves, _ = ft._cqt_plan(max(lengths))
        assert held <= sum(pieces.nbytes + tail.nbytes for pieces, tail, _ in octaves)

    def test_memory_bounded_on_long_clip(self):
        # A 45-s clip: copying every frame's window per bin peaked at 264 MB.
        clip = AudioClip(np.random.default_rng(4).uniform(-0.5, 0.5, int(45.1 * SR)))
        ft._cqt_plan(clip.samples.size)
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
