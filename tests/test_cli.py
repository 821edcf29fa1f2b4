"""CLI tests: exit codes, manifests, determinism, module-oracle agreement."""

import json
import os
import re
import struct
import wave
from pathlib import Path

import numpy as np
import pytest

from bmace import chords
from bmace import cli
from bmace import features as ft
from bmace import metrics as mt
from bmace import model as md
from bmace import training as tr
from bmace.numerics import Tensor


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def label_text(label):
    if label.is_no_chord:
        return chords.NO_CHORD
    if label.is_unknown:
        return chords.UNKNOWN
    return f"{chords.PITCH_NAMES[label.root]}:{label.quality}"


def write_lab(path, annotation):
    lines = [f"{s:.6f} {e:.6f} {label_text(lab)}"
             for s, e, lab in annotation.intervals]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_audio_corpus(directory, n_songs, seed=0, duration_s=2.0):
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(n_songs):
        progression = tr.make_random_progression(seed + i, duration_s,
                                                 chords.MAJMIN_25)
        clip = ft.synth_chord_clip(progression, seed=seed + 100 + i)
        ft.write_wav(directory / f"song{i}.wav", clip)
        write_lab(directory / f"song{i}.lab", progression)


def rewrite_as_extensible(path, guid_code=1):
    """Rewrite a mono PCM16 WAV as WAVE_FORMAT_EXTENSIBLE with the same samples."""
    with wave.open(str(path), "rb") as w:
        frames = w.readframes(w.getnframes())
    guid = struct.pack("<H", guid_code) + bytes.fromhex("000000001000800000aa00389b71")
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, ft.SAMPLE_RATE, 2 * ft.SAMPLE_RATE, 2, 16,
                      22, 16, 0) + guid
    payload = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
               + b"data" + struct.pack("<I", len(frames)) + frames)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(payload)) + payload)


def fail_on(monkeypatch, target):
    """Make os.replace raise when it would rename a file over ``target``."""
    real = os.replace

    def replace(src, dst):
        if Path(dst) == target:
            raise OSError("disk full")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def no_temporary_files(root):
    return not [p for p in root.rglob("*") if p.name.endswith(".tmp")]


def untrained_checkpoint(path):
    cfg = md.ModelConfig(variant=md.MACE_V, n_classes=25)
    md.save_checkpoint(path, cfg, md.init_model(cfg), extra_meta={
        "stats": ft.NormStats(0.0, 1.0).to_dict(), "vocab": "majmin"})
    return path


class TestParamsAndFlops:
    def variant_count(self, capsys, variant, vocab):
        code, out, _ = run_cli(capsys, "params", "--variant", variant,
                               "--vocab", vocab)
        assert code == cli.EXIT_OK
        return int(out.strip())

    def test_params_prints_exact_count(self, capsys):
        printed = self.variant_count(capsys, "mace-v", "majmin")
        cfg = md.ModelConfig(variant=md.MACE_V, n_classes=25)
        assert printed == md.count_params(cfg)

    def test_params_identity_between_variants(self, capsys):
        h = self.variant_count(capsys, "mace-h", "majmin")
        v = self.variant_count(capsys, "mace-v", "majmin")
        assert h - v == 3200

    def test_flops_scale_exactly_with_frames(self, capsys):
        code, out, _ = run_cli(capsys, "flops", "--variant", "bmace",
                               "--frames", "108")
        assert code == cli.EXIT_OK
        f108 = int(out.splitlines()[0])
        assert "gflops" in out.splitlines()[1]
        code, out, _ = run_cli(capsys, "flops", "--variant", "bmace",
                               "--frames", "216")
        f216 = int(out.splitlines()[0])
        assert f216 == 2 * f108

    @pytest.mark.parametrize("frames", ["0", "-5"])
    def test_nonpositive_frames_is_a_usage_error(self, capsys, frames):
        code, out, err = run_cli(capsys, "flops", "--variant", "bmace",
                                 "--frames", frames)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "frames" in err


class TestTrainCommand:
    def train_args(self, out, seed=0):
        return ["train", "--variant", "mace-v", "--synthetic", "4",
                "--duration", "2.0", "--epochs", "1", "--batch-size", "2",
                "--seed", str(seed), "--out", str(out)]

    def test_writes_checkpoint_history_manifest(self, capsys, tmp_path):
        out = tmp_path / "run" / "model"
        code, stdout, _ = run_cli(capsys, *self.train_args(out))
        assert code == cli.EXIT_OK
        assert "checkpoint" in stdout
        cfg, params, meta = md.load_checkpoint(out)
        assert cfg.variant == md.MACE_V
        assert meta["vocab"] == "majmin"
        assert "stats" in meta
        history = json.loads((tmp_path / "run" / "model.history.json").read_text())
        assert len(history["history"]) >= 1
        manifest = json.loads((tmp_path / "run" / "model.manifest.json").read_text())
        assert manifest["config"]["train"]["clip_norm"] == 5.0
        assert manifest["config"]["model"]["d_model"] == 128
        assert manifest["seeds"] == {"seed": 0}

    def test_same_flags_same_checkpoint_bytes(self, capsys, tmp_path):
        run_cli(capsys, *self.train_args(tmp_path / "a"))
        run_cli(capsys, *self.train_args(tmp_path / "b"))
        for suffix in (".bin", ".json", ".history.json"):
            assert ((tmp_path / f"a{suffix}").read_bytes()
                    == (tmp_path / f"b{suffix}").read_bytes())

    def test_dotted_output_names_do_not_collide(self, capsys, tmp_path):
        run = tmp_path / "run"
        for seed, name in enumerate(("model.v2", "model.v3")):
            assert run_cli(capsys, *self.train_args(run / name, seed=seed))[0] == cli.EXIT_OK
        suffixes = (".json", ".bin", ".history.json", ".manifest.json")
        assert sorted(p.name for p in run.iterdir()) == sorted(
            name + suffix for name in ("model.v2", "model.v3") for suffix in suffixes)
        for seed, name in enumerate(("model.v2", "model.v3")):
            cfg, _, _ = md.load_checkpoint(run / name)
            assert cfg.seed == seed
            manifest = json.loads((run / f"{name}.manifest.json").read_text())
            assert manifest["seeds"] == {"seed": seed}
            assert manifest["outputs"][0] == str(run / f"{name}.json")

    @pytest.mark.parametrize("suffix", [".history.json", ".manifest.json"])
    def test_failed_write_keeps_earlier_file(self, capsys, tmp_path, monkeypatch, suffix):
        out = tmp_path / "run" / "model"
        assert run_cli(capsys, *self.train_args(out))[0] == cli.EXIT_OK
        target = tmp_path / "run" / f"model{suffix}"
        before = target.read_bytes()
        fail_on(monkeypatch, target)
        with pytest.raises(OSError, match="disk full"):
            run_cli(capsys, *self.train_args(out, seed=1))
        assert target.read_bytes() == before
        assert no_temporary_files(tmp_path)

    def test_invalid_variant_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--variant", "nope", "--out", str(tmp_path / "x")])
        assert exc.value.code == cli.EXIT_USAGE

    def test_audio_training_requires_matching_labs(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 3)
        (audio / "song1.lab").unlink()
        code, _, err = run_cli(capsys, "train", "--variant", "mace-v",
                               "--audio", str(audio), "--epochs", "1",
                               "--out", str(tmp_path / "m"))
        assert code == cli.EXIT_USAGE
        assert "song1.lab" in err

    def audio_train_args(self, audio, out):
        return ["train", "--variant", "mace-v", "--audio", str(audio),
                "--epochs", "1", "--out", str(out)]

    def test_empty_audio_directory_is_a_usage_error(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(capsys, *self.audio_train_args(empty, tmp_path / "m"))
        assert code == cli.EXIT_USAGE
        assert "no input" in err

    def test_unreadable_wav_names_the_file(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 2)
        (audio / "song1.wav").write_bytes(b"not a riff container")
        code, _, err = run_cli(capsys, *self.audio_train_args(audio, tmp_path / "m"))
        assert code == cli.EXIT_USAGE
        assert "song1.wav" in err

    def test_per_song_timings_go_to_stderr_only(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 3, seed=6)
        ckpt = untrained_checkpoint(tmp_path / "model")
        reports = []
        for run in range(2):
            report = tmp_path / f"report{run}.json"
            code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                     "--audio", str(audio), "--out", str(report))
            assert code == cli.EXIT_OK
            lines = err.splitlines()
            assert [line.split(":")[0] for line in lines] == ["song0", "song1", "song2"]
            for line in lines:
                assert re.fullmatch(r"song\d: 2\.00 s of audio, CQT \d+\.\d{3} s, "
                                    r"model \d+\.\d{3} s", line), line
            assert report.read_text(encoding="utf-8") == out
            reports.append(report.read_bytes())
        assert reports[1] == reports[0]

    def test_extensible_wavs_score_as_plain_ones(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 2, seed=8)
        ckpt = untrained_checkpoint(tmp_path / "model")
        args = ["evaluate", "--model", str(ckpt), "--audio", str(audio)]
        code, plain, _ = run_cli(capsys, *args)
        assert code == cli.EXIT_OK
        for wav in audio.glob("*.wav"):
            rewrite_as_extensible(wav)
        code, extensible, err = run_cli(capsys, *args)
        assert code == cli.EXIT_OK, err
        assert extensible == plain

    def test_unknown_extensible_subformat_names_the_file(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 2)
        rewrite_as_extensible(audio / "song0.wav", guid_code=2)
        ckpt = untrained_checkpoint(tmp_path / "model")
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: cannot read {audio / 'song0.wav'}: unsupported "
                              "extensible SubFormat 0200")
        assert err.endswith("(byte offset 44)\n")

    def test_empty_wav_is_a_usage_error(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 2)
        ft.write_wav(audio / "song1.wav", ft.AudioClip(np.zeros(0)))
        code, _, err = run_cli(capsys, *self.audio_train_args(audio, tmp_path / "m"))
        assert code == cli.EXIT_USAGE
        assert "song1.wav" in err

    def test_corpus_with_no_class_in_the_vocabulary_is_a_usage_error(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        audio.mkdir()
        sus4 = chords.Annotation(((0.0, 2.0, chords.parse_chord("C:sus4")),))
        for i in range(4):
            ft.write_wav(audio / f"song{i}.wav", ft.synth_chord_clip(sus4, seed=i))
            write_lab(audio / f"song{i}.lab", sus4)
        code, out, err = run_cli(capsys, *self.audio_train_args(audio, tmp_path / "m"))
        assert code == cli.EXIT_USAGE
        assert err == "error: no training frame has a class in the majmin vocabulary\n"
        assert out == ""
        assert not (tmp_path / "m.json").exists()

    def test_audio_training_reads_a_lab_with_a_byte_order_mark(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 3)
        lab = audio / "song0.lab"
        lab.write_bytes(b"\xef\xbb\xbf" + lab.read_bytes())
        code, _, err = run_cli(capsys, *self.audio_train_args(audio, tmp_path / "m"))
        assert code == cli.EXIT_OK, err
        assert (tmp_path / "m.bin").is_file()

    def test_audio_manifest_records_no_synthetic_clip_length(self, capsys, tmp_path):
        # --duration sets the length of synthetic clips only.
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 3)
        args = self.audio_train_args(audio, tmp_path / "m") + ["--duration", "3.0"]
        code, _, err = run_cli(capsys, *args)
        assert code == cli.EXIT_OK, err
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert list(manifest) == ["command", "config", "seeds", "inputs", "outputs", "version"]
        config = manifest["config"]
        assert (config["synthetic"], config["duration_s"], config["audio"]) == (
            None, None, str(audio))

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate_is_a_usage_error(self, capsys, tmp_path, monkeypatch,
                                                       rate):
        def no_corpus(*args, **kwargs):
            raise AssertionError("corpus built before the flags were checked")

        monkeypatch.setattr(tr, "make_synthetic_corpus", no_corpus)
        args = self.train_args(tmp_path / "m") + ["--learning-rate", rate]
        code, out, err = run_cli(capsys, *args)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == f"error: learning_rate must be finite, got {rate}\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("duration", ["0", "-1", "nan"])
    def test_bad_duration_is_a_usage_error(self, capsys, tmp_path, duration):
        args = self.train_args(tmp_path / "m")
        args[args.index("--duration") + 1] = duration
        code, _, err = run_cli(capsys, *args)
        assert code == cli.EXIT_USAGE
        assert "duration" in err
        assert not (tmp_path / "m.json").exists()


class TestEvaluateCommand:
    def test_identical_estimates_score_one(self, capsys, tmp_path):
        ref = tmp_path / "ref"
        est = tmp_path / "est"
        ref.mkdir()
        est.mkdir()
        text = "0.0 1.5 C:maj\n1.5 3.0 A:min\n"
        for d in (ref, est):
            (d / "s1.lab").write_text(text)
            (d / "s2.lab").write_text("0 2 G:7\n")
        code, out, _ = run_cli(capsys, "evaluate", "--ref", str(ref),
                               "--est", str(est))
        assert code == cli.EXIT_OK
        report = json.loads(out)
        for kind in mt.COMPARATORS:
            assert report["aggregate"]["weighted"][kind] == 1.0

    def test_labs_with_a_byte_order_mark_score_as_without_one(self, capsys, tmp_path):
        reports = []
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            corpus = tmp_path / name
            for side, text in (("ref", b"0 1.5 C:maj\n1.5 3 C:sus4\n"), ("est", b"0 3 C:maj7\n")):
                (corpus / side).mkdir(parents=True)
                (corpus / side / "s1.lab").write_bytes(bom + text)
            code, out, err = run_cli(capsys, "evaluate", "--ref", str(corpus / "ref"),
                                     "--est", str(corpus / "est"))
            assert code == cli.EXIT_OK, err
            reports.append(json.loads(out))
        assert reports[1] == reports[0]
        assert reports[0]["songs"]["s1"]["root"] == 1.0

    def test_failed_report_write_keeps_earlier_report(self, capsys, tmp_path, monkeypatch):
        ref = tmp_path / "ref"
        est = tmp_path / "est"
        ref.mkdir()
        est.mkdir()
        (ref / "s1.lab").write_text("0.0 1.5 C:maj\n1.5 3.0 A:min\n")
        (est / "s1.lab").write_text("0.0 3.0 C:maj\n")
        report = tmp_path / "report.json"
        args = ["evaluate", "--ref", str(ref), "--est", str(est), "--out", str(report)]
        assert run_cli(capsys, *args)[0] == cli.EXIT_OK
        before = report.read_bytes()
        (est / "s1.lab").write_text("0.0 1.5 C:maj\n1.5 3.0 A:min\n")
        fail_on(monkeypatch, report)
        with pytest.raises(OSError, match="disk full"):
            run_cli(capsys, *args)
        assert report.read_bytes() == before
        assert no_temporary_files(tmp_path)

    def test_missing_song_id_is_named(self, capsys, tmp_path):
        ref = tmp_path / "ref"
        est = tmp_path / "est"
        ref.mkdir()
        est.mkdir()
        (ref / "alpha.lab").write_text("0 1 C:maj\n")
        (ref / "beta.lab").write_text("0 1 D:min\n")
        (est / "alpha.lab").write_text("0 1 C:maj\n")
        code, _, err = run_cli(capsys, "evaluate", "--ref", str(ref),
                               "--est", str(est))
        assert code == cli.EXIT_USAGE
        assert "beta" in err

    def test_report_matches_the_metrics_module(self, capsys, tmp_path):
        ref = tmp_path / "ref"
        est = tmp_path / "est"
        ref.mkdir()
        est.mkdir()
        rng = np.random.default_rng(0)
        expected = {}
        for stem in ("one", "two"):
            ref_ann = tr.make_random_progression(int(rng.integers(1000)), 4.0,
                                                 chords.LARGE_170)
            est_ann = tr.make_random_progression(int(rng.integers(1000)), 4.0,
                                                 chords.LARGE_170)
            write_lab(ref / f"{stem}.lab", ref_ann)
            write_lab(est / f"{stem}.lab", est_ann)
            expected[stem] = mt.evaluate_all(ref_ann, est_ann)
        code, out, _ = run_cli(capsys, "evaluate", "--ref", str(ref),
                               "--est", str(est))
        assert code == cli.EXIT_OK
        report = json.loads(out)
        for stem, result in expected.items():
            for kind in mt.COMPARATORS:
                got = report["songs"][stem][kind]
                want = result.scores[kind]
                if want is None:
                    assert got is None
                else:
                    assert abs(got - want) < 1e-12
        agg = mt.aggregate(list(expected.values()))
        for kind in mt.COMPARATORS:
            want = agg["weighted"][kind]
            got = report["aggregate"]["weighted"][kind]
            assert (got is None and want is None) or abs(got - want) < 1e-12

    def test_model_audio_mode_end_to_end(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 3, seed=4)
        ckpt = tmp_path / "model"
        run_cli(capsys, "train", "--variant", "mace-v", "--synthetic", "4",
                "--duration", "2.0", "--epochs", "1", "--batch-size", "2",
                "--out", str(ckpt))
        code, out, _ = run_cli(capsys, "evaluate", "--model", str(ckpt),
                               "--audio", str(audio),
                               "--out", str(tmp_path / "report.json"))
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert sorted(report["songs"]) == ["song0", "song1", "song2"]
        score = report["aggregate"]["weighted"]["majmin"]
        assert score is None or 0.0 <= score <= 1.0
        assert (tmp_path / "report.json").is_file()
        assert (tmp_path / "report.manifest.json").is_file()

    def test_per_song_timings_go_to_stderr_only(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 3, seed=6)
        ckpt = untrained_checkpoint(tmp_path / "model")
        reports = []
        for run in range(2):
            report = tmp_path / f"report{run}.json"
            code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                     "--audio", str(audio), "--out", str(report))
            assert code == cli.EXIT_OK
            lines = err.splitlines()
            assert [line.split(":")[0] for line in lines] == ["song0", "song1", "song2"]
            for line in lines:
                assert re.fullmatch(r"song\d: 2\.00 s of audio, CQT \d+\.\d{3} s, "
                                    r"model \d+\.\d{3} s", line), line
            assert report.read_text(encoding="utf-8") == out
            reports.append(report.read_bytes())
        assert reports[1] == reports[0]

    def test_extensible_wavs_score_as_plain_ones(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 2, seed=8)
        ckpt = untrained_checkpoint(tmp_path / "model")
        args = ["evaluate", "--model", str(ckpt), "--audio", str(audio)]
        code, plain, _ = run_cli(capsys, *args)
        assert code == cli.EXIT_OK
        for wav in audio.glob("*.wav"):
            rewrite_as_extensible(wav)
        code, extensible, err = run_cli(capsys, *args)
        assert code == cli.EXIT_OK, err
        assert extensible == plain

    def test_unknown_extensible_subformat_names_the_file(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 2)
        rewrite_as_extensible(audio / "song0.wav", guid_code=2)
        ckpt = untrained_checkpoint(tmp_path / "model")
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: cannot read {audio / 'song0.wav'}: unsupported "
                              "extensible SubFormat 0200")
        assert err.endswith("(byte offset 44)\n")

    def test_empty_wav_is_a_usage_error(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 2)
        ft.write_wav(audio / "song0.wav", ft.AudioClip(np.zeros(0)))
        ckpt = untrained_checkpoint(tmp_path / "model")
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "song0.wav" in err

    def test_missing_reference_lab_names_the_file(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 2)
        (audio / "song1.lab").unlink()
        ckpt = untrained_checkpoint(tmp_path / "model")
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "song1.lab" in err

    def test_non_finite_checkpoint_is_a_usage_error(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 1)
        cfg = md.ModelConfig(variant=md.MACE_V, n_classes=25)
        params = md.init_model(cfg)
        fc_in = params["fc_in"].data.copy()
        fc_in[3, 5] = np.nan
        params["fc_in"] = Tensor(fc_in)
        ckpt = tmp_path / "model"
        md.save_checkpoint(ckpt, cfg, params, extra_meta={
            "stats": ft.NormStats(0.0, 1.0).to_dict(), "vocab": "majmin"})
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "'fc_in'" in err and "non-finite" in err

    def test_wrong_shaped_checkpoint_is_a_usage_error(self, capsys, tmp_path):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 1)
        cfg = md.ModelConfig(variant=md.BMACE, n_classes=25)
        params = md.init_model(cfg)
        params["fc_in"] = Tensor(params["fc_in"].data.T)
        ckpt = tmp_path / "model"
        md.save_checkpoint(ckpt, cfg, params, extra_meta={
            "stats": ft.NormStats(0.0, 1.0).to_dict(), "vocab": "majmin"})
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "'fc_in'" in err and "(128, 144)" in err and "(144, 128)" in err

    def test_empty_audio_directory_is_a_usage_error(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        ckpt = untrained_checkpoint(tmp_path / "model")
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(empty))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "no input WAV files" in err

    def test_requires_one_complete_mode(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--ref", str(tmp_path)])
        assert exc.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("flags", [
        ("--ref", "--est", "--model"),
        ("--model", "--audio", "--ref"),
    ], ids=["labs-plus-model", "model-plus-ref"])
    def test_mixed_modes_are_usage_errors(self, tmp_path, flags):
        argv = ["evaluate"]
        for flag in flags:
            argv += [flag, str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("edit, field", [
        (lambda meta: meta.update(vocab="foo"), "vocab 'foo'"),
        (lambda meta: meta["stats"].update(variance=-1.0), "variance must be positive"),
        (lambda meta: meta["stats"].pop("variance"), "stats lack 'variance'"),
    ], ids=["unknown-vocab", "negative-variance", "missing-variance"])
    def test_bad_checkpoint_metadata_is_a_usage_error(self, capsys, tmp_path, edit, field):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 1)
        ckpt = untrained_checkpoint(tmp_path / "model")
        manifest_file = ckpt.with_suffix(".json")
        manifest = json.loads(manifest_file.read_text())
        edit(manifest["meta"])
        manifest_file.write_text(json.dumps(manifest))
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: checkpoint {ckpt}: ") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize("n_classes, vocab", [(25, "large"), (170, "majmin")],
                             ids=["majmin-head-large-vocab", "large-head-majmin-vocab"])
    def test_vocab_disagreeing_with_head_is_a_usage_error(self, capsys, tmp_path,
                                                          n_classes, vocab):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 1)
        cfg = md.ModelConfig(variant=md.BMACE, n_classes=n_classes, d_model=4, n_state=2,
                             dt_rank=2, conv_k=2, expand=1)
        ckpt = tmp_path / "model"
        md.save_checkpoint(ckpt, cfg, md.init_model(cfg), extra_meta={
            "stats": ft.NormStats(0.0, 1.0).to_dict(), "vocab": vocab})
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio))
        assert code == cli.EXIT_USAGE
        assert out == ""
        n_vocab = chords.VOCABS[vocab].n_classes
        assert err == (f"error: checkpoint {ckpt}: vocab {vocab!r} has {n_vocab} classes "
                       f"but the model head has {n_classes}\n")

    @pytest.mark.parametrize("edit, cause", [
        (lambda manifest: [], "manifest is a JSON list, not an object"),
        (lambda manifest: manifest["meta"]["config"].update(d_model="128") or manifest,
         "d_model must be an integer, got '128'"),
        (lambda manifest: manifest.update(meta=[]) or manifest,
         "manifest needs a 'meta' object and a 'tensors' list"),
        (lambda manifest: manifest["meta"].update(config=[]) or manifest,
         "config must be a mapping, got list"),
        (lambda manifest: manifest["tensors"][0].update(shape=5) or manifest,
         "malformed tensor record"),
        (lambda manifest: manifest["tensors"][0].update(name=["fc_in"]) or manifest,
         "malformed tensor record"),
        (lambda manifest: manifest["tensors"][-1].update(offset=0) or manifest,
         "overlap in the blob"),
    ], ids=["manifest-not-object", "config-field-type", "meta-not-object",
            "config-not-object", "shape-not-a-list", "name-not-a-string",
            "overlapping-records"])
    def test_malformed_checkpoint_json_is_a_usage_error(self, capsys, tmp_path, edit, cause):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 1)
        ckpt = untrained_checkpoint(tmp_path / "model")
        manifest_file = ckpt.with_suffix(".json")
        manifest_file.write_text(json.dumps(edit(json.loads(manifest_file.read_text()))))
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: cannot load checkpoint {ckpt}: ") and err.count("\n") == 1
        assert cause in err

    def test_non_decimal_digit_in_a_lab_names_file_line_and_column(self, capsys, tmp_path):
        ref = tmp_path / "ref"
        est = tmp_path / "est"
        ref.mkdir()
        est.mkdir()
        (ref / "a.lab").write_text("0 1 C/²\n", encoding="utf-8")
        (est / "a.lab").write_text("0 1 C\n")
        code, out, err = run_cli(capsys, "evaluate", "--ref", str(ref), "--est", str(est))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == f"error: {ref / 'a.lab'}: line 1: expected a degree number (column 2)\n"

    @pytest.mark.parametrize("text", ["", "# no intervals\n"], ids=["empty", "comment-only"])
    def test_empty_reference_lab_is_a_usage_error(self, capsys, tmp_path, text):
        ref = tmp_path / "ref"
        est = tmp_path / "est"
        ref.mkdir()
        est.mkdir()
        (ref / "s1.lab").write_text("0 2 C:maj\n")
        (est / "s1.lab").write_text(text)
        # An empty estimate is valid: it scores as all no-chord.
        code, out, _ = run_cli(capsys, "evaluate", "--ref", str(ref), "--est", str(est))
        assert code == cli.EXIT_OK
        assert json.loads(out)["songs"]["s1"]["majmin"] == 0.0
        (ref / "s1.lab").write_text(text)
        code, out, err = run_cli(capsys, "evaluate", "--ref", str(ref), "--est", str(est))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == "error: reference annotation for song id 's1' holds no intervals\n"

        audio = tmp_path / "audio"
        make_audio_corpus(audio, 2)
        (audio / "song1.lab").write_text(text)
        ckpt = untrained_checkpoint(tmp_path / "model")
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio))
        assert code == cli.EXIT_USAGE
        assert out == ""
        timing, error = err.splitlines()
        assert timing.startswith("song0: 2.00 s of audio, CQT ")
        assert error == "error: reference annotation for song id 'song1' holds no intervals"


def count_calls(monkeypatch, module, name):
    """Patch ``module.name`` to log each call; returns the log."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestBadInputStopsBeforeTranscription:
    """A bad input exits 2 before the songs it does not concern are transcribed."""

    def test_unmakeable_out_directory_costs_no_cqt(self, capsys, tmp_path, monkeypatch):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 3)
        ckpt = untrained_checkpoint(tmp_path / "model")
        (tmp_path / "file").write_text("a regular file\n")
        cqts = count_calls(monkeypatch, ft, "cqt")
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio),
                                 "--out", str(tmp_path / "file" / "sub" / "report.json"))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot create output directory ")
        assert cqts == []

    @pytest.mark.parametrize("name", ["report.json", "report.manifest.json"])
    def test_directory_among_evaluate_outputs_costs_no_cqt(self, capsys, tmp_path,
                                                           monkeypatch, name):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 3)
        ckpt = untrained_checkpoint(tmp_path / "model")
        (tmp_path / name).mkdir()
        cqts = count_calls(monkeypatch, ft, "cqt")
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio), "--out", str(tmp_path / "report.json"))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == f"error: output path {tmp_path / name} is a directory\n"
        assert cqts == []

    def test_directory_out_scores_no_lab_pair(self, capsys, tmp_path, monkeypatch):
        ref = tmp_path / "ref"
        est = tmp_path / "est"
        ref.mkdir()
        est.mkdir()
        for d in (ref, est):
            (d / "s1.lab").write_text("0 2 C:maj\n")
        (tmp_path / "report").mkdir()
        scores = count_calls(monkeypatch, mt, "evaluate_all")
        code, out, err = run_cli(capsys, "evaluate", "--ref", str(ref), "--est", str(est),
                                 "--out", str(tmp_path / "report"))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == f"error: output path {tmp_path / 'report'} is a directory\n"
        assert scores == []

    @pytest.mark.parametrize("suffix", [".json", ".bin", ".history.json", ".manifest.json"])
    def test_directory_among_train_outputs_costs_no_training(self, capsys, tmp_path,
                                                             monkeypatch, suffix):
        (tmp_path / "run" / f"m{suffix}").mkdir(parents=True)
        runs = count_calls(monkeypatch, tr, "train")
        code, out, err = run_cli(capsys, "train", "--variant", "mace-v", "--synthetic", "4",
                                 "--duration", "2.0", "--epochs", "1", "--batch-size", "2",
                                 "--out", str(tmp_path / "run" / "m"))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == f"error: output path {tmp_path / 'run' / f'm{suffix}'} is a directory\n"
        assert runs == []

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_malformed_first_lab_costs_no_cqt(self, capsys, tmp_path, monkeypatch, command):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 3)
        (audio / "song0.lab").write_text("0 1 C:nope\n")
        if command == "train":
            argv = ["train", "--variant", "mace-v", "--audio", str(audio), "--epochs", "1",
                    "--out", str(tmp_path / "m")]
        else:
            argv = ["evaluate", "--model", str(untrained_checkpoint(tmp_path / "model")),
                    "--audio", str(audio)]
        cqts = count_calls(monkeypatch, ft, "cqt")
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {audio / 'song0.lab'}: ")
        assert cqts == []

    def test_empty_first_reference_costs_at_most_one_model_pass(self, capsys, tmp_path,
                                                               monkeypatch):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 3)
        (audio / "song0.lab").write_text("")
        ckpt = untrained_checkpoint(tmp_path / "model")
        passes = count_calls(monkeypatch, tr, "predict_annotation")
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == "error: reference annotation for song id 'song0' holds no intervals\n"
        assert len(passes) <= 1

    def test_empty_first_reference_costs_no_model_pass(self, capsys, tmp_path, monkeypatch):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 3)
        (audio / "song0.lab").write_text("# no intervals\n")
        ckpt = untrained_checkpoint(tmp_path / "model")
        passes = count_calls(monkeypatch, tr, "predict_annotation")
        code, out, err = run_cli(capsys, "evaluate", "--model", str(ckpt),
                                 "--audio", str(audio))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == "error: reference annotation for song id 'song0' holds no intervals\n"
        assert passes == []

    def test_train_rejects_an_empty_first_reference_as_evaluate_does(self, capsys, tmp_path,
                                                                     monkeypatch):
        audio = tmp_path / "audio"
        make_audio_corpus(audio, 4)
        (audio / "song0.lab").write_text("")
        cqts = count_calls(monkeypatch, ft, "cqt")
        out = tmp_path / "m"
        code, stdout, err = run_cli(capsys, "train", "--variant", "mace-v", "--audio",
                                    str(audio), "--epochs", "1", "--out", str(out))
        assert code == cli.EXIT_USAGE
        assert stdout == ""
        assert err == "error: reference annotation for song id 'song0' holds no intervals\n"
        assert cqts == []
        assert list(tmp_path.glob("m*")) == []


class TestGradcheckCommand:
    def test_single_variant_passes(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--variant", "mace-v")
        assert code == cli.EXIT_OK
        assert "threshold" in out


class TestBenchCommand:
    def test_flops_proportional_to_length(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--lengths", "128,256")
        assert code == cli.EXIT_OK
        flops = [int(line.split("flops=")[1].split()[0])
                 for line in out.strip().splitlines()]
        assert flops[1] == 2 * flops[0]

    def test_bad_lengths_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--lengths", "a,b")
        assert code == cli.EXIT_USAGE
        assert "lengths" in err
