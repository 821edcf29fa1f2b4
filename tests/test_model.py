"""Model variants: parameter accounting, forward semantics, checkpoints."""

import hashlib
import json
import random

import numpy as np
import pytest

from bmace import model as md
from bmace import numerics as nm
from bmace import tensorio
from bmace.gradcheck import REL_TOLERANCE, model_gradcheck


def cfg_for(variant, n_classes=25, **kw):
    return md.ModelConfig(variant=variant, n_classes=n_classes, **kw)


TINY = dict(d_model=4, n_state=2, dt_rank=2, conv_k=2, expand=1)


class TestConfig:
    def test_defaults(self):
        cfg = cfg_for(md.BMACE)
        assert (cfg.d_model, cfg.n_state, cfg.dt_rank, cfg.conv_k, cfg.expand) == (128, 16, 8, 4, 1)
        assert cfg.n_bins == 144

    def test_head_width_per_variant(self):
        assert cfg_for(md.MACE_V).head_in == 128
        assert cfg_for(md.MACE_H).head_in == 256
        assert cfg_for(md.BMACE).head_in == 256

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            cfg_for("mace-x")

    def test_round_trip_dict(self):
        cfg = cfg_for(md.BMACE, n_classes=170, d_model=32, seed=7)
        assert md.ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_input_width_is_not_recorded_and_older_configs_load(self):
        # Older checkpoints record "n_bins": 144; from_dict ignores the key.
        cfg = cfg_for(md.BMACE, n_classes=170, seed=7)
        d = cfg.to_dict()
        assert "n_bins" not in d
        assert md.ModelConfig.from_dict({**d, "n_bins": 144}) == cfg

    @pytest.mark.parametrize("field", ["n_classes", "d_model", "n_state", "dt_rank",
                                       "conv_k", "expand", "seed"])
    @pytest.mark.parametrize("value", ["128", 128.0, True])
    def test_integer_fields_reject_other_types(self, field, value):
        d = cfg_for(md.BMACE).to_dict()
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            md.ModelConfig.from_dict({**d, field: value})


class TestParamCounts:
    def test_analytic_matches_materialized(self):
        def materialized(cfg):
            return sum(t.size for _, t in md.init_model(cfg).named_tensors())

        for variant in md.VARIANTS:
            for n_classes in (25, 170):
                cfg = cfg_for(variant, n_classes, **TINY)
                assert md.count_params(cfg) == materialized(cfg)
        cfg = cfg_for(md.BMACE)
        assert md.count_params(cfg) == materialized(cfg)

    def test_init_model_follows_the_shape_table(self):
        wide = dict(d_model=6, n_state=3, dt_rank=1, conv_k=3, expand=2)
        for variant in md.VARIANTS:
            for n_classes, kw in ((25, TINY), (170, wide)):
                cfg = cfg_for(variant, n_classes, **kw)
                got = [(name, t.shape) for name, t in md.init_model(cfg).named_tensors()]
                assert got == list(md.tensor_shapes(cfg).items())

    def test_tiny_config_hand_tally(self):
        # d=4, e=4, n=2, r=2, k=2, C=3, mace-v.
        cfg = cfg_for(md.MACE_V, n_classes=3, **TINY)
        trunk = 144 * 4 + 4           # 580
        block = (4 * 8               # in_proj
                 + 4 * 2 + 4         # conv
                 + 4 * (2 + 4)       # x_proj
                 + 2 * 4 + 4         # dt_proj + dt_bias
                 + 4 * 2             # A_log
                 + 4                 # D
                 + 4 * 4             # out_proj
                 + 4)                # norm_gain
        head = 4 * 3 + 3
        assert md.count_params(cfg) == trunk + 2 * block + head

    def test_variant_head_identity(self):
        # Widening the head from d to 2d costs exactly C*d_model parameters.
        for n_classes, want in ((25, 25 * 128), (170, 170 * 128)):
            v = md.count_params(cfg_for(md.MACE_V, n_classes))
            h = md.count_params(cfg_for(md.MACE_H, n_classes))
            b = md.count_params(cfg_for(md.BMACE, n_classes))
            assert h - v == want
            assert b == h

    def test_vocabulary_growth_identity(self):
        # Moving from 25 to 170 classes adds 145 rows of (head_in + 1) params.
        v = md.count_params(cfg_for(md.MACE_V, 170)) - md.count_params(cfg_for(md.MACE_V, 25))
        h = md.count_params(cfg_for(md.MACE_H, 170)) - md.count_params(cfg_for(md.MACE_H, 25))
        b = md.count_params(cfg_for(md.BMACE, 170)) - md.count_params(cfg_for(md.BMACE, 25))
        assert v == 145 * (128 + 1)
        assert h == b == 145 * (256 + 1)


class TestInit:
    def test_seed_determinism(self):
        cfg = cfg_for(md.BMACE, **TINY)
        a = md.init_model(cfg)
        b = md.init_model(cfg)
        for (name_a, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert np.array_equal(ta.data, tb.data), name_a

    def test_different_seeds_differ(self):
        cfg = cfg_for(md.BMACE, **TINY)
        a = md.init_model(cfg)
        b = md.init_model(md.ModelConfig(**{**cfg.to_dict(), "seed": 1}))
        assert not np.array_equal(a["fc_in"].data, b["fc_in"].data)

    def test_fc_in_range(self):
        # fan_in = 144 bins, so every entry lies in (-1/12, 1/12).
        params = md.init_model(cfg_for(md.BMACE))
        assert np.all(np.abs(params["fc_in"].data) < 1.0 / 12.0)

    def test_a_log_ladder(self):
        params = md.init_model(cfg_for(md.BMACE, **TINY), dtype=nm.HIGH)
        want = np.log(np.tile([1.0, 2.0], (4, 1)))
        assert np.allclose(params["block_a.A_log"].data, want, atol=0)

    def test_dt_bias_softplus_range(self):
        params = md.init_model(cfg_for(md.BMACE), dtype=nm.HIGH)
        for name in ("block_a.dt_bias", "block_b.dt_bias"):
            dt = np.log1p(np.exp(params[name].data))
            assert np.all(dt >= 1e-3 - 1e-12) and np.all(dt <= 1e-1 + 1e-12)

    @pytest.mark.parametrize("cfg, dtype, digest", [
        (cfg_for(md.BMACE), nm.STANDARD,
         "d70e3c7673ad249b17a020425207226b806b1aaae3554513a5e11270b85511c2"),
        (cfg_for(md.BMACE, **TINY), nm.HIGH,
         "4f197f7083c0fd2bdd56e864884ab5ca85ed3b15a1793673cebf8862696ec04f"),
    ], ids=["bmace-majmin-float32", "tiny-float64"])
    def test_init_bytes_are_pinned(self, cfg, dtype, digest):
        # Every tensor's bytes in checkpoint order; a changed draw order,
        # fan-in or cast changes the digest.
        params = md.init_model(cfg, dtype=dtype)
        data = b"".join(t.data.tobytes() for _, t in params.named_tensors())
        assert hashlib.sha256(data).hexdigest() == digest

    def test_d_and_gain_start_at_one(self):
        params = md.init_model(cfg_for(md.BMACE, **TINY))
        assert np.all(params["block_a.D"].data == 1.0)
        assert np.all(params["block_b.norm_gain"].data == 1.0)


class TestForward:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.x = nm.tensor(self.rng.standard_normal((10, 144)), dtype=nm.HIGH)

    def _params(self, cfg):
        return md.init_model(cfg, dtype=nm.HIGH)

    def test_logit_shapes(self):
        for variant in md.VARIANTS:
            cfg = cfg_for(variant, n_classes=25, **TINY)
            logits = md.forward(self._params(cfg), cfg, self.x)
            assert logits.shape == (10, 25)

    def test_variants_disagree(self):
        outs = {}
        for variant in md.VARIANTS:
            cfg = cfg_for(variant, n_classes=25, **TINY)
            outs[variant] = md.forward(self._params(cfg), cfg, self.x).data
        assert np.max(np.abs(outs[md.BMACE] - outs[md.MACE_H])) > 1e-8
        # mace-v has a different head width; shapes alone distinguish it.

    def test_bmace_block_swap_symmetry(self):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        params = self._params(cfg)
        swapped = params.swap_blocks()
        lhs = md.forward(swapped, cfg, nm.reverse_time(self.x)).data
        rhs = nm.reverse_time(md.forward(params, cfg, self.x)).data
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_swap_blocks_twice_restores_names_order_and_bytes(self):
        params = self._params(cfg_for(md.BMACE, n_classes=25, **TINY))
        assert list(params.swap_blocks()) == list(params)
        twice = params.swap_blocks().swap_blocks()
        assert list(twice) == list(params)
        for name, t in params.items():
            assert twice[name].data.tobytes() == t.data.tobytes(), name

    def test_scan_impls_agree(self):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        params = self._params(cfg)
        x = nm.tensor(self.rng.standard_normal((140, 144)), dtype=nm.HIGH)
        a = md.forward(params, cfg, x, scan_impl="seq").data
        b = md.forward(params, cfg, x, scan_impl="assoc").data
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_predict_shape_and_tie_break(self):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        params = self._params(cfg)
        zeroed = md.ModelParams((name, nm.Tensor(np.zeros_like(t.data))) for name, t in params.items())
        preds = md.predict(zeroed, cfg, self.x)
        # All logits identical: ties resolve to the smallest class id.
        assert preds.shape == (10,)
        assert np.all(preds == 0)

    def test_wrong_input_width_rejected(self):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        with pytest.raises(nm.ShapeError):
            md.forward(self._params(cfg), cfg, nm.tensor(np.zeros((5, 100))))

    def test_gradcheck_tiny_bmace(self):
        assert model_gradcheck(md.BMACE, seed=0) <= REL_TOLERANCE


class TestFlops:
    def test_exact_linearity(self):
        cfg = cfg_for(md.BMACE)
        assert md.count_flops(cfg, 216) == 2 * md.count_flops(cfg, 108)
        assert md.count_flops(cfg, 1024) == 2 * md.count_flops(cfg, 512)

    def test_hand_tally_tiny(self):
        # Independent stage-by-stage tally: d=4, e=4, n=2, r=2, k=2, C=3, L=2.
        cfg = cfg_for(md.MACE_V, n_classes=3, **TINY)
        d = e = 4
        n, r, k, C, L = 2, 2, 2, 3, 2
        fc_in = 2 * 144 * d + d                      # 1156 per frame
        rms = 4 * d + 10
        in_proj = 2 * d * 2 * e
        conv = e * (2 * k + 1)
        silu_branch = 9 * e
        x_proj = 2 * e * (r + 2 * n)
        dt_proj = 2 * r * e + e
        softplus_delta = 17 * e
        abar = 9 * e * n
        bbar_u = e + e * n
        update = 2 * e * n
        readout = 2 * e * n + 2 * e
        gate = 10 * e
        out_proj = 2 * e * d
        residual = d
        block = (rms + in_proj + conv + silu_branch + x_proj + dt_proj +
                 softplus_delta + abar + bbar_u + update + readout + gate +
                 out_proj + residual)
        head = 2 * d * C + C
        want = L * (fc_in + 2 * block + head)
        assert md.count_flops(cfg, L) == want

    def test_default_bmace_gflops_order_of_magnitude(self):
        # Reported alongside the published 0.0261 GFlops for a 108-frame
        # window; conventions differ, so only the magnitude is pinned.
        cfg = cfg_for(md.BMACE, n_classes=25)
        gflops = md.count_flops(cfg, 108) / 1e9
        assert 0.005 < gflops < 0.26


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        params = md.init_model(cfg)  # STANDARD precision
        base = tmp_path / "ckpt"
        md.save_checkpoint(base, cfg, params, extra_meta={"note": "test"})
        cfg2, params2, meta = md.load_checkpoint(base)
        assert cfg2 == cfg
        assert meta["note"] == "test"
        for (name, t1), (_, t2) in zip(params.named_tensors(), params2.named_tensors()):
            assert np.array_equal(t1.data, t2.data), name

    def test_shuffled_manifest_loads_in_shape_table_order(self, tmp_path):
        # Training concatenates tensors in ModelParams order, so a loaded
        # checkpoint must follow tensor_shapes, not its manifest's order.
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        base = tmp_path / "ckpt"
        md.save_checkpoint(base, cfg, md.init_model(cfg))
        blob = tensorio.blob_path(base).read_bytes()
        manifest_file = tensorio.manifest_path(base)
        manifest = json.loads(manifest_file.read_text())
        random.Random(3).shuffle(manifest["tensors"])
        assert [rec["name"] for rec in manifest["tensors"]] != list(md.tensor_shapes(cfg))
        manifest_file.write_text(json.dumps(manifest))
        cfg2, params, _ = md.load_checkpoint(base)
        assert [(name, t.shape) for name, t in params.named_tensors()] == list(
            md.tensor_shapes(cfg).items())
        md.save_checkpoint(tmp_path / "again", cfg2, params)
        assert tensorio.blob_path(tmp_path / "again").read_bytes() == blob

    def test_overlapping_records_rejected(self, tmp_path):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        base = tmp_path / "ckpt"
        md.save_checkpoint(base, cfg, md.init_model(cfg))
        manifest_file = tensorio.manifest_path(base)
        manifest = json.loads(manifest_file.read_text())
        assert manifest["tensors"][0]["name"] == "fc_in"
        next(rec for rec in manifest["tensors"] if rec["name"] == "fc_bias")["offset"] = 0
        manifest_file.write_text(json.dumps(manifest))
        with pytest.raises(tensorio.BlobFormatError) as exc:
            tensorio.read_tensors(base)
        assert "'fc_in'" in str(exc.value) and "'fc_bias'" in str(exc.value)
        assert "overlap in the blob" in str(exc.value)

    @pytest.mark.parametrize("index, field, value", [
        (0, "name", ["fc_in"]), (0, "name", 7), (1, "name", "fc_in"),
        (1, "shape", [-1]), (1, "shape", [-3]), (1, "shape", [2.7]), (0, "shape", [True, 2]),
        (1, "offset", -8), (1, "offset", True), (1, "offset", 8.0),
    ], ids=["name-list", "name-int", "name-repeated", "dim-minus-1", "dim-minus-3",
            "dim-float", "dim-bool", "offset-negative", "offset-bool", "offset-float"])
    def test_tensor_record_fields_are_checked(self, tmp_path, index, field, value):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        base = tmp_path / "ckpt"
        md.save_checkpoint(base, cfg, md.init_model(cfg))
        manifest_file = tensorio.manifest_path(base)
        manifest = json.loads(manifest_file.read_text())
        record = manifest["tensors"][index]
        record[field] = value
        manifest_file.write_text(json.dumps(manifest))
        with pytest.raises(tensorio.BlobFormatError) as exc:
            tensorio.read_tensors(base)
        assert repr(record) in str(exc.value)

    def test_blob_length_validated(self, tmp_path):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        base = tmp_path / "ckpt"
        md.save_checkpoint(base, cfg, md.init_model(cfg))
        blob = tensorio.blob_path(base)
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(tensorio.BlobFormatError):
            md.load_checkpoint(base)

    def test_blob_digest_validated(self, tmp_path):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        base = tmp_path / "ckpt"
        md.save_checkpoint(base, cfg, md.init_model(cfg))
        blob = tensorio.blob_path(base)
        data = bytearray(blob.read_bytes())
        data[len(data) // 2] ^= 0x01
        blob.write_bytes(bytes(data))
        with pytest.raises(tensorio.BlobFormatError, match="SHA-256"):
            md.load_checkpoint(base)

    def test_container_without_digest_rejected(self, tmp_path):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        base = tmp_path / "ckpt"
        md.save_checkpoint(base, cfg, md.init_model(cfg))
        manifest_file = tensorio.manifest_path(base)
        manifest = json.loads(manifest_file.read_text())
        del manifest["blob_sha256"]
        manifest_file.write_text(json.dumps(manifest))
        with pytest.raises(tensorio.BlobFormatError, match="SHA-256"):
            md.load_checkpoint(base)

    def test_unknown_tensor_rejected(self, tmp_path):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        named = [(name, t.data) for name, t in md.init_model(cfg).named_tensors()]
        named.append(("block_a.in_bias", np.zeros(2 * cfg.d_inner, dtype=np.float32)))
        base = tmp_path / "ckpt"
        tensorio.write_tensors(base, {"config": cfg.to_dict()}, named)
        with pytest.raises(tensorio.BlobFormatError, match="block_a.in_bias"):
            md.load_checkpoint(base)

    def test_missing_tensor_is_named(self, tmp_path):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        named = [(name, t.data) for name, t in md.init_model(cfg).named_tensors()
                 if name != "block_b.D"]
        base = tmp_path / "ckpt"
        tensorio.write_tensors(base, {"config": cfg.to_dict()}, named)
        with pytest.raises(tensorio.BlobFormatError, match="block_b.D"):
            md.load_checkpoint(base)

    @pytest.mark.parametrize("field, tensor", [
        ("d_model", "fc_in"), ("expand", "block_a.in_proj"),
        ("n_state", "block_a.x_proj"), ("dt_rank", "block_a.x_proj"),
        ("conv_k", "block_a.conv_w"), ("n_classes", "head"),
    ])
    def test_tensor_shape_must_match_config(self, tmp_path, field, tensor):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        other = md.ModelConfig.from_dict({**cfg.to_dict(), field: getattr(cfg, field) + 1})
        named = [(name, t.data) for name, t in md.init_model(cfg).named_tensors()]
        base = tmp_path / "ckpt"
        tensorio.write_tensors(base, {"config": other.to_dict()}, named)
        with pytest.raises(tensorio.BlobFormatError, match=rf"'{tensor}' has shape"):
            md.load_checkpoint(base)

    def test_serialized_element_count_matches_count_params(self, tmp_path):
        cfg = cfg_for(md.MACE_H, n_classes=170, **TINY)
        base = tmp_path / "ckpt"
        md.save_checkpoint(base, cfg, md.init_model(cfg))
        _, arrays = tensorio.read_tensors(base)
        assert sum(a.size for a in arrays.values()) == md.count_params(cfg)

    def test_wrong_format_tag_rejected(self, tmp_path):
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        base = tmp_path / "ckpt"
        md.save_checkpoint(base, cfg, md.init_model(cfg))
        manifest_file = tensorio.manifest_path(base)
        manifest = json.loads(manifest_file.read_text())
        manifest["format"] = "bmace-feat-1"
        manifest_file.write_text(json.dumps(manifest))
        with pytest.raises(tensorio.BlobFormatError, match="bmace-feat-1"):
            md.load_checkpoint(base)

    def test_other_input_width_rejected(self, tmp_path):
        # The config cannot choose the input width: a checkpoint that records
        # 128 bins and stores a matching fc_in fails the fc_in shape check.
        cfg = cfg_for(md.BMACE, n_classes=25, **TINY)
        named = [(name, np.zeros((128, cfg.d_model)) if name == "fc_in" else t.data)
                 for name, t in md.init_model(cfg).named_tensors()]
        base = tmp_path / "ckpt"
        tensorio.write_tensors(base, {"config": {**cfg.to_dict(), "n_bins": 128}}, named)
        with pytest.raises(tensorio.BlobFormatError, match=r"'fc_in' has shape \(128, 4\)"):
            md.load_checkpoint(base)
