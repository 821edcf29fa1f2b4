"""Chord-estimation model variants built from selective-state-space blocks.

All three variants share the trunk: an input projection maps each CQT frame
(144 log-magnitude bins) to d_model features, exactly two Mamba blocks do the
sequence modelling, and a linear head emits per-frame class logits.

  mace-v  the two blocks run forward in time, stacked in sequence, each with
          a residual connection; the head reads d_model features.
  mace-h  the two blocks run forward in time, side by side on the same
          input, each with a residual; their outputs are concatenated, so
          the head reads 2*d_model features.
  bmace   like mace-h, but the second block runs backward in time, giving
          the head a view of both past and future context at every frame.
          ``forward`` wires that branch, residual included, as
          reverse_time(run(block_b, reverse_time(h0))).

FLOP accounting convention: a multiply-accumulate costs 2, plain elementwise
ops cost 1, and exp/sigmoid/ln/sqrt cost 8 each. Time reversal and
concatenation are data movement (0). A = -exp(A_log) depends only on
parameters and is counted as parameter preprocessing (0), which keeps the
count exactly linear in sequence length.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensorio
from .features import N_BINS
from .mamba import mamba_block
from .numerics import (
    STANDARD,
    ShapeError,
    Tensor,
    add,
    add_bias,
    concat_features,
    matmul,
    reverse_time,
)

MACE_V = "mace-v"
MACE_H = "mace-h"
BMACE = "bmace"
VARIANTS = (MACE_V, MACE_H, BMACE)


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    n_classes: int
    d_model: int = 128
    n_state: int = 16
    dt_rank: int = 8
    conv_k: int = 4
    expand: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for f in fields(self):  # types are strings under `from __future__ import annotations`
            value = getattr(self, f.name)
            if f.type == "int" and (not isinstance(value, numbers.Integral) or isinstance(value, bool)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be at least 2, got {self.n_classes}")
        for field in ("d_model", "n_state", "dt_rank", "conv_k", "expand"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be positive, got {getattr(self, field)}")

    @property
    def n_bins(self) -> int:
        """Input width: every variant reads the same CQT frames."""
        return N_BINS

    @property
    def d_inner(self) -> int:
        return self.expand * self.d_model

    @property
    def head_in(self) -> int:
        return self.d_model if self.variant == MACE_V else 2 * self.d_model

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of ``to_dict``; other keys, such as older checkpoints' n_bins, are ignored."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a mapping, got {type(d).__name__}")
        return cls(**{f.name: d[f.name] for f in fields(cls)})


class ModelParams(dict):
    """Parameter name -> Tensor, in ``tensor_shapes`` order.

    The order is the tensor order of a checkpoint and of training's
    parameter vector; ``init_model``, ``load_checkpoint`` and training
    build their params in it. The two blocks' tensors are named
    ``block_a.<name>`` and ``block_b.<name>``.
    """

    def named_tensors(self):
        """(name, Tensor) pairs in order."""
        return self.items()

    def block(self, prefix: str) -> dict[str, Tensor]:
        """One block's tensors under their short names, as ``mamba_block`` reads them."""
        return {name[len(prefix):]: t for name, t in self.items() if name.startswith(prefix)}

    def swap_blocks(self) -> "ModelParams":
        """Exchange the two blocks and the matching halves of the head rows; order is kept."""
        head = self["head"]
        half = head.shape[0] // 2
        if 2 * half != head.shape[0]:
            raise ShapeError("swap_blocks needs a concatenated (two-block) head")
        out = ModelParams(self)
        for src, dst in (("block_a.", "block_b."), ("block_b.", "block_a.")):
            out.update((dst + name, t) for name, t in self.block(src).items())
        out["head"] = Tensor(np.concatenate([head.data[half:], head.data[:half]], axis=0),
                             dtype=head.dtype)
        return out


# params_from_dict(tensors) is ModelParams(tensors): give it the tensors in
# tensor_shapes order.
params_from_dict = ModelParams


# --------------------------------------------------------------------------
# Initialization

def _draw(rng: np.random.Generator, kind: str, shape: tuple, fan_in: dict) -> np.ndarray:
    if kind == "dt_bias":
        # Step sizes start log-uniform in [0.001, 0.1]; dt_bias is the softplus
        # preimage so softplus(dt_bias) lands exactly there.
        dt = np.exp(rng.uniform(math.log(1e-3), math.log(1e-1), size=shape))
        return dt + np.log(-np.expm1(-dt))
    if kind == "A_log":
        return np.log(np.tile(np.arange(1.0, shape[1] + 1.0), (shape[0], 1)))
    if kind in ("D", "norm_gain"):
        return np.ones(shape)
    bound = 1.0 / math.sqrt(fan_in[kind])
    return rng.uniform(-bound, bound, size=shape)


def init_model(cfg: ModelConfig, dtype=STANDARD) -> ModelParams:
    """Seeded initialization; the same seed always gives bit-identical params.

    Tensors are drawn one by one in ``tensor_shapes`` order. Weights and
    biases draw from uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)). Exceptions:
    A_log[c,j] = ln(j+1), dt_bias is the softplus preimage of a log-uniform
    step size in [0.001, 0.1], and D and norm gains start at one. Draws
    happen in float64 and are then cast.
    """
    fan_in = {"fc_in": cfg.n_bins, "fc_bias": cfg.n_bins,
              "in_proj": cfg.d_model, "conv_w": cfg.conv_k, "conv_b": cfg.conv_k,
              "x_proj": cfg.d_inner, "dt_proj": cfg.dt_rank, "out_proj": cfg.d_inner,
              "head": cfg.head_in, "head_bias": cfg.head_in}
    rng = np.random.default_rng(cfg.seed)
    return ModelParams(
        (name, Tensor(_draw(rng, name.rpartition(".")[2], shape, fan_in), dtype=dtype))
        for name, shape in tensor_shapes(cfg).items())


# --------------------------------------------------------------------------
# Forward

def forward(params: ModelParams, cfg: ModelConfig, x: Tensor,
            scan_impl: str = "seq") -> Tensor:
    """Per-frame class logits for one (L, n_bins) feature sequence.

    Training and inference run the sequential scan (``scan_impl="seq"``);
    ``"assoc"`` is the reference evaluator the acceptance gate compares
    against.
    """
    if x.data.ndim != 2 or x.shape[1] != cfg.n_bins:
        raise ShapeError(f"input must be (L, {cfg.n_bins}), got {x.shape}")
    h0 = add_bias(matmul(x, params["fc_in"]), params["fc_bias"])
    block_a, block_b = params.block("block_a."), params.block("block_b.")

    def run(block, src):
        return add(src, mamba_block(src, block, scan_impl=scan_impl))

    if cfg.variant == MACE_V:
        feats = run(block_b, run(block_a, h0))
    elif cfg.variant == MACE_H:
        feats = concat_features(run(block_a, h0), run(block_b, h0))
    else:  # bmace: the second block reads time reversed
        feats = concat_features(run(block_a, h0), reverse_time(run(block_b, reverse_time(h0))))
    return add_bias(matmul(feats, params["head"]), params["head_bias"])


# --------------------------------------------------------------------------
# Accounting

def tensor_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter tensor the config implies, in checkpoint order.

    This is the one statement of the parameter layout, names and order
    included: ``init_model`` draws to it, ``count_params`` sums it,
    ``load_checkpoint`` checks against it, training slices its parameter
    vector by it, and ``ModelParams`` keeps its order. A block tensor is
    named ``<block>.<name>``; ``ModelParams.block`` strips the prefix for
    ``mamba_block``.
    """
    d, e, n, r, k = cfg.d_model, cfg.d_inner, cfg.n_state, cfg.dt_rank, cfg.conv_k
    block = {"in_proj": (d, 2 * e), "conv_w": (e, k), "conv_b": (e,),
             "x_proj": (e, r + 2 * n), "dt_proj": (r, e), "dt_bias": (e,),
             "A_log": (e, n), "D": (e,), "out_proj": (e, d), "norm_gain": (d,)}
    shapes = {"fc_in": (cfg.n_bins, d), "fc_bias": (d,)}
    for prefix in ("block_a.", "block_b."):
        shapes.update((prefix + name, shape) for name, shape in block.items())
    shapes["head"] = (cfg.head_in, cfg.n_classes)
    shapes["head_bias"] = (cfg.n_classes,)
    return shapes


def count_params(cfg: ModelConfig) -> int:
    """Parameter count the config's tensor shapes imply; matches init_model exactly."""
    return sum(math.prod(shape) for shape in tensor_shapes(cfg).values())


def count_flops(cfg: ModelConfig, n_frames: int) -> int:
    """Analytic FLOPs of one forward pass over n_frames (see module docstring).

    Every stage costs a fixed amount per frame, so the total is exactly
    linear in n_frames.
    """
    if n_frames < 1:
        raise ValueError(f"need at least one frame, got {n_frames}")
    d, e, n, r, k = cfg.d_model, cfg.d_inner, cfg.n_state, cfg.dt_rank, cfg.conv_k
    L = n_frames
    per_frame_block = (
        4 * d + 10            # rmsnorm: square d, sum d, mean+eps 2, sqrt 8, divide d, gain d
        + 2 * d * (2 * e)     # in_proj matmul
        + e * (2 * k + 1)     # depthwise conv MACs + bias
        + 9 * e               # silu on the state branch
        + 2 * e * (r + 2 * n)  # x_proj matmul
        + 2 * r * e + e       # dt_proj matmul + dt_bias
        + 17 * e              # softplus(delta): exp 8 + add 1 + ln 8
        + 9 * e * n           # Abar = exp(delta*A): mul 1 + exp 8
        + e + e * n           # Bbar*u: delta*u, then outer product with B
        + 2 * e * n           # state update h = Abar*h + Bbar*u
        + 2 * e * n + 2 * e   # output C.h + D*u
        + 10 * e              # gate: silu(z) 9 + elementwise product 1
        + 2 * e * d           # out_proj matmul
        + d                   # residual add
    )
    per_frame = (2 * cfg.n_bins * d + d            # fc_in + bias
                 + 2 * per_frame_block             # exactly two blocks
                 + 2 * cfg.head_in * cfg.n_classes + cfg.n_classes)  # head + bias
    return L * per_frame


# --------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(path, cfg: ModelConfig, params: ModelParams,
                    extra_meta: dict | None = None) -> tuple:
    """Write params to <base>.json + <base>.bin."""
    meta = {"config": cfg.to_dict()}
    if extra_meta:
        meta.update(extra_meta)
    named = ((name, t.data) for name, t in params.items())
    return tensorio.write_tensors(path, meta, named)


def load_checkpoint(path) -> tuple[ModelConfig, ModelParams, dict]:
    """Read a checkpoint; params come back in STANDARD precision and ``tensor_shapes`` order.

    Every tensor the stored config implies must be present, with that shape
    and finite values, and no other tensor may be.
    """
    meta, arrays = tensorio.read_tensors(path)
    cfg = ModelConfig.from_dict(meta["config"])
    expected = tensor_shapes(cfg)
    unknown = sorted(set(arrays) - set(expected))
    if unknown:
        raise tensorio.BlobFormatError(f"checkpoint holds unknown tensors {unknown}")
    for name, shape in expected.items():
        if name not in arrays:
            raise tensorio.BlobFormatError(f"checkpoint lacks tensor {name!r}")
        arr = arrays[name]
        if arr.shape != shape:
            raise tensorio.BlobFormatError(
                f"checkpoint tensor {name!r} has shape {arr.shape}, config implies {shape}")
        if not np.all(np.isfinite(arr)):
            raise tensorio.BlobFormatError(f"checkpoint tensor {name!r} holds non-finite values")
    params = ModelParams((name, Tensor(arrays[name], dtype=STANDARD)) for name in expected)
    return cfg, params, meta
