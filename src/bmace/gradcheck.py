"""Finite-difference verification of tape gradients.

Central differences with step h=1e-5 in float64, compared against the tape's
analytic gradients elementwise with relative error
|a - n| / max(|a|, |n|, 1e-8). Used by the test suite and the CLI gradcheck
command.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .numerics import HIGH, Tensor, grad

STEP = 1e-5
REL_TOLERANCE = 1e-4


def finite_difference_grads(
    loss_fn: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
) -> list[np.ndarray]:
    """Numeric gradient of loss_fn(params) for every element of every param."""
    grads = []
    params = list(params)
    for i, p in enumerate(params):
        if p.dtype != HIGH:
            raise TypeError("finite differences need HIGH precision parameters")
        flat = p.data.ravel()
        g = np.zeros(flat.shape, dtype=HIGH)
        for j in range(flat.size):
            vals = []
            for sign in (1.0, -1.0):
                bumped = flat.copy()
                bumped[j] += sign * STEP
                probe = list(params)
                probe[i] = Tensor(bumped.reshape(p.shape), dtype=HIGH)
                vals.append(loss_fn(probe).item())
            g[j] = (vals[0] - vals[1]) / (2.0 * STEP)
        grads.append(g.reshape(p.shape))
    return grads


def max_relative_error(analytic: Sequence[Tensor], numeric: Sequence[np.ndarray]) -> float:
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a.data), np.abs(n)), 1e-8)
        err = np.abs(a.data - n) / denom
        if err.size:
            worst = max(worst, float(err.max()))
    return worst


def check_gradients(
    loss_fn: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
) -> float:
    """Max relative error between tape and finite-difference gradients."""
    analytic = grad(lambda: loss_fn(params), params)
    numeric = finite_difference_grads(loss_fn, params)
    return max_relative_error(analytic, numeric)


def model_gradcheck(variant: str, seed: int = 0) -> float:
    """Finite-difference check of a full tiny model against the tape.

    Builds a small config (d_model=4, expand=2, n_state=2, dt_rank=2,
    conv_k=2, 3 classes) in HIGH precision, runs the training cross-entropy
    on six frames of random features and targets, the first one SKIP, and
    returns the worst relative error over every parameter element.
    """
    from .model import ModelConfig, ModelParams, forward, init_model
    from .numerics import mul
    from .training import SKIP, cross_entropy

    cfg = ModelConfig(variant=variant, n_classes=3, d_model=4, n_state=2,
                      dt_rank=2, conv_k=2, expand=2, seed=seed)
    params = init_model(cfg, dtype=HIGH)
    n_frames = 6
    rng = np.random.default_rng(seed + 1)
    x = Tensor(rng.standard_normal((n_frames, cfg.n_bins)))
    targets = rng.integers(0, cfg.n_classes, size=n_frames)
    targets[0] = SKIP  # exercise the skip path too
    names, tensors = list(params), list(params.values())

    def loss(ps):
        p = ModelParams(zip(names, ps))
        nll = cross_entropy(forward(p, cfg, x), targets)
        # The 1e-3 scale conditions the check, it does not weaken it: central
        # differences carry a noise floor of one ulp of the loss over 2h,
        # which for an O(1) loss (~1e-11) would swamp the absolute tolerance
        # implied by the 1e-8 denominator floor on structurally tiny
        # gradients. Scaling the loss scales gradients and noise together,
        # while relative errors on every sizable gradient are unchanged.
        return mul(nll, 1e-3)

    return check_gradients(loss, tensors)
