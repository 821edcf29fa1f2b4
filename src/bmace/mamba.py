"""Selective state-space scan and the gated Mamba block.

The recurrence is diagonal per (channel, state) pair:

    h[t] = Abar[t] * h[t-1] + Bbar[t] * u[t]
    y[t,c] = sum_j C[t,j] * h[t,c,j] + D[c] * u[t,c]

with input-dependent (selective) step sizes and projections:
Abar[t,c,j] = exp(delta[t,c] * A[c,j]) (zero-order hold) and
Bbar[t,c,j] = delta[t,c] * B[t,j] (simplified Euler rule). A is kept
strictly negative through the A = -exp(A_log) parameterization, so every
Abar entry lies in (0,1) and the hidden state stays bounded.

The scan works through time in chunks of SCAN_CHUNK frames, with the
state held in (time, state, channel) layout so that the channel axis is
innermost in every product. Per chunk it discretizes, adds Abar times the
previous chunk's last state to the first frame, runs the recurrence and
reads out C.h, so each chunk's operands stay in cache. While a tape
records, every chunk's Abar and h are kept for the adjoint, which walks
the chunks in reverse and recomputes nothing; otherwise one chunk of
state buffers is reused and only the carry row outlives its chunk.

Two evaluators run the recurrence inside each chunk. The sequential one
("seq") is what training and inference run: one in-place pass over time,
with the state written over the Bbar*u buffer. The associative scan
("assoc"), a log-depth inclusive scan with the first-order-recurrence
combinator (a,b) o (a',b') = (a*a', a'*b + b'), is kept as the reference
the acceptance gate checks the sequential scan against. They agree to
within roundoff and both back-propagate through a hand-derived adjoint
(itself a reverse-time linear recurrence, run by the same evaluator).

``mamba_block`` reads its parameters by name from a mapping. This module
states no parameter layout: ``model.tensor_shapes`` gives every block
tensor's name, shape and order.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .numerics import (
    ShapeError,
    Tensor,
    add_bias,
    conv1d_depthwise,
    exp,
    matmul,
    mul,
    record_op,
    recording,
    rmsnorm,
    silu,
    slice_cols,
    softplus,
)

RMSNORM_EPS = 1e-5
SCAN_CHUNK = 32


def linear_recurrence(a: np.ndarray, b: np.ndarray, impl: str = "seq") -> np.ndarray:
    """h[t] = a[t] * h[t-1] + b[t] elementwise over trailing axes, h[-1] = 0.

    h overwrites b, which is returned; b may be a view, such as a
    time-reversed one. impl="seq" walks time once; impl="assoc" runs a
    log-depth inclusive scan with the associative combinator on a copy of
    a. Row t of the scan is final once the offset passes t, so its
    results are bit-stable across sequence lengths.
    """
    if a.shape != b.shape:
        raise ShapeError(f"linear_recurrence needs equal shapes, got {a.shape} and {b.shape}")
    if impl == "seq":
        step = np.empty(b.shape[1:], dtype=b.dtype)
        prev = b[0]
        for a_t, b_t in zip(a[1:], b[1:]):
            np.multiply(a_t, prev, out=step)
            b_t += step
            prev = b_t
        return b
    if impl != "assoc":
        raise ValueError(f"unknown scan implementation {impl!r}")
    a = a.copy()
    off = 1
    while off < a.shape[0]:
        # prefix[t] = prefix[t-off] o prefix[t]; b first, it reads the old a.
        b[off:] += a[off:] * b[:-off]
        a[off:] *= a[:-off]
        off <<= 1
    return b


@dataclass(frozen=True)
class ScanInputs:
    """Per-frame scan operands: u, delta (both L x d_inner), B and C (L x n)."""

    u: Tensor
    delta: Tensor
    B: Tensor
    C: Tensor

    def __post_init__(self):
        u, delta, B, C = self.u, self.delta, self.B, self.C
        if u.data.ndim != 2 or delta.shape != u.shape:
            raise ShapeError(f"u and delta must share shape (L,d), got {u.shape} and {delta.shape}")
        if B.data.ndim != 2 or C.data.ndim != 2 or B.shape != C.shape or B.shape[0] != u.shape[0]:
            raise ShapeError(f"B and C must share shape (L,n), got {B.shape} and {C.shape}")
        if u.shape[0] < 1:
            raise ShapeError("scan needs at least one frame")
        if not np.all(delta.data > 0):
            raise ValueError("delta must be strictly positive")


def _scan(inputs: ScanInputs, A: Tensor, D: Tensor, impl: str) -> Tensor:
    u, delta, B, C = inputs.u, inputs.delta, inputs.B, inputs.C
    L, d = u.shape
    n = B.shape[1]
    if A.shape != (d, n):
        raise ShapeError(f"A must be ({d},{n}), got {A.shape}")
    if D.shape != (d,):
        raise ShapeError(f"D must be ({d},), got {D.shape}")

    u_d, delta_d, B_d, C_d, D_d = u.data, delta.data, B.data, C.data, D.data
    A_t = np.ascontiguousarray(A.data.T)
    # Discretize: Abar = exp(delta * A), Bbar * u = delta * u * B, in
    # (time, state, channel) layout. The state h is written over the
    # Bbar * u buffer. A recording tape keeps every chunk for the adjoint;
    # otherwise one chunk-sized pair of buffers is reused.
    taped = recording()
    rows = L if taped else min(L, SCAN_CHUNK)
    abar = np.empty((rows, n, d), dtype=u_d.dtype)
    h = np.empty((rows, n, d), dtype=u_d.dtype)
    du = delta_d * u_d
    y = np.empty((L, d), dtype=u_d.dtype)
    last = np.zeros((n, d), dtype=u_d.dtype)
    for s in range(0, L, SCAN_CHUNK):
        e = min(s + SCAN_CHUNK, L)
        a_c, h_c = (abar[s:e], h[s:e]) if taped else (abar[:e - s], h[:e - s])
        np.einsum("td,nd->tnd", delta_d[s:e], A_t, out=a_c)
        np.exp(a_c, out=a_c)
        # Read before h_c is refilled: untaped, last is a row of it.
        carry = a_c[0] * last
        np.einsum("tn,td->tnd", B_d[s:e], du[s:e], out=h_c)
        h_c[0] += carry
        linear_recurrence(a_c, h_c, impl=impl)
        last = h_c[-1]
        y_c = y[s:e]
        np.matmul(C_d[s:e, None, :], h_c, out=y_c[:, None, :])
        y_c += D_d * u_d[s:e]
    out = Tensor._wrap(y)

    def vjp(gy):
        # Adjoint of the recurrence: gh[t] = v[t] + Abar[t+1] * gh[t+1] with
        # v[t] = C[t] x gy[t]. q[t] = Abar[t] * gh[t] obeys the reverse-time
        # recurrence q[t] = Abar[t] * q[t+1] + Abar[t] * v[t], whose
        # coefficients line up with Abar, so it runs on reversed views,
        # chunk by chunk from the end, carrying q at the following chunk's
        # first frame.
        g_du = np.empty((L, d), dtype=gy.dtype)
        gdelta = np.empty((L, d), dtype=gy.dtype)
        gB = np.empty((L, n), dtype=gy.dtype)
        gC = np.empty((L, n), dtype=gy.dtype)
        gA_t = np.zeros((n, d), dtype=gy.dtype)
        gh_buf = np.empty((min(L, SCAN_CHUNK), n, d), dtype=gy.dtype)
        q_buf = np.empty_like(gh_buf)
        q_next = np.zeros((n, d), dtype=gy.dtype)
        for s in reversed(range(0, L, SCAN_CHUNK)):
            e = min(s + SCAN_CHUNK, L)
            a_c, h_c, gh, q = abar[s:e], h[s:e], gh_buf[:e - s], q_buf[:e - s]
            np.einsum("tn,td->tnd", C_d[s:e], gy[s:e], out=gh)
            np.multiply(a_c, gh, out=q)
            q[-1] += a_c[-1] * q_next
            linear_recurrence(a_c[::-1], q[::-1], impl=impl)
            gh[:-1] += q[1:]
            gh[-1] += q_next
            q_next = q[0].copy()
            # dLoss/dAbar[t] * Abar[t] = gh[t] * h[t-1] * Abar[t] = q[t] * h[t-1],
            # zero at t = 0 where h[-1] = 0; shared by gdelta and gA.
            q[1:] *= h_c[:-1]
            q[0] *= h[s - 1] if s else 0.0
            np.matmul(B_d[s:e, None, :], gh, out=g_du[s:e, None, :])
            np.matmul(gh, du[s:e, :, None], out=gB[s:e, :, None])
            np.matmul(h_c, gy[s:e, :, None], out=gC[s:e, :, None])
            np.einsum("tnd,nd->td", q, A_t, out=gdelta[s:e])
            gA_t += np.einsum("tnd,td->nd", q, delta_d[s:e])
        gu = g_du * delta_d + gy * D_d[None, :]
        gdelta += g_du * u_d
        gD = (gy * u_d).sum(axis=0)
        return gu, gdelta, gB, gC, gA_t.T, gD

    record_op(out, (u, delta, B, C, A, D), vjp)
    return out


def selective_scan_seq(inputs: ScanInputs, A: Tensor, D: Tensor) -> Tensor:
    """Reference sequential evaluation of the selective scan."""
    return _scan(inputs, A, D, impl="seq")


def selective_scan_assoc(inputs: ScanInputs, A: Tensor, D: Tensor) -> Tensor:
    """Associative-scan evaluation inside each chunk; equal to the sequential scan."""
    return _scan(inputs, A, D, impl="assoc")


def mamba_block(x: Tensor, params: Mapping[str, Tensor], scan_impl: str = "seq") -> Tensor:
    """One gated selective-scan block, (L, d_model) in and out, forward in time.

    Pipeline: RMSNorm -> input projection split into a state branch and a
    gate -> causal depthwise conv -> SiLU -> data-dependent (delta, B, C)
    -> selective scan -> SiLU-gated product -> output projection.
    ``params`` maps one block's tensor names, such as ``in_proj`` and
    ``A_log``, to tensors of the shapes ``model.tensor_shapes`` gives them
    (``ModelParams.block`` yields this mapping). As in the Mamba block, the
    input and output projections carry no bias. scan_impl picks the scan
    evaluator: "seq" runs, "assoc" is the reference it is checked against.
    """
    d = params["in_proj"].shape[0]
    e, n = params["A_log"].shape
    r = params["dt_proj"].shape[0]
    if x.data.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"block input must be (L,{d}), got {x.shape}")

    # Each large intermediate is dropped after its last use, so an untaped
    # pass holds few (L, d_inner) arrays at once; a tape keeps what it needs.
    proj = matmul(rmsnorm(x, params["norm_gain"], eps=RMSNORM_EPS), params["in_proj"])
    branch = slice_cols(proj, 0, e)
    gate = slice_cols(proj, e, 2 * e)
    del proj
    u = silu(conv1d_depthwise(branch, params["conv_w"], params["conv_b"]))
    del branch
    dbc = matmul(u, params["x_proj"])
    dt_low = slice_cols(dbc, 0, r)
    B = slice_cols(dbc, r, r + n)
    C = slice_cols(dbc, r + n, r + 2 * n)
    del dbc
    delta = softplus(add_bias(matmul(dt_low, params["dt_proj"]), params["dt_bias"]))

    A = mul(exp(params["A_log"]), -1.0)
    y = _scan(ScanInputs(u=u, delta=delta, B=B, C=C), A, params["D"], impl=scan_impl)
    del u, delta, B, C
    return matmul(mul(y, silu(gate)), params["out_proj"])
