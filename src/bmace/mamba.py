"""Selective state-space scan and the gated Mamba block.

The recurrence is diagonal per (channel, state) pair:

    h[t] = Abar[t] * h[t-1] + Bbar[t] * u[t]
    y[t,c] = sum_j C[t,j] * h[t,c,j] + D[c] * u[t,c]

with input-dependent (selective) step sizes and projections:
Abar[t,c,j] = exp(delta[t,c] * A[c,j]) (zero-order hold) and
Bbar[t,c,j] = delta[t,c] * B[t,j] (simplified Euler rule). A is kept
strictly negative through the A = -exp(A_log) parameterization, so every
Abar entry lies in (0,1) and the hidden state stays bounded.

Two scan evaluators are provided. The sequential one ("seq") is what
training and inference run: one in-place pass over time, with the state
written over the Bbar*u buffer. The chunked associative scan ("assoc"),
built on the first-order-recurrence combinator
(a,b) o (a',b') = (a*a', a'*b + b'), is kept as the reference the
acceptance gate checks the sequential scan against. They agree to within
roundoff and both back-propagate through a hand-derived adjoint (itself a
reverse-time linear recurrence, run by the same evaluator).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
    reverse_time,
    rmsnorm,
    silu,
    slice_cols,
    softplus,
)

RMSNORM_EPS = 1e-5
ASSOC_CHUNK = 64

FORWARD = "forward"
BACKWARD = "backward"


def linear_recurrence(a: np.ndarray, b: np.ndarray, impl: str = "seq") -> np.ndarray:
    """h[t] = a[t] * h[t-1] + b[t] elementwise over trailing axes, h[-1] = 0.

    h overwrites b, which is returned; b may be a view, such as a
    time-reversed one. impl="seq" walks time once; impl="assoc" runs a
    chunked inclusive scan with the associative combinator inside each
    ASSOC_CHUNK-frame chunk and combines chunks left to right, which keeps
    results bit-stable across sequence lengths.
    """
    if a.shape != b.shape:
        raise ShapeError(f"linear_recurrence needs equal shapes, got {a.shape} and {b.shape}")
    L = a.shape[0]
    if impl == "seq":
        step = np.empty(b.shape[1:], dtype=b.dtype)
        for t in range(1, L):
            np.multiply(a[t], b[t - 1], out=step)
            b[t] += step
        return b
    if impl != "assoc":
        raise ValueError(f"unknown scan implementation {impl!r}")
    carry = np.zeros(b.shape[1:], dtype=b.dtype)
    for s in range(0, L, ASSOC_CHUNK):
        a_c = a[s:s + ASSOC_CHUNK].copy()
        b_c = b[s:s + ASSOC_CHUNK].copy()
        T = a_c.shape[0]
        off = 1
        while off < T:
            # prefix[t] = prefix[t-off] o prefix[t]; b first, it reads the old a.
            b_c[off:] += a_c[off:] * b_c[:-off]
            a_c[off:] *= a_c[:-off]
            off <<= 1
        a_c *= carry
        a_c += b_c
        b[s:s + T] = a_c
        carry = a_c[T - 1]
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

    u_d, delta_d, B_d, C_d, A_d, D_d = u.data, delta.data, B.data, C.data, A.data, D.data
    # Discretize: Abar = exp(delta * A), Bbar * u = delta * u * B. The state
    # h is written over the Bbar * u buffer.
    abar = delta_d[:, :, None] * A_d[None, :, :]
    np.exp(abar, out=abar)
    du = delta_d * u_d
    h = du[:, :, None] * B_d[:, None, :]
    linear_recurrence(abar, h, impl=impl)
    y = (h @ C_d[:, :, None])[:, :, 0] + D_d[None, :] * u_d
    out = Tensor._wrap(y)

    def vjp(gy):
        # Adjoint of the recurrence: gh[t] = v[t] + Abar[t+1] * gh[t+1] with
        # v[t] = gy[t] x C[t]. q[t] = Abar[t] * gh[t] obeys the reverse-time
        # recurrence q[t] = Abar[t] * q[t+1] + Abar[t] * v[t], whose
        # coefficients line up with Abar, so it runs on reversed views.
        gh = gy[:, :, None] * C_d[:, None, :]
        q = abar * gh
        linear_recurrence(abar[::-1], q[::-1], impl=impl)
        gh[:-1] += q[1:]
        # dLoss/dAbar[t] * Abar[t] = gh[t] * h[t-1] * Abar[t] = q[t] * h[t-1],
        # zero at t = 0 where h[-1] = 0; shared by gdelta and gA.
        g_log_abar = q[1:]
        g_log_abar *= h[:-1]
        g_du = (gh @ B_d[:, :, None])[:, :, 0]
        gu = g_du * delta_d + gy * D_d[None, :]
        gdelta = g_du * u_d
        gdelta[1:] += np.einsum("tdn,dn->td", g_log_abar, A_d)
        gB = (du[:, None, :] @ gh)[:, 0, :]
        gC = (gy[:, None, :] @ h)[:, 0, :]
        gA = np.einsum("tdn,td->dn", g_log_abar, delta_d[1:])
        gD = (gy * u_d).sum(axis=0)
        return gu, gdelta, gB, gC, gA, gD

    record_op(out, (u, delta, B, C, A, D), vjp)
    return out


def selective_scan_seq(inputs: ScanInputs, A: Tensor, D: Tensor) -> Tensor:
    """Reference sequential evaluation of the selective scan."""
    return _scan(inputs, A, D, impl="seq")


def selective_scan_assoc(inputs: ScanInputs, A: Tensor, D: Tensor) -> Tensor:
    """Chunked associative-scan evaluation; equal to the sequential scan."""
    return _scan(inputs, A, D, impl="assoc")


@dataclass
class MambaBlockParams:
    """Parameters of one gated selective-state-space block.

    Shapes (d = d_model, e = d_inner, n = state size, r = step-size rank,
    k = conv width): in_proj (d, 2e), conv_w (e, k), conv_b (e,),
    x_proj (e, r+2n), dt_proj (r, e), dt_bias (e,), A_log (e, n), D (e,),
    out_proj (e, d), norm_gain (d,). As in the Mamba block, the input and
    output projections carry no bias. ``named_tensors`` yields the fields
    in declaration order, which is the tensor order of a checkpoint.
    """

    in_proj: Tensor
    conv_w: Tensor
    conv_b: Tensor
    x_proj: Tensor
    dt_proj: Tensor
    dt_bias: Tensor
    A_log: Tensor
    D: Tensor
    out_proj: Tensor
    norm_gain: Tensor

    def __post_init__(self):
        d, two_e = self.in_proj.shape
        e, k = self.conv_w.shape
        if two_e != 2 * e:
            raise ShapeError(f"in_proj {self.in_proj.shape} inconsistent with conv_w {self.conv_w.shape}")
        n = self.A_log.shape[1]
        r = self.dt_proj.shape[0]
        expect = {
            "conv_b": (e,), "x_proj": (e, r + 2 * n), "dt_proj": (r, e),
            "dt_bias": (e,), "A_log": (e, n), "D": (e,), "out_proj": (e, d),
            "norm_gain": (d,),
        }
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ShapeError(f"{name} must have shape {shape}, got {got}")

    @property
    def d_model(self) -> int:
        return self.in_proj.shape[0]

    @property
    def d_inner(self) -> int:
        return self.conv_w.shape[0]

    @property
    def n_state(self) -> int:
        return self.A_log.shape[1]

    @property
    def dt_rank(self) -> int:
        return self.dt_proj.shape[0]

    def named_tensors(self, prefix: str = ""):
        for f in fields(self):
            yield prefix + f.name, getattr(self, f.name)


def mamba_block(x: Tensor, params: MambaBlockParams, direction: str = FORWARD,
                scan_impl: str = "seq") -> Tensor:
    """One gated selective-scan block, (L, d_model) in and out.

    Pipeline: optional time reversal -> RMSNorm -> input projection split
    into a state branch and a gate -> causal depthwise conv -> SiLU ->
    data-dependent (delta, B, C) -> selective scan -> SiLU-gated product ->
    output projection -> undo the reversal. direction="backward" is exactly
    reverse_time(forward(reverse_time(x))) with the same parameters.
    scan_impl picks the scan evaluator: "seq" runs, "assoc" is the
    reference it is checked against.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be {FORWARD!r} or {BACKWARD!r}, got {direction!r}")
    if x.data.ndim != 2 or x.shape[1] != params.d_model:
        raise ShapeError(f"block input must be (L,{params.d_model}), got {x.shape}")
    if direction == BACKWARD:
        x = reverse_time(x)

    e, n, r = params.d_inner, params.n_state, params.dt_rank
    normed = rmsnorm(x, params.norm_gain, eps=RMSNORM_EPS)
    proj = matmul(normed, params.in_proj)
    branch = slice_cols(proj, 0, e)
    gate = slice_cols(proj, e, 2 * e)

    u = silu(conv1d_depthwise(branch, params.conv_w, params.conv_b))
    dbc = matmul(u, params.x_proj)
    dt_low = slice_cols(dbc, 0, r)
    B = slice_cols(dbc, r, r + n)
    C = slice_cols(dbc, r + n, r + 2 * n)
    delta = softplus(add_bias(matmul(dt_low, params.dt_proj), params.dt_bias))

    A = mul(exp(params.A_log), -1.0)
    scan = ScanInputs(u=u, delta=delta, B=B, C=C)
    y = _scan(scan, A, params.D, impl=scan_impl)

    gated = mul(y, silu(gate))
    out = matmul(gated, params.out_proj)
    if direction == BACKWARD:
        out = reverse_time(out)
    return out
