"""Dense tensors with tape-based reverse-mode differentiation.

The operation set is exactly what the chord models need: matrix products,
depthwise causal convolution, SiLU and softplus nonlinearities, RMS
normalization, time reversal, feature concatenation, and a few elementwise
and reduction helpers. The training loss records its own tape entry
(``training.cross_entropy``). Two precision modes are supported: HIGH
(float64, used by tests and oracles) and STANDARD (float32, used for
training).

Tensors are immutable once created; every operation allocates its output.
Broadcasting is deliberately restricted to scalar-with-tensor arithmetic and
per-channel bias/gain application, so shape mistakes fail loudly instead of
silently broadcasting.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

HIGH = np.dtype(np.float64)
STANDARD = np.dtype(np.float32)


class ShapeError(ValueError):
    """Raised when operand shapes do not satisfy an operation's contract."""


class Tensor:
    """Immutable dense array with row-major storage and a fixed float dtype."""

    __slots__ = ("data",)

    def __init__(self, values, dtype=None):
        if dtype is None:
            src = np.asarray(values)
            dtype = src.dtype if src.dtype in (HIGH, STANDARD) else HIGH
        dtype = np.dtype(dtype)
        if dtype not in (HIGH, STANDARD):
            raise TypeError(f"unsupported dtype {dtype}; use HIGH or STANDARD")
        arr = np.array(values, dtype=dtype, order="C")
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal: adopt an array the caller owns, without copying.
        t = object.__new__(cls)
        a = arr if arr.flags.c_contiguous else np.asarray(arr, order="C")
        a.setflags(write=False)
        t.data = a
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


def tensor(values, dtype=HIGH) -> Tensor:
    return Tensor(values, dtype=dtype)


# --------------------------------------------------------------------------
# Tape

_active = None  # the tape that is recording, if any


class Tape:
    """Ordered record of executed operations, replayed in reverse for adjoints.

    A tape is confined to one logical execution: enter it, run the forward
    computation, then ask for gradients, once. One tape records at a time,
    so entering a tape while another is recording raises RuntimeError.
    Entries hold strong references to the tensors involved, so their id()s
    stay unique until the replay drops them.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable] | None] = []

    def __enter__(self) -> "Tape":
        global _active
        if _active is not None:
            raise RuntimeError("a tape is already recording; tapes do not nest")
        _active = self
        return self

    def __exit__(self, *exc):
        global _active
        _active = None
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def gradients(self, loss: Tensor, params: Sequence[Tensor]) -> list[Tensor]:
        """d(loss)/d(param) for each param, by adjoint replay in reverse order.

        The replay consumes the tape, so that the backward pass frees memory
        as it goes. An entry's output has every contribution to its adjoint
        once the replay reaches it, so that adjoint is dropped as soon as it
        is used, unless the output is one of ``params``; the entry itself,
        with the forward arrays its VJP holds, is dropped next. A second
        call raises RuntimeError. ``len`` still counts the recorded entries.
        """
        if loss.shape != ():
            raise ShapeError(f"loss must be a scalar tensor, got shape {loss.shape}")
        entries = self._entries
        if entries and entries[-1] is None:
            raise RuntimeError("this tape has already been replayed")
        adjoints: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
        wanted = {id(p) for p in params}
        for i in reversed(range(len(entries))):
            out, parents, vjp = entries[i]
            entries[i] = None
            key = id(out)
            g = adjoints.get(key) if key in wanted else adjoints.pop(key, None)
            if g is None:
                continue
            for parent, pg in zip(parents, vjp(g)):
                if pg is None:
                    continue
                cur = adjoints.get(id(parent))
                adjoints[id(parent)] = pg if cur is None else cur + pg
        result = []
        for p in params:
            g = adjoints.get(id(p))
            if g is None:
                g = np.zeros(p.shape, dtype=p.dtype)
            result.append(Tensor._wrap(np.asarray(g, dtype=p.dtype).reshape(p.shape)))
        return result


def recording() -> bool:
    """True while a tape is active, so record_op will keep what it is given."""
    return _active is not None


def record_op(out: Tensor, parents: Sequence[Tensor], vjp: Callable) -> None:
    """Append an operation to the active tape; no-op when not recording.

    ``vjp(grad_out)`` must return one gradient array (or None) per parent,
    each shaped exactly like that parent. It must not mutate ``grad_out``.
    """
    if _active is not None:
        _active._entries.append((out, tuple(parents), vjp))


def grad(loss_fn: Callable[[], Tensor], params: Sequence[Tensor]) -> list[Tensor]:
    """Gradients of the scalar ``loss_fn()`` with respect to ``params``.

    Records every operation executed inside ``loss_fn`` on a fresh tape and
    replays adjoints in reverse. Parameters not reachable from the loss get
    zero gradients.
    """
    tape = Tape()
    with tape:
        loss = loss_fn()
    if not isinstance(loss, Tensor):
        raise TypeError("loss_fn must return a Tensor")
    return tape.gradients(loss, params)


# --------------------------------------------------------------------------
# Helpers

def _check_same_dtype(*ts: Tensor) -> np.dtype:
    d = ts[0].dtype
    for t in ts[1:]:
        if t.dtype != d:
            raise TypeError(f"mixed dtypes {d} and {t.dtype}; cast explicitly")
    return d


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form: one transcendental, no branches, never overflows.
    out = x * 0.5
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    # For x > 30 the identity is exact to double precision.
    return np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))


# --------------------------------------------------------------------------
# Elementwise arithmetic (same-shape, or tensor-with-python-scalar)

def _binary(a: Tensor, b, op_name: str, fwd, vjp_maker) -> Tensor:
    if isinstance(b, (int, float)):
        out = Tensor._wrap(fwd(a.data, a.dtype.type(b)))
        vjp_a, _ = vjp_maker(a.data, a.dtype.type(b))
        record_op(out, (a,), lambda g: (vjp_a(g),))
        return out
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"{op_name} needs equal shapes, got {a.shape} and {b.shape}")
    out = Tensor._wrap(fwd(a.data, b.data))
    vjp_a, vjp_b = vjp_maker(a.data, b.data)
    record_op(out, (a, b), lambda g: (vjp_a(g), vjp_b(g)))
    return out


def add(a: Tensor, b) -> Tensor:
    return _binary(a, b, "add", lambda x, y: x + y,
                   lambda x, y: (lambda g: g, lambda g: g))


def mul(a: Tensor, b) -> Tensor:
    return _binary(a, b, "mul", lambda x, y: x * y,
                   lambda x, y: (lambda g: g * y, lambda g: g * x))


def exp(a: Tensor) -> Tensor:
    out = Tensor._wrap(np.exp(a.data))
    out_data = out.data
    record_op(out, (a,), lambda g: (g * out_data,))
    return out


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast bias: x[L,d] + b[d]."""
    _check_same_dtype(x, b)
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias needs (L,d) and (d,), got {x.shape} and {b.shape}")
    out = Tensor._wrap(x.data + b.data[None, :])
    record_op(out, (x, b), lambda g: (g, g.sum(axis=0)))
    return out


# --------------------------------------------------------------------------
# Linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product (m,k) @ (k,n)."""
    _check_same_dtype(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = Tensor._wrap(a.data @ b.data)
    a_data, b_data = a.data, b.data
    record_op(out, (a, b), lambda g: (g @ b_data.T, a_data.T @ g))
    return out


def conv1d_depthwise(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Causal depthwise convolution over the time axis.

    y[t,c] = bias[c] + sum_j w[c,j] * x[t-k+1+j, c], with k-1 zeros of left
    padding so the output keeps length L. w[c,-1] multiplies the current
    frame; earlier taps look strictly into the past. Kernels longer than the
    sequence are fine (the overhang reads padding); k must be positive.
    """
    _check_same_dtype(x, w, bias)
    if x.data.ndim != 2 or w.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeError(f"conv1d_depthwise got shapes {x.shape}, {w.shape}, {bias.shape}")
    L, d = x.shape
    dw, k = w.shape
    if dw != d or bias.shape[0] != d:
        raise ShapeError(f"channel mismatch: x {x.shape}, w {w.shape}, bias {bias.shape}")
    if k <= 0:
        raise ShapeError(f"kernel width must be positive, got {k}")
    xpad = np.zeros((L + k - 1, d), dtype=x.dtype)
    xpad[k - 1:] = x.data
    y = np.tile(bias.data, (L, 1))
    for j in range(k):
        y += w.data[:, j][None, :] * xpad[j:j + L]
    out = Tensor._wrap(y)
    w_data = w.data

    def vjp(g):
        gx_pad = np.zeros_like(xpad)
        gw = np.empty_like(w_data)
        for j in range(k):
            gx_pad[j:j + L] += g * w_data[:, j][None, :]
            gw[:, j] = (xpad[j:j + L] * g).sum(axis=0)
        return gx_pad[k - 1:], gw, g.sum(axis=0)

    record_op(out, (x, w, bias), vjp)
    return out


# --------------------------------------------------------------------------
# Nonlinearities

def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    sig = _sigmoid(x.data)
    out = Tensor._wrap(x.data * sig)
    x_data = x.data
    record_op(out, (x,), lambda g: (g * (sig * (1.0 + x_data * (1.0 - sig))),))
    return out


def softplus(x: Tensor) -> Tensor:
    """ln(1 + e^x), with the exact identity branch for large x."""
    out = Tensor._wrap(_softplus(x.data))
    if recording():
        sig = _sigmoid(x.data)
        record_op(out, (x,), lambda g: (g * sig,))
    return out


def rmsnorm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """Root-mean-square normalization with a learned per-channel gain.

    y[t] = x[t] / sqrt(mean_c(x[t,c]^2) + eps) * gain. Gain-only: no bias.
    """
    _check_same_dtype(x, gain)
    if x.data.ndim != 2 or gain.data.ndim != 1 or x.shape[1] != gain.shape[0]:
        raise ShapeError(f"rmsnorm needs (L,d) and (d,), got {x.shape} and {gain.shape}")
    d = x.shape[1]
    ms = (x.data * x.data).mean(axis=1, keepdims=True) + x.dtype.type(eps)
    rms = np.sqrt(ms)
    u = x.data / rms
    out = Tensor._wrap(u * gain.data[None, :])
    gain_data = gain.data

    def vjp(g):
        gu = g * gain_data[None, :]
        dot = (gu * u).sum(axis=1, keepdims=True)
        gx = (gu - u * (dot / d)) / rms
        return gx, (g * u).sum(axis=0)

    record_op(out, (x, gain), vjp)
    return out


# --------------------------------------------------------------------------
# Structure ops

def reverse_time(x: Tensor) -> Tensor:
    """Reverse along the leading (time) axis. An exact involution."""
    if x.data.ndim < 1:
        raise ShapeError("reverse_time needs at least one axis")
    out = Tensor._wrap(x.data[::-1].copy())
    record_op(out, (x,), lambda g: (g[::-1].copy(),))
    return out


def concat_features(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two (L,d) tensors along the feature axis."""
    _check_same_dtype(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_features needs matching rows, got {a.shape} and {b.shape}")
    da = a.shape[1]
    out = Tensor._wrap(np.concatenate([a.data, b.data], axis=1))
    record_op(out, (a, b), lambda g: (g[:, :da].copy(), g[:, da:].copy()))
    return out


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous column slice of a 2-D tensor."""
    if x.data.ndim != 2:
        raise ShapeError(f"slice_cols needs a 2-D tensor, got {x.shape}")
    if not (0 <= start <= stop <= x.shape[1]):
        raise ShapeError(f"slice [{start}:{stop}] out of range for shape {x.shape}")
    out = Tensor._wrap(x.data[:, start:stop].copy())
    shape = x.shape

    def vjp(g):
        gx = np.zeros(shape, dtype=g.dtype)
        gx[:, start:stop] = g
        return (gx,)

    record_op(out, (x,), vjp)
    return out
