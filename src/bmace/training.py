"""Desk-scale supervised training over synthetic chord audio.

The loop is deliberately plain: cross-entropy per segment (one tape
entry), batch gradients averaged in a fixed order, global-norm clipping,
Adam with bias correction, and early stopping on validation loss.
Everything is seeded and bit-reproducible. A frame whose label the
vocabulary cannot express carries the SKIP target; ``build_dataset`` is
the one place that drops windows with no other frame.

Each batch's segment gradients are computed by the parent process and up
to one forked worker per further available CPU (``_GradientPool``). The
parent sums them from zeros in segment order and alone steps Adam, so
the bytes depend only on flags, seeds, inputs and the BLAS thread count,
never on the worker count. Workers inherit that thread count: with
``OPENBLAS_NUM_THREADS=2`` and two workers, four BLAS threads run.

Normalization statistics come from the training split only; validation
and test features reuse them.
"""

from __future__ import annotations

import math
import mmap
import resource
import signal
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import chords
from . import features as ft
from . import metrics as mt
from . import model as md
from . import numerics as nm
from .numerics import STANDARD, Tape, Tensor

SKIP = chords.SKIP

# Adam moments and epsilon, and the global gradient-norm clip.
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 5.0


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; training cannot continue."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 8
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")


@dataclass(frozen=True)
class ClipExample:
    """One clip: log-amplitude features (unnormalized) plus its labels."""

    name: str
    features: ft.FeatureMatrix
    annotation: chords.Annotation


@dataclass(frozen=True)
class TrainResult:
    params: md.ModelParams
    stats: ft.NormStats
    history: tuple
    best_epoch: int
    best_val_loss: float


def cross_entropy(logits, targets):
    """Mean negative log-softmax of the target class over non-SKIP frames.

    One tape entry on the logits; SKIP rows get exactly zero gradient.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.shape != (logits.shape[0],):
        raise nm.ShapeError(f"cross_entropy needs (L, classes) logits and (L,) targets, "
                            f"got {logits.shape} and {targets.shape}")
    rows = np.nonzero(targets != SKIP)[0]
    if rows.size == 0:
        raise ValueError("every frame is masked out; nothing to train on")
    cols = targets[rows]
    if cols.min() < 0 or cols.max() >= logits.shape[1]:
        raise ValueError("target class out of range")
    x = logits.data
    shifted = x - x.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = Tensor._wrap(np.asarray(-logp[rows, cols].mean(), dtype=x.dtype))
    if nm.recording():
        soft = np.exp(logp)

        def vjp(g):
            gx = np.zeros(x.shape, dtype=g.dtype)
            gx[rows, cols] = -g / rows.size
            return (gx - soft * gx.sum(axis=1, keepdims=True),)

        nm.record_op(out, (logits,), vjp)
    return out


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(flat):
    return AdamState(np.zeros_like(flat), np.zeros_like(flat), 0)


def adam_step(flat, grad, state, cfg):
    """One bias-corrected Adam update; returns (new parameter vector, new state).

    The state's moments ``m`` and ``v`` are updated in place, by the
    textbook expression's operations in its order, so every bit is as the
    expression gives it. ``flat`` is never written: the new vector is a
    fresh array, so a caller may keep the old one.
    """
    if grad.shape != flat.shape:
        raise nm.ShapeError(f"gradient has shape {grad.shape}, parameters are {flat.shape}")
    t = state.t + 1
    m, v = state.m, state.v
    # m = BETA1 * m + (1 - BETA1) * grad; v = BETA2 * v + (1 - BETA2) * grad * grad
    step = np.multiply(grad, 1.0 - BETA1)
    m *= BETA1
    m += step
    np.multiply(grad, 1.0 - BETA2, out=step)
    step *= grad
    v *= BETA2
    v += step
    # flat - lr * (m / (1 - BETA1**t)) / (sqrt(v / (1 - BETA2**t)) + eps)
    denom = np.divide(v, 1.0 - BETA2 ** t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1.0 - BETA1 ** t, out=step)
    step *= cfg.learning_rate
    step /= denom
    return np.subtract(flat, step, out=step), AdamState(m, v, t)


def clip_gradients(grad, max_norm):
    """Scale the gradient so its L2 norm is at most max_norm; returns (grad, norm)."""
    norm = math.sqrt(float(np.sum(np.asarray(grad, dtype=np.float64) ** 2)))
    if norm <= max_norm or norm == 0.0:
        return grad, norm
    return grad * np.asarray(max_norm / norm, dtype=grad.dtype), norm


def split_dataset(items, seed):
    """Deterministic 80/10/10 split at the clip level."""
    n = len(items)
    if n < 3:
        raise ValueError(f"need at least 3 clips to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_val = max(1, int(n * 0.1))
    n_test = max(1, int(n * 0.1))
    n_train = n - n_val - n_test
    train = [items[i] for i in order[:n_train]]
    val = [items[i] for i in order[n_train:n_train + n_val]]
    test = [items[i] for i in order[n_train + n_val:]]
    return train, val, test


def make_random_progression(seed, duration_s=10.0, vocab=None):
    """Seeded random chord progression covering [0, duration_s].

    Chords last uniform(1, 2.5) seconds; each is no-chord with probability
    0.08, else a uniformly drawn chord class of the vocabulary.
    """
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration must be a positive number of seconds, got {duration_s}")
    vocab = vocab or chords.MAJMIN_25
    rng = np.random.default_rng(seed)
    out = []
    t = 0.0
    while t < duration_s - 1e-9:
        end = min(t + rng.uniform(1.0, 2.5), duration_s)
        if rng.uniform() < 0.08:
            label = chords.ChordLabel.no_chord()
        else:
            label = chords.parse_chord(chords.class_to_label(int(rng.integers(vocab.n_chords)), vocab))
        out.append((t, end, label))
        t = end
    return chords.Annotation(tuple(out))


def synth_clip_example(seed, vocab, duration_s=10.0):
    """One synthetic clip: progression, audio, log-amplitude features."""
    progression = make_random_progression(seed, duration_s, vocab)
    clip = ft.synth_chord_clip(progression, seed=seed + 1_000_003)
    feats = ft.log_amplitude(ft.cqt(clip))
    return ClipExample(f"clip{seed:06d}", feats, progression)


def make_synthetic_corpus(n_clips, vocab, seed, duration_s=10.0):
    return [synth_clip_example(seed + i, vocab, duration_s) for i in range(n_clips)]


def clip_segments(example, vocab, stats):
    """Normalized training windows (``features.windows``) with aligned targets.

    Frames a short clip's window gains by padding get SKIP targets, so
    they are invisible to the loss and the accuracy counters.
    """
    normalized = ft.znormalize(example.features, stats)
    targets = chords.framewise_targets(example.annotation, normalized.frames, vocab)
    return [(piece.astype(np.float32), labels)
            for piece, labels in zip(ft.windows(normalized.values),
                                     ft.windows(targets, fill=SKIP))]


def build_dataset(examples, vocab, stats, split):
    """The clips' windows (``clip_segments``) that hold a non-SKIP frame.

    Raises ValueError naming ``split`` and the vocabulary if none is left.
    """
    segments = [segment for example in examples
                for segment in clip_segments(example, vocab, stats)
                if (segment[1] != SKIP).any()]
    if not segments:
        raise ValueError(f"no {split} frame has a class in the {vocab.name} vocabulary")
    return segments


# Training holds the parameters as one float32 vector, the md.tensor_shapes
# tensors end to end; gradients, Adam moments and the best snapshot share it.
# A ModelParams iterates in that order, so its tensors and their gradients
# concatenate straight into the vector's layout.

def _params_from_flat(flat, model_cfg):
    """ModelParams copied from consecutive slices of the parameter vector.

    Raises TrainingDivergedError naming the first tensor, in tensor order,
    that holds a non-finite value.
    """
    finite = bool(np.all(np.isfinite(flat)))
    params = md.ModelParams()
    end = 0
    for name, shape in md.tensor_shapes(model_cfg).items():
        start, end = end, end + math.prod(shape)
        piece = flat[start:end]
        if not finite and not np.all(np.isfinite(piece)):
            raise TrainingDivergedError(f"parameter {name} became non-finite")
        params[name] = Tensor(piece.reshape(shape), dtype=STANDARD)
    return params


def _init_training(model_cfg):
    """Initial (parameter vector, fresh Adam state)."""
    params0 = md.init_model(model_cfg, dtype=STANDARD)
    flat = np.concatenate([tensor.data.ravel() for tensor in params0.values()])
    return flat, adam_init(flat)


def _loss_and_grads(params, model_cfg, feats, targets, out):
    """Loss on one segment; its gradient, laid out like the parameter vector, goes to ``out``."""
    # The scan would reject non-finite time steps as a broken invariant,
    # so screen step inputs here and report the failure as what it is.
    if not np.all(np.isfinite(feats)):
        raise TrainingDivergedError("non-finite feature values reached a training step")
    with Tape() as tape:
        x = Tensor(feats, dtype=STANDARD)
        logits = md.forward(params, model_cfg, x)
        loss = cross_entropy(logits, targets)
    loss_value = float(loss.data)
    if not math.isfinite(loss_value):
        raise TrainingDivergedError("non-finite training loss")
    grads = tape.gradients(loss, list(params.values()))
    np.concatenate([g.data.ravel() for g in grads], out=out)
    return loss_value


def _gradient_workers(batch_size):
    """(forked gradient workers for batches of ``batch_size``, why that many).

    The parent and its workers take one available CPU each, and no more
    processes than a batch has segments. There are none where ``fork``
    is missing, or while another thread is alive: forking a threaded
    process is unsafe.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 0, "no fork"
    if threading.active_count() > 1:
        return 0, "threads alive"
    cpus = ft.available_cpus()
    if cpus <= batch_size:
        return cpus - 1, f"{cpus} CPUs"
    return batch_size - 1, f"batch size {batch_size}"


class _GradientPool:
    """Each batch's segment gradients, on the parent and forked workers.

    One shared buffer holds ``batch_size + 1`` rows the size of the
    parameter vector: row 0 the parameters, and the last n rows the
    gradients of an n-segment batch's positions when workers compute them,
    so a short last batch touches no row a full batch leaves alone. The
    workers are forked once and inherit ``segments``. Per batch, the parent
    writes row 0 and sends each worker its (first row, segment indices); the
    worker writes its rows and replies with the losses, or with the first
    error it met. Meanwhile the parent computes the first positions into one
    scratch vector, never touching their rows. ``gradient`` sums every
    segment from zeros in position order whatever the worker count, and
    raises the error of the earliest failing segment. A worker exits on EOF
    from its pipe.
    """

    def __init__(self, model_cfg, segments, workers, batch_size):
        import multiprocessing

        self.model_cfg = model_cfg
        self.segments = segments
        size = md.count_params(model_cfg)
        shared = mmap.mmap(-1, (batch_size + 1) * size * np.dtype(STANDARD).itemsize)
        self._rows = np.frombuffer(shared, dtype=STANDARD).reshape(batch_size + 1, size)
        self._conns = []
        self._procs = []
        try:
            for _ in range(workers):
                here, there = multiprocessing.Pipe()
                self._conns.append(here)
                proc = multiprocessing.get_context("fork").Process(
                    target=self._serve, args=(there,), daemon=True)
                proc.start()
                there.close()
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.join(timeout=1.0)  # an idle worker exits on EOF at once
            if proc.is_alive():
                proc.terminate()
                proc.join()

    def _serve(self, conn):
        """Worker loop: compute each job's segments until the pipe closes."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
        for other in self._conns:  # parent ends, this worker's included
            other.close()
        try:
            while True:
                first, indices = conn.recv()
                try:
                    params = _params_from_flat(self._rows[0], self.model_cfg)
                    reply = ([_loss_and_grads(params, self.model_cfg, *self.segments[index],
                                              self._rows[row])
                              for row, index in enumerate(indices, first)], None)
                except Exception as exc:
                    reply = (None, exc)
                conn.send(reply)
        except (EOFError, OSError):
            return

    def _worker_died(self, k):
        proc = self._procs[k]
        proc.join(timeout=1.0)
        return RuntimeError(f"gradient worker {proc.pid} died (exit code {proc.exitcode})")

    def gradient(self, flat, batch):
        """(sum of the gradients of segments ``batch`` from zeros in order, losses)."""
        n = len(batch)
        shares = min(len(self._conns) + 1, n)
        bounds = [n * k // shares for k in range(shares + 1)]  # the parent's share is first
        first_row = len(self._rows) - n  # batch position p's row is first_row + p
        params = _params_from_flat(flat, self.model_cfg)
        if shares > 1:
            self._rows[0] = flat
        for k in range(1, shares):
            try:
                self._conns[k - 1].send((first_row + bounds[k], batch[bounds[k]:bounds[k + 1]]))
            except OSError:
                raise self._worker_died(k - 1) from None
        acc = np.zeros_like(flat)
        grad = np.empty_like(flat)
        losses = []
        for index in batch[:bounds[1]]:
            losses.append(_loss_and_grads(params, self.model_cfg, *self.segments[index], grad))
            acc += grad
        for k in range(1, shares):
            try:
                done, error = self._conns[k - 1].recv()
            except (EOFError, OSError):
                raise self._worker_died(k - 1) from None
            if error is not None:
                raise error
            for row in self._rows[first_row + bounds[k]:first_row + bounds[k + 1]]:
                acc += row
            losses += done
        return acc, losses


def _adam_batch_step(flat, state, train_cfg, pool, batch):
    """Adam step on the clipped mean gradient of segments ``batch`` of ``pool``.

    Returns (flat, state, per-segment losses, pre-clip gradient norm).
    """
    acc, losses = pool.gradient(flat, batch)
    clipped, norm = clip_gradients(acc / len(batch), CLIP_NORM)
    flat, state = adam_step(flat, clipped, state, train_cfg)
    return flat, state, losses, norm


def _evaluate_split(flat, model_cfg, segments):
    """(mean loss, framewise accuracy) over a list of segments, no tape."""
    params = _params_from_flat(flat, model_cfg)
    loss_sum = 0.0
    correct = 0
    counted = 0
    for feats, targets in segments:
        x = Tensor(feats, dtype=STANDARD)
        logits = md.forward(params, model_cfg, x)
        loss_sum += float(cross_entropy(logits, targets).data)
        keep = targets != SKIP
        pred = np.argmax(logits.data, axis=1)
        correct += int((pred[keep] == targets[keep]).sum())
        counted += int(keep.sum())
    return loss_sum / len(segments), correct / counted


def train(model_cfg, train_cfg, train_clips, val_clips, vocab):
    """Mini-batch Adam on masked cross-entropy with early stopping.

    Returns the parameters of the best validation epoch; the history
    carries one record per epoch run. On stderr, a first line gives the
    number of forked gradient workers and why (``_gradient_workers``),
    each epoch prints one progress line (losses, validation accuracy,
    training segments per second and the mean pre-clip gradient norm of
    its Adam steps), and a last line gives the workers' peak RSS, which
    the parent's peak does not count. Wall times and memory go only
    there, so the history stays reproducible.
    """
    if not train_clips or not val_clips:
        raise ValueError("train and validation splits must both be non-empty")
    stats = ft.compute_norm_stats([c.features for c in train_clips])
    train_segments = build_dataset(train_clips, vocab, stats, "training")
    val_segments = build_dataset(val_clips, vocab, stats, "validation")

    ft.shutdown_cqt_pool()  # its threads would keep the gradient pool from forking
    workers, why = _gradient_workers(train_cfg.batch_size)
    print(f"gradients on the parent and {workers} forked worker(s) ({why})", file=sys.stderr)
    flat, state = _init_training(model_cfg)
    rng = np.random.default_rng(train_cfg.seed)

    # adam_step returns a new vector, so holding the best one needs no copy.
    best = flat
    best_val = math.inf
    best_epoch = 0
    bad_epochs = 0
    history = []
    with _GradientPool(model_cfg, train_segments, workers, train_cfg.batch_size) as pool:
        for epoch in range(1, train_cfg.max_epochs + 1):
            started = time.perf_counter()
            perm = rng.permutation(len(train_segments)).tolist()
            loss_sum = 0.0
            norms = []
            for lo in range(0, len(perm), train_cfg.batch_size):
                flat, state, losses, norm = _adam_batch_step(
                    flat, state, train_cfg, pool, perm[lo:lo + train_cfg.batch_size])
                norms.append(norm)
                loss_sum = sum(losses, loss_sum)
            seconds = time.perf_counter() - started

            val_loss, val_accuracy = _evaluate_split(flat, model_cfg, val_segments)
            if not math.isfinite(val_loss):
                raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
            history.append({
                "epoch": epoch,
                "train_loss": loss_sum / len(perm),
                "val_loss": val_loss,
                "val_accuracy": val_accuracy,
            })
            print(f"epoch {epoch}: train loss {history[-1]['train_loss']:.4f}, "
                  f"val loss {val_loss:.4f}, val accuracy {val_accuracy:.4f}, "
                  f"{len(perm) / seconds:.1f} segments/s, "
                  f"grad norm {sum(norms) / len(norms):.3g} (pre-clip mean)",
                  file=sys.stderr)
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best = flat
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= train_cfg.patience:
                    break
    if workers:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        print(f"gradient workers' peak RSS {peak:.1f} MB", file=sys.stderr)

    return TrainResult(_params_from_flat(best, model_cfg), stats, tuple(history),
                       best_epoch, best_val)


def overfit_segment(model_cfg, feats, targets, steps=500, train_cfg=None,
                    stop_below=None):
    """Repeated full-batch steps on one segment; returns (params, losses).

    A learnability probe: a working model/optimizer pair drives the loss
    toward zero. Stops early once the loss drops under ``stop_below``.
    """
    cfg = train_cfg or TrainConfig()
    flat, state = _init_training(model_cfg)
    losses = []
    pool = _GradientPool(model_cfg, [(feats, targets)], workers=0, batch_size=1)
    for _ in range(steps):
        flat, state, (loss_value,), _ = _adam_batch_step(flat, state, cfg, pool, [0])
        losses.append(loss_value)
        if stop_below is not None and loss_value < stop_below:
            break
    return _params_from_flat(flat, model_cfg), losses


def predict_classes(params, model_cfg, stats, feats):
    """Framewise class ids for one clip's unnormalized log features: the
    argmax of each frame's logits, ties resolving to the smaller id.

    The model runs once over the whole clip: its scan is linear in
    length, so inference needs no windows, and every frame is predicted
    with the context of the entire clip.
    """
    values = ft.znormalize(feats, stats).values
    return np.argmax(md.forward(params, model_cfg, Tensor(values, dtype=STANDARD)).data, axis=1)


def predict_annotation(params, model_cfg, stats, feats, vocab):
    return mt.frames_to_annotation(predict_classes(params, model_cfg, stats, feats), vocab)
