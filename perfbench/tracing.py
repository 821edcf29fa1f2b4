"""Per-layer spans and counts, recorded from outside the package.

While installed, the tracer replaces each traced function of the package
by a wrapper, wherever a module of the package holds a reference to it
(``from .numerics import matmul`` copies the name into ``mamba`` and
``model``, so each copy is replaced). Removing it puts the originals
back. A span holds the layer name, start, end, the index of the span that
was open when it started, the workload, the phase (``setup<i>`` or
``round<i>``), the operation id and the quantity counted at that boundary.

Per-layer figures are per pass: spans recorded during set-up are divided
by the number of traced set-ups, spans recorded in the timed loop by the
number of traced rounds. A layer's self time is its busy time less the
busy time of the traced spans it directly encloses.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict


def _frames(args):
    return args["x"].shape[0]


def _recurrence_bytes(args):
    # Operands a and b are read and an output of b's shape is written.
    return args["a"].nbytes + 2 * args["b"].nbytes


# (metric prefix, module, attribute, quantity counted at the boundary)
LAYERS = (
    ("features.read_wav", "features", "read_wav", None),
    ("features.cqt", "features", "cqt",
     lambda a: a["clip"].samples.size / a["clip"].sample_rate),
    ("features.log_amplitude", "features", "log_amplitude", None),
    ("features.synth", "features", "synth_chord_clip", None),
    ("chords.parse_lab", "chords", "parse_lab", None),
    ("chords.framewise_targets", "chords", "framewise_targets", None),
    ("metrics.evaluate_all", "metrics", "evaluate_all",
     lambda a: len(a["ref"].intervals) + len(a["est"].intervals)),
    ("metrics.frames_to_annotation", "metrics", "frames_to_annotation", None),
    ("model.forward", "model", "forward", _frames),
    ("mamba.mamba_block", "mamba", "mamba_block", None),
    ("mamba.linear_recurrence", "mamba", "linear_recurrence", _recurrence_bytes),
    ("numerics.tape_gradients", "numerics", "Tape.gradients", lambda a: len(a["self"])),
    ("numerics.matmul", "numerics", "matmul", None),
    ("numerics.silu", "numerics", "silu", None),
    ("numerics.softplus", "numerics", "softplus", None),
    ("numerics.rmsnorm", "numerics", "rmsnorm", None),
    ("numerics.conv1d_depthwise", "numerics", "conv1d_depthwise", None),
    ("training.adam_step", "training", "adam_step", None),
    ("training.clip_gradients", "training", "clip_gradients", None),
    ("training.predict_classes", "training", "predict_classes", lambda a: a["feats"].frames),
    ("tensorio.write_tensors", "tensorio", "write_tensors", None),
    ("tensorio.read_tensors", "tensorio", "read_tensors", None),
)

# Per-layer metrics with their units, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = dict(
    [(f"{name}_s", "s") for name, _, _, _ in LAYERS]
    + [("features.cqt_s_per_audio_s", "s/s"), ("metrics.intervals_per_pair", "count"),
       ("model.forward_calls", "count"), ("mamba.linear_recurrence_calls", "count"),
       ("mamba.recurrence_bytes", "B"), ("numerics.tape_entries_per_step", "count"),
       ("training.window_frame_yield", "ratio"), ("trace.overhead_pct", "%")])


class Tracer:
    def __init__(self, package, workload):
        self.package = package
        self.workload = workload
        self.spans = []
        self.phase = None
        self.op = None
        self._stack = []
        self._patches = []

    # -- installing and removing the wrappers --------------------------------

    def _wrap(self, name, fn, size):
        signature = inspect.signature(fn) if size else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.phase, self.op, 0)
            if size is not None:
                count = size(signature.bind(*args, **kwargs).arguments)
                spans[index] = spans[index][:6] + (count,)
            return result

        return traced

    def install(self, phase):
        self.phase = phase
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        for name, module_name, attr, size in LAYERS:
            module = importlib.import_module(f"{self.package}.{module_name}")
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patches.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original, size))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, size)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def remove(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)
        self.phase = None

    # -- summaries ---------------------------------------------------------

    def _weighted(self, n_setups, n_rounds):
        """Per-layer busy, self, calls and counted quantity, per pass."""
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        table = defaultdict(lambda: {"busy": 0.0, "self": 0.0, "calls": 0.0, "size": 0.0})
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, phase, _, size = span
            weight = 1.0 / (n_setups if phase.startswith("setup") else n_rounds)
            row = table[name]
            row["busy"] += weight * (end - start)
            row["self"] += weight * (end - start - child[index])
            row["calls"] += weight
            row["size"] += weight * size
        return table

    def layer_metrics(self, n_setups, n_rounds, overhead_pct):
        table = self._weighted(n_setups, n_rounds)

        def get(name, field):
            return table[name][field] if name in table else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {f"{name}_s": get(name, "busy") for name, _, _, _ in LAYERS}
        predict_frames = 0.0
        for span in self.spans:
            if (span is not None and span[0] == "model.forward" and span[3] >= 0
                    and self.spans[span[3]][0] == "training.predict_classes"):
                predict_frames += span[6] / (n_setups if span[4].startswith("setup") else n_rounds)
        metrics.update({
            "features.cqt_s_per_audio_s": ratio(get("features.cqt", "busy"),
                                                get("features.cqt", "size")),
            "metrics.intervals_per_pair": ratio(get("metrics.evaluate_all", "size"),
                                                get("metrics.evaluate_all", "calls")),
            "model.forward_calls": get("model.forward", "calls"),
            "mamba.linear_recurrence_calls": get("mamba.linear_recurrence", "calls"),
            "mamba.recurrence_bytes": get("mamba.linear_recurrence", "size"),
            "numerics.tape_entries_per_step": ratio(get("numerics.tape_gradients", "size"),
                                                    get("numerics.tape_gradients", "calls")),
            "training.window_frame_yield": ratio(get("training.predict_classes", "size"),
                                                 predict_frames),
            "trace.overhead_pct": overhead_pct,
        })
        return metrics, table

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, phase, op, size = span
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "workload": self.workload,
                                      "phase": phase, "op": op, "size": size}) + "\n")


def format_table(table):
    lines = [f"{'layer':34s} {'busy s':>10s} {'self s':>10s} {'calls':>10s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["busy"]):
        lines.append(f"{name:34s} {row['busy']:10.4f} {row['self']:10.4f} {row['calls']:10.1f}")
    return "\n".join(lines)
