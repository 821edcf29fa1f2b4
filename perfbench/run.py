"""Run one benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload train-synth --seed 1 --seconds 15 --trace 0

One process, one caller, closed loop: the workload's set-up runs at
least ``SETUP_MIN`` times, and more while set-up has taken under
``SETUP_BUDGET_S`` in all (``setup_s`` is their median). Then whole rounds
of the same operations run until ``--seconds`` of round time has passed;
each end-to-end rate or time is the median over rounds. Every output is
checked after the peak resident set is read. BLAS runs one thread. With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
rounds alternate untraced and traced, the result holds the per-layer
metrics of the traced rounds and the tracing overhead, and the spans are
written to ``.perfbench_out/``. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import bootstrap

bootstrap.pin_blas_threads()

SETUP_MIN = 3
SETUP_MAX = 30
SETUP_BUDGET_S = 4.0
# Typical time of ``reference_kernel`` on the machine the README's figures
# come from. Every set-up and round time is scaled by REFERENCE_S over the
# mean kernel time measured just before and just after it.
REFERENCE_S = 0.045
WORK_DIR = bootstrap.ROOT / ".perfbench_work"
OUT_DIR = bootstrap.ROOT / ".perfbench_out"
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "audio_s_per_s": "s/s",
             "op_s_p50": "s", "peak_rss_mb": "MB"}


@dataclass
class Round:
    seconds: float
    traced: bool
    ops: list
    scale: float  # REFERENCE_S over the kernel time around the round


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-synth", "transcribe-songs", "score-labs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_kernel():
    """Seconds a fixed pure-Python loop takes: the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    return time.perf_counter() - start


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_metrics(setup_times, rounds, rss_mb):
    """Median set-up time, and each round's rates and times, medianed over rounds."""
    def per_round(value):
        return statistics.median(value(r) for r in rounds)

    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": per_round(lambda r: sum(op.count for op in r.ops) / (r.seconds * r.scale)),
        "audio_s_per_s": per_round(lambda r: sum(op.audio_s for op in r.ops)
                                   / (r.seconds * r.scale)),
        "op_s_p50": per_round(lambda r: r.scale * statistics.median(
            op.seconds / op.count for op in r.ops)),
        "peak_rss_mb": rss_mb,
    }


def run(args, work):
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer("bmace", args.workload) if args.trace else None
    mark = (lambda op: setattr(tracer, "op", op)) if tracer else (lambda op: None)

    kernels = [reference_kernel()]  # before the first set-up, then after each pass

    def scale():
        kernels.append(reference_kernel())
        return REFERENCE_S / statistics.mean(kernels[-2:])

    raw_setup_times = []
    setup_times = []
    while len(raw_setup_times) < SETUP_MIN or (
            sum(raw_setup_times) < SETUP_BUDGET_S and len(raw_setup_times) < SETUP_MAX):
        i = len(raw_setup_times)
        target = work / f"setup{i}"
        target.mkdir(parents=True)
        if tracer:
            tracer.install(f"setup{i}")
        try:
            start = time.perf_counter()
            workload.setup(target)
            raw_setup_times.append(time.perf_counter() - start)
        finally:
            if tracer:
                tracer.remove()
        setup_times.append(raw_setup_times[-1] * scale())
        if i:
            shutil.rmtree(work / f"setup{i - 1}")

    rounds = []
    elapsed = 0.0
    while True:
        r = len(rounds)
        traced = bool(args.trace) and r % 2 == 1
        if traced:
            tracer.install(f"round{r}")
        try:
            start = time.perf_counter()
            ops = workload.run_round(r, mark)
            seconds = time.perf_counter() - start
        finally:
            if traced:
                tracer.remove()
        rounds.append(Round(seconds, traced, ops, scale()))
        elapsed += seconds
        if elapsed >= args.seconds and (not args.trace or len(rounds) % 2 == 0):
            break

    # The peak resident set covers set-up and rounds, not the checks below.
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    e2e = e2e_metrics(setup_times, plain, peak_rss_mb())

    all_ops = [op for r in rounds for op in r.ops]
    failed, problems, notes = workload.check(all_ops)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"checks": notes}, default=float), file=sys.stderr)

    print(f"rounds: {len(rounds)} ({len(traced)} traced), wall seconds "
          f"{[round(r.seconds, 3) for r in rounds]}, scale {[round(r.scale, 3) for r in rounds]}, "
          f"set-up wall seconds {[round(t, 3) for t in raw_setup_times]}, "
          f"kernel seconds {[round(k, 4) for k in kernels]}", file=sys.stderr)
    print(json.dumps({"e2e": e2e, "unscaled": e2e_metrics(
        raw_setup_times, [Round(r.seconds, r.traced, r.ops, 1.0) for r in plain],
        e2e["peak_rss_mb"])}), file=sys.stderr)
    if tracer:
        traced_e2e = e2e_metrics(setup_times, traced, e2e["peak_rss_mb"])
        overhead = 100.0 * (statistics.median(r.seconds * r.scale for r in traced)
                            / statistics.median(r.seconds * r.scale for r in plain) - 1.0)
        metrics, table = tracer.layer_metrics(len(setup_times), len(traced), overhead)
        print(tracing.format_table(table), file=sys.stderr)
        for name in ("ops_per_s", "audio_s_per_s", "op_s_p50"):
            print(f"untraced {name} {e2e[name]:.6g}, traced {traced_e2e[name]:.6g}",
                  file=sys.stderr)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        print(f"spans written to {spans}", file=sys.stderr)
        units = tracing.PER_LAYER_UNITS
    else:
        metrics = e2e
        units = E2E_UNITS
    return {
        "correct": not problems,
        "attempted": sum(op.count for op in all_ops),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        bootstrap.load_package()
    except bootstrap.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = bootstrap.environment()
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
