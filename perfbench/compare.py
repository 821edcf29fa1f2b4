"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/compare.py --runs 10 --seed0 1

Every run gets its own seed (``--seed0`` upwards), and workloads take
turns within a set so that slow drift in machine load spreads over all of
them. For each workload and end-to-end metric it prints each set's
median, quartiles (``statistics.quantiles(n=4)``) and spread (quartile
distance over median), and whether the two sets agree with the bounds in
BENCHMARK.json:

- each set's spread is within the metric's bound, for every metric but
  ``setup_s``: set-up runs only a few times per run, between runs it
  moves with the files and page cache the set-up writes, and only its
  median is bounded;
- the two sets' medians differ by at most the bound, in either
  direction (``|second - first| / first``);
- every run of the workload fails the same share of its operations.

The runs, with the environment each recorded, go to
``.perfbench_out/compare-<seed0>.json``. The exit code is 0 only if
every run was correct and every workload agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])
    record["result"] = json.loads(lines[-1])
    return record


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median}


def verdicts(spec, sets):
    """Per-metric agreement of the two sets under the spec's bounds."""
    out = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        first, second = (summarise([r["result"]["metrics"][name]["value"] for r in runs])
                         for runs in sets)
        shift = abs(second["median"] - first["median"]) / first["median"]
        steady = name == "setup_s" or max(first["spread"], second["spread"]) <= bound
        out[name] = {"bound": bound, "sets": [first, second], "shift": shift,
                     "agree": steady and shift <= bound}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least two runs")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    records = {name: [[] for _ in range(SETS)] for name in names}
    seed = args.seed0
    for s in range(SETS):
        for _ in range(args.runs):
            for name in names:
                record = run_once(name, seed, spec["run_seconds"])
                records[name][s].append(record)
                result = record["result"]
                print(f"set {s + 1} {name} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
                seed += 1

    report = {}
    all_agree = True
    for name in names:
        sets = records[name]
        bad = [r["seed"] for runs in sets for r in runs if not r["result"]["correct"]]
        shares = sorted({Fraction(r["result"]["failed"], r["result"]["attempted"])
                         for runs in sets for r in runs})
        report[name] = {"incorrect_seeds": bad, "failed_shares": [str(f) for f in shares],
                        "metrics": verdicts(spec, sets)}
        print(f"\n{name}: incorrect seeds {bad or 'none'}, "
              f"failed shares {[str(f) for f in shares]}")
        all_agree &= not bad and len(shares) == 1
        for metric, v in report[name]["metrics"].items():
            cells = "  ".join(f"set{i + 1} {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                              f"spread {s['spread']:.3f}" for i, s in enumerate(v["sets"]))
            print(f"  {metric:14s} bound {v['bound']:.2f}  {cells}  shift {v['shift']:.3f}  "
                  f"{'agree' if v['agree'] else 'DISAGREE'}")
            all_agree &= v["agree"]

    out = ROOT / ".perfbench_out" / f"compare-{args.seed0}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"report": report, "runs": records}, indent=1) + "\n",
                   encoding="utf-8")
    print(f"\nruns written to {out}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
