#!/usr/bin/env python3
"""Steadiness report: run the benchmark over several seeds per workload.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--trace 0]

For every workload and every end-to-end metric (or per-layer metric with
--trace 1) it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), and the spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json. A spread under a third
of the bound is "steady"; under the bound "ok"; otherwise "UNSTEADY".
setup_s is reported but, like the benchmark's acceptance rule, not held
to its bound. Raw result lines are appended to .bench_build/steady.jsonl
(or $CARGO_TARGET_DIR/steady.jsonl).

Exits 1 if any run failed its output checks or any spread other than
setup_s exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir.mkdir(parents=True, exist_ok=True)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bad = False
    with open(build_dir / "steady.jsonl", "a") as raw:
        for workload in args.workloads.split(","):
            values = {m["name"]: [] for m in metrics}
            for seed in parse_seeds(args.seeds):
                start = time.monotonic()
                done = subprocess.run(
                    [sys.executable, str(root / "perfbench" / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    capture_output=True, text=True)
                wall = time.monotonic() - start
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {done.returncode}\n"
                          f"{done.stderr[-2000:]}", file=sys.stderr)
                    bad = True
                    continue
                result = json.loads(lines[-1])
                raw.write(json.dumps({"workload": workload, "seed": seed,
                                      "wall_s": wall, **result}) + "\n")
                raw.flush()
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: output checks failed",
                          file=sys.stderr)
                    bad = True
                for name, m in result["metrics"].items():
                    values[name].append(m["value"])
                print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)

            print(f"\n{workload} ({args.seeds}, {args.seconds:g} s runs)")
            print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound':>6}  verdict")
            for m in metrics:
                vals = values[m["name"]]
                if len(vals) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q3 - q1) / med if med else float("inf")
                bound = m.get("bound")
                verdict = ""
                if bound is not None:
                    verdict = ("steady" if spread < bound / 3 else
                               "ok" if spread <= bound else "UNSTEADY")
                    if verdict == "UNSTEADY" and m["name"] != "setup_s":
                        bad = True
                print(f"  {m['name']:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.3f} {bound if bound is not None else '-':>6}"
                      f"  {verdict}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
