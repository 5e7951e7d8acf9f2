#!/usr/bin/env python3
"""Runs run.py over several seeds and summarizes each metric's spread.

    python3 perfbench/sweep.py --workloads ctl100k,faults16k --seeds 1-10 \
        --seconds 30 --trace 0 [--out summary.json]

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
interquartile distance as a share of the median.  BENCHMARK.json's bound
on an end-to-end metric only means something when this spread is well
below it.  Runs are sequential: one world at a time, nothing in parallel.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values),
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="ctl100k,sched_backlog,faults16k")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, proc.returncode))
                ok = False
                continue
            runs.append(result)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        if not runs:
            continue
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = first["unit"]
        summary[workload] = metrics
        print("\n%s: %d runs" % (workload, len(runs)))
        for name, s in metrics.items():
            print("  %-32s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f" %
                  (name, s["median"], s["q1"], s["q3"], s["spread"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
