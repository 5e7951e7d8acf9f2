#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--workloads ctl100k,sched_backlog,faults16k]

For each workload, at its default seed from pins.json, it runs run.py
untraced (--seconds 1, so one world) and then traced (which runs the
world twice more), and checks that:

  * both runs are correct and print every metric BENCHMARK.json names
    for their mode, each with BENCHMARK.json's unit;
  * the back-to-back runs print identical digests.

Exit status 0 when every check holds.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    digests = [line.split()[2] for line in lines if line.startswith("digest ")]
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, digests


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    failures = []
    for workload in names:
        seed = pins[workload]["seed"]
        digests = []
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, printed = run(workload, seed, trace)
            digests += printed
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or not result["correct"]:
                failures.append("%s: run failed (exit %d)" % (label, code))
                continue
            metrics = result["metrics"]
            for metric in spec[section]:
                got = metrics.get(metric["name"])
                if got is None:
                    failures.append("%s: %s not printed" % (label, metric["name"]))
                elif got["unit"] != metric["unit"]:
                    failures.append("%s: %s unit %s, BENCHMARK.json says %s" %
                                    (label, metric["name"], got["unit"], metric["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[section]}
            if extra:
                failures.append("%s: metrics not in BENCHMARK.json: %s" % (label, sorted(extra)))
        if len(digests) < 2 or len(set(digests)) != 1:
            failures.append("%s: back-to-back digests differ: %s" % (workload, digests))
        print("%s: digests %s" % (workload, " ".join(digests)), flush=True)

    for failure in failures:
        print("FAIL " + failure)
    print("selftest: %s" % ("ok" if not failures else "%d failures" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
