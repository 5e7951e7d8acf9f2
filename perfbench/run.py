#!/usr/bin/env python3
"""Benchmark runner for the ESLURM simulator.

    python3 perfbench/run.py --workload ctl100k --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and with it the simulator's libraries from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
the workload's world in fresh single-threaded processes:

  --trace 0  repeats the world for --seconds (at least once) and reports
             the end-to-end metrics: host-time medians over the repeats
             plus the master's modelled CPU time, exact for a seed;
  --trace 1  runs the world once untraced and once traced (telemetry on,
             Engine exec observer on, layer probes after the digest) and
             reports the per-layer metrics and the other modelled outputs.

Every run checks the simulated outputs: the binary's own checks (job
conservation, report consistency, event-sequence completeness), identical
digests across repeats and across the traced/untraced pair, and the
digests pinned in pins.json at each workload's default seed.  The last
stdout line is one JSON object {correct, attempted, failed, metrics};
`attempted`/`failed` count those checks.  A failed check exits 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ctl100k", "sched_backlog", "faults16k")
SETUP_REPS = 10  # set-ups per world process; setup_s is their median

# name -> unit, for --trace 0: host time and memory of the whole world,
# plus the master's modelled CPU time (Fig. 9a), exact for a seed.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_master_cpu_min": "min",
}

# The other modelled outputs are exact for a seed too, but they swing far
# more from seed to seed than any end-to-end bound allows, so they are
# reported with the per-layer metrics (taken from the untraced world).
MODELLED = {
    "sim_utilization": "ratio",
    "sim_avg_wait_s": "s",
    "sim_avg_bsld": "ratio",
    "sim_launch_bcast_ms": "ms",
    "sim_jobs_finished": "count",
    "sim_jobs_failed": "count",
}

# name -> unit, for --trace 1.  "_s"/"_ms"/"_us"/"_ns" names are host
# time; everything else is an exact count or a ratio of counts.
PER_LAYER = {
    "core.trace_gen_s": "s", "core.build_s": "s", "core.submit_s": "s",
    "core.run_s": "s", "core.report_s": "s", "core.build_rss_mb": "MB",
    "sim.events": "count", "sim.ns_per_event": "ns", "sim.queue_compactions": "count",
    "sim.heap_fallbacks": "count", "sim.pool_capacity": "count", "sim.churn_ns": "ns",
    "net.messages": "count", "net.bytes": "bytes", "net.failed_sends": "count",
    "net.send_op_capacity": "count", "net.transport_sends": "count",
    "net.transport_retransmits": "count", "net.transport_dup_suppressed": "count",
    "net.transport_perm_failures": "count", "net.transport_useful_ratio": "ratio",
    "net.chaos_dropped": "count", "net.chaos_duplicated": "count",
    "net.transport_bcast_overhead_us": "us",
    "comm.broadcasts": "count", "comm.fp_rebuilds": "count",
    "comm.fp_cache_served": "count", "comm.fp_cache_hit_ratio": "ratio",
    "comm.fp_prepare_ms": "ms", "comm.repairs": "count", "comm.unreachable": "count",
    "comm.send_retries": "count", "comm.bcast_us": "us", "comm.bcast_raw_us": "us",
    "rm.dispatches": "count", "rm.heartbeats_sent": "count",
    "rm.subtask_reallocations": "count", "rm.jobs_started": "count",
    "rm.launch_requeues": "count", "rm.recovery_retries": "count",
    "sched.cycles": "count", "sched.backfill_decisions": "count",
    "sched.pending_at_end": "count", "sched.pass_us": "us", "sched.easy_pass_us": "us",
    "predict.retrains": "count", "predict.retrain_ms": "ms",
    "predict.retrain_probe_ms": "ms", "predict.estimate_us": "us",
    "cluster.failures_injected": "count", "cluster.nodes_repaired": "count",
    "ha.wal_records": "count", "ha.wal_batches": "count",
    "ha.replication_batches": "count", "ha.snapshots": "count",
    "ha.promotions": "count", "ha.takeover_ms": "ms",
    "trace_overhead": "ratio",
    **MODELLED,
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark (both incremental); returns the
    binary path.  The build log is shown only when a step fails."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    for step in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))]):
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise RuntimeError("%s exited %d" % (" ".join(step), proc.returncode))
    return os.path.join(build_dir, "eslurm_perfbench")


def run_world(binary, workload, seed, traced=False, setup_reps=SETUP_REPS):
    """Runs one world process; returns (result dict or None, exit code)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--setup-reps", str(setup_reps)]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return result, proc.returncode


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def check_world(checks, result, code, label):
    checks.add(label + ":exit", code == 0 and result is not None)
    for name, ok in (result or {}).get("checks", {}).items():
        checks.add(label + ":" + name, ok)


def check_pins(checks, workload, seed, result, key):
    """At the workload's default seed, `key` must equal its pinned value."""
    with open(os.path.join(HERE, "pins.json")) as f:
        pin = json.load(f)[workload]
    if seed == pin["seed"] and result is not None:
        checks.add("pinned_" + key, result.get(key) == pin[key])


def measure_untraced(binary, workload, seed, seconds, checks):
    results = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        result, code = run_world(binary, workload, seed)
        check_world(checks, result, code, "rep%d" % len(results))
        if result is None:
            return None
        results.append(result)
        elapsed = time.monotonic() - start
        if elapsed + (time.monotonic() - began) > seconds:
            break
    first = results[0]
    checks.add("repeat_digests_identical", all(r["digest"] == first["digest"] for r in results))
    checks.add("repeat_modelled_identical",
               all(r[m] == first[m] for r in results for m in ["sim_master_cpu_min", *MODELLED]))
    check_pins(checks, workload, seed, first, "digest")
    print("build %s flags [%s]" % (first["build_type"], first["cxx_flags"].strip()))
    print("digest %s %s seed=%d repeats=%d" % (workload, first["digest"], seed, len(results)))
    print("repeats wall_s %s" % " ".join("%.4f" % r["wall_s"] for r in results))
    values = {name: statistics.median(r[name] for r in results)
              for name in END_TO_END if name != "setup_s"}
    values["setup_s"] = statistics.median(s for r in results for s in r["setup_s"])
    return values


def measure_traced(binary, workload, seed, checks):
    plain, code = run_world(binary, workload, seed, setup_reps=1)
    check_world(checks, plain, code, "untraced")
    traced, code = run_world(binary, workload, seed, traced=True, setup_reps=1)
    check_world(checks, traced, code, "traced")
    if plain is None or traced is None:
        return None
    checks.add("traced_digest_matches_untraced", plain["digest"] == traced["digest"])
    check_pins(checks, workload, seed, traced, "digest")
    check_pins(checks, workload, seed, traced, "event_seq_hash")
    print("build %s flags [%s]" % (traced["build_type"], traced["cxx_flags"].strip()))
    print("digest %s %s seed=%d traced" % (workload, traced["digest"], seed))
    print("event_seq_hash %s %s seed=%d" % (workload, traced["event_seq_hash"], seed))
    values = dict(traced["layers"])
    values.update({name: plain[name] for name in MODELLED})
    values["trace_overhead"] = values["core.run_s"] / plain["run_s"] - 1.0
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError) as error:
        log("perfbench: build failed: %s" % error)
        return 1

    checks = Checks()
    if args.trace:
        values = measure_traced(binary, args.workload, args.seed, checks)
        units = PER_LAYER
    else:
        values = measure_untraced(binary, args.workload, args.seed, args.seconds, checks)
        units = END_TO_END
    if values is None:
        log("perfbench: a world process failed; no result")
        return 1
    for name in checks.failed:
        log("perfbench: CHECK FAILED %s" % name)
    print("check_failures %d/%d" % (len(checks.failed), checks.attempted))
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
