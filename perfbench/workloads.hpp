// The benchmark's workloads.  Each one is a single world -- one
// core::Experiment run on one thread -- whose configuration and trace are
// derived from the workload seed alone (sched_backlog keeps one trace for
// every seed; see workloads.cpp for why).  Traces come straight from
// trace::TraceGenerator (not from the bench/ helpers), so edits to the
// paper benches can never shift the benchmark's inputs.
//
//   ctl100k        ESLURM control plane at 102,400 nodes, 1 h, clean
//                  network: sim / net / transport / comm dominate.
//   sched_backlog  centralized RM, 1,024 nodes, 96 h, offered load ~1.5,
//                  policy scheduler + runtime estimation + node failures:
//                  sched / predict dominate; bypasses transport + FP-Tree.
//   faults16k      ESLURM at 16,384 nodes, 6 h, node failures, message
//                  drop/duplication, recovery and an HA master kill: the
//                  retransmit, dedup, incremental FP-Tree and HA paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

bool known_workload(const std::string& name);

/// The world configuration of `name` at `seed` (telemetry left unset).
eslurm::core::ExperimentConfig make_config(const std::string& name,
                                           std::uint64_t seed);

/// The job trace of `name` at `seed`.
std::vector<eslurm::sched::Job> make_trace(const std::string& name,
                                           std::uint64_t seed);

}  // namespace perfbench
