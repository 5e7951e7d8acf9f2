// Plain-text trace serialization in an SWF-inspired column format, so
// generated workloads can be persisted, inspected and replayed:
//
//   # eslurm-trace v1
//   # id submit_s runtime_s estimate_s nodes cores user name
//   1 12.500 3600.000 7200.000 64 768 user17 app42_v3
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sched/job.hpp"

namespace eslurm::trace {

void write_trace(std::ostream& os, const std::vector<sched::Job>& jobs);

/// Parses a trace; throws std::invalid_argument on malformed lines.
std::vector<sched::Job> read_trace(std::istream& is);

}  // namespace eslurm::trace
