// Warnings to stderr.  A warning marks a run that took a degraded path
// (a corrupt replicated snapshot, a master and standby down together);
// routine events -- failures, repairs, retrains, takeovers -- are
// recorded as telemetry counters and tracer events instead.  The
// simulator is single-threaded, so no locking is needed.
#pragma once

#include <sstream>
#include <string>

namespace eslurm {

/// Emits "[WARN] <message>" as one line to stderr.
void log_warning(const std::string& message);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

#define ESLURM_WARN(...) ::eslurm::log_warning(::eslurm::detail::concat(__VA_ARGS__))

}  // namespace eslurm
