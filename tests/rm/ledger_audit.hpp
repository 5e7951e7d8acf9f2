// Test guard that audits a resource manager's node ledger: it runs
// NodeLedger::check() before every event the engine executes and once
// more when it goes out of scope, and reports each violation as a test
// failure.  Declare it after the manager so it is destroyed first.
#pragma once

#include <gtest/gtest.h>

#include "rm/resource_manager.hpp"

namespace eslurm::rm {

class LedgerAudit {
 public:
  LedgerAudit(sim::Engine& engine, const ResourceManager& manager)
      : engine_(engine), manager_(manager) {
    engine_.set_exec_observer(
        [](void* ctx, SimTime time, std::uint64_t) {
          static_cast<LedgerAudit*>(ctx)->audit(time);
        },
        this);
  }
  ~LedgerAudit() {
    engine_.set_exec_observer(nullptr, nullptr);
    audit(engine_.now());
  }
  LedgerAudit(const LedgerAudit&) = delete;
  LedgerAudit& operator=(const LedgerAudit&) = delete;

 private:
  void audit(SimTime time) {
    if (failed_) return;  // one report per test, not one per event
    for (const std::string& violation : manager_.nodes().check()) {
      failed_ = true;
      ADD_FAILURE() << "node ledger at t=" << to_seconds(time) << "s: " << violation;
    }
  }

  sim::Engine& engine_;
  const ResourceManager& manager_;
  bool failed_ = false;
};

}  // namespace eslurm::rm
