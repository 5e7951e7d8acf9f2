// Monitoring & diagnostic substrate and failure prediction.
//
// Models the Tianhe three-layer monitoring hierarchy the paper relies on
// (Section IV-C): per-board BMUs report to chassis CMUs, which report to
// the system SMU over a dedicated diagnostic network.  Over 200 hardware
// indicators (voltage, current, temperature, cooling, NIC health ...) are
// abstracted into alert events: when a node's hardware starts degrading,
// an alert propagates BMU -> CMU -> SMU with small hop delays and, from
// then on, the node is *predicted failed*.
//
// The paper adopts over-prediction on purpose: a predicted node is merely
// moved to a leaf of the communication tree, so false alarms are cheap.
// We model an imperfect sensor: a true pre-failure alert fires with
// probability `hit_rate`; independent false alarms arrive as a Poisson
// process and expire after a holding time.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/failure_model.hpp"
#include "util/rng.hpp"

namespace eslurm::cluster {

struct MonitoringParams {
  double hit_rate = 0.85;            ///< P(alert precedes a real failure)
  double false_alarms_per_node_day = 0.002;
  double false_alarm_hold_hours = 6.0;
  SimTime bmu_to_cmu_delay = milliseconds(5);
  SimTime cmu_to_smu_delay = milliseconds(5);
  std::size_t nodes_per_chassis = 32;  ///< BMUs aggregated per CMU
};

/// Abstract failure predictor consumed by the FP-Tree constructor.  The
/// paper implements prediction as a plugin; this interface is that plugin
/// boundary.  Consumers query it afresh on every broadcast, so a
/// predictor only has to answer for the present.
class FailurePredictor {
 public:
  virtual ~FailurePredictor() = default;
  /// True if `node` is currently predicted to fail.
  virtual bool predicted_failed(NodeId node) const = 0;
  /// Number of currently predicted nodes (diagnostics only).
  virtual std::size_t predicted_count() const = 0;
};

/// Predictor that never predicts: turns an FP-Tree into a plain tree.
class NullFailurePredictor final : public FailurePredictor {
 public:
  bool predicted_failed(NodeId) const override { return false; }
  std::size_t predicted_count() const override { return 0; }
};

/// Oracle predictor for tests/benches: exactly a fixed set, mutable via
/// set_predicted so prediction changes between broadcasts can be exercised.
class StaticFailurePredictor final : public FailurePredictor {
 public:
  explicit StaticFailurePredictor(std::vector<NodeId> nodes);
  bool predicted_failed(NodeId node) const override { return set_.count(node) > 0; }
  std::size_t predicted_count() const override { return set_.size(); }

  /// Adds or removes one node's prediction.
  void set_predicted(NodeId node, bool predicted);

 private:
  std::unordered_set<NodeId> set_;
};

class MonitoringSystem final : public FailurePredictor {
 public:
  MonitoringSystem(ClusterModel& cluster, FailureModel& failures, Rng rng,
                   MonitoringParams params = {});

  /// Starts false-alarm generation until `horizon` (genuine alerts are
  /// driven by the failure model's pre-failure hook regardless).
  void start(SimTime horizon);

  // FailurePredictor interface: the SMU's live alert set.  Queries hit
  // a flat bitset (one bit per node), not the alert map -- the FP-Tree
  // rearranger probes this once per listed node per broadcast.
  bool predicted_failed(NodeId node) const override {
    return predicted_.test(node);
  }
  std::size_t predicted_count() const override { return active_.size(); }
  /// The live predicted-failed bitset (for word-level scans).
  const NodeBitset& predicted_bits() const { return predicted_; }

  std::uint64_t alerts_raised() const { return raised_; }
  std::uint64_t genuine_alerts() const { return genuine_; }
  std::uint64_t false_alarms() const { return false_; }

 private:
  void raise_alert(NodeId node, bool genuine, SimTime expires_at);
  void expire_alert(NodeId node, std::uint64_t token);
  void arm_false_alarm(SimTime horizon);
  void clear_alert(NodeId node);

  ClusterModel& cluster_;
  Rng rng_;
  MonitoringParams params_;
  // node -> generation token of its live alert; the token invalidates
  // stale expiry events when an alert is refreshed.
  std::unordered_map<NodeId, std::uint64_t> active_;
  NodeBitset predicted_;  ///< bit per node: an alert is live
  std::uint64_t next_token_ = 1;
  std::uint64_t raised_ = 0, genuine_ = 0, false_ = 0;
};

}  // namespace eslurm::cluster
