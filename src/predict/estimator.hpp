// The ESLURM job-runtime estimation framework (Section V, Fig. 6):
//
//   * estimation model generator -- periodically takes the historical
//     jobs inside a configurable interest window (default 700 jobs),
//     clusters them with K-means++ in the Table-IV feature space, and
//     trains one SVR model per cluster (on log-runtime);
//   * real-time estimation module -- event driven: encodes a newly
//     submitted job, matches the closest cluster, predicts with that
//     cluster's model, multiplies by the slack alpha (Eq. 3, default
//     1.05), and falls back to the user's estimate unless the cluster's
//     AEA clears the 90% gate (or the user gave no estimate at all);
//   * record module -- event driven: on job completion, appends the job
//     to the history queue and updates the cluster's AEA (Eqs. 4-5).
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "ml/kmeans.hpp"
#include "ml/scaler.hpp"
#include "ml/svr.hpp"
#include "predict/accuracy.hpp"
#include "predict/features.hpp"
#include "util/rng.hpp"

namespace eslurm::telemetry {
struct Telemetry;
}  // namespace eslurm::telemetry

namespace eslurm::predict {

struct EstimatorConfig {
  std::size_t interest_window = 700;   ///< jobs per retraining set
  SimTime retrain_period = hours(15);  ///< paper default
  std::size_t clusters = 15;           ///< K; 0 selects K by the elbow method
  double alpha = 1.05;                 ///< Eq. 3 slack multiplier
  double aea_gate = 0.90;              ///< model-vs-user-estimate gate
  std::size_t min_history = 50;        ///< jobs before the first model
  std::size_t max_history = 20000;     ///< history queue bound
  /// Post-standardization feature weights (Table-IV order: name x2,
  /// user x2, log nodes, log cores, hour-sin, hour-cos).  Identity
  /// features (job name, user) dominate both the clustering and the
  /// kernel: HPC runtime locality is mostly "same app resubmitted"
  /// (Fig. 5b/c).
  std::array<double, kFeatureCount> feature_weights{8.0, 8.0, 4.0, 4.0,
                                                    1.0, 1.0, 0.3, 0.3};
  ml::SvrParams svr{.kernel = ml::Kernel::Rbf,
                    .c = 50.0,
                    .epsilon = 0.02,
                    .gamma = 0.1,
                    .max_sweeps = 80};
};

struct Estimate {
  SimTime value = 0;        ///< what the scheduler should use
  SimTime model_raw = 0;    ///< model output incl. slack, 0 if no model
  bool from_model = false;  ///< false -> user estimate (or default) used
  std::size_t cluster = SIZE_MAX;
};

class RuntimeEstimator {
 public:
  /// The estimator has no engine of its own, so the owning RM injects
  /// its telemetry context (nullptr when off).
  explicit RuntimeEstimator(EstimatorConfig config = {}, Rng rng = Rng(4242),
                            telemetry::Telemetry* telemetry = nullptr);

  /// Record module: called when a job completes with its actual runtime.
  /// Also refreshes the AEA of the cluster the job maps to.
  void record_completion(const sched::Job& job);

  /// Model generator: rebuilds clusters + per-cluster SVRs from the
  /// interest window.  No-op until `min_history` jobs were recorded.
  void retrain();

  /// Drives periodic retraining from simulated time; call at (or after)
  /// submission/completion events.  Retrains at most once per period.
  void maybe_retrain(SimTime now);

  bool model_ready() const { return !models_.empty(); }
  std::size_t cluster_count() const { return models_.size(); }

  /// Real-time estimation module (Eq. 3 + the AEA gate).
  Estimate estimate(const sched::Job& job) const;

  /// Overall AEA / UR of the model predictions made so far (Section
  /// VII-E metrics, used by Table VIII and Fig. 11b).
  const AccuracyTracker& model_accuracy() const { return model_accuracy_; }

  const EstimatorConfig& config() const { return config_; }
  std::size_t history_size() const { return history_.size(); }
  std::uint64_t retrain_count() const { return retrains_; }

 private:
  struct HistoricJob {
    std::vector<double> features;
    double log_runtime = 0.0;
  };
  struct ClusterModel {
    ml::Svr svr;
    AccuracyTracker accuracy;
  };

  /// Predicts the slacked runtime for encoded features; returns nullopt
  /// when no model exists yet.
  std::optional<std::pair<SimTime, std::size_t>> model_predict(
      const std::vector<double>& raw_features) const;

  /// Standardizes then applies the configured feature weights.
  std::vector<double> scale_weighted(const std::vector<double>& raw) const;

  /// Closest-cluster matching for a scaled feature vector.  Uses the
  /// nearest *training sample*'s cluster rather than the nearest
  /// centroid: hashed identity features make centroid geometry
  /// meaningless for configurations the clustering split across
  /// boundaries, while the nearest sample always belongs to the model
  /// that actually trained on that configuration.
  std::size_t match_cluster(const std::vector<double>& scaled) const;

  EstimatorConfig config_;
  Rng rng_;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::deque<HistoricJob> history_;
  ml::StandardScaler scaler_;
  std::unique_ptr<ml::KMeans> kmeans_;
  std::vector<std::vector<double>> train_points_;  ///< scaled window rows
  std::vector<std::size_t> train_labels_;
  std::vector<ClusterModel> models_;
  AccuracyTracker model_accuracy_;
  SimTime last_retrain_ = -1;
  std::uint64_t retrains_ = 0;
};

}  // namespace eslurm::predict
