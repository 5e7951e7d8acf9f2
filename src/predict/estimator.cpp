#include "predict/estimator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "telemetry/telemetry.hpp"

namespace eslurm::predict {

RuntimeEstimator::RuntimeEstimator(EstimatorConfig config, Rng rng,
                                   telemetry::Telemetry* telemetry)
    : config_(config), rng_(rng), telemetry_(telemetry) {}

void RuntimeEstimator::record_completion(const sched::Job& job) {
  if (job.actual_runtime <= 0) return;
  HistoricJob item;
  item.features = encode_features(job);
  item.log_runtime = std::log(to_seconds(job.actual_runtime));

  // Refresh the AEA of the cluster this job maps to, using the model
  // prediction the real-time module would have produced (Eqs. 4-5).
  if (model_ready()) {
    if (const auto predicted = model_predict(item.features)) {
      const auto [value, cluster] = *predicted;
      models_[cluster].accuracy.add(value, job.actual_runtime);
      model_accuracy_.add(value, job.actual_runtime);
      if (auto* t = telemetry_) {
        t->metrics
            .gauge("predict.cluster_aea", {{"cluster", std::to_string(cluster)}})
            .set(models_[cluster].accuracy.aea());
        t->metrics.gauge("predict.model_aea").set(model_accuracy_.aea());
      }
    }
  }

  history_.push_back(std::move(item));
  if (history_.size() > config_.max_history) history_.pop_front();
}

std::vector<double> RuntimeEstimator::scale_weighted(
    const std::vector<double>& raw) const {
  std::vector<double> scaled = scaler_.transform(raw);
  for (std::size_t j = 0; j < scaled.size(); ++j)
    scaled[j] *= config_.feature_weights[j];
  return scaled;
}

void RuntimeEstimator::retrain() {
  if (history_.size() < config_.min_history) return;
  auto* telem = telemetry_;
  const auto wall_start = telem ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point();
  const std::size_t window = std::min(config_.interest_window, history_.size());

  ml::Dataset data;
  data.x.reserve(window);
  data.y.reserve(window);
  for (std::size_t i = history_.size() - window; i < history_.size(); ++i) {
    data.x.push_back(history_[i].features);
    data.y.push_back(history_[i].log_runtime);
  }

  scaler_.fit(data);
  ml::Dataset scaled;
  scaled.y = data.y;
  scaled.x.reserve(data.rows());
  for (const auto& row : data.x) scaled.x.push_back(scale_weighted(row));

  std::size_t k = config_.clusters;
  if (k == 0) k = ml::elbow_select_k(scaled, 2, 20, rng_.fork());
  kmeans_ = std::make_unique<ml::KMeans>(ml::KMeansParams{.k = k}, rng_.fork());
  kmeans_->fit(scaled);

  // One SVR per cluster, trained on that cluster's members.  AEA trackers
  // restart with each generation (they grade the new models).
  std::vector<ClusterModel> fresh(kmeans_->k());
  std::vector<ml::Dataset> per_cluster(kmeans_->k());
  for (std::size_t i = 0; i < scaled.rows(); ++i)
    per_cluster[kmeans_->labels()[i]].add(scaled.x[i], scaled.y[i]);
  for (std::size_t c = 0; c < fresh.size(); ++c) {
    ml::Dataset& members = per_cluster[c];
    if (members.rows() == 0) {
      // Empty cluster: give it the global data so assign() stays safe.
      members = scaled;
    }
    fresh[c].svr = ml::Svr(config_.svr);
    fresh[c].svr.fit(members);
  }
  models_ = std::move(fresh);
  train_points_ = scaled.x;
  train_labels_ = kmeans_->labels();
  ++retrains_;
  if (telem) {
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();
    telem->metrics.counter("predict.retrains").inc();
    telem->metrics
        .histogram("predict.retrain_ms",
                   {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000})
        .observe(wall_ms);
    telem->tracer.instant("predict-retrain", "predict",
                          {{"window", static_cast<double>(window)},
                           {"k", static_cast<double>(kmeans_->k())},
                           {"wall_ms", wall_ms}});
  }
}

void RuntimeEstimator::maybe_retrain(SimTime now) {
  if (last_retrain_ >= 0 && now - last_retrain_ < config_.retrain_period) return;
  if (history_.size() < config_.min_history) return;
  last_retrain_ = now;
  retrain();
}

std::optional<std::pair<SimTime, std::size_t>> RuntimeEstimator::model_predict(
    const std::vector<double>& raw_features) const {
  if (!model_ready()) return std::nullopt;
  const std::vector<double> scaled = scale_weighted(raw_features);
  const std::size_t cluster = match_cluster(scaled);
  const double log_runtime = models_[cluster].svr.predict(scaled);
  // Eq. 3: multiply by the slack to penalize underestimation.
  const double runtime_s =
      std::exp(std::clamp(log_runtime, -2.0, 20.0)) * config_.alpha;
  return std::make_pair(from_seconds(std::max(runtime_s, 1.0)), cluster);
}

std::size_t RuntimeEstimator::match_cluster(const std::vector<double>& scaled) const {
  double best = std::numeric_limits<double>::max();
  std::size_t best_label = 0;
  for (std::size_t i = 0; i < train_points_.size(); ++i) {
    const double dist = ml::squared_distance(train_points_[i], scaled);
    if (dist < best) {
      best = dist;
      best_label = train_labels_[i];
      if (best == 0.0) break;  // exact configuration match
    }
  }
  return best_label;
}

Estimate RuntimeEstimator::estimate(const sched::Job& job) const {
  Estimate out;
  const auto predicted = model_predict(encode_features(job));
  if (predicted) {
    out.model_raw = predicted->first;
    out.cluster = predicted->second;
  }

  if (!predicted) {
    // No model yet: the user estimate (or a conservative default) rules.
    out.value = job.user_estimate > 0 ? job.user_estimate : hours(1);
    return out;
  }
  if (job.user_estimate <= 0) {
    // The user gave nothing: adopt the model estimate directly.
    out.value = predicted->first;
    out.from_model = true;
    return out;
  }
  // The user gave an estimate: prefer the model only when its cluster has
  // proven itself (AEA above the gate).
  const AccuracyTracker& acc = models_[predicted->second].accuracy;
  if (acc.count() >= 5 && acc.aea() > config_.aea_gate) {
    out.value = predicted->first;
    out.from_model = true;
  } else {
    out.value = job.user_estimate;
  }
  return out;
}

}  // namespace eslurm::predict
