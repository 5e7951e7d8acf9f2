#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "cluster/monitoring.hpp"
#include "comm/fp_tree.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using namespace eslurm;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `reps` calls of `sample` (each returns one measurement).
template <typename F>
double median_of(int reps, F&& sample) {
  std::vector<double> values;
  for (int i = 0; i < reps; ++i) values.push_back(sample());
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// One self-rescheduling event chain: each firing schedules the next.
struct Chain {
  sim::Engine* engine = nullptr;
  SimTime step = 1;
  std::uint64_t left = 0;
  void fire() {
    if (--left > 0) engine->schedule_after(step, [this] { fire(); });
  }
};

/// Targets of one satellite's ping relay in ctl100k (102,400 / 2).
constexpr std::size_t kPingTargets = 51200;

}  // namespace

double probe_churn_ns() {
  constexpr int kChains = 256;
  constexpr std::uint64_t kEventsPerChain = 4096;
  return median_of(5, [] {
    sim::Engine engine;
    std::vector<Chain> chains(kChains);
    for (int i = 0; i < kChains; ++i) {
      chains[i] = {&engine, 1 + i % 7, kEventsPerChain};
      engine.schedule_at(i, [chain = &chains[i]] { chain->fire(); });
    }
    const auto start = Clock::now();
    engine.run();
    return seconds_since(start) * 1e9 / static_cast<double>(engine.executed_events());
  });
}

double probe_bcast_us(bool reliable) {
  return median_of(3, [reliable] {
    sim::Engine engine;
    net::Network network(engine, 1 + kPingTargets, net::LinkModel{}, Rng(0xB0));
    cluster::NullFailurePredictor predictor;
    std::unique_ptr<net::ReliableTransport> transport;
    if (reliable) transport = std::make_unique<net::ReliableTransport>(network, Rng(0xB1));
    comm::FpTreeBroadcaster tree(network, predictor, "probe", transport.get());
    auto targets = std::make_shared<std::vector<net::NodeId>>(kPingTargets);
    std::iota(targets->begin(), targets->end(), net::NodeId{1});
    comm::BroadcastOptions options;
    options.tree_width = 50;
    std::size_t delivered = 0;
    const auto start = Clock::now();
    tree.broadcast(0, std::move(targets), options,
                   [&delivered](const comm::BroadcastResult& r) { delivered = r.delivered; });
    engine.run();
    const double us = seconds_since(start) * 1e6;
    if (delivered != kPingTargets) throw std::runtime_error("probe broadcast lost targets");
    return us;
  });
}

double probe_sched_pass_us(sched::Scheduler& scheduler, const sched::JobPool& pool,
                           int free_nodes, SimTime now) {
  return median_of(5, [&] {
    const auto start = Clock::now();
    scheduler.schedule(pool, free_nodes, now);
    return seconds_since(start) * 1e6;
  });
}

double probe_retrain_ms(predict::RuntimeEstimator& estimator) {
  return median_of(3, [&] {
    const auto start = Clock::now();
    estimator.retrain();
    return seconds_since(start) * 1e3;
  });
}

double probe_estimate_us(const predict::RuntimeEstimator& estimator,
                         const sched::JobPool& pool) {
  std::vector<const sched::Job*> jobs;
  for (const sched::JobId id : pool.finished()) jobs.push_back(&pool.get(id));
  for (const sched::JobId id : pool.pending()) jobs.push_back(&pool.get(id));
  if (jobs.empty()) return 0.0;
  return median_of(3, [&] {
    const auto start = Clock::now();
    for (const sched::Job* job : jobs) estimator.estimate(*job);
    return seconds_since(start) * 1e6 / static_cast<double>(jobs.size());
  });
}

}  // namespace perfbench
