#include "trace/generator.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

namespace eslurm::trace {
namespace {

constexpr double kMaxDiurnal = 1.5;

/// Wall-limit rounding: users request 15-minute-granular limits.
SimTime round_up_estimate(double seconds_value) {
  const double quantum = 15.0 * 60.0;
  const double rounded = std::ceil(seconds_value / quantum) * quantum;
  return from_seconds(std::max(rounded, 600.0));  // nobody requests < 10 min
}

/// FNV-1a, fixed offset/prime: std::hash is implementation-defined, and
/// the user -> account mapping must be identical across toolchains.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::string account_for_user(const WorkloadProfile& profile,
                             const std::string& user) {
  if (profile.account_count == 0) return "";
  return "acct" + std::to_string(fnv1a(user) % profile.account_count);
}

std::vector<std::pair<std::string, std::string>> account_hierarchy(
    const WorkloadProfile& profile) {
  std::vector<std::pair<std::string, std::string>> edges;
  if (profile.account_count == 0) return edges;
  const bool grouped = profile.account_depth >= 2 && profile.account_count > 1;
  const std::size_t divisions =
      grouped ? std::max<std::size_t>(1, profile.account_count / 4) : 0;
  for (std::size_t d = 0; d < divisions; ++d)
    edges.emplace_back("div" + std::to_string(d), "");
  for (std::size_t k = 0; k < profile.account_count; ++k) {
    const std::string parent =
        divisions > 0 ? "div" + std::to_string(k % divisions) : "";
    edges.emplace_back("acct" + std::to_string(k), parent);
  }
  return edges;
}

TraceGenerator::TraceGenerator(WorkloadProfile profile)
    : profile_(std::move(profile)),
      rng_(profile_.seed),
      user_zipf_(profile_.user_zipf),
      app_zipf_(profile_.app_zipf),
      size_zipf_(profile_.large_job_zipf) {
  // Global application catalog: the same code has a characteristic
  // runtime scale no matter who runs it (this is what makes the job name
  // a predictive feature, Table IV).
  apps_.reserve(profile_.n_apps);
  for (std::size_t a = 0; a < profile_.n_apps; ++a) {
    AppInfo app;
    app.name = "app" + std::to_string(a);
    app.long_job = rng_.chance(profile_.long_job_fraction);
    app.median_minutes =
        app.long_job
            ? rng_.uniform(6.0 * 60.0, 36.0 * 60.0)
            : profile_.runtime_median_minutes *
                  std::exp(rng_.normal(0.0, profile_.runtime_sigma));
    // How the code scales with node count: most HPC codes shrink their
    // runtime sublinearly with more nodes (strong scaling); some run
    // fixed-time larger problems (weak scaling, exponent ~0).
    app.scaling_exponent = rng_.uniform(-0.5, 0.0);
    apps_.push_back(std::move(app));
  }
  drift_.resize(apps_.size());
  // Node counts are powers of two up to the profile's cap.
  int max_exp = 0;
  while ((1 << (max_exp + 1)) <= profile_.max_nodes_per_job) ++max_exp;
  size_ranks_ = static_cast<std::size_t>(max_exp) + 1;
}

double TraceGenerator::diurnal_rate_multiplier(SimTime t, bool long_job) const {
  const int hour = hour_of_day(t);
  if (long_job) {
    // Long jobs are submitted mostly in the evening (Section V-A: 71.4%
    // of > 6 h jobs between 18:00 and 24:00).
    return (hour >= 18) ? kMaxDiurnal : 0.25;
  }
  if (hour < 7) return 0.45;   // night
  if (hour < 18) return 1.3;   // working day
  return 1.1;                  // evening
}

double TraceGenerator::app_drift(std::size_t app_index, SimTime at) {
  const auto day = static_cast<std::size_t>(at / days(1));
  auto& walk = drift_[app_index];
  while (walk.size() <= day) {
    const double prev = walk.empty() ? 1.0 : walk.back();
    walk.push_back(prev *
                   std::exp(drift_rng_.normal(0.0, profile_.app_runtime_drift_per_day)));
  }
  return walk[day];
}

TraceGenerator::JobConfig TraceGenerator::fresh_config() {
  JobConfig config;
  // Popular codes are reused by many users (Zipf over the catalog).
  const std::size_t app_index = app_zipf_.draw(rng_, apps_.size());
  const AppInfo& app = apps_[app_index];
  config.app_index = app_index;
  // Node counts are power-of-two-ish and heavily skewed toward small.
  config.nodes = 1 << size_zipf_.draw(rng_, size_ranks_);
  config.long_job = app.long_job;
  // A user's input deck scales the app's characteristic runtime modestly,
  // and the node count moves it along the app's scaling curve.
  config.runtime_median_min = app.median_minutes * rng_.uniform(0.85, 1.25) *
                              std::pow(config.nodes / 8.0, app.scaling_exponent);
  // Repeats of the same configuration are highly repeatable (same code,
  // same input deck): only system noise perturbs the runtime.  The
  // paper's Table VIII implies this noise is a few percent on Tianhe
  // (a 5% slack eliminates most underestimation).
  config.runtime_sigma = rng_.uniform(0.02, 0.10);
  config.scaling_exponent = app.scaling_exponent;
  return config;
}

double TraceGenerator::draw_estimate_ratio() {
  const double u = rng_.next_double();
  if (u < profile_.under_estimate_frac) return rng_.uniform(0.3, 0.9);
  if (u < profile_.under_estimate_frac + profile_.accurate_estimate_frac)
    return rng_.uniform(0.9, 1.1);
  // Overestimate: lognormal >= 1, heavy tail (users request default huge
  // limits), capped at 100x as in the Fig. 5a axis.
  const double p = std::exp(std::abs(rng_.normal(0.35, profile_.over_sigma))) + 0.1;
  return std::clamp(p, 1.1, 100.0);
}

TraceGenerator::Draft TraceGenerator::draft(std::size_t user_index,
                                            const JobConfig& config, SimTime submit) {
  Draft job;
  job.submit = submit;
  job.user_index = static_cast<std::uint32_t>(user_index);
  job.app_index = static_cast<std::uint32_t>(config.app_index);
  job.nodes = config.nodes;
  const double runtime_s = config.runtime_median_min * 60.0 *
                           app_drift(config.app_index, submit) *
                           std::exp(rng_.normal(0.0, config.runtime_sigma));
  job.actual_runtime = from_seconds(std::clamp(runtime_s, 10.0, 7.0 * 24 * 3600.0));
  job.user_estimate =
      round_up_estimate(to_seconds(job.actual_runtime) * draw_estimate_ratio());
  return job;
}

std::vector<TraceJob> TraceGenerator::generate(SimTime duration) {
  // Users, with Zipf-skewed activity.
  std::vector<UserState> users(profile_.n_users);
  for (std::size_t u = 0; u < users.size(); ++u) {
    users[u].name = "user" + std::to_string(u);
    const auto n_configs = static_cast<std::size_t>(rng_.uniform_int(
        profile_.configs_per_user_min, profile_.configs_per_user_max));
    for (std::size_t c = 0; c < n_configs; ++c)
      users[u].configs.push_back(fresh_config());
  }

  std::vector<Draft> drafts;
  const double max_rate_per_s = profile_.jobs_per_hour * kMaxDiurnal / 3600.0;
  double t = 0.0;
  const double horizon = to_seconds(duration);
  // Session follow-ups: a submission often triggers a near-term repeat of
  // the same configuration (min-heap on fire time).
  struct FollowUp {
    double at;
    std::size_t user_index;
    std::size_t config_index;
    bool operator>(const FollowUp& o) const { return at > o.at; }
  };
  std::priority_queue<FollowUp, std::vector<FollowUp>, std::greater<>> followups;

  while (true) {
    // Next event: the Poisson arrival stream or a pending follow-up.
    double t_next = t + rng_.exponential(1.0 / max_rate_per_s);
    bool is_followup = false;
    FollowUp follow{};
    if (!followups.empty() && followups.top().at < t_next) {
      follow = followups.top();
      followups.pop();
      t_next = follow.at;
      is_followup = true;
    }
    t = t_next;
    if (t >= horizon) break;
    const SimTime now = from_seconds(t);
    if (!is_followup &&
        !rng_.chance(diurnal_rate_multiplier(now, false) / kMaxDiurnal))
      continue;

    std::size_t user_index;
    std::size_t config_idx;
    if (is_followup) {
      user_index = follow.user_index;
      config_idx = follow.config_index;
    } else {
      user_index = user_zipf_.draw(rng_, users.size());
      UserState& user = users[user_index];
      if (!user.recent.empty() && rng_.chance(profile_.resubmit_prob)) {
        // Repeat a recent configuration, biased toward the most recent
        // (HPC users iterate on what they just ran).
        const std::size_t rank = recent_zipf_.draw(rng_, user.recent.size());
        config_idx = user.recent[user.recent.size() - 1 - rank];
      } else {
        config_idx = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(user.configs.size()) - 1));
        if (rng_.chance(profile_.config_churn)) {
          // The working set churns: this configuration is replaced.
          user.configs[config_idx] = fresh_config();
        }
      }
    }
    UserState& user = users[user_index];
    JobConfig config = user.configs[config_idx];
    // Scaling studies / capacity adjustments: some submissions rerun the
    // same input deck on a different node count for this run only; the
    // runtime follows the application's scaling curve.
    if (!is_followup && rng_.chance(profile_.scaling_study_prob)) {
      const bool grow = rng_.chance(0.5) && config.nodes * 2 <= profile_.max_nodes_per_job;
      const double factor = grow ? 2.0 : 0.5;
      const int new_nodes = std::max(1, static_cast<int>(config.nodes * factor));
      config.runtime_median_min *=
          std::pow(static_cast<double>(new_nodes) / config.nodes,
                   config.scaling_exponent);
      config.nodes = new_nodes;
    }

    // Long jobs get deferred into the evening with the observed bias.
    // "Long" covers every run expected past ~6 h, not just day-scale apps.
    const bool likely_long = config.long_job || config.runtime_median_min > 240.0;
    SimTime submit = now;
    if (likely_long && hour_of_day(now) < 18 &&
        rng_.chance(profile_.long_job_evening_bias)) {
      const SimTime day_start = (now / days(1)) * days(1);
      submit = day_start + hours(18) +
               from_seconds(rng_.uniform(0.0, 6.0 * 3600.0));
      if (submit >= duration) submit = now;  // keep inside the horizon
    }

    drafts.push_back(draft(user_index, config, submit));
    user.recent.push_back(config_idx);
    if (user.recent.size() > 8) user.recent.erase(user.recent.begin());

    // Spawn a session follow-up with a short gap.
    if (rng_.chance(profile_.burst_prob)) {
      followups.push(FollowUp{
          t + rng_.exponential(profile_.burst_gap_hours * 3600.0), user_index,
          config_idx});
    }
  }

  // Deferrals perturb the order; ids are assigned in final submit order.
  // Sorting (submit, draw index) keys orders the drafts as a stable sort
  // by submit time would, without moving a job.
  std::vector<std::pair<SimTime, std::uint32_t>> order(drafts.size());
  for (std::size_t i = 0; i < drafts.size(); ++i)
    order[i] = {drafts[i].submit, static_cast<std::uint32_t>(i)};
  std::sort(order.begin(), order.end());

  // Policy tags ride on top of the finished trace: accounts are a pure
  // function of the user name, QoS draws come from policy_rng_ in id
  // order.  With the knobs at zero this changes nothing and draws
  // nothing, so the base stream (and the golden hash) is untouched.
  std::vector<std::string> accounts;
  if (profile_.account_count > 0) {
    accounts.reserve(users.size());
    for (const UserState& user : users) accounts.push_back(account_for_user(profile_, user.name));
  }
  const bool qos_mix = profile_.qos_high_frac > 0.0 || profile_.qos_low_frac > 0.0;
  std::vector<TraceJob> jobs(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Draft& drafted = drafts[order[i].second];
    TraceJob& job = jobs[i];
    job.id = i + 1;
    job.user = users[drafted.user_index].name;
    job.name = apps_[drafted.app_index].name;
    job.nodes = drafted.nodes;
    job.cores = drafted.nodes * 12;
    job.submit_time = drafted.submit;
    job.actual_runtime = drafted.actual_runtime;
    job.user_estimate = drafted.user_estimate;
    if (!accounts.empty()) job.account = accounts[drafted.user_index];
    if (qos_mix) {
      const double r = policy_rng_.uniform(0.0, 1.0);
      if (r < profile_.qos_high_frac)
        job.qos = "high";
      else if (r < profile_.qos_high_frac + profile_.qos_low_frac)
        job.qos = "low";
    }
  }
  return jobs;
}

std::vector<TraceJob> TraceGenerator::generate_jobs(
    std::size_t target_jobs, SimTime duration) {
  // Scale the arrival rate so the expected count matches the target.
  // Session follow-ups multiply the Poisson stream by ~1/(1 - burst_prob),
  // so the base rate is discounted accordingly.
  const double hours_total = to_seconds(duration) / 3600.0;
  WorkloadProfile scaled = profile_;
  scaled.jobs_per_hour = static_cast<double>(target_jobs) / hours_total *
                         (1.0 - scaled.burst_prob);
  TraceGenerator generator(scaled);
  return generator.generate(duration);
}

}  // namespace eslurm::trace
