// Deterministic pseudo-random number generation.
//
// Every stochastic component of the simulator owns its own Rng seeded from
// an experiment-level master seed, so experiments are reproducible and
// components can be re-ordered without perturbing each other's streams.
#pragma once

#include <cstdint>
#include <vector>

namespace eslurm {

/// Derives the seed for stream `stream` of a family rooted at `base` via
/// a splitmix64 mixer.  Sweep replica k runs with derive_seed(base, k),
/// which is reproducible in isolation (no dependence on which replicas
/// ran before it) and decorrelated from neighbouring streams -- unlike
/// the `seed + i` arithmetic it replaces, where nearby seeds feed nearly
/// identical state into the generator.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

/// xoshiro256** with SplitMix64 seeding.  Small, fast, and good enough
/// statistical quality for workload synthesis and failure injection.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] (inclusive).  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p.
  bool chance(double p);

  /// Exponential variate with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal via Box-Muller (cached spare).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator (for per-component streams).
  Rng fork();

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

/// Zipf rank selection for one exponent s (>= 0): rank k of n items has
/// weight 1/(k+1)^s, so rank 0 is the most popular.  Used for user,
/// application and job-size popularity.
///
/// The table keeps the prefix sums cum[i] = cum[i-1] + 1/(i+1)^s, added
/// in index order and extended on demand, so the table for n items is a
/// prefix of the table for any larger n and one table serves every n.
/// A draw is one next_double() scaled by cum[n-1] and a binary search:
/// the rank is the first i with u <= cum[i], exactly the rank a linear
/// walk of the same running sum returns.  Not shared between threads.
class ZipfTable {
 public:
  explicit ZipfTable(double s) : s_(s) {}

  /// A rank in [0, n); 0 without drawing when n == 0.
  std::size_t draw(Rng& rng, std::size_t n);

 private:
  double s_;
  std::vector<double> cum_;
};

}  // namespace eslurm
