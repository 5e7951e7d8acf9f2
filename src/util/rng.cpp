#include "util/rng.hpp"

#include <cmath>

namespace eslurm {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  // Mix the base once so adjacent bases land far apart, fold the stream
  // index in with the golden-ratio increment, then mix again.  Two
  // finalizer passes give full avalanche between (base, stream) pairs.
  std::uint64_t state = base;
  std::uint64_t mixed = splitmix64(state);
  state = mixed ^ ((stream + 1) * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& si : s_) si = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

bool Rng::chance(double p) { return next_double() < p; }

double Rng::exponential(double mean) {
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  if (has_spare_) {
    has_spare_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_normal_ = mag * std::sin(2.0 * M_PI * u2);
  has_spare_ = true;
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

std::size_t Rng::zipf(std::size_t n, double s) {
  if (n == 0) return 0;
  // Inverse-CDF over the (small) harmonic table would cost O(n) per draw;
  // use rejection-free cumulative search on demand for modest n, or the
  // approximation for large n.  Workload generation uses n <= a few
  // thousand, so a direct cumulative walk is fine and exact.
  double h = 0.0;
  for (std::size_t i = 1; i <= n; ++i) h += 1.0 / std::pow(static_cast<double>(i), s);
  double u = next_double() * h;
  double acc = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i), s);
    if (u <= acc) return i - 1;
  }
  return n - 1;
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace eslurm
