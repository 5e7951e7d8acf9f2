// slurm.conf-style configuration: "Key=Value" lines, '#' comments.
//
// ESLURM is configured exactly like Slurm plus a handful of new keys
// (SatelliteNodes, FpTreeWidth, EstimatorWindow ...); this parser backs
// the examples and lets experiment setups be written as config text.
#pragma once

#include <map>
#include <optional>
#include <string>

namespace eslurm {

class Config {
 public:
  Config() = default;

  /// Parses config text; later duplicate keys override earlier ones.
  /// Keys are case-insensitive (stored lower-cased), as in slurm.conf.
  static Config parse(const std::string& text);

  void set(const std::string& key, const std::string& value);

  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::map<std::string, std::string>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace eslurm
