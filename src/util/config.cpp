#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

#include "util/strings.hpp"

namespace eslurm {
namespace {
std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}
}  // namespace

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto trimmed = trim(line);
    if (trimmed.empty()) continue;
    const std::size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) continue;  // tolerate malformed lines, as slurm does
    cfg.set(std::string(trim(trimmed.substr(0, eq))),
            std::string(trim(trimmed.substr(eq + 1))));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  entries_[lower(key)] = value;
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = entries_.find(lower(key));
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_or(const std::string& key, const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  return (end && *end == '\0' && !v->empty()) ? parsed : fallback;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  return (end && *end == '\0' && !v->empty()) ? parsed : fallback;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  const std::string s = lower(*v);
  if (s == "1" || s == "yes" || s == "true" || s == "on") return true;
  if (s == "0" || s == "no" || s == "false" || s == "off") return false;
  return fallback;
}

}  // namespace eslurm
