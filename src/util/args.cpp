#include "util/args.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace eslurm {

void ArgParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  declared_[name] = Declaration{help, default_value, false};
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  declared_[name] = Declaration{help, "", true};
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      const std::string name = arg.substr(2);
      const auto it = declared_.find(name);
      if (it == declared_.end()) {
        error_ = "unknown option --" + name;
        return false;
      }
      if (it->second.is_flag) {
        flags_set_.insert(name);
      } else {
        if (i + 1 >= argc) {
          error_ = "option --" + name + " needs a value";
          return false;
        }
        values_[name] = argv[++i];
      }
    } else {
      positional_.push_back(arg);
    }
  }
  return true;
}

std::string ArgParser::usage(const std::string& program,
                             const std::string& summary) const {
  std::ostringstream os;
  os << summary << "\n\nusage: " << program << " [options]\n\noptions:\n";
  for (const auto& [name, declaration] : declared_) {
    os << "  --" << name;
    if (!declaration.is_flag) os << " <value>";
    os << "\n      " << declaration.help;
    if (!declaration.default_value.empty())
      os << " (default: " << declaration.default_value << ")";
    os << "\n";
  }
  os << "  --help\n      show this text\n";
  return os.str();
}

std::optional<std::string> ArgParser::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::get_or(const std::string& name,
                              const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t ArgParser::get_int(const std::string& name, std::int64_t fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(value->c_str(), &end, 10);
  if (value->empty() || *end != '\0')
    throw std::invalid_argument("--" + name + " needs an integer, got '" + *value + "'");
  return parsed;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (value->empty() || *end != '\0')
    throw std::invalid_argument("--" + name + " needs a number, got '" + *value + "'");
  return parsed;
}

}  // namespace eslurm
