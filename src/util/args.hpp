// Minimal command-line argument parser for the tools/ binaries:
// "--key value" options, "--flag" booleans, and positional arguments.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace eslurm {

class ArgParser {
 public:
  /// Declares a value option (for --help and validation).  The default
  /// is shown in --help only: an option that was not given has no value,
  /// so callers can tell a given flag from an absent one.
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value = "");
  /// Declares a boolean flag.
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv; returns false (and fills error()) on unknown options or
  /// missing values.  "--help" sets help_requested().
  bool parse(int argc, const char* const* argv);

  bool help_requested() const { return help_; }
  const std::string& error() const { return error_; }

  /// Usage text from the declarations.
  std::string usage(const std::string& program, const std::string& summary) const;

  /// The given value, or nullopt when the option was not given.
  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, const std::string& fallback) const;
  /// The given value as a number, or `fallback` when the option was not
  /// given.  Throws std::invalid_argument when the value is not a number.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool has_flag(const std::string& name) const { return flags_set_.count(name) > 0; }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  struct Declaration {
    std::string help;
    std::string default_value;
    bool is_flag = false;
  };
  std::map<std::string, Declaration> declared_;
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_set_;
  std::vector<std::string> positional_;
  bool help_ = false;
  std::string error_;
};

}  // namespace eslurm
