// Small string utilities shared by config parsing and trace I/O.
#pragma once

#include <string>
#include <string_view>

namespace eslurm {

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// FNV-1a 64-bit hash; stable across runs, used for encoding string
/// features (job name, user name) into the ML feature space.
std::uint64_t fnv1a(std::string_view s);

/// printf-style double formatting helper ("%.3g" etc.) returning a string.
std::string format_double(double v, int precision = 3);

}  // namespace eslurm
