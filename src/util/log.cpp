#include "util/log.hpp"

#include <cstdio>

namespace eslurm {

void log_warning(const std::string& message) {
  std::fprintf(stderr, "[WARN] %s\n", message.c_str());
}

}  // namespace eslurm
