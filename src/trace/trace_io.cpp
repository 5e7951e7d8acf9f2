#include "trace/trace_io.hpp"

#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace eslurm::trace {

void write_trace(std::ostream& os, const std::vector<sched::Job>& jobs) {
  os << "# eslurm-trace v1\n";
  os << "# id submit_s runtime_s estimate_s nodes cores user name\n";
  char buf[256];
  for (const auto& job : jobs) {
    std::snprintf(buf, sizeof(buf), "%llu %.3f %.3f %.3f %d %d %s %s\n",
                  static_cast<unsigned long long>(job.id), to_seconds(job.submit_time),
                  to_seconds(job.actual_runtime), to_seconds(job.user_estimate),
                  job.nodes, job.cores, job.user.c_str(), job.name.c_str());
    os << buf;
  }
}

std::vector<sched::Job> read_trace(std::istream& is) {
  std::vector<sched::Job> jobs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::istringstream fields{std::string(trimmed)};
    sched::Job job;
    unsigned long long id = 0;
    double submit_s = 0, runtime_s = 0, estimate_s = 0;
    if (!(fields >> id >> submit_s >> runtime_s >> estimate_s >> job.nodes >>
          job.cores >> job.user >> job.name)) {
      throw std::invalid_argument("trace: malformed line " + std::to_string(line_no));
    }
    job.id = id;
    job.submit_time = from_seconds(submit_s);
    job.actual_runtime = from_seconds(runtime_s);
    job.user_estimate = from_seconds(estimate_s);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace eslurm::trace
