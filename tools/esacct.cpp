// esacct -- query an accounting database written by esim (the sacct /
// sreport equivalent).
//
//   esacct jobs.acct                      # per-user usage summary
//   esacct jobs.acct --user alice         # that user's jobs
//   esacct jobs.acct --state TIMEOUT      # jobs killed at their limit
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "rm/accounting_storage.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace eslurm;

int main(int argc, char** argv) {
  ArgParser args;
  args.add_option("user", "filter: user name");
  args.add_option("name", "filter: job name");
  args.add_option("state", "filter: COMPLETED | TIMEOUT | CANCELLED | FAILED");
  args.add_flag("summary", "force the per-user summary even with filters");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "esacct: %s\n", args.error().c_str());
    return 2;
  }
  if (args.help_requested() || args.positional().empty()) {
    std::fputs(args.usage("esacct <file.acct>", "Query a job-accounting database.")
                   .c_str(),
               stdout);
    return args.help_requested() ? 0 : 2;
  }

  std::ifstream file(args.positional()[0]);
  if (!file) {
    std::fprintf(stderr, "esacct: cannot read '%s'\n", args.positional()[0].c_str());
    return 1;
  }
  rm::AccountingStorage db;
  try {
    db = rm::AccountingStorage::load(file);
  } catch (const std::invalid_argument& error) {  // a malformed line
    std::fprintf(stderr, "esacct: %s: %s\n", args.positional()[0].c_str(), error.what());
    return 1;
  }

  rm::JobFilter filter;
  bool filtered = false;
  if (const auto user = args.get("user")) {
    filter.user = *user;
    filtered = true;
  }
  if (const auto name = args.get("name")) {
    filter.name = *name;
    filtered = true;
  }
  if (const auto state = args.get("state")) {
    filtered = true;
    if (*state == "TIMEOUT") filter.state = sched::JobState::TimedOut;
    else if (*state == "CANCELLED") filter.state = sched::JobState::Cancelled;
    else if (*state == "FAILED") filter.state = sched::JobState::Failed;
    else filter.state = sched::JobState::Completed;
  }

  if (filtered && !args.has_flag("summary")) {
    Table table({"JOBID", "USER", "NAME", "PART", "NODES", "WAIT(s)", "RUN(s)",
                 "STATE"});
    for (const auto& record : db.query(filter))
      table.add_row({std::to_string(record.id), record.user, record.name,
                     record.partition, std::to_string(record.nodes),
                     format_double(to_seconds(record.wait()), 4),
                     format_double(to_seconds(record.runtime()), 4),
                     sched::job_state_name(record.final_state)});
    table.print();
    return 0;
  }

  std::printf("%zu jobs, %.1f node-hours total\n\n", db.size(),
              db.total_node_hours());
  Table table({"USER", "JOBS", "NODE-HOURS", "AVG WAIT (s)"});
  for (const auto& usage : db.usage_by_user())
    table.add_row({usage.user, std::to_string(usage.jobs),
                   format_double(usage.node_hours, 4),
                   format_double(usage.avg_wait_seconds, 4)});
  table.print();
  return 0;
}
