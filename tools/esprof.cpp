// esprof -- summarize telemetry artifacts written with --telemetry-out
// (Chrome trace-event JSON with an embedded metrics snapshot) into
// paper-style tables: span durations grouped by name, counter tracks,
// instant-event counts, and the metrics registry with percentiles; and
// validate and render bench artifacts written with --json.
//
//   esprof trace.json                 # full summary of one artifact
//   esprof trace.json --spans         # span table only
//   esprof trace.json --metrics       # registry only
//   esprof trace.json --cat comm      # restrict events to one category
//   esprof sweep/*.trace.json         # merged per-point comparison: one
//                                     # column per artifact, counters /
//                                     # gauges / histogram means side by
//                                     # side (e.g. a sweep's points)
//   esprof BENCH_engine.json          # bench artifact (--json) summary:
//                                     # run-level envelope, headline
//                                     # metrics, checks, point means
//   esprof before/BENCH_engine.json after/BENCH_engine.json
//                                     # bench diff: the same tables side
//                                     # by side, with after/before ratios
//
// Exit status: 0, or 1 when an artifact cannot be read, a telemetry
// artifact is empty, a bench artifact's envelope is malformed (schema,
// bench name, run-level fields, non-empty points with the five stat keys
// per metric and "replicas" replicas each) or one of its checks failed;
// 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace eslurm;
using telemetry::JsonValue;

namespace {

struct SpanGroup {
  std::size_t count = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
};

double member_number(const JsonValue& object, const char* key, double fallback = 0.0) {
  const JsonValue* v = object.find(key);
  return v && v->is_number() ? v->as_number() : fallback;
}

std::string member_string(const JsonValue& object, const char* key) {
  const JsonValue* v = object.find(key);
  return v && v->is_string() ? v->as_string() : std::string();
}

void summarize_events(const JsonValue& events, const std::string& category_filter) {
  std::map<std::string, SpanGroup> spans;
  std::map<std::string, std::size_t> instants;
  std::map<std::string, std::pair<std::size_t, double>> counters;  // samples, last
  double t_min = 0.0, t_max = 0.0;
  bool any = false;

  for (const JsonValue& event : events.items()) {
    if (!event.is_object()) continue;
    const std::string cat = member_string(event, "cat");
    if (!category_filter.empty() && cat != category_filter) continue;
    const std::string name = member_string(event, "name");
    const std::string ph = member_string(event, "ph");
    const double ts = member_number(event, "ts");  // microseconds
    const double end = ts + member_number(event, "dur");
    if (!any || ts < t_min) t_min = ts;
    if (!any || end > t_max) t_max = end;
    any = true;
    if (ph == "X") {
      const double dur_ms = member_number(event, "dur") / 1e3;
      SpanGroup& group = spans[name];
      ++group.count;
      group.total_ms += dur_ms;
      group.max_ms = std::max(group.max_ms, dur_ms);
    } else if (ph == "i" || ph == "I") {
      ++instants[name];
    } else if (ph == "C") {
      auto& [samples, last] = counters[name];
      ++samples;
      if (const JsonValue* args = event.find("args"))
        last = member_number(*args, "value", last);
    }
  }

  if (any)
    std::printf("trace window: %.3f s of simulated time\n\n", (t_max - t_min) / 1e6);

  if (!spans.empty()) {
    std::printf("spans (ph=X)\n");
    Table table({"name", "count", "total (ms)", "mean (ms)", "max (ms)"});
    for (const auto& [name, group] : spans)
      table.add_row({name, std::to_string(group.count),
                     format_double(group.total_ms, 4),
                     format_double(group.total_ms / static_cast<double>(group.count), 4),
                     format_double(group.max_ms, 4)});
    table.print();
    std::printf("\n");
  }
  if (!counters.empty()) {
    std::printf("counter tracks (ph=C)\n");
    Table table({"name", "samples", "last value"});
    for (const auto& [name, entry] : counters)
      table.add_row({name, std::to_string(entry.first),
                     format_double(entry.second, 4)});
    table.print();
    std::printf("\n");
  }
  if (!instants.empty()) {
    std::printf("instant events (ph=i)\n");
    Table table({"name", "count"});
    for (const auto& [name, count] : instants)
      table.add_row({name, std::to_string(count)});
    table.print();
    std::printf("\n");
  }
}

void summarize_metrics(const JsonValue& metrics) {
  const JsonValue* counters = metrics.find("counters");
  if (counters && counters->is_object() && !counters->members().empty()) {
    std::printf("counters\n");
    Table table({"name", "value"});
    for (const auto& [name, value] : counters->members())
      table.add_row({name, format_double(value.as_number(), 6)});
    table.print();
    std::printf("\n");
  }
  const JsonValue* gauges = metrics.find("gauges");
  if (gauges && gauges->is_object() && !gauges->members().empty()) {
    std::printf("gauges\n");
    Table table({"name", "value"});
    for (const auto& [name, value] : gauges->members())
      table.add_row({name, format_double(value.as_number(), 6)});
    table.print();
    std::printf("\n");
  }
  const JsonValue* histograms = metrics.find("histograms");
  if (histograms && histograms->is_object() && !histograms->members().empty()) {
    std::printf("histograms\n");
    Table table({"name", "count", "mean", "p50", "p95", "p99", "max"});
    for (const auto& [name, h] : histograms->members()) {
      const double count = member_number(h, "count");
      const double sum = member_number(h, "sum");
      table.add_row({name, format_double(count, 6),
                     format_double(count > 0 ? sum / count : 0.0, 4),
                     format_double(member_number(h, "p50"), 4),
                     format_double(member_number(h, "p95"), 4),
                     format_double(member_number(h, "p99"), 4),
                     format_double(member_number(h, "max"), 4)});
    }
    table.print();
    std::printf("\n");
  }
}

struct Artifact {
  std::string label;  ///< file stem, used as the column header
  JsonValue document;
};

std::optional<Artifact> load_artifact(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "esprof: cannot read '%s'\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string error;
  auto document = telemetry::parse_json(buffer.str(), &error);
  if (!document) {
    std::fprintf(stderr, "esprof: '%s' is not valid JSON: %s\n", path.c_str(),
                 error.c_str());
    return std::nullopt;
  }
  std::string label = std::filesystem::path(path).filename().string();
  // Strip the ".trace.json" / ".json" suffix for narrower columns.
  for (const char* suffix : {".trace.json", ".json"}) {
    if (label.size() > std::strlen(suffix) &&
        label.rfind(suffix) == label.size() - std::strlen(suffix)) {
      label.resize(label.size() - std::strlen(suffix));
      break;
    }
  }
  return Artifact{std::move(label), std::move(*document)};
}

/// The metrics snapshot of an artifact (combined or bare form).
const JsonValue* metrics_of(const JsonValue& document) {
  if (const JsonValue* metrics = document.find("metrics")) return metrics;
  if (document.find("counters")) return &document;
  return nullptr;
}

/// Merged mode: one column per artifact, one table per metric kind.
/// Rows are the union of the metric names, "-" where an artifact lacks
/// one, so sweep points with divergent instrumentation still line up.
void summarize_merged(const std::vector<Artifact>& artifacts) {
  auto collect = [&](const char* section,
                     const std::function<double(const JsonValue&)>& value_of) {
    std::map<std::string, std::vector<std::optional<double>>> rows;
    for (std::size_t a = 0; a < artifacts.size(); ++a) {
      const JsonValue* metrics = metrics_of(artifacts[a].document);
      const JsonValue* values = metrics ? metrics->find(section) : nullptr;
      if (!values || !values->is_object()) continue;
      for (const auto& [name, value] : values->members()) {
        auto& row = rows[name];
        row.resize(artifacts.size());
        row[a] = value_of(value);
      }
    }
    return rows;
  };
  auto print_grid = [&](const char* heading, const char* name_column,
                        const std::map<std::string,
                                       std::vector<std::optional<double>>>& rows) {
    if (rows.empty()) return;
    std::printf("%s\n", heading);
    std::vector<std::string> header{name_column};
    for (const Artifact& artifact : artifacts) header.push_back(artifact.label);
    Table table(header);
    for (const auto& [name, values] : rows) {
      std::vector<std::string> cells{name};
      for (std::size_t a = 0; a < artifacts.size(); ++a)
        cells.push_back(a < values.size() && values[a]
                            ? format_double(*values[a], 6)
                            : "-");
      table.add_row(std::move(cells));
    }
    table.print();
    std::printf("\n");
  };

  std::printf("merged summary of %zu artifacts\n\n", artifacts.size());
  {
    // Overview: trace-event counts per artifact.
    std::vector<std::string> header{"artifact", "trace events"};
    Table table({"artifact", "trace events"});
    for (const Artifact& artifact : artifacts) {
      const JsonValue* events = artifact.document.find("traceEvents");
      table.add_row({artifact.label,
                     events && events->is_array()
                         ? std::to_string(events->items().size())
                         : "-"});
    }
    table.print();
    std::printf("\n");
  }
  const auto number = [](const JsonValue& v) {
    return v.is_number() ? v.as_number() : 0.0;
  };
  print_grid("counters", "counter", collect("counters", number));
  print_grid("gauges", "gauge", collect("gauges", number));
  print_grid("histogram means", "histogram", collect("histograms", [](const JsonValue& h) {
               const double count = member_number(h, "count");
               return count > 0 ? member_number(h, "sum") / count : 0.0;
             }));
}

// --- bench artifacts (schema "eslurm-bench-v2", written by --json) ------
//
// Every bench artifact gets the same treatment: its envelope is validated,
// then the run-level fields, the metrics the bench names in "headline"
// (per point), its "checks" and every point's metric means are rendered.
// A malformed envelope or a failed check makes esprof exit 1.

bool is_bench_artifact(const JsonValue& document) {
  const JsonValue* schema = document.find("schema");
  return schema && schema->is_string() &&
         schema->as_string().rfind("eslurm-bench", 0) == 0;
}

/// Run-level envelope fields, in display order.  events_per_sec may be
/// JSON null (benches with no simulated events), surfaced as "-".
constexpr const char* kBenchRunFields[] = {"wall_seconds", "total_events",
                                           "events_per_sec", "peak_rss_bytes"};

std::optional<double> bench_run_field(const JsonValue& document, const char* key) {
  const JsonValue* value = document.find(key);
  if (!value || !value->is_number()) return std::nullopt;
  return value->as_number();
}

const std::vector<JsonValue>& array_member(const JsonValue& object, const char* key) {
  static const std::vector<JsonValue> kNone;
  const JsonValue* value = object.find(key);
  return value && value->is_array() ? value->items() : kNone;
}

std::vector<std::string> headline_of(const JsonValue& document) {
  std::vector<std::string> names;
  for (const JsonValue& name : array_member(document, "headline"))
    if (name.is_string()) names.push_back(name.as_string());
  return names;
}

/// Mean of one metric at one point (nullopt when absent or null).
std::optional<double> point_mean(const JsonValue& point, const std::string& metric) {
  const JsonValue* metrics = point.find("metrics");
  const JsonValue* stats = metrics ? metrics->find(metric) : nullptr;
  const JsonValue* mean = stats ? stats->find("mean") : nullptr;
  if (!mean || !mean->is_number()) return std::nullopt;
  return mean->as_number();
}

/// What is wrong with a bench artifact's envelope (empty when valid).
std::vector<std::string> bench_problems(const JsonValue& document) {
  std::vector<std::string> problems;
  const auto require = [&](bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  };
  require(member_string(document, "schema") == "eslurm-bench-v2",
          "schema is not \"eslurm-bench-v2\"");
  require(!member_string(document, "bench").empty(), "no bench name");
  const JsonValue* smoke = document.find("smoke");
  require(smoke && smoke->is_bool(), "smoke is not a bool");
  require(member_number(document, "jobs") >= 1, "jobs < 1");
  const double replicas = member_number(document, "replicas");
  require(replicas >= 1, "replicas < 1");
  require(bench_run_field(document, "wall_seconds").value_or(0) > 0,
          "wall_seconds is not positive");
  require(bench_run_field(document, "peak_rss_bytes").value_or(0) > 0,
          "peak_rss_bytes is not positive");
  const double events = bench_run_field(document, "total_events").value_or(-1);
  require(events >= 0, "total_events is missing");
  const JsonValue* rate = document.find("events_per_sec");
  require(events > 0 ? rate && rate->is_number() && rate->as_number() > 0
                     : rate && rate->is_null(),
          "events_per_sec does not match total_events");
  for (const JsonValue& check : array_member(document, "checks")) {
    const JsonValue* ok = check.find("ok");
    require(!member_string(check, "name").empty() && ok && ok->is_bool(),
            "a check lacks its name or ok flag");
  }
  const auto& points = array_member(document, "points");
  require(!points.empty(), "no points recorded");
  const std::vector<std::string> headline = headline_of(document);
  for (const JsonValue& point : points) {
    const std::string label = member_string(point, "label");
    const std::string at = " at point '" + label + "'";
    const JsonValue* params = point.find("params");
    require(!label.empty() && params && params->is_object() &&
                !params->members().empty(),
            "a point lacks its label or params" + at);
    const JsonValue* metrics = point.find("metrics");
    require(metrics && metrics->is_object(), "no metrics" + at);
    if (metrics && metrics->is_object())
      for (const auto& [name, stats] : metrics->members())
        for (const char* key : {"mean", "stddev", "min", "max", "n"})
          require(stats.find(key), "metric " + name + " lacks " + key + at);
    require(static_cast<double>(array_member(point, "replicas").size()) == replicas,
            "replica count differs from \"replicas\"" + at);
    for (const std::string& name : headline)
      require(metrics && metrics->find(name), "headline metric " + name + " missing" + at);
  }
  return problems;
}

/// Side-by-side values: one row per key in first-seen order, one column
/// per artifact.
struct Grid {
  std::size_t columns = 1;
  std::vector<std::string> order;
  std::map<std::string, std::vector<std::optional<double>>> rows;

  void set(const std::string& key, std::size_t column, std::optional<double> value) {
    auto [row, inserted] = rows.try_emplace(key, columns);
    if (inserted) order.push_back(key);
    row->second[column] = value;
  }

  /// With exactly two columns a last/first ratio column makes before/after
  /// comparisons one read (events_per_sec ratio > 1: the second is faster).
  void print(const char* title, const char* key_header,
             const std::vector<std::string>& column_headers) const {
    if (order.empty()) return;
    std::printf("%s\n", title);
    std::vector<std::string> header{key_header};
    header.insert(header.end(), column_headers.begin(), column_headers.end());
    const bool ratio = columns == 2;
    if (ratio) header.push_back("ratio");
    Table table(header);
    for (const std::string& key : order) {
      const auto& values = rows.at(key);
      std::vector<std::string> cells{key};
      for (const auto& value : values)
        cells.push_back(value ? format_double(*value, 6) : "-");
      if (ratio)
        cells.push_back(values[0] && values[1] && *values[0] != 0.0
                            ? format_double(*values[1] / *values[0], 4)
                            : "-");
      table.add_row(std::move(cells));
    }
    table.print();
    std::printf("\n");
  }
};

/// The headline of one artifact as a point x metric table.
void print_headline(const JsonValue& document) {
  const std::vector<std::string> headline = headline_of(document);
  if (headline.empty()) return;
  std::printf("headline (per point)\n");
  std::vector<std::string> header{"point"};
  header.insert(header.end(), headline.begin(), headline.end());
  Table table(header);
  for (const JsonValue& point : array_member(document, "points")) {
    std::vector<std::string> row{member_string(point, "label")};
    for (const std::string& metric : headline) {
      const auto mean = point_mean(point, metric);
      row.push_back(mean ? format_double(*mean, 6) : "-");
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\n");
}

/// One row per check, one column per artifact; returns the number of
/// failed checks.
std::size_t print_checks(const std::vector<Artifact>& artifacts) {
  std::vector<std::string> order;
  std::map<std::string, std::vector<std::string>> rows;
  std::size_t failed = 0;
  for (std::size_t a = 0; a < artifacts.size(); ++a) {
    for (const JsonValue& check : array_member(artifacts[a].document, "checks")) {
      const std::string name = member_string(check, "name");
      auto [row, inserted] = rows.try_emplace(name, artifacts.size(), "-");
      if (inserted) order.push_back(name);
      const JsonValue* ok = check.find("ok");
      if (ok && ok->is_bool() && ok->as_bool()) {
        row->second[a] = "ok";
      } else {
        row->second[a] = "FAILED " + member_string(check, "detail");
        ++failed;
      }
    }
  }
  if (order.empty()) return 0;
  std::printf("checks\n");
  std::vector<std::string> header{"check"};
  for (const Artifact& artifact : artifacts) header.push_back(artifact.label);
  Table table(header);
  for (const std::string& name : order) {
    std::vector<std::string> cells{name};
    cells.insert(cells.end(), rows[name].begin(), rows[name].end());
    table.add_row(std::move(cells));
  }
  table.print();
  std::printf("%s\n\n", failed ? "checks: FAILED" : "checks: all passed");
  return failed;
}

/// Summary (one artifact) or comparison (several): run-level envelope,
/// headline, checks and per-point metric means.  Returns the number of
/// failed checks.
std::size_t report_benches(const std::vector<Artifact>& artifacts) {
  const std::size_t columns = artifacts.size();
  std::vector<std::string> labels;
  for (const Artifact& artifact : artifacts) {
    const JsonValue& document = artifact.document;
    const JsonValue* smoke = document.find("smoke");
    std::printf("bench artifact %s: %s (schema %s%s)\n", artifact.label.c_str(),
                member_string(document, "bench").c_str(),
                member_string(document, "schema").c_str(),
                smoke && smoke->is_bool() && smoke->as_bool() ? ", smoke" : "");
    labels.push_back(columns == 1 ? "value" : artifact.label);
  }
  std::printf("\n");

  // A comparison shows every artifact's values for the union of the
  // headlines, so an artifact that declares none still lines up.
  std::vector<std::string> names;
  for (const Artifact& artifact : artifacts)
    for (const std::string& name : headline_of(artifact.document))
      if (std::find(names.begin(), names.end(), name) == names.end())
        names.push_back(name);
  Grid run{columns}, headline{columns}, means{columns};
  for (std::size_t a = 0; a < columns; ++a) {
    const JsonValue& document = artifacts[a].document;
    for (const char* field : kBenchRunFields)
      run.set(field, a, bench_run_field(document, field));
    for (const JsonValue& point : array_member(document, "points")) {
      const std::string label = member_string(point, "label");
      for (const std::string& name : names)
        headline.set(label + " :: " + name, a, point_mean(point, name));
      if (const JsonValue* metrics = point.find("metrics"); metrics && metrics->is_object())
        for (const auto& [name, stats] : metrics->members())
          means.set(label + " :: " + name, a, point_mean(point, name));
    }
  }
  run.print("run-level", "field", labels);
  if (columns == 1)
    print_headline(artifacts[0].document);
  else
    headline.print("headline (per point)", "point :: metric", labels);
  const std::size_t failed = print_checks(artifacts);
  means.print("point metric means", "point :: metric",
              columns == 1 ? std::vector<std::string>{"mean"} : labels);
  return failed;
}

/// True when a telemetry artifact recorded neither events nor metrics.
bool empty_telemetry(const JsonValue& document) {
  const JsonValue* events = document.find("traceEvents");
  const JsonValue* metrics = metrics_of(document);
  const auto section_empty = [&](const char* key) {
    const JsonValue* section = metrics ? metrics->find(key) : nullptr;
    return !section || !section->is_object() || section->members().empty();
  };
  return (!events || !events->is_array() || events->items().empty()) &&
         section_empty("counters") && section_empty("gauges") &&
         section_empty("histograms");
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("spans", "print only the trace-event summary");
  args.add_flag("metrics", "print only the metrics registry");
  args.add_option("cat", "restrict events to one category (comm, rm, sched...)");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "esprof: %s\n", args.error().c_str());
    return 2;
  }
  if (args.help_requested() || args.positional().empty()) {
    std::fputs(args.usage("esprof <artifact.json> [more.json ...]",
                          "Summarize one telemetry or bench artifact, or "
                          "merge several into a side-by-side comparison. "
                          "Exits 1 on an empty telemetry artifact, a "
                          "malformed bench artifact or a failed check.")
                   .c_str(),
               stdout);
    return args.help_requested() ? 0 : 2;
  }

  std::vector<Artifact> artifacts;
  std::size_t bench_count = 0;
  for (const std::string& artifact_path : args.positional()) {
    auto artifact = load_artifact(artifact_path);
    if (!artifact) return 1;
    if (is_bench_artifact(artifact->document)) ++bench_count;
    artifacts.push_back(std::move(*artifact));
  }
  if (bench_count > 0 && bench_count < artifacts.size()) {
    std::fprintf(stderr,
                 "esprof: cannot mix bench artifacts with telemetry traces "
                 "in one comparison\n");
    return 2;
  }

  if (bench_count > 0) {
    bool valid = true;
    for (const Artifact& artifact : artifacts)
      for (const std::string& problem : bench_problems(artifact.document)) {
        std::fprintf(stderr, "esprof: %s: %s\n", artifact.label.c_str(),
                     problem.c_str());
        valid = false;
      }
    const std::size_t failed = report_benches(artifacts);
    if (failed > 0)
      std::fprintf(stderr, "esprof: %zu failed check(s)\n", failed);
    return valid && failed == 0 ? 0 : 1;
  }

  if (artifacts.size() > 1) {
    summarize_merged(artifacts);
  } else {
    const JsonValue& document = artifacts[0].document;
    // Accept both the combined artifact ({"traceEvents": ..., "metrics": ...})
    // and a bare metrics snapshot ({"counters": ...}).
    const JsonValue* events = document.find("traceEvents");
    const JsonValue* metrics = metrics_of(document);
    if (!events && !metrics) {
      std::fprintf(stderr,
                   "esprof: '%s' has neither \"traceEvents\" nor a metrics snapshot\n",
                   args.positional()[0].c_str());
      return 1;
    }
    if (events && events->is_array() && !args.has_flag("metrics"))
      summarize_events(*events, args.get_or("cat", ""));
    if (metrics && !args.has_flag("spans")) summarize_metrics(*metrics);
    if (const JsonValue* dropped = document.find("droppedEvents"))
      std::printf("warning: %.0f events were dropped at the trace-buffer cap\n",
                  dropped->as_number());
  }
  int status = 0;
  for (std::size_t a = 0; a < artifacts.size(); ++a) {
    if (!empty_telemetry(artifacts[a].document)) continue;
    std::fprintf(stderr,
                 "esprof: '%s' is an empty artifact: no events or metrics "
                 "were recorded\n",
                 args.positional()[a].c_str());
    status = 1;
  }
  return status;
}
