// The shared bench harness (bench/bench_common.hpp): flag parsing and
// its usage errors, claim checks and headlines in the BENCH JSON, the
// exit code finish() returns, and the one telemetry flag -- a file for a
// bench that runs one world at a time, a directory for a sweep bench,
// and an error in both modes when no world recorded anything -- and the
// usage error a bench raises, before it runs, for a flag it declared it
// cannot honour.
#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "telemetry/json.hpp"

namespace eslurm::bench {
namespace {

namespace fs = std::filesystem;

/// argv for a bench invoked with `args` (argv[0] is the program name).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "bench_test");
    for (std::string& arg : storage_) pointers_.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

/// A fresh scratch directory named after the running test.
fs::path scratch_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::temp_directory_path() /
                       (std::string("eslurm_harness_") + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

telemetry::JsonValue load_json(const fs::path& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  std::string error;
  auto document = telemetry::parse_json(text.str(), &error);
  EXPECT_TRUE(document.has_value()) << path << ": " << error;
  return document ? std::move(*document) : telemetry::JsonValue();
}

/// A probe bench that honours every flag.
constexpr Uses kAll{.jobs = true, .telemetry = true};

std::optional<Flags> parse(std::vector<std::string> args, std::string& error) {
  Argv argv(std::move(args));
  return parse_flags(argv.argc(), argv.argv(), error);
}

TEST(HarnessFlags, ParsesTheSharedFlagSet) {
  std::string error;
  const auto flags = parse({"--smoke", "--jobs", "3", "--replicas", "2", "--json",
                            "out.json", "--telemetry-out", "tel"},
                           error);
  ASSERT_TRUE(flags.has_value()) << error;
  EXPECT_TRUE(flags->smoke);
  EXPECT_EQ(flags->jobs, 3);
  EXPECT_EQ(flags->replicas, 2);
  EXPECT_EQ(flags->json_out, "out.json");
  EXPECT_EQ(flags->telemetry_out, "tel");
}

TEST(HarnessFlags, RejectsUnknownFlags) {
  std::string error;
  EXPECT_FALSE(parse({"--smok"}, error).has_value());
  EXPECT_NE(error.find("--smok"), std::string::npos) << error;
  EXPECT_FALSE(parse({"--telemetry-dir", "d"}, error).has_value());
}

TEST(HarnessFlags, RejectsMissingValues) {
  std::string error;
  EXPECT_FALSE(parse({"--json"}, error).has_value());
  EXPECT_NE(error.find("--json requires a value"), std::string::npos) << error;
  EXPECT_FALSE(parse({"--telemetry-out", "--smoke"}, error).has_value());
  EXPECT_FALSE(parse({"--jobs", ""}, error).has_value());
}

TEST(HarnessFlags, RejectsCountsThatAreNotPositiveIntegers) {
  for (const char* bad : {"0", "-2", "four", "3x", "1.5"}) {
    std::string error;
    EXPECT_FALSE(parse({"--jobs", bad}, error).has_value()) << bad;
    EXPECT_FALSE(parse({"--replicas", bad}, error).has_value()) << bad;
  }
}

TEST(HarnessDeathTest, UsageErrorExitsTwo) {
  Argv argv({"--smok"});
  EXPECT_EXIT(Harness("probe", "Test", "usage", kAll, argv.argc(), argv.argv()),
              ::testing::ExitedWithCode(2), "usage: bench_probe");
}

TEST(HarnessDeathTest, JobsForABenchWithNoParallelWorkExitsTwo) {
  Argv argv({"--jobs", "2"});
  EXPECT_EXIT(Harness("probe", "Test", "serial", Uses{.telemetry = true}, argv.argc(),
                      argv.argv()),
              ::testing::ExitedWithCode(2), "this bench runs no parallel work");
}

TEST(HarnessDeathTest, TelemetryForABenchThatAttachesNoneExitsTwo) {
  Argv argv({"--telemetry-out", "unused.json"});
  EXPECT_EXIT(Harness("probe", "Test", "no telemetry", Uses{.jobs = true}, argv.argc(),
                      argv.argv()),
              ::testing::ExitedWithCode(2), "this bench attaches telemetry to no world");
}

TEST(Harness, ABenchThatUsesNeitherFlagStillTakesOneJob) {
  Argv argv({"--smoke", "--jobs", "1"});
  Harness harness("probe", "Test", "serial", Uses{}, argv.argc(), argv.argv());
  EXPECT_EQ(harness.jobs(), 1);
  EXPECT_EQ(harness.telemetry(), nullptr);
  EXPECT_EQ(harness.finish(), 0);
}

#ifdef ESLURM_BENCH_FIG5
/// Runs the fig5 bench with `flags`; returns its exit code and output.
std::pair<int, std::string> run_fig5(const std::string& flags) {
  const std::string command = std::string("\"") + ESLURM_BENCH_FIG5 + "\" " + flags + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (!pipe) return {-1, ""};
  std::string output;
  char buffer[256];
  while (std::fgets(buffer, sizeof buffer, pipe)) output += buffer;
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

TEST(HarnessBench, Fig5RejectsFlagsItCannotHonourBeforeItRuns) {
  // fig5 runs no world and no parallel work: both flags are usage errors,
  // raised before the banner and the sweep, and nothing is written.
  const fs::path dir = scratch_dir();
  const fs::path out = dir / "x.json";
  for (const std::string& flags :
       {"--smoke --telemetry-out \"" + out.string() + "\"", std::string("--smoke --jobs 2")}) {
    const auto [code, output] = run_fig5(flags);
    EXPECT_EQ(code, 2) << flags << "\n" << output;
    EXPECT_NE(output.find("usage: bench_fig5_trace_stats"), std::string::npos) << output;
    EXPECT_EQ(output.find("Fig. 5 --"), std::string::npos) << "the bench ran: " << output;
  }
  EXPECT_FALSE(fs::exists(out));
  fs::remove_all(dir);
}
#endif

TEST(Harness, PassedAndFailedChecksLandInTheJsonAndTheExitCode) {
  const fs::path dir = scratch_dir();
  for (const bool ok : {true, false}) {
    const fs::path out = dir / (ok ? "pass.json" : "fail.json");
    Argv argv({"--json", out.string()});
    Harness harness("probe", "Test", "checks", kAll, argv.argc(), argv.argv());
    harness.record_point("p", {{"k", "v"}}, {{"lost", ok ? 0.0 : 2.0}});
    harness.check("always", true, "never shown");
    harness.check("lost == 0", ok, "2 lost at p");
    EXPECT_EQ(harness.finish(), ok ? 0 : 1);

    const telemetry::JsonValue document = load_json(out);
    const telemetry::JsonValue* checks = document.find("checks");
    ASSERT_TRUE(checks && checks->is_array());
    ASSERT_EQ(checks->items().size(), 2u);
    const telemetry::JsonValue& claim = checks->items()[1];
    EXPECT_EQ(claim.find("name")->as_string(), "lost == 0");
    EXPECT_EQ(claim.find("ok")->as_bool(), ok);
    EXPECT_EQ(claim.find("detail")->as_string(), ok ? "" : "2 lost at p");
    EXPECT_TRUE(checks->items()[0].find("ok")->as_bool());
  }
  fs::remove_all(dir);
}

TEST(Harness, RecordsTheHeadlineAndEchoesTheFlags) {
  const fs::path dir = scratch_dir();
  Argv argv({"--smoke", "--jobs", "3", "--json", dir.string()});
  Harness harness("probe", "Test", "headline", kAll, argv.argc(), argv.argv());
  harness.record_point("p", {{"k", "v"}}, {{"a", 1.0}, {"b", 2.0}});
  harness.headline({"b", "a"});
  EXPECT_EQ(harness.finish(), 0);

  const telemetry::JsonValue document = load_json(dir / "BENCH_probe.json");
  EXPECT_EQ(document.find("schema")->as_string(), "eslurm-bench-v2");
  EXPECT_EQ(document.find("bench")->as_string(), "probe");
  EXPECT_TRUE(document.find("smoke")->as_bool());
  EXPECT_EQ(document.find("jobs")->as_number(), 3);
  EXPECT_EQ(document.find("replicas")->as_number(), 1);
  const telemetry::JsonValue* headline = document.find("headline");
  ASSERT_TRUE(headline && headline->is_array());
  ASSERT_EQ(headline->items().size(), 2u);
  EXPECT_EQ(headline->items()[0].as_string(), "b");
  EXPECT_EQ(headline->items()[1].as_string(), "a");
  EXPECT_TRUE(document.find("checks")->items().empty());
  fs::remove_all(dir);
}

/// What a world-running bench checks before finish(): the executed
/// events its worlds recorded.
void check_simulated_events(Harness& harness) {
  harness.check("simulated_events", harness.total_events() > 0,
                "the bench's worlds executed no events");
}

TEST(Harness, BenchThatRecordsNoEventsFailsItsSimulatedEventsCheck) {
  const fs::path dir = scratch_dir();
  const fs::path out = dir / "events.json";
  Argv argv({"--json", out.string()});
  Harness harness("probe", "Test", "events", kAll, argv.argc(), argv.argv());
  harness.record_point("p", {{"k", "v"}}, {{"a", 1.0}});
  check_simulated_events(harness);  // no record_events() call at all
  EXPECT_EQ(harness.finish(), 1);

  const telemetry::JsonValue document = load_json(out);
  EXPECT_EQ(document.find("total_events")->as_number(), 0);
  const telemetry::JsonValue& check = document.find("checks")->items().at(0);
  EXPECT_EQ(check.find("name")->as_string(), "simulated_events");
  EXPECT_FALSE(check.find("ok")->as_bool());
  fs::remove_all(dir);
}

TEST(Harness, RecordedEventsPassTheSimulatedEventsCheck) {
  Argv argv({});
  Harness harness("probe", "Test", "events", kAll, argv.argc(), argv.argv());
  harness.record_events(3);
  harness.record_events(4);
  EXPECT_EQ(harness.total_events(), 7u);
  check_simulated_events(harness);
  EXPECT_EQ(harness.finish(), 0);
}

TEST(Harness, UnwritableJsonIsAnError) {
  const fs::path dir = scratch_dir();
  std::ofstream(dir / "file") << "x";
  Argv argv({"--json", (dir / "file" / "out.json").string()});
  Harness harness("probe", "Test", "json", kAll, argv.argc(), argv.argv());
  harness.record_point("p", {{"k", "v"}}, {{"a", 1.0}});
  EXPECT_EQ(harness.finish(), 1);
  fs::remove_all(dir);
}

TEST(Harness, TelemetryOfASingleWorldBenchIsTheFile) {
  const fs::path dir = scratch_dir();
  const fs::path path = dir / "run.json";
  Argv argv({"--telemetry-out", path.string()});
  Harness harness("probe", "Test", "file", kAll, argv.argc(), argv.argv());
  telemetry::Telemetry* context = harness.telemetry();
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(harness.telemetry(), context);
  context->metrics.counter("probe.worlds").inc();
  EXPECT_EQ(harness.finish(), 0);

  const telemetry::JsonValue document = load_json(path);
  EXPECT_TRUE(document.find("metrics")->find("counters")->find("probe.worlds"));
  fs::remove_all(dir);
}

TEST(Harness, TelemetryOfASweepBenchIsOneFilePerPointInTheDirectory) {
  const fs::path dir = scratch_dir() / "sweep";
  Argv argv({"--jobs", "2", "--telemetry-out", dir.string()});
  Harness harness("probe", "Test", "directory", kAll, argv.argc(), argv.argv());
  core::SweepSpec spec = harness.sweep_spec();
  EXPECT_EQ(spec.telemetry_dir, dir.string());
  EXPECT_EQ(spec.jobs, 2);
  for (const char* label : {"a", "b"}) {
    core::SweepPoint point;
    point.label = label;
    point.params = {{"p", label}};
    spec.points.push_back(std::move(point));
  }
  harness.record_sweep(core::run_sweep(spec, [](const core::SweepTask& task) {
    task.config.telemetry->metrics.counter("probe.worlds").inc();
    return core::MetricRow{{"m", 1.0}};
  }));
  EXPECT_EQ(harness.finish(), 0);
  EXPECT_TRUE(fs::is_directory(dir));
  for (const char* label : {"a", "b"}) {
    const telemetry::JsonValue document = load_json(dir / (std::string(label) + ".trace.json"));
    EXPECT_TRUE(document.find("metrics")->find("counters")->find("probe.worlds"));
  }
  fs::remove_all(dir.parent_path());
}

TEST(Harness, SweepWhoseWorldsIgnoreTelemetryIsAnErrorAndWritesNothing) {
  const fs::path dir = scratch_dir() / "sweep";
  Argv argv({"--telemetry-out", dir.string()});
  Harness harness("probe", "Test", "ignored", kAll, argv.argc(), argv.argv());
  core::SweepSpec spec = harness.sweep_spec();
  core::SweepPoint point;
  point.label = "a";
  point.params = {{"p", "a"}};
  spec.points.push_back(std::move(point));
  harness.record_sweep(core::run_sweep(spec, [](const core::SweepTask&) {
    return core::MetricRow{{"m", 1.0}};  // never touches task.config.telemetry
  }));
  EXPECT_EQ(harness.finish(), 1);
  EXPECT_FALSE(fs::exists(dir / "a.trace.json"));
  fs::remove_all(dir.parent_path());
}

TEST(Harness, EmptyTelemetryIsAnErrorAndWritesNothing) {
  const fs::path dir = scratch_dir();
  const fs::path path = dir / "empty.json";
  Argv argv({"--telemetry-out", path.string()});
  Harness harness("probe", "Test", "empty", kAll, argv.argc(), argv.argv());
  ASSERT_NE(harness.telemetry(), nullptr);  // attached, but nothing ran
  EXPECT_EQ(harness.finish(), 1);
  EXPECT_FALSE(fs::exists(path));
  fs::remove_all(dir);
}

TEST(Harness, TelemetryAttachedToNoWorldIsAnError) {
  const fs::path dir = scratch_dir();
  Argv argv({"--telemetry-out", (dir / "t.json").string()});
  Harness harness("probe", "Test", "unused", kAll, argv.argc(), argv.argv());
  harness.record_point("p", {{"k", "v"}}, {{"a", 1.0}});
  EXPECT_EQ(harness.finish(), 1);
  fs::remove_all(dir);
}

TEST(HarnessDeathTest, SharedTelemetryWithParallelJobsExitsTwo) {
  Argv argv({"--jobs", "2", "--telemetry-out", "unused.json"});
  EXPECT_EXIT(
      {
        Harness harness("probe", "Test", "parallel", kAll, argv.argc(), argv.argv());
        harness.telemetry();
      },
      ::testing::ExitedWithCode(2), "--telemetry-out needs --jobs 1");
}

TEST(Harness, WithoutTheFlagThereIsNoTelemetry) {
  Argv argv({"--jobs", "4"});
  Harness harness("probe", "Test", "off", kAll, argv.argc(), argv.argv());
  EXPECT_EQ(harness.telemetry(), nullptr);
  EXPECT_TRUE(harness.sweep_spec().telemetry_dir.empty());
  EXPECT_EQ(harness.finish(), 0);
}

}  // namespace
}  // namespace eslurm::bench
