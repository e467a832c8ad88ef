// End-to-end tests of the traceprof offline analyzer: a real trace is
// generated in-process by a pooled parallel_merge_sort, exported in Chrome
// format, and digested through the actual binary. Complements the CI
// smoke step, which runs traceprof against an `mpsort sort --trace` trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/merge_sort.hpp"
#include "obs/trace.hpp"
#include "util/threading.hpp"

namespace {

using namespace mp;

std::string tool_path() {
  return std::string(TRACEPROF_BINARY);
}

std::string temp_file(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Runs the tool with stdout captured to a file (the reports under test
// are printed there); stderr is discarded like the other tool tests.
int run(const std::string& args, const std::string& stdout_path) {
  const std::string cmd =
      tool_path() + " " + args + " > " + stdout_path + " 2>/dev/null";
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

// Generates a fork-join trace: parallel_merge_sort on a 4-lane pool runs
// pool.lane spans on the caller and the workers — exactly the shape
// traceprof's per-worker breakdown needs. The pool outlives the export:
// only the fork-join barrier orders the workers' spans before the
// snapshot (TSan checks it).
std::string make_sched_trace(const std::string& name) {
  ThreadPool pool(3);
  obs::reset_tracing();
  obs::arm_tracing();
  std::vector<int> data(1 << 14);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<int>(data.size() - i);
  parallel_merge_sort(data.data(), data.size(), Executor{&pool, 4});
  obs::disarm_tracing();
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));

  const auto path = temp_file(name);
  std::ofstream out(path);
  obs::write_chrome_trace(out);
  obs::reset_tracing();
  return path;
}

TEST(TraceprofTool, PrintsCriticalPathAndWorkerBreakdown) {
  const auto trace = make_sched_trace("tp_sched.json");
  const auto report = temp_file("tp_report.txt");
  ASSERT_EQ(run(trace + " --top 5", report), 0);
  const std::string text = read_file(report);
  EXPECT_NE(text.find("critical path:"), std::string::npos) << text;
  EXPECT_NE(text.find("per-worker breakdown"), std::string::npos) << text;
  // The sort's own spans must show up as attribution targets.
  EXPECT_NE(text.find("sort"), std::string::npos) << text;
}

TEST(TraceprofTool, JsonReportCarriesScheduleAndWorkerCounters) {
  const auto trace = make_sched_trace("tp_sched2.json");
  const auto report = temp_file("tp_stdout2.txt");
  const auto json = temp_file("tp_prof.json");
  ASSERT_EQ(run(trace + " --json " + json, report), 0);
  const std::string text = read_file(json);
  EXPECT_NE(text.find("\"schema\":\"mergepath-traceprof-v1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"critical_path\":{\"total_ns\":"), std::string::npos);
  EXPECT_NE(text.find("\"workers\":["), std::string::npos);
  EXPECT_NE(text.find("\"busy_ns\":"), std::string::npos);
  EXPECT_NE(text.find("\"lanes\":"), std::string::npos);
  EXPECT_EQ(text.find("\"steals\":"), std::string::npos);
  // A real pooled run is never empty.
  EXPECT_EQ(text.find("\"spans\":0,"), std::string::npos);
  EXPECT_EQ(text.find("\"wall_ns\":0,"), std::string::npos);
}

TEST(TraceprofTool, EmptyTraceIsAnalyzedNotRejected) {
  // A run that recorded nothing still writes a syntactically valid empty
  // trace; traceprof must degrade to a summary line, not an error.
  const auto trace = temp_file("tp_empty.json");
  const auto report = temp_file("tp_empty_out.txt");
  write_file(trace, "{\"traceEvents\":[]}\n");
  ASSERT_EQ(run(trace, report), 0);
  EXPECT_NE(read_file(report).find("empty trace"), std::string::npos);
}

TEST(TraceprofTool, UsageAndInputErrorExitCodes) {
  const auto report = temp_file("tp_err_out.txt");
  EXPECT_EQ(run("--bogus-flag", report), 2);       // unknown flag
  EXPECT_EQ(run("", report), 2);                   // no trace path
  EXPECT_EQ(run("a.json b.json", report), 2);      // extra positional
  EXPECT_EQ(run(temp_file("tp_missing.json"), report), 1);

  const auto garbage = temp_file("tp_garbage.json");
  write_file(garbage, "this is not json");
  EXPECT_EQ(run(garbage, report), 1);
}

}  // namespace
