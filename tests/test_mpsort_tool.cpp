// End-to-end tests of the mpsort CLI tool: sort/merge/check round-trips in
// text, numeric and binary modes, driven through the real binary.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

// Located relative to the test binary: build/tests/.. -> build/tools.
std::string tool_path() {
  return std::string(MPSORT_BINARY);
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

int run(const std::string& args) {
  const std::string cmd = tool_path() + " " + args + " 2>/dev/null";
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

TEST(MpsortTool, SortsTextLexicographically) {
  const auto in = temp_file("in.txt");
  const auto out = temp_file("out.txt");
  write_file(in, "pear\napple\nbanana\n");
  ASSERT_EQ(run("sort " + in + " " + out), 0);
  EXPECT_EQ(read_file(out), "apple\nbanana\npear\n");
  EXPECT_EQ(run("check " + out), 0);
  EXPECT_EQ(run("check " + in), 1);
}

TEST(MpsortTool, NumericModeOrdersByValue) {
  const auto in = temp_file("nums.txt");
  const auto out = temp_file("nums_sorted.txt");
  write_file(in, "100\n9\n-3\n20\n");
  ASSERT_EQ(run("sort " + in + " " + out + " --numeric"), 0);
  EXPECT_EQ(read_file(out), "-3\n9\n20\n100\n");
  // Lexicographic check would call this unsorted; numeric check passes.
  EXPECT_EQ(run("check " + out + " --numeric"), 0);
}

TEST(MpsortTool, MergesPresortedInputsAndRejectsUnsorted) {
  const auto a = temp_file("a.txt");
  const auto b = temp_file("b.txt");
  const auto out = temp_file("m.txt");
  write_file(a, "ant\nfox\n");
  write_file(b, "bee\nzebra\n");
  ASSERT_EQ(run("merge " + out + " " + a + " " + b), 0);
  EXPECT_EQ(read_file(out), "ant\nbee\nfox\nzebra\n");

  const auto bad = temp_file("bad.txt");
  write_file(bad, "zebra\nant\n");
  EXPECT_EQ(run("merge " + out + " " + a + " " + bad), 1);
}

TEST(MpsortTool, BinaryRoundTrip) {
  const auto in = temp_file("in.bin");
  const auto out = temp_file("out.bin");
  const std::vector<std::int32_t> values{42, -7, 0, 1000000, -7};
  {
    std::ofstream f(in, std::ios::binary);
    f.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * 4));
  }
  ASSERT_EQ(run("sort " + in + " " + out + " --binary"), 0);
  std::ifstream f(out, std::ios::binary);
  std::vector<std::int32_t> sorted(values.size());
  f.read(reinterpret_cast<char*>(sorted.data()),
         static_cast<std::streamsize>(sorted.size() * 4));
  EXPECT_EQ(sorted, (std::vector<std::int32_t>{-7, -7, 0, 42, 1000000}));
  EXPECT_EQ(run("check " + out + " --binary"), 0);
}

TEST(MpsortTool, UsageErrors) {
  EXPECT_EQ(run("sort onlyonearg"), 2);
  EXPECT_EQ(run("unknown-command x y"), 2);
}

TEST(MpsortTool, RejectsNonNumericThreadCount) {
  const auto in = temp_file("threads_in.txt");
  const auto out = temp_file("threads_out.txt");
  write_file(in, "b\na\n");
  // These used to escape std::stoul and abort; now they are usage errors.
  EXPECT_EQ(run("sort " + in + " " + out + " --threads banana"), 2);
  EXPECT_EQ(run("sort " + in + " " + out + " --threads 12abc"), 2);
  EXPECT_EQ(run("sort " + in + " " + out + " --threads 99999999999999999999"),
            2);
  EXPECT_EQ(run("sort " + in + " " + out + " --threads"), 2);  // missing value
  EXPECT_EQ(run("sort " + in + " " + out + " --threads 2"), 0);
}

TEST(MpsortTool, KernelFlagTakesOnlyKernelNames) {
  const auto in = temp_file("kernel_in.txt");
  const auto out = temp_file("kernel_out.txt");
  write_file(in, "b\na\n");
  EXPECT_EQ(run("sort " + in + " " + out + " --kernel branchless"), 2);
  EXPECT_EQ(run("sort " + in + " " + out + " --kernel banana"), 2);
  EXPECT_EQ(run("sort " + in + " " + out + " --kernel"), 2);  // missing value
  ASSERT_EQ(run("sort " + in + " " + out + " --kernel scalar"), 0);
  EXPECT_EQ(read_file(out), "a\nb\n");
}

TEST(MpsortTool, RejectsMalformedFaultFlags) {
  const auto in = temp_file("fault_in.txt");
  const auto out = temp_file("fault_out.txt");
  write_file(in, "b\na\n");
  EXPECT_EQ(run("sort " + in + " " + out + " --fault-rate banana"), 2);
  EXPECT_EQ(run("sort " + in + " " + out + " --fault-rate 1.5"), 2);
  EXPECT_EQ(run("sort " + in + " " + out + " --fault-rate -0.1"), 2);
  EXPECT_EQ(run("sort " + in + " " + out + " --fault-rate"), 2);
  EXPECT_EQ(run("sort " + in + " " + out + " --fault-seed 12abc"), 2);
  EXPECT_EQ(run("sort " + in + " " + out + " --fault-seed"), 2);
  // Fault drills need the external-memory path: text mode is rejected.
  EXPECT_EQ(run("sort " + in + " " + out + " --fault-rate 0.1"), 2);
  // A zero rate is a no-op, not an error, in any mode.
  EXPECT_EQ(run("sort " + in + " " + out + " --fault-rate 0"), 0);
}

TEST(MpsortTool, FaultInjectedBinarySortStillSortsExactly) {
  const auto in = temp_file("fault_in.bin");
  const auto out = temp_file("fault_out.bin");
  const auto out2 = temp_file("fault_out2.bin");
  std::vector<std::int32_t> values;
  for (int i = 0; i < 5000; ++i) values.push_back((i * 2654435761) % 997);
  {
    std::ofstream f(in, std::ios::binary);
    f.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * 4));
  }
  ASSERT_EQ(
      run("sort " + in + " " + out + " --binary --fault-rate 0.1"
          " --fault-seed 7 --threads 2"),
      0);
  EXPECT_EQ(run("check " + out + " --binary"), 0);
  // Same seed => byte-identical output file.
  ASSERT_EQ(
      run("sort " + in + " " + out2 + " --binary --fault-rate 0.1"
          " --fault-seed 7 --threads 2"),
      0);
  EXPECT_EQ(read_file(out), read_file(out2));
  EXPECT_EQ(read_file(out).size(), values.size() * 4);
}

TEST(MpsortTool, MergeNumericOrdersByValue) {
  const auto a = temp_file("num_a.txt");
  const auto b = temp_file("num_b.txt");
  const auto out = temp_file("num_m.txt");
  write_file(a, "2\n10\n");
  write_file(b, "-1\n9\n");
  ASSERT_EQ(run("merge " + out + " " + a + " " + b + " --numeric"), 0);
  EXPECT_EQ(read_file(out), "-1\n2\n9\n10\n");
  // Without --numeric the same inputs fail the lexicographic pre-sort check
  // ("2" > "10"), which is exactly why the flag exists for merge.
  EXPECT_EQ(run("merge " + out + " " + a + " " + b), 1);
}

TEST(MpsortTool, TraceFlagWritesChromeTraceJson) {
  const auto in = temp_file("trace_in.txt");
  const auto out = temp_file("trace_out.txt");
  const auto trace = temp_file("trace.json");
  std::string lines;
  for (int i = 2000; i-- > 0;) lines += std::to_string(i) + "\n";
  write_file(in, lines);
  ASSERT_EQ(run("sort " + in + " " + out + " --numeric --threads 4 --trace " +
                trace),
            0);
  const std::string json = read_file(trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(MpsortTool, MetricsJsonReportsLanesAndImbalance) {
  const auto in = temp_file("metrics_in.txt");
  const auto out = temp_file("metrics_out.txt");
  const auto metrics = temp_file("metrics.json");
  std::string lines;
  for (int i = 5000; i-- > 0;) lines += std::to_string(i) + "\n";
  write_file(in, lines);
  ASSERT_EQ(run("sort " + in + " " + out +
                " --numeric --threads 4 --metrics --metrics-json " + metrics),
            0);
  const std::string json = read_file(metrics);
  EXPECT_NE(json.find("\"schema\":\"mergepath-lane-metrics-v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"lanes\":["), std::string::npos);
  EXPECT_NE(json.find("\"lane_ns\""), std::string::npos);
  // Op counts are the PRAM model's alone: a metrics run counts nothing.
  EXPECT_EQ(json.find("\"compares\""), std::string::npos);
  EXPECT_NE(json.find("\"imbalance\""), std::string::npos);
}

}  // namespace
