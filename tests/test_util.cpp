// Tests for the utility substrate (S16): RNG determinism, statistics,
// table/CSV formatting, CLI parsing, and hardware introspection fallbacks.

#include <gtest/gtest.h>

#include <sstream>

#include "util/cli.hpp"
#include "util/hw.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mp {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Xoshiro256 r1(123), r2(123), r3(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r1(), r2());
  }
  bool any_diff = false;
  Xoshiro256 r1b(123);
  for (int i = 0; i < 100; ++i) any_diff |= (r1b() != r3());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BoundedIsInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.bounded(bound), bound);
  }
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr int kBuckets = 8;
  int histogram[kBuckets] = {};
  constexpr int kSamples = 80000;
  for (int i = 0; i < kSamples; ++i) ++histogram[rng.bounded(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(histogram[b], kSamples / kBuckets, kSamples / kBuckets / 10)
        << "bucket " << b;
  }
}

TEST(Rng, JumpProducesDisjointStream) {
  Xoshiro256 base(42);
  Xoshiro256 jumped(42);
  jumped.jump();
  bool differs = false;
  for (int i = 0; i < 64; ++i) differs |= (base() != jumped());
  EXPECT_TRUE(differs);
}

TEST(Rng, Uniform01InRange) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.1180, 1e-3);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);  // nearest-rank
}

TEST(Stats, EmptySampleIsAllZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(geomean({}), 0.0);
}

TEST(Stats, PercentileNearestRank) {
  const std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 95.0), 50.0);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(Table, AlignedOutput) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22222"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_ratio(1.966), "1.97x");
  EXPECT_EQ(fmt_percent(0.061), "6.1%");
  EXPECT_EQ(fmt_count(1048576), "1,048,576");
  EXPECT_EQ(fmt_count(1), "1");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_bytes(512), "512 B");
  EXPECT_EQ(fmt_bytes(12u << 20), "12.0 MiB");
}

TEST(Cli, ParsesFlagForms) {
  const char* argv[] = {"prog", "--size", "100", "--csv", "--name=test"};
  Cli cli(5, argv);
  ASSERT_TRUE(cli.ok());
  EXPECT_EQ(cli.get_int("size", 0), 100);
  EXPECT_TRUE(cli.get_bool("csv"));
  EXPECT_EQ(cli.get("name", ""), "test");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_TRUE(cli.unconsumed().empty());
}

TEST(Cli, ReportsUnconsumedFlags) {
  const char* argv[] = {"prog", "--oops", "1"};
  Cli cli(3, argv);
  ASSERT_TRUE(cli.ok());
  const auto leftover = cli.unconsumed();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "oops");
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "positional"};
  Cli cli(2, argv);
  EXPECT_FALSE(cli.ok());
}

TEST(Hw, HostInfoHasSaneFallbacks) {
  const HostInfo& info = host_info();
  EXPECT_GE(info.logical_cpus, 1u);
  EXPECT_GE(info.l1d_bytes(), 4u * 1024);
  EXPECT_GE(info.llc_bytes(), info.l1d_bytes());
  EXPECT_LE(info.l1d_bytes(), info.l2_bytes());
  EXPECT_LE(info.l2_bytes(), info.llc_bytes());
  EXPECT_FALSE(describe(info).empty());
}

TEST(Hw, L2FallsBackToPaperMachine) {
  // No cache listed: the paper machine's 256 KiB, as its preset reports.
  EXPECT_EQ(HostInfo{}.l2_bytes(), 256u * 1024);
  EXPECT_EQ(paper_machine().l2_bytes(), 256u * 1024);
  // Levels listed but no L2: the fallback stays within L1d and the LLC.
  HostInfo l1_only;
  l1_only.caches = {CacheLevel{1, 48u << 10, 64, 12, false}};
  EXPECT_EQ(l1_only.l2_bytes(), 48u * 1024);
  HostInfo big_l1;
  big_l1.caches = {CacheLevel{1, 512u << 10, 64, 8, false},
                   CacheLevel{3, 32u << 20, 64, 16, true}};
  EXPECT_EQ(big_l1.l2_bytes(), 512u * 1024);
}

TEST(Hw, PaperMachinePreset) {
  const HostInfo paper = paper_machine();
  EXPECT_EQ(paper.logical_cpus, 12u);
  EXPECT_EQ(paper.l1d_bytes(), 32u * 1024);
  EXPECT_EQ(paper.l2_bytes(), 256u * 1024);
  EXPECT_EQ(paper.llc_bytes(), 12u * 1024 * 1024);
  ASSERT_EQ(paper.caches.size(), 3u);
  EXPECT_FALSE(paper.caches[0].shared);
  EXPECT_TRUE(paper.caches[2].shared);
}

}  // namespace
}  // namespace mp
