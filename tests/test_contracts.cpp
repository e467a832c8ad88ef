// Contract tests: MP_CHECK violations at public API boundaries must abort
// loudly (death tests), and documented preconditions hold exactly at their
// boundaries (no off-by-one acceptance or rejection).

#include <gtest/gtest.h>

#include "cachesim/cache.hpp"
#include "core/mergepath.hpp"
#include "extmem/block_device.hpp"
#include "pipeline/pipeline.hpp"
#include "pram/simulate.hpp"
#include "util/cli.hpp"

namespace mp {
namespace {

using CheckDeath = ::testing::Test;

TEST(Contracts, PartitionRejectsZeroParts) {
  const std::vector<std::int32_t> a{1}, b{2};
  EXPECT_DEATH(partition_merge_path(a.data(), 1, b.data(), 1,
                                    std::size_t{0}),
               "check failed");
}

TEST(Contracts, KthSmallestRejectsOutOfRangeRank) {
  const std::vector<std::int32_t> a{1}, b{2};
  const std::vector<std::span<const std::int32_t>> views{a, b};
  const std::span<const std::span<const std::int32_t>> runs(views);
  EXPECT_DEATH(multiway_select(runs, 3), "check failed");
  // Boundary: rank == m + n is the last valid one and selects everything.
  EXPECT_EQ(multiway_select(runs, 2), (std::vector<std::size_t>{1, 1}));
  EXPECT_EQ(multiway_select(runs, 1), (std::vector<std::size_t>{1, 0}));
}

TEST(Contracts, InstrumentSpanMustCoverLanes) {
  const std::vector<std::int32_t> a{1, 2, 3, 4}, b{5, 6, 7, 8};
  std::vector<std::int32_t> out(8);
  std::vector<OpCounts> too_few(2);
  EXPECT_DEATH(pram::counted_parallel_merge(a.data(), 4, b.data(), 4,
                                            out.data(), 4, too_few),
               "check failed");
  std::vector<std::int32_t> data{3, 1, 2, 0, 7, 5, 6, 4};
  EXPECT_DEATH(pram::counted_parallel_merge_sort(data.data(), data.size(), 4,
                                                 too_few),
               "check failed");
  // Boundary: exactly `lanes` entries is enough.
  pram::counted_parallel_merge(a.data(), 4, b.data(), 4, out.data(), 2,
                               too_few);
  EXPECT_EQ(out, (std::vector<std::int32_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Contracts, StreamMergerRejectsPushAfterClose) {
  StreamMerger<std::int32_t> merger;
  merger.close_a();
  const std::vector<std::int32_t> chunk{1};
  EXPECT_DEATH(merger.push_a(std::span<const std::int32_t>(chunk)),
               "check failed");
}

TEST(Contracts, CacheRejectsInvalidGeometry) {
  cachesim::CacheConfig config;
  config.size_bytes = 1000;  // not a multiple of line*assoc
  config.line_bytes = 64;
  config.associativity = 4;
  EXPECT_DEATH(cachesim::Cache cache(config), "check failed");
}

TEST(Contracts, BlockDeviceRejectsUnwrittenRead) {
  extmem::BlockDevice device;
  const std::uint64_t block = device.allocate(1);
  std::uint8_t buf[8];
  EXPECT_DEATH(device.read_block(block, buf, 8), "check failed");
  EXPECT_DEATH(device.read_block(block + 1, buf, 8), "check failed");
}

TEST(Contracts, PipelineRejectsFanInOne) {
  // A merge pass of one run never shrinks the run list; 0 (one pass) and
  // F >= 2 are the valid fan-ins.
  extmem::BlockDevice device;
  pipeline::PipelineConfig config;
  config.shards = 1;
  config.fan_in = 1;
  const std::vector<std::int32_t> data{3, 1, 2};
  EXPECT_DEATH(pipeline::sort_vector(device, data, config), "check failed");
  config.fan_in = 2;
  EXPECT_EQ(pipeline::sort_vector(device, data, config),
            (std::vector<std::int32_t>{1, 2, 3}));
}

TEST(Contracts, SegmentedConfigDegenerateCacheStillWorks) {
  // Documented behaviour, not death: a cache too small for 3 elements
  // clamps L to 1 and the merge still completes.
  SegmentedConfig config;
  config.cache_bytes = 8;  // 2 int32 elements => L clamps to 1
  EXPECT_EQ(config.resolve_segment_length<std::int32_t>(), 1u);
  const std::vector<std::int32_t> a{1, 3}, b{2, 4};
  std::vector<std::int32_t> out(4);
  segmented_parallel_merge(a.data(), 2, b.data(), 2, out.data(), config);
  EXPECT_EQ(out, (std::vector<std::int32_t>{1, 2, 3, 4}));
}

TEST(Contracts, CliErrorsAreReportedNotFatal) {
  const char* argv[] = {"prog", "stray"};
  Cli cli(2, argv);
  EXPECT_FALSE(cli.ok());
  EXPECT_FALSE(cli.error().empty());
}

}  // namespace
}  // namespace mp
