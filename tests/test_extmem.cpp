// Tests for the external-memory substrate (S17): device mechanics, run
// writer/reader round-trips, external sort correctness and stability, and
// the Aggarwal-Vitter transfer-count bound.

#include "extmem/external_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "extmem/block_device.hpp"
#include "extmem/run_file.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"

namespace mp::extmem {
namespace {

DeviceConfig small_blocks() {
  DeviceConfig config;
  config.block_bytes = 1024;  // 256 int32 per block
  return config;
}

TEST(BlockDevice, WriteReadRoundTrip) {
  BlockDevice device(small_blocks());
  const std::uint64_t first = device.allocate(2);
  std::vector<std::int32_t> data(256);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::int32_t>(i * 3);
  device.write_block(first, data.data(), 1024);
  std::vector<std::int32_t> back(256);
  device.read_block(first, back.data(), 1024);
  EXPECT_EQ(back, data);
  EXPECT_EQ(device.stats().block_writes, 1u);
  EXPECT_EQ(device.stats().block_reads, 1u);
}

TEST(BlockDevice, SeekAccountingDistinguishesSequentialAccess) {
  BlockDevice device(small_blocks());
  const std::uint64_t first = device.allocate(10);
  std::vector<std::uint8_t> zeros(1024, 0);
  for (std::uint64_t b = 0; b < 10; ++b)
    device.write_block(first + b, zeros.data(), 1024);
  // First access seeks; the other nine are sequential.
  EXPECT_EQ(device.stats().seeks, 1u);
  device.read_block(first + 5, zeros.data(), 1024);  // jump back: a seek
  device.read_block(first + 6, zeros.data(), 1024);  // sequential
  EXPECT_EQ(device.stats().seeks, 2u);
  EXPECT_GT(device.modeled_io_us(), 0.0);
}

TEST(RunFile, WriterReaderRoundTripAcrossBlocks) {
  BlockDevice device(small_blocks());
  RunWriter<std::int32_t> writer(device);
  const auto values = make_uniform_values(1000, 3);  // ~4 blocks
  writer.append(values.data(), values.size());
  const RunHandle run = writer.finish();
  EXPECT_EQ(run.element_count, 1000u);

  RunReader<std::int32_t> reader(device, run);
  std::vector<std::int32_t> back;
  while (!reader.empty()) back.push_back(reader.next());
  EXPECT_EQ(back, values);
}

TEST(RunFile, WriterIsReusableAfterFinish) {
  BlockDevice device(small_blocks());
  RunWriter<std::int32_t> writer(device);
  writer.append(1);
  const RunHandle r1 = writer.finish();
  writer.append(2);
  writer.append(3);
  const RunHandle r2 = writer.finish();
  RunReader<std::int32_t> read1(device, r1), read2(device, r2);
  EXPECT_EQ(read1.next(), 1);
  EXPECT_TRUE(read1.empty());
  EXPECT_EQ(read2.next(), 2);
  EXPECT_EQ(read2.next(), 3);
}

TEST(RunFile, PeekDoesNotConsume) {
  BlockDevice device(small_blocks());
  RunWriter<std::int32_t> writer(device);
  writer.append(42);
  RunReader<std::int32_t> reader(device, writer.finish());
  EXPECT_EQ(reader.peek(), 42);
  EXPECT_EQ(reader.peek(), 42);
  EXPECT_EQ(reader.remaining(), 1u);
  EXPECT_EQ(reader.next(), 42);
  EXPECT_TRUE(reader.empty());
}

class ExternalSortParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ExternalSortParam, SortsCorrectly) {
  const auto [n, memory] = GetParam();
  BlockDevice device(small_blocks());
  const auto data = make_unsorted_values(n, 900 + n);
  auto expected = data;
  std::sort(expected.begin(), expected.end());

  ExternalSortConfig config;
  config.memory_elems = memory;
  ExternalSortReport report;
  const auto sorted = external_sort_vector(device, data, config, &report);
  EXPECT_EQ(sorted, expected);
  if (n > memory) {
    EXPECT_GT(report.initial_runs, 1u);
  }
  if (report.initial_runs > 1) {
    EXPECT_GE(report.merge_passes, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndMemory, ExternalSortParam,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{100},
                                         std::size_t{10000},
                                         std::size_t{100000}),
                       ::testing::Values(std::size_t{512},
                                         std::size_t{4096})),
    [](const auto& pinfo) {
      // Appended piece by piece: at -O3, GCC 12 reports a false -Wrestrict
      // in the insert-at-front that "literal" + std::string performs.
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_M";
      name += std::to_string(std::get<1>(pinfo.param));
      return name;
    });

TEST(ExternalSort, StableAcrossRunsAndPasses) {
  BlockDevice device(small_blocks());
  Xoshiro256 rng(17);
  std::vector<KeyedRecord> data(20000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i].key = static_cast<std::int32_t>(rng.bounded(50));
    data[i].payload = static_cast<std::uint32_t>(i);
  }
  auto expected = data;
  std::stable_sort(expected.begin(), expected.end());

  ExternalSortConfig config;
  config.memory_elems = 1024;  // many runs, several passes
  config.fan_in = 3;
  const auto sorted = external_sort_vector(device, data, config);
  EXPECT_EQ(sorted, expected);
}

TEST(ExternalSort, TransferCountMeetsAggarwalVitterBound) {
  // N/B · (1 + passes) * 2-ish transfers; passes = ceil(log_k(runs)).
  BlockDevice device(small_blocks());
  const std::size_t n = 200000;  // ~782 blocks
  const auto data = make_unsorted_values(n, 23);

  ExternalSortConfig config;
  config.memory_elems = 2048;  // 8 blocks of memory => fan-in 7
  ExternalSortReport report;
  const auto sorted = external_sort_vector(device, data, config, &report);
  ASSERT_EQ(sorted.size(), n);

  const double blocks = std::ceil(static_cast<double>(n) / 256.0);
  const double runs = std::ceil(static_cast<double>(n) / 2048.0);
  const double passes =
      std::ceil(std::log(runs) / std::log(static_cast<double>(report.fan_in)));
  EXPECT_EQ(report.fan_in, 7u);
  EXPECT_EQ(static_cast<double>(report.merge_passes), passes);
  // Each pass reads + writes every block once; run formation likewise; the
  // vector round-trip adds one more write+read of the input. Allow the
  // per-run partial-block slack.
  const double bound = 2.0 * blocks * (passes + 1.0) + 2.0 * runs + 4.0;
  EXPECT_LE(static_cast<double>(report.io.transfers()), bound)
      << "reads=" << report.io.block_reads
      << " writes=" << report.io.block_writes;
  EXPECT_GT(report.modeled_io_us, 0.0);
}

TEST(ExternalSort, LargerFanInMeansFewerPasses) {
  const auto data = make_unsorted_values(100000, 29);
  std::size_t passes_small = 0, passes_large = 0;
  {
    BlockDevice device(small_blocks());
    ExternalSortConfig config;
    config.memory_elems = 1024;
    config.fan_in = 2;
    ExternalSortReport report;
    external_sort_vector(device, data, config, &report);
    passes_small = report.merge_passes;
  }
  {
    BlockDevice device(small_blocks());
    ExternalSortConfig config;
    config.memory_elems = 1024;
    config.fan_in = 16;
    ExternalSortReport report;
    external_sort_vector(device, data, config, &report);
    passes_large = report.merge_passes;
  }
  EXPECT_GT(passes_small, passes_large);
}

}  // namespace
}  // namespace mp::extmem
