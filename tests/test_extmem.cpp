// Tests for the external-memory substrate (S17): device mechanics, run
// writer/reader round-trips (element-wise, bulk whole-block, windowed,
// preallocated, and under scripted and random faults), and the external
// sort (the pipeline with one shard and a bounded fan-in): correctness,
// stability across merge passes, and the Aggarwal-Vitter transfer-count
// bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "extmem/block_device.hpp"
#include "extmem/run_file.hpp"
#include "pipeline/pipeline.hpp"
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

DeviceConfig tiny_blocks() {
  DeviceConfig config;
  config.block_bytes = 256;  // 64 int32 per block
  return config;
}

std::vector<std::int32_t> read_all(BlockDevice& device, RunHandle run) {
  RunReader<std::int32_t> reader(device, run);
  std::vector<std::int32_t> out;
  while (!reader.empty()) out.push_back(reader.next());
  return out;
}

TEST(RunFile, BulkReadsCoverEveryWindowOnce) {
  // Windows starting on and off block boundaries and ending mid-block, on
  // a boundary or at the run's end, each read in one piece and in pieces
  // that cross blocks. Whole blocks go straight into the destination,
  // the rest through the buffer; either way every block the window
  // touches is read exactly once and nothing outside it.
  BlockDevice device(tiny_blocks());
  const auto values = make_uniform_values(1000, 41);
  RunWriter<std::int32_t> writer(device);
  writer.append(values.data(), values.size());
  const RunHandle run = writer.finish();
  for (const std::uint64_t offset : {0u, 1u, 63u, 64u, 100u, 128u}) {
    for (const std::uint64_t count :
         {0u, 1u, 64u, 127u, 128u, 300u, 1000u - static_cast<unsigned>(offset)}) {
      for (const std::size_t piece : {std::size_t{1000}, std::size_t{1},
                                      std::size_t{63}, std::size_t{65},
                                      std::size_t{130}}) {
        SCOPED_TRACE(::testing::Message() << "offset=" << offset << " count="
                                          << count << " piece=" << piece);
        const std::uint64_t reads = device.stats().block_reads;
        RunReader<std::int32_t> reader(device, run, offset, count);
        std::vector<std::int32_t> window(count);
        for (std::size_t at = 0; at < count;) {
          const std::size_t take = std::min<std::size_t>(piece, count - at);
          reader.read(window.data() + at, take);
          at += take;
        }
        EXPECT_EQ(window, std::vector<std::int32_t>(
                              values.begin() + offset,
                              values.begin() + offset + count));
        EXPECT_TRUE(reader.empty());
        EXPECT_TRUE(reader.block().empty());
        EXPECT_EQ(reader.position(), offset + count);
        const std::uint64_t touched =
            count == 0 ? 0 : (offset + count - 1) / 64 - offset / 64 + 1;
        EXPECT_EQ(device.stats().block_reads - reads, touched);
      }
    }
  }
}

TEST(RunFile, BlockSkipAndBulkReadInterleave) {
  BlockDevice device(tiny_blocks());
  const auto values = make_uniform_values(1000, 43);
  RunWriter<std::int32_t> writer(device);
  writer.append(values.data(), values.size());
  const RunHandle run = writer.finish();

  // A mid-block window: a bulk piece, the lent rest of the block and a
  // skip to a block boundary, a peek that buffers the next block, then a
  // bulk read from that buffered boundary, which must copy the buffered
  // block rather than read it again.
  const std::uint64_t reads = device.stats().block_reads;
  RunReader<std::int32_t> reader(device, run, 37, 500);
  std::vector<std::int32_t> window(500);
  reader.read(window.data(), 100);
  const std::span<const std::int32_t> rest = reader.block();
  ASSERT_EQ(rest.size(), 64u - (37u + 100u) % 64u);
  std::copy(rest.begin(), rest.end(), window.begin() + 100);
  reader.skip(rest.size());
  const std::size_t at = 100 + rest.size();
  EXPECT_EQ(reader.position(), 192u);
  EXPECT_EQ(reader.peek(), values[192]);
  reader.read(window.data() + at, 500 - at);
  EXPECT_EQ(window, std::vector<std::int32_t>(values.begin() + 37,
                                              values.begin() + 537));
  EXPECT_TRUE(reader.block().empty());
  EXPECT_EQ(reader.position(), 537u);
  EXPECT_EQ(device.stats().block_reads - reads, 536u / 64 - 37u / 64 + 1);

  // The same window element by element.
  RunReader<std::int32_t> single(device, run, 37, 500);
  std::vector<std::int32_t> elems;
  while (!single.empty()) elems.push_back(single.next());
  EXPECT_EQ(elems, window);
  EXPECT_EQ(single.position(), 537u);
}

TEST(RunFile, WholeBlocksDirectThenPartialTail) {
  // Pieces that fill a block exactly, straddle two or more, and arrive
  // while a partial block is staged; whole blocks appended with nothing
  // staged are written straight from the caller's memory. The last
  // append is two whole blocks then a partial tail.
  BlockDevice device(tiny_blocks());
  const auto values = make_uniform_values(1138, 47);
  RunWriter<std::int32_t> writer(device);
  std::size_t at = 0;
  for (const std::size_t piece : {1u, 63u, 64u, 130u, 5u, 700u, 37u, 138u}) {
    writer.append(values.data() + at, piece);
    at += piece;
  }
  ASSERT_EQ(at, values.size());
  const RunHandle run = writer.finish();
  EXPECT_EQ(run.element_count, values.size());
  EXPECT_EQ(device.stats().block_writes, (values.size() + 63) / 64);
  EXPECT_EQ(read_all(device, run), values);
}

TEST(RunFile, PreallocatedWriterRewritesItsOwnBlocks) {
  BlockDevice device(tiny_blocks());
  const std::uint64_t first = device.allocate(6);
  const auto values = make_uniform_values(200, 5);  // 3 blocks + 8
  for (const std::int32_t delta : {0, 1}) {
    // The second pass is a redo with different bytes: same blocks.
    std::vector<std::int32_t> shifted = values;
    for (std::int32_t& v : shifted) v += delta;
    RunWriter<std::int32_t> writer(device, first + 1);
    writer.append(shifted.data(), shifted.size());
    const RunHandle run = writer.finish();
    EXPECT_EQ(run.first_block, first + 1);
    EXPECT_EQ(run.element_count, values.size());
    EXPECT_EQ(read_all(device, run), shifted);
    EXPECT_EQ(device.blocks_allocated(), first + 6);  // nothing allocated
    EXPECT_FALSE(device.is_written(first));
    EXPECT_FALSE(device.is_written(first + 5));
  }
}

TEST(RunFile, DirectPathsRecoverScriptedShortAndTransientFaults) {
  BlockDevice device(tiny_blocks());
  const std::uint64_t first = device.allocate(4);
  const auto values = make_uniform_values(200, 9);  // 3 whole blocks + 8
  {
    // Ops: 0 short and 1 retry (block 0, direct), 2 transient and 3
    // retry (block 1, direct), 4 block 2, 5 the staged tail.
    fault::FaultPlan plan;
    plan.fail_op(0, fault::FaultKind::kShort);
    plan.fail_op(2, fault::FaultKind::kTransient);
    fault::ScopedInjector injector(device, plan);
    RunWriter<std::int32_t> writer(device, first);
    writer.append(values.data(), values.size());
    writer.finish();
    EXPECT_EQ(writer.retries(), 2u);
  }
  EXPECT_EQ(device.stats().short_transfers, 1u);
  EXPECT_EQ(device.stats().block_writes, 4u);
  {
    // The same pattern on a bulk read: two direct blocks each retried.
    fault::FaultPlan plan;
    plan.fail_op(0, fault::FaultKind::kShort);
    plan.fail_op(2, fault::FaultKind::kTransient);
    fault::ScopedInjector injector(device, plan);
    RunReader<std::int32_t> reader(device, RunHandle{first, values.size()});
    std::vector<std::int32_t> back(values.size());
    reader.read(back.data(), back.size());
    EXPECT_EQ(back, values);
    EXPECT_EQ(reader.retries(), 2u);
  }
  EXPECT_EQ(device.stats().short_transfers, 2u);
}

TEST(RunFile, SurvivesRandomFaultsViaRetry) {
  BlockDevice device(tiny_blocks());
  fault::FaultConfig fc;
  fc.seed = 99;
  fc.rate = 0.2;  // transient/short/latency storms on every transfer
  fault::FaultPlan plan(fc);
  fault::ScopedInjector injector(device, plan);
  fault::RetryPolicy retry;
  retry.max_attempts = 64;
  const auto values = make_uniform_values(600, 7);
  RunWriter<std::int32_t> writer(device, retry);
  writer.append(values.data(), values.size());
  const RunHandle run = writer.finish();
  RunReader<std::int32_t> bulk(device, run, 0, run.element_count, retry);
  std::vector<std::int32_t> back(values.size());
  bulk.read(back.data(), back.size());
  EXPECT_EQ(back, values);
  RunReader<std::int32_t> single(device, run, retry);
  back.clear();
  while (!single.empty()) back.push_back(single.next());
  EXPECT_EQ(back, values);
  EXPECT_GT(plan.stats().injected, 0u);
  EXPECT_GT(writer.retries() + bulk.retries() + single.retries(), 0u);
}

/// The external sort: one shard, checkpoints off, passes of `fan_in`.
pipeline::PipelineConfig external_config(std::uint64_t memory_elems,
                                         std::uint64_t fan_in) {
  pipeline::PipelineConfig config;
  config.memory_elems = memory_elems;
  config.fan_in = fan_in;
  config.shards = 1;
  config.checkpoints = false;
  return config;
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

  // The Aggarwal-Vitter fan-in M/B - 1 (2 at M = 512, 15 at M = 4096).
  const auto config = external_config(
      memory, std::max<std::size_t>(2, memory / 256 - 1));
  pipeline::PipelineReport report;
  const auto sorted = pipeline::sort_vector(device, data, config, &report);
  EXPECT_EQ(sorted, expected);
  if (n > memory) {
    EXPECT_GT(report.runs_formed, 1u);
  }
  if (report.runs_formed > 1) {
    EXPECT_GE(report.merge_passes, 1u);
  }
  EXPECT_EQ(device.live_blocks(), 0u);
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

  // Many runs, several passes, and carried-over runs at pass ends.
  const auto config = external_config(1024, 3);
  pipeline::PipelineReport report;
  const auto sorted = pipeline::sort_vector(device, data, config, &report);
  EXPECT_EQ(sorted, expected);
  EXPECT_GT(report.merge_passes, 2u);
}

TEST(ExternalSort, TransferCountMeetsAggarwalVitterBound) {
  // N/B · (1 + passes) * 2-ish transfers; passes = ceil(log_k(runs)).
  BlockDevice device(small_blocks());
  const std::size_t n = 200000;  // ~782 blocks
  const auto data = make_unsorted_values(n, 23);
  RunWriter<std::int32_t> writer(device);
  writer.append(data.data(), data.size());
  const RunHandle input = writer.finish();

  // 8 blocks of memory => the Aggarwal-Vitter fan-in 7.
  const auto config = external_config(2048, 7);
  const DeviceStats before = device.stats();
  const double io_before = device.modeled_io_us();
  const pipeline::PipelineReport report =
      pipeline::Pipeline<std::int32_t>::start(device, input, config).run();
  const std::uint64_t reads = device.stats().block_reads - before.block_reads;
  const std::uint64_t writes =
      device.stats().block_writes - before.block_writes;
  std::vector<std::int32_t> sorted(n);
  RunReader<std::int32_t>(device, report.output).read(sorted.data(), n);
  ASSERT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));

  const double blocks = std::ceil(static_cast<double>(n) / 256.0);
  const double runs = std::ceil(static_cast<double>(n) / 2048.0);
  const double passes = std::ceil(std::log(runs) / std::log(7.0));
  EXPECT_EQ(static_cast<double>(report.runs_formed), runs);
  EXPECT_EQ(static_cast<double>(report.merge_passes), passes);
  // Each pass reads + writes every block once; run formation likewise.
  // Allow the per-run partial-block slack (which also covers the two
  // manifest writes, start and final).
  const double bound = 2.0 * blocks * (passes + 1.0) + 2.0 * runs + 4.0;
  EXPECT_LE(static_cast<double>(reads + writes), bound)
      << "reads=" << reads << " writes=" << writes;
  EXPECT_GT(device.modeled_io_us() - io_before, 0.0);
}

TEST(ExternalSort, CarriedRunCostsNoTransfers) {
  // Five one-block runs at fan-in 2: 5 -> 3 -> 2 -> 1, and the first two
  // passes each end with a lone run that carries over untouched.
  BlockDevice device(small_blocks());
  const auto data = make_unsorted_values(5 * 256, 31);
  RunWriter<std::int32_t> writer(device);
  writer.append(data.data(), data.size());
  const RunHandle input = writer.finish();
  const DeviceStats before = device.stats();
  const pipeline::PipelineReport report =
      pipeline::Pipeline<std::int32_t>::start(device, input,
                                              external_config(256, 2))
          .run();
  EXPECT_EQ(report.runs_formed, 5u);
  EXPECT_EQ(report.merge_passes, 3u);
  // Blocks written: 5 formed, 2 + 2 merged in pass one, 4 in pass two,
  // 5 in the last pass, and the two one-block manifest writes. Each
  // merged block was read once, and formation read the input once.
  EXPECT_EQ(device.stats().block_writes - before.block_writes,
            5u + 4u + 4u + 5u + 2u);
  EXPECT_EQ(device.stats().block_reads - before.block_reads,
            5u + 4u + 4u + 5u);
}

TEST(ExternalSort, LargerFanInMeansFewerPasses) {
  const auto data = make_unsorted_values(100000, 29);
  std::uint64_t passes_small = 0, passes_large = 0;
  {
    BlockDevice device(small_blocks());
    pipeline::PipelineReport report;
    pipeline::sort_vector(device, data, external_config(1024, 2), &report);
    passes_small = report.merge_passes;
  }
  {
    BlockDevice device(small_blocks());
    pipeline::PipelineReport report;
    pipeline::sort_vector(device, data, external_config(1024, 16), &report);
    passes_large = report.merge_passes;
  }
  EXPECT_GT(passes_small, passes_large);
}

}  // namespace
}  // namespace mp::extmem
