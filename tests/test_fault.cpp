// Tests for the fault-injection layer (S23): plan determinism and
// scripting, the device injectors (transient/short/latency/ENOSPC) with
// the run-file retry loops, block release accounting, and the network
// injectors (drop/duplicate/reorder/partition) with reliable_send's
// recovery protocol. The randomized end-to-end sweeps live in
// tests/property/test_property_faults.cpp.

#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/mergepath.hpp"
#include "dist/distributed_merge.hpp"
#include "dist/netsim.hpp"
#include "extmem/block_device.hpp"
#include "extmem/run_file.hpp"
#include "pipeline/pipeline.hpp"
#include "test_support.hpp"
#include "util/data_gen.hpp"

namespace mp::fault {
namespace {

TEST(FaultPlan, DefaultConstructedPlanIsInert) {
  FaultPlan plan;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(plan.decide(OpClass::kRead), FaultKind::kNone);
    EXPECT_EQ(plan.decide_send(0, 1), FaultKind::kNone);
  }
  EXPECT_EQ(plan.stats().injected, 0u);
  EXPECT_EQ(plan.stats().decisions, 200u);
}

TEST(FaultPlan, ZeroRateSeededPlanNeverFires) {
  FaultPlan plan(FaultConfig{42, 0.0, 250.0});
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(plan.decide(OpClass::kWrite), FaultKind::kNone);
  EXPECT_EQ(plan.stats().injected, 0u);
}

TEST(FaultPlan, SameSeedSameSchedule) {
  const FaultConfig config{1234, 0.3, 250.0};
  FaultPlan x(config), y(config);
  for (int i = 0; i < 500; ++i) {
    const auto op = static_cast<OpClass>(i % 3);  // read/write/allocate
    ASSERT_EQ(x.decide(op), y.decide(op)) << "diverged at op " << i;
  }
  for (int i = 0; i < 500; ++i)
    ASSERT_EQ(x.decide_send(i % 4, (i + 1) % 4), y.decide_send(i % 4, (i + 1) % 4));
  EXPECT_EQ(x.schedule_hash(), y.schedule_hash());
  EXPECT_TRUE(x.stats() == y.stats());
  EXPECT_GT(x.stats().injected, 0u);  // 30% over 1000 ops must fire
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  FaultPlan x(FaultConfig{1, 0.5, 250.0});
  FaultPlan y(FaultConfig{2, 0.5, 250.0});
  for (int i = 0; i < 200; ++i) {
    x.decide(OpClass::kRead);
    y.decide(OpClass::kRead);
  }
  EXPECT_NE(x.schedule_hash(), y.schedule_hash());
}

TEST(FaultPlan, ScriptedOpFailsExactlyAtIndex) {
  FaultPlan plan;
  plan.fail_op(3, FaultKind::kMedia);
  EXPECT_EQ(plan.decide(OpClass::kRead), FaultKind::kNone);  // op 0
  EXPECT_EQ(plan.decide(OpClass::kRead), FaultKind::kNone);  // op 1
  EXPECT_EQ(plan.decide(OpClass::kRead), FaultKind::kNone);  // op 2
  EXPECT_EQ(plan.decide(OpClass::kRead), FaultKind::kMedia); // op 3
  EXPECT_EQ(plan.decide(OpClass::kRead), FaultKind::kNone);  // op 4
  EXPECT_EQ(plan.stats().count(FaultKind::kMedia), 1u);
}

TEST(FaultPlan, FailFromMakesEveryLaterOpFail) {
  FaultPlan plan;
  plan.fail_from(2, FaultKind::kNoSpace);
  EXPECT_EQ(plan.decide(OpClass::kAllocate), FaultKind::kNone);
  EXPECT_EQ(plan.decide(OpClass::kAllocate), FaultKind::kNone);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(plan.decide(OpClass::kAllocate), FaultKind::kNoSpace);
}

TEST(FaultPlan, PartitionWindowCoversScriptedOpsOnly) {
  FaultPlan plan;
  plan.partition_link(0, 1, 2, 3);  // ops 2..4 on link 0->1
  EXPECT_EQ(plan.decide_send(0, 1), FaultKind::kNone);      // op 0
  EXPECT_EQ(plan.decide_send(1, 0), FaultKind::kNone);      // op 1, reverse
  EXPECT_EQ(plan.decide_send(0, 1), FaultKind::kPartition); // op 2
  EXPECT_EQ(plan.decide_send(1, 0), FaultKind::kNone);      // op 3, reverse
  EXPECT_EQ(plan.decide_send(0, 1), FaultKind::kPartition); // op 4
  EXPECT_EQ(plan.decide_send(0, 1), FaultKind::kNone);      // op 5: window over
}

TEST(FaultPlan, ForeverPartitionNeverHeals) {
  FaultPlan plan;
  plan.partition_link(2, 3, 0);  // length 0 = forever
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(plan.decide_send(2, 3), FaultKind::kPartition);
}

TEST(ScopedInjector, AttachesAndDetaches) {
  extmem::BlockDevice device;
  FaultPlan plan;
  EXPECT_EQ(device.fault_plan(), nullptr);
  {
    ScopedInjector injector(device, plan);
    EXPECT_EQ(device.fault_plan(), &plan);
  }
  EXPECT_EQ(device.fault_plan(), nullptr);
}

}  // namespace
}  // namespace mp::fault

namespace mp::extmem {
namespace {

DeviceConfig small_blocks() {
  DeviceConfig config;
  config.block_bytes = 1024;  // 256 int32 per block
  return config;
}

TEST(DeviceFaults, TransientWriteReportsInterrupted) {
  BlockDevice device(small_blocks());
  fault::FaultPlan plan;
  plan.fail_op(1, fault::FaultKind::kTransient);  // op 0 is the allocate
  fault::ScopedInjector injector(device, plan);
  const std::uint64_t block = device.allocate(1);
  std::vector<std::int32_t> data(256, 7);
  EXPECT_EQ(device.try_write_block(block, data.data(), 1024),
            IoStatus::kInterrupted);
  EXPECT_EQ(device.stats().block_writes, 0u);  // failed attempt not counted
  EXPECT_EQ(device.stats().faults_injected, 1u);
  EXPECT_EQ(device.try_write_block(block, data.data(), 1024), IoStatus::kOk);
  EXPECT_EQ(device.stats().block_writes, 1u);
}

TEST(DeviceFaults, ShortWriteLeavesBlockUnreadable) {
  BlockDevice device(small_blocks());
  std::vector<std::int32_t> data(256, 9);
  const std::uint64_t block = device.allocate(1);
  device.write_block(block, data.data(), 1024);  // block is live
  EXPECT_EQ(device.live_blocks(), 1u);

  fault::FaultPlan plan;
  plan.fail_op(0, fault::FaultKind::kShort);
  {
    fault::ScopedInjector injector(device, plan);
    EXPECT_EQ(device.try_write_block(block, data.data(), 1024),
              IoStatus::kShortTransfer);
  }
  // The torn write destroyed the block's durable state.
  EXPECT_EQ(device.live_blocks(), 0u);
  EXPECT_EQ(device.stats().short_transfers, 1u);
  device.write_block(block, data.data(), 1024);  // plan detached: succeeds
  EXPECT_EQ(device.live_blocks(), 1u);
}

TEST(DeviceFaults, InjectedLatencyChargesModeledTime) {
  BlockDevice device(small_blocks());
  const std::uint64_t block = device.allocate(1);
  std::vector<std::int32_t> data(256, 1);
  device.write_block(block, data.data(), 1024);
  const double before = device.modeled_io_us();

  fault::FaultPlan plan(fault::FaultConfig{0, 0.0, 500.0});
  plan.fail_op(0, fault::FaultKind::kLatency);
  fault::ScopedInjector injector(device, plan);
  std::vector<std::int32_t> back(256);
  // kLatency: the op succeeds, it just costs extra modeled time.
  EXPECT_EQ(device.try_read_block(block, back.data(), 1024), IoStatus::kOk);
  EXPECT_EQ(back, data);
  EXPECT_GE(device.modeled_io_us() - before, 500.0);
}

TEST(DeviceFaults, CapacityExhaustionThrowsTypedNoSpace) {
  DeviceConfig config = small_blocks();
  config.max_blocks = 4;
  BlockDevice device(config);
  EXPECT_EQ(device.allocate(4), 0u);
  try {
    device.allocate(1);
    FAIL() << "allocate past max_blocks must throw";
  } catch (const IoError& error) {
    EXPECT_EQ(error.status(), IoStatus::kNoSpace);
    EXPECT_EQ(error.kind(), fault::FaultKind::kNoSpace);
  }
}

TEST(DeviceFaults, ScriptedEnospcThrowsFromAllocate) {
  BlockDevice device(small_blocks());
  fault::FaultPlan plan;
  plan.fail_op(0, fault::FaultKind::kNoSpace);
  fault::ScopedInjector injector(device, plan);
  EXPECT_THROW(device.allocate(1), IoError);
  EXPECT_EQ(device.blocks_allocated(), 0u);
}

TEST(DeviceFaults, ReleaseBlocksReturnsStorage) {
  BlockDevice device(small_blocks());
  const std::uint64_t first = device.allocate(3);
  std::vector<std::int32_t> data(256, 5);
  for (std::uint64_t b = 0; b < 3; ++b)
    device.write_block(first + b, data.data(), 1024);
  EXPECT_EQ(device.live_blocks(), 3u);
  device.release_blocks(first, 2);
  EXPECT_EQ(device.live_blocks(), 1u);
  EXPECT_EQ(device.stats().blocks_released, 2u);
  device.release_blocks(first, 3);  // releasing released blocks is a no-op
  EXPECT_EQ(device.live_blocks(), 0u);
  EXPECT_EQ(device.stats().blocks_released, 3u);
}

TEST(RunFileFaults, RetryAbsorbsTransientFaults) {
  BlockDevice device(small_blocks());
  fault::FaultPlan plan;
  // Ops: 0 = allocate, 1 = write attempt (fails), 2 = write retry (ok).
  plan.fail_op(1, fault::FaultKind::kTransient);
  fault::ScopedInjector injector(device, plan);

  RunWriter<std::int32_t> writer(device);
  const auto values = make_uniform_values(600, 11);  // ~3 blocks
  writer.append(values.data(), values.size());
  const RunHandle run = writer.finish();
  EXPECT_EQ(writer.retries(), 1u);

  RunReader<std::int32_t> reader(device, run);
  std::vector<std::int32_t> back;
  while (!reader.empty()) back.push_back(reader.next());
  EXPECT_EQ(back, values);
}

TEST(RunFileFaults, ExhaustedRetriesThrowTypedError) {
  BlockDevice device(small_blocks());
  fault::FaultPlan plan;
  plan.fail_from(0, fault::FaultKind::kTransient);  // every op fails
  fault::ScopedInjector injector(device, plan);

  fault::RetryPolicy retry;
  retry.max_attempts = 3;
  RunWriter<std::int32_t> writer(device, retry);
  const auto values = make_uniform_values(300, 13);
  try {
    writer.append(values.data(), values.size());
    writer.finish();
    FAIL() << "permanent transient storm must exhaust retries";
  } catch (const IoError& error) {
    EXPECT_EQ(error.status(), IoStatus::kInterrupted);
  }
  EXPECT_EQ(device.live_blocks(), 0u);  // the failed write left no data
}

TEST(RunFileFaults, MediaErrorIsNotRetried) {
  BlockDevice device(small_blocks());
  const auto values = make_uniform_values(256, 17);
  RunWriter<std::int32_t> writer(device);
  writer.append(values.data(), values.size());
  const RunHandle run = writer.finish();

  fault::FaultPlan plan;
  plan.fail_op(0, fault::FaultKind::kMedia);
  fault::ScopedInjector injector(device, plan);
  RunReader<std::int32_t> reader(device, run);
  try {
    reader.next();
    FAIL() << "media error must surface";
  } catch (const IoError& error) {
    EXPECT_EQ(error.status(), IoStatus::kMediaError);
  }
  // Exactly one decision: no retry was attempted on the permanent fault.
  EXPECT_EQ(plan.stats().decisions, 1u);
}

TEST(ExternalSortFaults, PermanentFaultReleasesAllTempRuns) {
  BlockDevice device(small_blocks());
  auto values = make_uniform_values(4000, 23);  // ~16 blocks

  // A caller-owned run written fault-free before the sort.
  RunWriter<std::int32_t> writer(device);
  writer.append(values.data(), values.size());
  writer.finish();
  const std::uint64_t input_blocks = device.live_blocks();

  fault::FaultPlan plan;
  plan.fail_from(40, fault::FaultKind::kMedia);  // die mid-sort
  fault::ScopedInjector injector(device, plan);
  pipeline::PipelineConfig config;
  config.memory_elems = 512;  // force multiple runs and merge passes
  config.fan_in = 2;
  config.shards = 1;
  config.checkpoints = false;
  config.exec.threads = 1;
  EXPECT_THROW(pipeline::sort_vector(device, values, config), IoError);
  // Every temp run was released: only the caller's run survives.
  EXPECT_EQ(device.live_blocks(), input_blocks);
}

}  // namespace
}  // namespace mp::extmem

namespace mp::dist {
namespace {

TEST(NetFaults, DropIsResentByReliableSend) {
  RankNetwork net(2);
  fault::FaultPlan plan;
  plan.fail_op(0, fault::FaultKind::kDrop);
  net.set_fault_plan(&plan);
  net.reliable_send(0, 1, 4096);
  const NetStats stats = net.stats();
  EXPECT_EQ(stats.drops, 1u);
  EXPECT_EQ(stats.resends, 1u);
  EXPECT_EQ(stats.messages, 1u);  // exactly one delivery
  EXPECT_EQ(stats.bytes, 4096u);
}

TEST(NetFaults, DuplicateIsDiscardedBySequenceNumber) {
  RankNetwork net(2);
  fault::FaultPlan plan;
  plan.fail_op(0, fault::FaultKind::kDuplicate);
  net.set_fault_plan(&plan);
  net.reliable_send(0, 1, 100);
  const NetStats stats = net.stats();
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.dedup_discards, 1u);
  EXPECT_EQ(stats.bytes, 100u);  // payload counted once
}

TEST(NetFaults, PersistentPartitionThrowsTypedNetError) {
  NetConfig config;
  config.max_resend = 4;
  RankNetwork net(2, config);
  fault::FaultPlan plan;
  plan.partition_link(0, 1, 0);  // forever
  net.set_fault_plan(&plan);
  try {
    net.reliable_send(0, 1, 64);
    FAIL() << "partitioned link must throw after max_resend";
  } catch (const NetError& error) {
    EXPECT_EQ(error.src(), 0u);
    EXPECT_EQ(error.dst(), 1u);
    EXPECT_EQ(error.kind(), fault::FaultKind::kPartition);
  }
  EXPECT_EQ(net.stats().resends, 4u);
  // The reverse link still works.
  net.reliable_send(1, 0, 64);
  EXPECT_EQ(net.stats().messages, 1u);
}

TEST(NetFaults, SelfSendsNeverConsultThePlan) {
  RankNetwork net(2);
  fault::FaultPlan plan;
  plan.fail_from(0, fault::FaultKind::kDrop);
  net.set_fault_plan(&plan);
  net.reliable_send(1, 1, 1 << 20);  // local move: free and infallible
  EXPECT_EQ(plan.stats().decisions, 0u);
  EXPECT_EQ(net.stats().messages, 0u);
}

TEST(NetFaults, FaultCostsAreCharged) {
  // A run with drops+resends must model strictly more time than the same
  // traffic on a perfect network: recovery is honest, never free.
  const auto send_all = [](RankNetwork& net) {
    for (int i = 0; i < 50; ++i) net.reliable_send(0, 1, 8192);
    net.end_round();
  };
  RankNetwork clean(2);
  send_all(clean);
  RankNetwork faulty(2);
  fault::FaultPlan plan(fault::FaultConfig{99, 0.3, 250.0});
  faulty.set_fault_plan(&plan);
  send_all(faulty);
  ASSERT_GT(faulty.stats().faults_injected, 0u);
  EXPECT_GT(faulty.stats().modeled_time_us, clean.stats().modeled_time_us);
}

TEST(DistFaults, MergePathExchangeSurvivesLossyNetwork) {
  const auto a = make_uniform_values(3000, 7);
  const auto b = make_uniform_values(2500, 8);
  const DistArray da = distribute(a, 4);
  const DistArray db = distribute(b, 4);

  const DistMergeResult clean = merge_path_exchange(da, db);
  fault::FaultPlan plan(fault::FaultConfig{7, 0.1, 250.0});
  NetConfig config;
  config.faults = &plan;
  const DistMergeResult faulty = merge_path_exchange(da, db, config);

  // Same bytes out, and the recovery work shows up in the stats.
  EXPECT_EQ(faulty.merged.gathered(), clean.merged.gathered());
  EXPECT_GT(faulty.net.faults_injected, 0u);
}

TEST(DistFaults, PermanentPartitionSurfacesAsNetError) {
  const auto a = make_uniform_values(2000, 3);
  const auto b = make_uniform_values(2000, 4);
  const DistArray da = distribute(a, 4);
  const DistArray db = distribute(b, 4);
  fault::FaultPlan plan;
  plan.fail_from(0, fault::FaultKind::kDrop);  // every send drops, forever
  NetConfig config;
  config.faults = &plan;
  config.max_resend = 3;
  config.segment_retries = 1;
  EXPECT_THROW(merge_path_exchange(da, db, config), NetError);
}

}  // namespace
}  // namespace mp::dist

// ---------------------------------------------------------------------------
// RecoveryConfig::retry.backoff_us: in-memory lane retries pay a real,
// doubling wall-clock sleep between re-submissions (unlike the extmem
// retry loop, whose backoff only charges the modeled device clock).

namespace mp {
namespace {

TEST(RecoveryBackoff, DefaultResubmitsImmediately) {
  // The default stays 0 — a transient lane crash should not slow the
  // merge down — even though fault::RetryPolicy's own default is 50 us
  // (tuned for the modeled device clock, not wall time).
  EXPECT_EQ(RecoveryConfig{}.retry.backoff_us, 0.0);
}

TEST(RecoveryBackoff, ConfiguredBackoffIsPaidBetweenRetries) {
  const auto input = make_merge_input(Dist::kUniform, 4000, 4000, 0xb0ff);
  const auto expected = test::reference_merge(input.a, input.b);

  ThreadPool pool(3);
  fault::FaultPlan plan;
  // Every lane submission crashes, so the retry loop runs the budget dry
  // and the sequential fallback finishes the merge — deterministically
  // two backoff sleeps (20 ms + 40 ms) with max_attempts = 3.
  plan.fail_from(0, fault::FaultKind::kLaneThrow);
  fault::ScopedInjector injector(pool, plan);
  LaneRecovery recovery;
  recovery.config.retry.max_attempts = 3;
  recovery.config.retry.backoff_us = 20000.0;

  std::vector<std::int32_t> out(input.a.size() + input.b.size());
  const auto start = std::chrono::steady_clock::now();
  parallel_merge(input.a.data(), input.a.size(), input.b.data(),
                 input.b.size(), out.data(), Executor{&pool, 4, &recovery});
  const RecoveryReport& report = recovery.report;
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();

  EXPECT_EQ(out, expected);
  EXPECT_GE(report.retried_lanes, 1u);
  EXPECT_TRUE(report.degraded());
  // Generous lower bound (60 ms slept; sleep_for never wakes early, but
  // keep slack for coarse clocks) so sanitizer runs stay robust.
  EXPECT_GE(elapsed_ms, 50);
}

}  // namespace
}  // namespace mp
