// Fault-schedule property sweeps (see docs/TESTING.md).
//
// The contract under test: with a FaultPlan attached, every operation
// either completes with the byte-exact (and payload-stable) fault-free
// result, or throws the typed error (IoError / NetError) — never an
// abort, never corrupt data, never leaked device blocks. And the schedule
// is a pure function of the seed: replaying a seed reproduces the exact
// fault sequence (schedule_hash), the exact stats, and the exact output.
//
// Seed counts drop under sanitizers (10-20x slowdown); every case logs its
// seed via SCOPED_TRACE so a CI failure replays with --gtest_filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "../test_support.hpp"
#include "core/mergepath.hpp"
#include "dist/distributed_merge.hpp"
#include "dist/netsim.hpp"
#include "extmem/block_device.hpp"
#include "extmem/run_file.hpp"
#include "fault/fault.hpp"
#include "pipeline/pipeline.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MP_TEST_SANITIZED 1
#endif
#endif
#if !defined(MP_TEST_SANITIZED) && \
    (defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__))
#define MP_TEST_SANITIZED 1
#endif
#ifndef MP_TEST_SANITIZED
#define MP_TEST_SANITIZED 0
#endif

namespace mp {
namespace {

#if MP_TEST_SANITIZED
constexpr std::uint64_t kSweepSeeds = 24;
#else
constexpr std::uint64_t kSweepSeeds = 200;
#endif

constexpr double kFaultRate = 0.10;  // the acceptance-criteria rate

extmem::DeviceConfig small_blocks() {
  extmem::DeviceConfig config;
  config.block_bytes = 1024;  // 128 KeyedRecords per block
  return config;
}

/// The external sort: the pipeline with one shard, checkpoints off and
/// merge passes of `fan_in` runs, its run formation on two lanes.
pipeline::PipelineConfig external_config(std::uint64_t memory_elems,
                                         std::uint64_t fan_in) {
  pipeline::PipelineConfig config;
  config.memory_elems = memory_elems;
  config.fan_in = fan_in;
  config.shards = 1;
  config.checkpoints = false;
  config.exec.threads = 2;
  return config;
}

std::vector<KeyedRecord> make_records(std::size_t n, std::uint64_t seed) {
  // Tiny key universe => heavy duplication => stability is load-bearing.
  Xoshiro256 rng(seed);
  std::vector<KeyedRecord> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = KeyedRecord{static_cast<std::int32_t>(rng.bounded(64)),
                         static_cast<std::uint32_t>(i)};
  return out;
}

struct SortOutcome {
  bool completed = false;
  std::vector<KeyedRecord> result;
  std::uint64_t schedule_hash = 0;
  fault::FaultStats fault_stats;
  std::uint64_t retries = 0;
  std::uint64_t faults = 0;
  std::uint64_t leaked_blocks = 0;
};

/// One full external sort under a seeded 10% fault schedule. Returns what
/// happened; IoError is a legal outcome (typed), an abort is not.
SortOutcome run_faulty_sort(const std::vector<KeyedRecord>& data,
                            std::uint64_t seed) {
  extmem::BlockDevice device(small_blocks());
  fault::FaultPlan plan(fault::FaultConfig{seed, kFaultRate, 250.0});
  fault::ScopedInjector injector(device, plan);
  // Many runs + several merge passes.
  const pipeline::PipelineConfig config = external_config(256, 3);
  SortOutcome outcome;
  try {
    pipeline::PipelineReport report;
    outcome.result = pipeline::sort_vector(device, data, config, &report);
    outcome.completed = true;
    outcome.retries = report.io_retries;
    outcome.faults = device.stats().faults_injected;
  } catch (const extmem::IoError&) {
    outcome.completed = false;
  }
  // Success releases everything (sort_vector owns every block it
  // allocated); failure must too — leaked blocks mean a broken recovery
  // path.
  outcome.leaked_blocks = device.live_blocks();
  outcome.schedule_hash = plan.schedule_hash();
  outcome.fault_stats = plan.stats();
  return outcome;
}

TEST(FaultSweepExtmem, SortedOrTypedErrorAcrossSeeds) {
  const auto data = make_records(1500, 0xfeed);
  auto expected = data;
  std::stable_sort(expected.begin(), expected.end());
  std::uint64_t completed = 0, injected_total = 0;
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "fault seed=" << seed);
    const SortOutcome outcome = run_faulty_sort(data, seed);
    injected_total += outcome.fault_stats.injected;
    ASSERT_EQ(outcome.leaked_blocks, 0u) << "leaked device blocks";
    if (!outcome.completed) continue;  // typed failure: legal, just rare
    ++completed;
    // Payload-exact: the faulty run's output is the stable sort, bit for
    // bit, despite retried/redone transfers.
    ASSERT_EQ(outcome.result, expected);
  }
  // At a 10% recoverable rate with 8 retry attempts, effectively every
  // seed must complete, and the schedules must actually be injecting.
  EXPECT_GT(injected_total, kSweepSeeds);  // >1 fault per seed on average
  EXPECT_GE(completed, kSweepSeeds - 1);
}

TEST(FaultSweepExtmem, SameSeedReplaysByteIdentically) {
  const auto data = make_records(1200, 0xd00d);
  const std::uint64_t seeds[] = {1, 7, 42, 0x5eed};
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(::testing::Message() << "fault seed=" << seed);
    const SortOutcome first = run_faulty_sort(data, seed);
    const SortOutcome second = run_faulty_sort(data, seed);
    // Identical schedule (hash + per-kind stats) and identical outcome.
    ASSERT_EQ(first.schedule_hash, second.schedule_hash);
    ASSERT_TRUE(first.fault_stats == second.fault_stats);
    ASSERT_EQ(first.completed, second.completed);
    ASSERT_EQ(first.result, second.result);
    ASSERT_EQ(first.retries, second.retries);
    ASSERT_EQ(first.faults, second.faults);
  }
}

/// Backoff jitter (RetryPolicy::jitter) draws from the fault plan's seeded
/// jitter stream — a stream independent of the decision stream — so arming
/// it must not perturb the fault schedule, and replaying a seed must
/// reproduce the jittered waits bit-exactly.
TEST(FaultSweepExtmem, JitteredBackoffPreservesReplayAndSchedule) {
  const auto data = make_records(1400, 0x7177);
  auto expected = data;
  std::stable_sort(expected.begin(), expected.end());
  struct JitterOutcome {
    std::vector<KeyedRecord> result;
    std::uint64_t schedule_hash = 0;
    std::uint64_t retries = 0;
    double modeled_us = 0;
  };
  const auto run_with_jitter = [&](std::uint64_t seed, double jitter) {
    extmem::BlockDevice device(small_blocks());
    fault::FaultPlan plan(fault::FaultConfig{seed, kFaultRate, 250.0});
    fault::ScopedInjector injector(device, plan);
    pipeline::PipelineConfig config = external_config(256, 3);
    config.retry.max_attempts = 16;
    config.retry.jitter = jitter;
    JitterOutcome outcome;
    pipeline::PipelineReport report;
    outcome.result = pipeline::sort_vector(device, data, config, &report);
    outcome.retries = report.io_retries;
    outcome.schedule_hash = plan.schedule_hash();
    outcome.modeled_us = device.modeled_io_us();
    return outcome;
  };
  for (const std::uint64_t seed : {3ull, 19ull, 0x6a5ull}) {
    SCOPED_TRACE(::testing::Message() << "fault seed=" << seed);
    const JitterOutcome jittered = run_with_jitter(seed, 0.5);
    const JitterOutcome replay = run_with_jitter(seed, 0.5);
    const JitterOutcome straight = run_with_jitter(seed, 0.0);
    // Schedule is untouched by jitter draws, and identical across replays.
    ASSERT_EQ(jittered.schedule_hash, straight.schedule_hash);
    ASSERT_EQ(jittered.schedule_hash, replay.schedule_hash);
    ASSERT_EQ(jittered.retries, straight.retries);
    // Replay is exact down to the modeled jittered waits.
    ASSERT_EQ(replay.retries, jittered.retries);
    ASSERT_EQ(replay.modeled_us, jittered.modeled_us);
    ASSERT_EQ(replay.result, jittered.result);
    // Output bytes are jitter-independent and correct.
    ASSERT_EQ(jittered.result, expected);
    ASSERT_EQ(straight.result, expected);
    // Jitter scales each wait into [1 - j, 1] × backoff: with any retries
    // on the schedule, total modeled time can only shrink.
    ASSERT_GT(jittered.retries, 0u);
    ASSERT_LT(jittered.modeled_us, straight.modeled_us);
  }
}

TEST(FaultSweepExtmem, PermanentFaultIsTypedAndLeakFree) {
  const auto data = make_records(1500, 0xabad);
  // Kill the device at a spread of points in the op stream: before run
  // formation, mid-runs, and mid-merge must all fail typed and clean.
  for (const std::uint64_t from : {0ull, 5ull, 20ull, 45ull, 80ull}) {
    for (const fault::FaultKind kind :
         {fault::FaultKind::kMedia, fault::FaultKind::kNoSpace}) {
      SCOPED_TRACE(::testing::Message()
                   << "fail_from=" << from << " kind=" << to_string(kind));
      extmem::BlockDevice device(small_blocks());
      fault::FaultPlan plan;
      plan.fail_from(from, kind);
      fault::ScopedInjector injector(device, plan);
      ASSERT_THROW(
          pipeline::sort_vector(device, data, external_config(256, 2)),
          extmem::IoError);
      ASSERT_EQ(device.live_blocks(), 0u) << "leaked temp-run blocks";
    }
  }
}

TEST(FaultSweepExtmem, EnospcFromCapacityRecoversCleanly) {
  // A device too small for the sort's working set: the failure is the
  // capacity model itself, no plan needed — and retrying on a bigger
  // device must succeed with the same bytes.
  const auto data = make_records(2000, 0xcafe);
  auto expected = data;
  std::stable_sort(expected.begin(), expected.end());
  const pipeline::PipelineConfig config = external_config(256, 2);

  extmem::DeviceConfig tight = small_blocks();
  tight.max_blocks = 24;  // input alone needs ~16
  extmem::BlockDevice device(tight);
  try {
    pipeline::sort_vector(device, data, config);
    FAIL() << "sort in 24 blocks must hit ENOSPC";
  } catch (const extmem::IoError& error) {
    EXPECT_EQ(error.status(), extmem::IoStatus::kNoSpace);
  }
  EXPECT_EQ(device.live_blocks(), 0u);

  extmem::DeviceConfig roomy = small_blocks();
  roomy.max_blocks = 96;  // ~2x data + carry: the footprint bound holds
  extmem::BlockDevice retry_device(roomy);
  EXPECT_EQ(pipeline::sort_vector(retry_device, data, config), expected);
}

struct DistOutcome {
  bool completed = false;
  std::vector<std::int32_t> exchange, tree, gather;
  std::uint64_t schedule_hash = 0;
};

DistOutcome run_faulty_dist(const dist::DistArray& da,
                            const dist::DistArray& db,
                            std::uint64_t seed) {
  fault::FaultPlan plan(fault::FaultConfig{seed, kFaultRate, 250.0});
  dist::NetConfig config;
  config.faults = &plan;
  DistOutcome outcome;
  try {
    outcome.exchange = dist::merge_path_exchange(da, db, config)
                           .merged.gathered();
    outcome.tree = dist::tree_merge(da, db, config).merged.gathered();
    outcome.gather = dist::gather_at_root(da, db, config).merged.gathered();
    outcome.completed = true;
  } catch (const dist::NetError&) {
    outcome.completed = false;
  }
  outcome.schedule_hash = plan.schedule_hash();
  return outcome;
}

TEST(FaultSweepDist, LossyNetworkStillMergesExactly) {
  const auto input = make_merge_input(Dist::kFewDuplicates, 1400, 1100, 77);
  const auto merged_ref = test::reference_merge(input.a, input.b);

  std::uint64_t completed = 0;
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "fault seed=" << seed);
    const unsigned ranks = 2 + static_cast<unsigned>(seed % 7);
    const dist::DistArray da = dist::distribute(input.a, ranks);
    const dist::DistArray db = dist::distribute(input.b, ranks);
    const DistOutcome outcome = run_faulty_dist(da, db, seed);
    if (!outcome.completed) continue;  // typed failure: legal, just rare
    ++completed;
    ASSERT_EQ(outcome.exchange, merged_ref) << "merge_path_exchange";
    ASSERT_EQ(outcome.tree, merged_ref) << "tree_merge";
    ASSERT_EQ(outcome.gather, merged_ref) << "gather_at_root";
  }
  // Drops need 16 consecutive losses to fail; at 10%/3 that never happens.
  EXPECT_EQ(completed, kSweepSeeds);
}

TEST(FaultSweepDist, SameSeedReplaysByteIdentically) {
  const auto input = make_merge_input(Dist::kClustered, 900, 1300, 11);
  const dist::DistArray da = dist::distribute(input.a, 5);
  const dist::DistArray db = dist::distribute(input.b, 5);
  for (const std::uint64_t seed : {3ull, 19ull, 0xfaceull}) {
    SCOPED_TRACE(::testing::Message() << "fault seed=" << seed);
    const DistOutcome first = run_faulty_dist(da, db, seed);
    const DistOutcome second = run_faulty_dist(da, db, seed);
    ASSERT_EQ(first.schedule_hash, second.schedule_hash);
    ASSERT_EQ(first.completed, second.completed);
    ASSERT_EQ(first.exchange, second.exchange);
    ASSERT_EQ(first.tree, second.tree);
    ASSERT_EQ(first.gather, second.gather);
  }
}

TEST(FaultSweepDist, SegmentRetryHealsAWindowedPartition) {
  // A partition that drops a whole segment's fetches but heals: the
  // per-segment retry (safe by Theorem 14's disjointness) completes the
  // merge with the exact fault-free result.
  const auto input = make_merge_input(Dist::kUniform, 1600, 1600, 21);
  const auto reference = test::reference_merge(input.a, input.b);
  const dist::DistArray da = dist::distribute(input.a, 4);
  const dist::DistArray db = dist::distribute(input.b, 4);
  fault::FaultPlan plan;
  // Window wide enough to exhaust max_resend on one fetch (so the segment
  // fails with NetError) but closed by the time the segment retries.
  for (unsigned src = 0; src < 4; ++src)
    plan.partition_link(src, 2, 0, 12);
  dist::NetConfig config;
  config.faults = &plan;
  config.max_resend = 8;
  config.segment_retries = 2;
  const auto result = dist::merge_path_exchange(da, db, config);
  EXPECT_EQ(result.merged.gathered(), reference);
  EXPECT_GT(result.net.resends, 0u);
}

TEST(FaultSweepDist, UnhealedPartitionFailsTypedEverywhere) {
  const auto input = make_merge_input(Dist::kUniform, 800, 800, 31);
  const dist::DistArray da = dist::distribute(input.a, 4);
  const dist::DistArray db = dist::distribute(input.b, 4);
  const auto forever_drop = [] {
    fault::FaultPlan plan;
    plan.fail_from(0, fault::FaultKind::kDrop);
    return plan;
  };
  dist::NetConfig config;
  config.max_resend = 3;
  config.segment_retries = 1;
  fault::FaultPlan p1 = forever_drop();
  config.faults = &p1;
  EXPECT_THROW(dist::merge_path_exchange(da, db, config), dist::NetError);
  fault::FaultPlan p2 = forever_drop();
  config.faults = &p2;
  EXPECT_THROW(dist::tree_merge(da, db, config), dist::NetError);
  fault::FaultPlan p3 = forever_drop();
  config.faults = &p3;
  EXPECT_THROW(dist::gather_at_root(da, db, config), dist::NetError);
}

// ---------------------------------------------------------------------------
// Compute-fault surface: lane failures inside the in-memory ThreadPool path
// (kLaneThrow / kLaneAbandon / kLaneDelay) and the recovery layer that
// re-executes only the failed lanes' disjoint segments (util/recovery.hpp).

struct LaneSweepOutcome {
  std::vector<std::int32_t> merged, sorted;
  std::uint64_t schedule_hash = 0;
  fault::FaultStats fault_stats;
  RecoveryReport merge_report, sort_report;
};

/// A merge and merge sort on recovering executors over a pool armed with
/// a seeded 10% lane-fault schedule. Recovery guarantees completion (retries, then a
/// caller-side sequential fallback), so unlike the extmem/dist sweeps
/// there is no "typed failure" arm — only byte-exact output or a test
/// failure.
LaneSweepOutcome run_faulty_lanes(const MergeInput& input,
                                  const std::vector<std::int32_t>& unsorted,
                                  std::uint64_t seed) {
  ThreadPool pool(3);
  // Short stalls (200 us) keep the sweep fast; the hedger is exercised
  // separately (test_threading) where timing can be controlled.
  fault::FaultPlan plan(fault::FaultConfig{seed, kFaultRate, 250.0, 200.0});
  fault::ScopedInjector injector(pool, plan);
  LaneSweepOutcome out;
  LaneRecovery merge_recovery, sort_recovery;
  out.merged.resize(input.a.size() + input.b.size());
  parallel_merge(input.a.data(), input.a.size(), input.b.data(),
                 input.b.size(), out.merged.data(),
                 Executor{&pool, 4, &merge_recovery});
  out.merge_report = merge_recovery.report;
  out.sorted = unsorted;
  parallel_merge_sort(out.sorted.data(), out.sorted.size(),
                      Executor{&pool, 4, &sort_recovery});
  out.sort_report = sort_recovery.report;
  out.schedule_hash = plan.schedule_hash();
  out.fault_stats = plan.stats();
  return out;
}

TEST(FaultSweepLanes, RecoveryIsByteExactAcrossSeeds) {
  const auto input = make_merge_input(Dist::kClustered, 1700, 1300, 0xbee);
  const auto unsorted = make_unsorted_values(2500, 0xbef);
  const auto merged_ref = test::reference_merge(input.a, input.b);
  auto sorted_ref = unsorted;
  std::sort(sorted_ref.begin(), sorted_ref.end());
  std::uint64_t injected_total = 0, retried_total = 0;
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "fault seed=" << seed);
    const LaneSweepOutcome outcome = run_faulty_lanes(input, unsorted, seed);
    injected_total += outcome.fault_stats.injected;
    retried_total += outcome.merge_report.retried_lanes +
                     outcome.sort_report.retried_lanes;
    // The acceptance criterion: despite injected lane crashes, dead
    // workers and stalls, the recovered output is the fault-free result,
    // byte for byte.
    ASSERT_EQ(outcome.merged, merged_ref);
    ASSERT_EQ(outcome.sorted, sorted_ref);
  }
  // The schedules must actually be biting for the sweep to mean anything.
  EXPECT_GT(injected_total, kSweepSeeds);  // >1 fault per seed on average
  EXPECT_GT(retried_total, 0u);
}

TEST(FaultSweepLanes, TryApiCompletesOrReportsTypedOutcomes) {
  // The raw pool contract under random schedules: the barrier always
  // completes, and every lane is either kOk (task ran exactly once) or a
  // typed injected outcome — never a lost lane, never a deadlock.
  ThreadPool pool(3);
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "fault seed=" << seed);
    fault::FaultPlan plan(fault::FaultConfig{seed, 0.25, 250.0, 100.0});
    fault::ScopedInjector injector(pool, plan);
    std::vector<std::atomic<int>> hits(8);
    const LaneReport report = pool.try_parallel_for_lanes(
        8, [&](unsigned lane) { hits[lane].fetch_add(1); });
    ASSERT_EQ(report.lanes.size(), 8u);
    for (unsigned lane = 0; lane < 8; ++lane) {
      const LaneOutcome& o = report.lanes[lane];
      if (o.status == LaneStatus::kOk) {
        ASSERT_EQ(hits[lane].load(), 1) << "lane " << lane;
        continue;
      }
      ASSERT_EQ(hits[lane].load(), 0) << "lane " << lane;  // fired pre-task
      ASSERT_NE(o.injected, fault::FaultKind::kNone);
      try {
        std::rethrow_exception(LaneReport{{o}, 1, 1, 0}.first_error());
        FAIL() << "failed lane must carry a typed error";
      } catch (const fault::LaneFault&) {
      }
    }
  }
}

TEST(FaultSweepLanes, SameSeedReplaysByteIdentically) {
  const auto input = make_merge_input(Dist::kFewDuplicates, 1100, 900, 0xace);
  const auto unsorted = make_unsorted_values(1600, 0xacf);
  for (const std::uint64_t seed : {2ull, 23ull, 0x1a7eull}) {
    SCOPED_TRACE(::testing::Message() << "fault seed=" << seed);
    const LaneSweepOutcome first = run_faulty_lanes(input, unsorted, seed);
    const LaneSweepOutcome second = run_faulty_lanes(input, unsorted, seed);
    // Decisions are drawn at fork time on the caller thread (lane order),
    // so the whole schedule — and everything downstream of it — is a pure
    // function of the seed, independent of worker interleaving.
    ASSERT_EQ(first.schedule_hash, second.schedule_hash);
    ASSERT_TRUE(first.fault_stats == second.fault_stats);
    ASSERT_EQ(first.merged, second.merged);
    ASSERT_EQ(first.sorted, second.sorted);
    ASSERT_EQ(first.merge_report.injected_faults,
              second.merge_report.injected_faults);
    ASSERT_EQ(first.merge_report.retried_lanes,
              second.merge_report.retried_lanes);
    ASSERT_EQ(first.merge_report.attempts, second.merge_report.attempts);
    ASSERT_EQ(first.sort_report.injected_faults,
              second.sort_report.injected_faults);
    ASSERT_EQ(first.sort_report.retried_lanes,
              second.sort_report.retried_lanes);
    ASSERT_EQ(first.sort_report.attempts, second.sort_report.attempts);
  }
}

TEST(FaultSweepLanes, TotalLossDegradesToSequentialFallback) {
  // Rate 1.0: every pooled attempt of every lane draws a fault. Delay
  // draws still complete (stall, then run), but throw/abandon draws can
  // keep a lane failing through every retry — recovery must exhaust its
  // budget and finish the stragglers on the calling thread (which the
  // injector cannot reach), still byte-exact.
  const auto input = make_merge_input(Dist::kUniform, 800, 800, 0xdead);
  const auto merged_ref = test::reference_merge(input.a, input.b);
  ThreadPool pool(3);
  fault::FaultPlan plan(fault::FaultConfig{5, 1.0, 250.0, 100.0});
  fault::ScopedInjector injector(pool, plan);
  std::vector<std::int32_t> out(input.a.size() + input.b.size());
  LaneRecovery recovery;
  recovery.config.retry.max_attempts = 3;  // keep the doomed retries short
  parallel_merge(input.a.data(), input.a.size(), input.b.data(),
                 input.b.size(), out.data(), Executor{&pool, 4, &recovery});
  const RecoveryReport& report = recovery.report;
  EXPECT_EQ(out, merged_ref);
  EXPECT_TRUE(report.degraded());
  EXPECT_GE(report.fallback_lanes, 1u);
  EXPECT_GE(report.attempts, 3u);
}

TEST(FaultSweepLanes, GenuineExceptionsAreNotRetried) {
  // A real bug in the task (not an injected fault) must surface on the
  // first attempt: retrying user errors would mask them and burn time.
  // That holds on a clean pool and when every lane draws an injected
  // stall first: a delayed lane still runs its own task, so an exception
  // from that task is genuine too.
  for (const bool delayed : {false, true}) {
    SCOPED_TRACE(delayed ? "every lane delayed" : "no plan");
    fault::FaultConfig config;
    config.lane_delay_us = 100.0;
    fault::FaultPlan plan(config);
    plan.fail_from(0, fault::FaultKind::kLaneDelay);
    ThreadPool pool(3);  // declared after the plan: detached by dying first
    if (delayed) pool.set_fault_plan(&plan);
    const Executor exec{&pool, 4};
    std::atomic<int> runs{0};
    try {
      run_lanes_with_recovery(exec.resolve_pool(), 4, [&](unsigned lane) {
        runs.fetch_add(1);
        if (lane == 2) throw std::logic_error("task bug");
      });
      FAIL() << "the task's own exception must propagate";
    } catch (const std::logic_error&) {
    }
    EXPECT_LE(runs.load(), 4);  // one attempt, no retry of the buggy lane
    EXPECT_EQ(runs.load(), 4);  // and every lane's task ran exactly once
  }
}

}  // namespace
}  // namespace mp
