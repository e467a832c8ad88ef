// Tests for the fork-join pool (ThreadPool / Executor): lane coverage,
// work sharing, exception capture, serial-pool determinism, reuse across
// many small jobs (the pattern the algorithm tests hammer), concurrent and
// nested callers — plus the fault-tolerant surface: try_parallel_for_lanes
// outcome reporting, injected lane faults, straggler hedging, and the
// guarantee that a throwing/abandoned lane can never wedge the barrier
// (run under TSan in CI).

#include "util/threading.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/merge_sort.hpp"
#include "core/multiway_merge.hpp"
#include "core/parallel_merge.hpp"
#include "core/segmented_merge.hpp"
#include "core/set_ops.hpp"
#include "core/stream_merger.hpp"
#include "fault/fault.hpp"
#include "util/data_gen.hpp"

namespace mp {
namespace {

TEST(ThreadPool, RunsEveryLaneExactlyOnce) {
  ThreadPool pool(3);
  for (unsigned lanes : {1u, 2u, 4u, 16u, 100u}) {
    std::vector<std::atomic<int>> hits(lanes);
    pool.parallel_for_lanes(lanes, [&](unsigned lane) {
      hits[lane].fetch_add(1, std::memory_order_relaxed);
    });
    for (unsigned lane = 0; lane < lanes; ++lane)
      EXPECT_EQ(hits[lane].load(), 1) << "lanes=" << lanes << " lane=" << lane;
  }
}

TEST(ThreadPool, ZeroLanesIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for_lanes(0, [](unsigned) { FAIL() << "must not run"; });
}

TEST(ThreadPool, SerialPoolRunsLanesInOrder) {
  ThreadPool pool(0);
  std::vector<unsigned> order;
  pool.parallel_for_lanes(8, [&](unsigned lane) { order.push_back(lane); });
  std::vector<unsigned> expected(8);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for_lanes(
                   8,
                   [&](unsigned lane) {
                     if (lane == 5) throw std::runtime_error("lane 5");
                   }),
               std::runtime_error);
  // Two throwing lanes: the rethrown exception is the lower lane's, even
  // when the higher lane throws first.
  try {
    pool.parallel_for_lanes(8, [](unsigned lane) {
      if (lane == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("lane 2");
      }
      if (lane == 6) throw std::runtime_error("lane 6");
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()), "lane 2");
  }
  // Pool must be reusable after a throwing job.
  std::atomic<int> sum{0};
  pool.parallel_for_lanes(8, [&](unsigned lane) {
    sum.fetch_add(static_cast<int>(lane));
  });
  EXPECT_EQ(sum.load(), 28);
}

TEST(ThreadPool, ManySmallJobsReuseWorkers) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int job = 0; job < 2000; ++job) {
    pool.parallel_for_lanes(5, [&](unsigned lane) {
      total.fetch_add(lane + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 2000L * 15);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(7);
  std::vector<int> data(100000);
  std::iota(data.begin(), data.end(), 0);
  const unsigned lanes = 8;
  std::vector<long> partial(lanes, 0);
  pool.parallel_for_lanes(lanes, [&](unsigned lane) {
    const std::size_t begin = lane * data.size() / lanes;
    const std::size_t end = (lane + 1ull) * data.size() / lanes;
    long s = 0;
    for (std::size_t i = begin; i < end; ++i) s += data[i];
    partial[lane] = s;
  });
  const long total = std::accumulate(partial.begin(), partial.end(), 0L);
  EXPECT_EQ(total, 100000L * 99999 / 2);
}

TEST(ThreadPoolTry, CleanJobReportsAllOk) {
  ThreadPool pool(3);
  for (unsigned lanes : {1u, 4u, 32u}) {
    std::vector<std::atomic<int>> hits(lanes);
    const LaneReport report = pool.try_parallel_for_lanes(
        lanes, [&](unsigned lane) { hits[lane].fetch_add(1); });
    EXPECT_TRUE(report.all_ok());
    EXPECT_EQ(report.lanes.size(), lanes);
    EXPECT_EQ(report.failures, 0u);
    EXPECT_EQ(report.injected_faults, 0u);
    EXPECT_EQ(report.first_error(), nullptr);
    for (unsigned lane = 0; lane < lanes; ++lane) {
      EXPECT_EQ(hits[lane].load(), 1) << "lane " << lane;
      EXPECT_EQ(report.lanes[lane].status, LaneStatus::kOk);
    }
  }
}

TEST(ThreadPoolTry, GenuineThrowIsDataNotControlFlow) {
  ThreadPool pool(3);
  const LaneReport report = pool.try_parallel_for_lanes(8, [](unsigned lane) {
    if (lane % 3 == 1) throw std::runtime_error("lane down");
  });
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.failures, 3u);  // lanes 1, 4, 7
  EXPECT_EQ(report.injected_faults, 0u);
  for (unsigned lane = 0; lane < 8; ++lane) {
    const LaneOutcome& o = report.lanes[lane];
    if (lane % 3 == 1) {
      EXPECT_EQ(o.status, LaneStatus::kThrew) << "lane " << lane;
      EXPECT_EQ(o.injected, fault::FaultKind::kNone);
      EXPECT_NE(o.error, nullptr);
    } else {
      EXPECT_EQ(o.status, LaneStatus::kOk) << "lane " << lane;
    }
  }
  EXPECT_THROW(std::rethrow_exception(report.first_error()),
               std::runtime_error);
}

// The no-deadlock guarantee, hammered: every lane of every job throws, the
// barrier must complete every time and the pool must stay reusable. This
// is the test the CI TSan job leans on.
TEST(ThreadPoolTry, ThrowingLanesNeverDeadlockAcrossReuse) {
  ThreadPool pool(3);
  for (int job = 0; job < 200; ++job) {
    const LaneReport report = pool.try_parallel_for_lanes(
        6, [](unsigned) -> void { throw std::runtime_error("total loss"); });
    ASSERT_EQ(report.failures, 6u) << "job " << job;
  }
  std::atomic<int> sum{0};
  pool.parallel_for_lanes(8,
                          [&](unsigned lane) { sum += static_cast<int>(lane); });
  EXPECT_EQ(sum.load(), 28);
}

TEST(ThreadPoolTry, SerialPoolCapturesOutcomesInline) {
  ThreadPool pool(0);
  const LaneReport report = pool.try_parallel_for_lanes(4, [](unsigned lane) {
    if (lane == 2) throw std::runtime_error("inline lane");
  });
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.lanes[2].status, LaneStatus::kThrew);
  EXPECT_EQ(report.lanes[3].status, LaneStatus::kOk);  // barrier went on
}

TEST(ThreadPoolTry, InjectedThrowAndAbandonAreTypedOutcomes) {
  ThreadPool pool(3);
  fault::FaultPlan plan;
  plan.fail_op(0, fault::FaultKind::kLaneThrow);    // lane 0's decision
  plan.fail_op(1, fault::FaultKind::kLaneAbandon);  // lane 1's decision
  fault::ScopedInjector injector(pool, plan);
  std::vector<std::atomic<int>> hits(4);
  const LaneReport report = pool.try_parallel_for_lanes(
      4, [&](unsigned lane) { hits[lane].fetch_add(1); });
  EXPECT_EQ(report.failures, 2u);
  EXPECT_EQ(report.injected_faults, 2u);
  EXPECT_EQ(report.lanes[0].status, LaneStatus::kThrew);
  EXPECT_EQ(report.lanes[0].injected, fault::FaultKind::kLaneThrow);
  EXPECT_EQ(report.lanes[1].status, LaneStatus::kAbandoned);
  EXPECT_EQ(report.lanes[1].injected, fault::FaultKind::kLaneAbandon);
  // Faulted lanes fire *before* the task: neither ever ran.
  EXPECT_EQ(hits[0].load(), 0);
  EXPECT_EQ(hits[1].load(), 0);
  EXPECT_EQ(hits[2].load(), 1);
  EXPECT_EQ(hits[3].load(), 1);
  try {
    std::rethrow_exception(report.first_error());
    FAIL() << "expected a LaneFault";
  } catch (const fault::LaneFault& error) {
    EXPECT_EQ(error.kind(), fault::FaultKind::kLaneThrow);
    EXPECT_EQ(error.lane(), 0u);
  }
}

TEST(ThreadPoolTry, ParallelForLanesRethrowsInjectedFault) {
  ThreadPool pool(2);
  fault::FaultPlan plan;
  plan.fail_op(3, fault::FaultKind::kLaneThrow);
  fault::ScopedInjector injector(pool, plan);
  // The plain entry point routes through the tolerant path when a plan is
  // attached, so the injected fault surfaces as a typed exception...
  EXPECT_THROW(pool.parallel_for_lanes(6, [](unsigned) {}), fault::LaneFault);
  // ...and the pool is immediately reusable (barrier completed).
  std::atomic<int> ran{0};
  pool.parallel_for_lanes(6, [&](unsigned) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 6);
}

TEST(ThreadPoolTry, HedgeCompletesADelayedLane) {
  ThreadPool pool(3);
  HedgePolicy hedge;
  hedge.enabled = true;
  hedge.factor = 1.0;
  hedge.min_lane_us = 50.0;
  hedge.check_interval_us = 200.0;
  // Two lanes: the caller grabs lane 0 (a real 5 ms task, so the completed
  // median is meaningful) and a worker picks up lane 1, whose injected
  // 100 ms stall is cancellable. The caller reaches the barrier, sees the
  // straggler past factor x median, claims its ticket and runs it — the
  // sleeping worker wakes, finds the ticket gone, and walks away. If the
  // claim race goes the other way (caller draws the stall; a lane cannot
  // hedge itself) that attempt just sleeps it off — so retry a few times.
  bool hedged = false;
  for (int attempt = 0; attempt < 8 && !hedged; ++attempt) {
    fault::FaultConfig config;
    config.lane_delay_us = 100000.0;
    fault::FaultPlan plan(config);
    plan.fail_op(1, fault::FaultKind::kLaneDelay);  // lane 1's decision
    fault::ScopedInjector injector(pool, plan);
    std::vector<std::atomic<int>> hits(2);
    const LaneReport report = pool.try_parallel_for_lanes(
        2,
        [&](unsigned lane) {
          if (lane == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          hits[lane].fetch_add(1);
        },
        hedge);
    ASSERT_TRUE(report.all_ok()) << "attempt " << attempt;
    ASSERT_EQ(hits[0].load(), 1);
    ASSERT_EQ(hits[1].load(), 1);  // exactly once, ticket or not
    hedged = report.hedges > 0;
    if (hedged) {
      EXPECT_TRUE(report.lanes[1].hedged);
    }
  }
  EXPECT_TRUE(hedged) << "no attempt hedged the stalled lane";
}

TEST(ThreadPoolTry, HedgerThreadRescuesTheCallersOwnStalledLane) {
  // 0 workers: every lane runs inline on the caller, so when lane 0 draws
  // the injected stall there is no other lane thread that could ever hedge
  // it — only the dedicated hedger thread can. And it is deterministic (no
  // claim race to retry): the caller is asleep in the cancellable delay
  // while the hedger — with no completed-lane median yet, falling back to
  // the min_lane_us threshold — claims the ticket, runs the task, and
  // cancels the nap.
  ThreadPool pool(0);
  HedgePolicy hedge;
  hedge.enabled = true;
  hedge.min_lane_us = 500.0;
  hedge.check_interval_us = 200.0;
  fault::FaultConfig config;
  config.lane_delay_us = 5e6;  // 5 s: a failed hedge is a visible stall
  fault::FaultPlan plan(config);
  plan.fail_op(0, fault::FaultKind::kLaneDelay);  // the caller's own lane
  fault::ScopedInjector injector(pool, plan);
  std::vector<std::atomic<int>> hits(2);
  const auto t0 = std::chrono::steady_clock::now();
  const LaneReport report = pool.try_parallel_for_lanes(
      2, [&](unsigned lane) { hits[lane].fetch_add(1); }, hedge);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(report.hedges, 1u);
  EXPECT_TRUE(report.lanes[0].hedged);
  EXPECT_EQ(hits[0].load(), 1);  // exactly once, on the hedger thread
  EXPECT_EQ(hits[1].load(), 1);
  // The barrier must not have waited out the injected 5 s nap.
  EXPECT_LT(elapsed_ms, 2500.0);
}

// Sorts `seed`'s keyed records and merges two sorted keyed inputs on
// `exec`; both results must be byte-equal to std::stable_sort /
// std::merge (the payloads make any stability slip visible).
void sort_and_merge_exactly(const Executor& exec, std::uint64_t seed) {
  const std::size_t n = 1000 + seed % 4000;
  const std::vector<std::int32_t> keys = make_unsorted_values(n, seed);
  std::vector<KeyedRecord> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = KeyedRecord{keys[i] % 64, static_cast<std::uint32_t>(i)};
  std::vector<KeyedRecord> expected = data;
  std::stable_sort(expected.begin(), expected.end());
  parallel_merge_sort(data.data(), n, exec);
  ASSERT_EQ(data, expected) << "sort, seed " << seed;

  const KeyedMergeInput input = make_keyed_input(n / 2, n - n / 2, 64, seed);
  std::vector<KeyedRecord> reference;
  std::merge(input.a.begin(), input.a.end(), input.b.begin(), input.b.end(),
             std::back_inserter(reference));
  std::vector<KeyedRecord> merged(n);
  parallel_merge(input.a.data(), input.a.size(), input.b.data(),
                 input.b.size(), merged.data(), exec);
  ASSERT_EQ(merged, reference) << "merge, seed " << seed;
}

// Runs the other fork-join entry points on `exec`: the k-way merge
// (k = 5), SPM, both set operations and a StreamMerger pull above its
// parallel threshold. Each must be byte-equal to its std:: reference.
void other_entry_points_exactly(const Executor& exec, std::uint64_t seed) {
  const std::size_t n = 1000 + seed % 4000;
  const KeyedMergeInput input = make_keyed_input(n / 2, n - n / 2, 64, seed);
  const std::vector<KeyedRecord>& a = input.a;
  const std::vector<KeyedRecord>& b = input.b;
  std::vector<KeyedRecord> reference;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(reference));

  std::vector<std::vector<KeyedRecord>> runs(5);
  std::vector<KeyedRecord> multiway_reference;  // run order, then stable
  for (std::uint32_t t = 0; t < runs.size(); ++t) {
    runs[t] = make_keyed_input(n / 5 + 37 * t, 0, 64, seed + t).a;
    for (KeyedRecord& r : runs[t]) r.payload += t << 24;
    multiway_reference.insert(multiway_reference.end(), runs[t].begin(),
                              runs[t].end());
  }
  std::stable_sort(multiway_reference.begin(), multiway_reference.end());
  ASSERT_EQ(parallel_multiway_merge(runs, exec), multiway_reference)
      << "multiway, seed " << seed;

  SegmentedConfig config;
  config.segment_length = 61;
  std::vector<KeyedRecord> merged(n);
  segmented_parallel_merge(a.data(), a.size(), b.data(), b.size(),
                           merged.data(), config, exec);
  ASSERT_EQ(merged, reference) << "segmented, seed " << seed;

  std::vector<KeyedRecord> intersection, difference;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(intersection));
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(difference));
  ASSERT_EQ(parallel_set_intersection(a, b, exec), intersection)
      << "intersection, seed " << seed;
  ASSERT_EQ(parallel_set_difference(a, b, exec), difference)
      << "difference, seed " << seed;

  constexpr std::size_t kStreamHalf = 17000;  // pull of 34000 forks
  const KeyedMergeInput stream =
      make_keyed_input(kStreamHalf, kStreamHalf, 64, seed);
  std::vector<KeyedRecord> stream_reference;
  std::merge(stream.a.begin(), stream.a.end(), stream.b.begin(),
             stream.b.end(), std::back_inserter(stream_reference));
  StreamMerger<KeyedRecord> merger({}, exec);
  merger.push_a(std::span<const KeyedRecord>(stream.a));
  merger.push_b(std::span<const KeyedRecord>(stream.b));
  merger.close_a();
  merger.close_b();
  ASSERT_EQ(merger.pull_all(), stream_reference) << "stream, seed " << seed;
}

// Application threads share one pool: the default executor's shared pool
// and an explicit one. A call made while another thread's job is in
// flight waits for the pool, then runs normally.
TEST(ThreadPool, ConcurrentCallersShareThePool) {
  ThreadPool explicit_pool(3);
  const Executor executors[] = {Executor{}, Executor{&explicit_pool, 4}};
  std::vector<std::thread> callers;
  for (unsigned t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (std::uint64_t iter = 0; iter < 50; ++iter)
        for (const Executor& exec : executors) {
          sort_and_merge_exactly(exec, t * 1000 + iter);
          other_entry_points_exactly(exec, t * 1000 + iter);
        }
    });
  }
  for (std::thread& caller : callers) caller.join();
}

// A fork from inside a lane of the same pool runs its lanes inline on the
// lane's thread: from the caller's and the workers' lanes of a pooled job,
// and from a lane the hedger thread runs.
TEST(ThreadPool, NestedCallRunsInline) {
  ThreadPool pool(3);
  const Executor exec{&pool, 4};
  std::vector<std::thread::id> outer(8), inner(8);
  pool.parallel_for_lanes(8, [&](unsigned lane) {
    outer[lane] = std::this_thread::get_id();
    pool.parallel_for_lanes(3, [&](unsigned inner_lane) {
      if (inner_lane == 2) inner[lane] = std::this_thread::get_id();
    });
    sort_and_merge_exactly(exec, 77 + lane);
  });
  EXPECT_EQ(inner, outer);

  // Nested exceptions propagate into the enclosing lane.
  const LaneReport report = pool.try_parallel_for_lanes(2, [&](unsigned lane) {
    pool.parallel_for_lanes(3, [lane](unsigned inner_lane) {
      if (lane == 1 && inner_lane == 2) throw std::runtime_error("inner");
    });
  });
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.lanes[1].status, LaneStatus::kThrew);

  // 0 workers and a stalled lane 0: the hedger thread runs lane 0's task,
  // and the sort inside it is nested on the hedger thread.
  ThreadPool serial(0);
  HedgePolicy hedge;
  hedge.enabled = true;
  hedge.min_lane_us = 500.0;
  hedge.check_interval_us = 200.0;
  fault::FaultConfig config;
  config.lane_delay_us = 5e6;
  fault::FaultPlan plan(config);
  plan.fail_op(0, fault::FaultKind::kLaneDelay);
  fault::ScopedInjector injector(serial, plan);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  const LaneReport hedged = serial.try_parallel_for_lanes(
      1,
      [&](unsigned) {
        ran_on = std::this_thread::get_id();
        sort_and_merge_exactly(Executor{&serial, 4}, 4242);
      },
      hedge);
  EXPECT_TRUE(hedged.all_ok());
  EXPECT_TRUE(hedged.lanes[0].hedged);
  EXPECT_NE(ran_on, caller);
  // The nested jobs drew no fault decisions of their own.
  EXPECT_EQ(hedged.injected_faults, 1u);
}

TEST(Executor, DefaultsResolveToSharedPool) {
  Executor exec{};
  EXPECT_GE(exec.resolve_threads(), 1u);
  EXPECT_EQ(&exec.resolve_pool(), &ThreadPool::shared());
}

TEST(Executor, ExplicitThreadCountWins) {
  ThreadPool pool(2);
  Executor exec{&pool, 9};
  EXPECT_EQ(exec.resolve_threads(), 9u);
  EXPECT_EQ(&exec.resolve_pool(), &pool);
}

TEST(Executor, ZeroThreadsMeansPoolWidth) {
  ThreadPool pool(3);
  Executor exec{&pool, 0};
  EXPECT_EQ(exec.resolve_threads(), 4u);  // workers + caller
}

}  // namespace
}  // namespace mp
