// Oversubscription and pool-lifecycle stress.
//
// Correctness must not depend on lanes <= cores: the repo's contract is
// that `threads` is the paper's p, a partitioning parameter, while the
// pool's workers are an execution detail. These tests run lane counts far
// above the host's core count, hammer rapid back-to-back jobs (the window
// for the stale-worker recycling race fixed in threading.cpp — a worker
// from job N claiming lanes of job N+1 through the reset counter), and
// pin down nested fork-join, which runs inline on the enclosing lane.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/mergepath.hpp"
#include "../test_support.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"

namespace mp {
namespace {

TEST(Oversubscription, ManyLanesOnFewWorkersMergeCorrectly) {
  ThreadPool pool(3);  // lanes below run 11x-43x the worker count
  Xoshiro256 rng(0x0ec5ULL);
  for (const unsigned lanes : {32u, 64u, 128u}) {
    for (int iter = 0; iter < 6; ++iter) {
      const Dist dist = kAllDists[rng.bounded(std::size(kAllDists))];
      const std::size_t m = rng.bounded(20000);
      const std::size_t n = rng.bounded(20000);
      const std::uint64_t seed = rng();
      SCOPED_TRACE(::testing::Message()
                   << to_string(dist) << " m=" << m << " n=" << n
                   << " lanes=" << lanes << " seed=" << seed);
      const auto input = make_merge_input(dist, m, n, seed);
      const auto expected = test::reference_merge(input.a, input.b);
      std::vector<std::int32_t> out(m + n);
      parallel_merge(input.a.data(), m, input.b.data(), n, out.data(),
                     Executor{&pool, lanes});
      ASSERT_EQ(out, expected);
    }
  }
}

TEST(Oversubscription, SharedPoolAcceptsHugeLaneCounts) {
  const auto input = make_merge_input(Dist::kClustered, 50000, 50000, 0xabba);
  const auto expected = test::reference_merge(input.a, input.b);
  std::vector<std::int32_t> out(input.a.size() + input.b.size());
  parallel_merge(input.a.data(), input.a.size(), input.b.data(),
                 input.b.size(), out.data(), Executor{nullptr, 256});
  ASSERT_EQ(out, expected);
}

// Rapid back-to-back tiny jobs maximise the chance that a worker woken for
// job N arrives only after job N's lanes are all claimed — exactly the
// state from which the pre-fix pool could leak that worker into job N+1
// (dangling task pointer, double-claimed lane). TSan + this loop is the
// mechanical regression test for that fix; the lane-coverage assertions
// catch the double-claim symptom even without TSan.
TEST(Oversubscription, RapidBackToBackJobsNeverLeakLanesAcrossJobs) {
  ThreadPool pool(4);
  std::vector<std::atomic<std::uint32_t>> hits(8);
  for (std::uint32_t job = 0; job < 4000; ++job) {
    const unsigned lanes = 2 + job % 7;
    for (unsigned l = 0; l < lanes; ++l)
      hits[l].store(0, std::memory_order_relaxed);
    pool.parallel_for_lanes(lanes, [&](unsigned lane) {
      hits[lane].fetch_add(1, std::memory_order_relaxed);
    });
    for (unsigned l = 0; l < lanes; ++l)
      ASSERT_EQ(hits[l].load(std::memory_order_relaxed), 1u)
          << "job " << job << " lane " << l
          << " ran the wrong number of times";
  }
}

TEST(Oversubscription, AlternatingLaneCountsReusePoolCleanly) {
  ThreadPool pool(2);
  Xoshiro256 rng(0xa17eULL);
  for (int iter = 0; iter < 120; ++iter) {
    const unsigned lanes = static_cast<unsigned>(1 + rng.bounded(96));
    std::atomic<unsigned> ran{0};
    pool.parallel_for_lanes(lanes, [&](unsigned) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(ran.load(), lanes) << "iter " << iter;
  }
}

// threading.hpp: a fork from inside a lane of the same pool runs its lanes
// inline on the lane's thread. Two shapes: every lane of an outer job
// forks a nested job (more lanes than workers, so workers and the caller
// both nest), and nested jobs are in lane order on a 0-worker pool.
TEST(Oversubscription, NestedForkJoinRunsInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<unsigned>> hits(6 * 5);
  pool.parallel_for_lanes(6, [&](unsigned lane) {
    pool.parallel_for_lanes(5, [&](unsigned inner) {
      hits[lane * 5 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t k = 0; k < hits.size(); ++k)
    ASSERT_EQ(hits[k].load(), 1u) << "lane " << k / 5 << " inner " << k % 5;

  ThreadPool serial(0);
  std::vector<unsigned> order;
  serial.parallel_for_lanes(3, [&](unsigned lane) {
    serial.parallel_for_lanes(
        2, [&](unsigned inner) { order.push_back(lane * 2 + inner); });
  });
  EXPECT_EQ(order, (std::vector<unsigned>{0, 1, 2, 3, 4, 5}));
}

// Nested fork-join composing real merges: an outer two-lane job splits
// the merge at a key-respecting seam, and each lane runs a full
// parallel_merge of its half on the same pool.
TEST(Oversubscription, NestedForkJoinWorksOnThreadPool) {
  ThreadPool pool(2);
  const auto input = make_merge_input(Dist::kInterleaved, 30000, 30000, 314);
  const auto expected = test::reference_merge(input.a, input.b);

  std::vector<std::int32_t> out(input.a.size() + input.b.size());
  const std::size_t half_a = input.a.size() / 2;
  // Split point must respect key order across the seam: merge A's low half
  // with the B-prefix of everything below A[half_a], rest with rest.
  const auto b_split = static_cast<std::size_t>(
      std::lower_bound(input.b.begin(), input.b.end(), input.a[half_a]) -
      input.b.begin());
  std::atomic<unsigned> inner_jobs{0};
  pool.parallel_for_lanes(2, [&](unsigned lane) {
    const Executor exec{&pool, 4};
    if (lane == 0)
      parallel_merge(input.a.data(), half_a, input.b.data(), b_split,
                     out.data(), exec);
    else
      parallel_merge(input.a.data() + half_a, input.a.size() - half_a,
                     input.b.data() + b_split, input.b.size() - b_split,
                     out.data() + half_a + b_split, exec);
    inner_jobs.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(inner_jobs.load(), 2u);
  ASSERT_EQ(out, expected);
}

}  // namespace
}  // namespace mp
