// Tests for core/parallel_merge.hpp (Algorithm 1): correctness against the
// stable reference across distributions, shapes and thread counts;
// stability; the counted lanes' invariants (perfect balance,
// O(N + p log N) work); and exception safety.

#include "core/parallel_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "pram/simulate.hpp"
#include "test_support.hpp"
#include "util/data_gen.hpp"

namespace mp {
namespace {

class ParallelMergeCorrectness
    : public ::testing::TestWithParam<std::tuple<Dist, unsigned>> {};

TEST_P(ParallelMergeCorrectness, MatchesReference) {
  const auto [dist, threads] = GetParam();
  Executor exec{nullptr, threads};
  constexpr std::pair<std::size_t, std::size_t> kShapes[] = {
      {1000, 1000}, {1000, 37}, {37, 1000}, {1, 999}, {0, 512}, {512, 0}};
  for (const auto& [m, n] : kShapes) {
    const auto input = make_merge_input(dist, m, n, 97 + m + n);
    std::vector<std::int32_t> out(m + n);
    parallel_merge(input.a.data(), m, input.b.data(), n, out.data(), exec);
    EXPECT_EQ(out, test::reference_merge(input.a, input.b))
        << to_string(dist) << " m=" << m << " n=" << n << " p=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistsAndThreads, ParallelMergeCorrectness,
    ::testing::Combine(::testing::ValuesIn(kAllDists),
                       ::testing::Values(1u, 2u, 3u, 4u, 7u, 12u, 32u)),
    [](const auto& pinfo) {
      return to_string(std::get<0>(pinfo.param)) + "_p" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(ParallelMerge, VectorFrontEnd) {
  const auto input = make_merge_input(Dist::kUniform, 5000, 4000, 5);
  EXPECT_EQ(parallel_merge(input.a, input.b),
            test::reference_merge(input.a, input.b));
}

TEST(ParallelMerge, StableAcrossLaneBoundaries) {
  // Heavy duplication: lane boundaries land inside runs of equal keys, the
  // case that breaks naive tie handling.
  const auto input = make_keyed_input(3000, 3000, 7, 13);
  for (unsigned p : {2u, 5u, 12u}) {
    std::vector<KeyedRecord> out(6000);
    parallel_merge(input.a.data(), input.a.size(), input.b.data(),
                   input.b.size(), out.data(), Executor{nullptr, p});
    for (std::size_t i = 1; i < out.size(); ++i) {
      ASSERT_LE(out[i - 1].key, out[i].key);
      if (out[i - 1].key == out[i].key) {
        ASSERT_LT(out[i - 1].payload, out[i].payload)
            << "p=" << p << " at " << i;
      }
    }
  }
}

TEST(ParallelMerge, MoreThreadsThanElements) {
  const auto input = make_merge_input(Dist::kUniform, 3, 2, 17);
  std::vector<std::int32_t> out(5);
  parallel_merge(input.a.data(), 3, input.b.data(), 2, out.data(),
                 Executor{nullptr, 64});
  EXPECT_EQ(out, test::reference_merge(input.a, input.b));
}

TEST(ParallelMerge, DedicatedPool) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  const auto input = make_merge_input(Dist::kClustered, 10000, 8000, 19);
  std::vector<std::int32_t> out(18000);
  parallel_merge(input.a.data(), 10000, input.b.data(), 8000, out.data(),
                 Executor{&pool, 4});
  EXPECT_EQ(out, test::reference_merge(input.a, input.b));
}

TEST(ParallelMerge, SerialPoolIsDeterministicallyCorrect) {
  // workers = 0: lanes run inline in lane order (the PRAM-simulation mode).
  ThreadPool serial(0);
  EXPECT_EQ(serial.workers(), 0u);
  const auto input = make_merge_input(Dist::kInterleaved, 1000, 1000, 23);
  std::vector<std::int32_t> out(2000);
  parallel_merge(input.a.data(), 1000, input.b.data(), 1000, out.data(),
                 Executor{&serial, 8});
  EXPECT_EQ(out, test::reference_merge(input.a, input.b));
}

TEST(ParallelMerge, ComparatorExceptionPropagates) {
  const auto input = make_merge_input(Dist::kUniform, 4096, 4096, 29);
  std::vector<std::int32_t> out(8192);
  auto throwing = [](std::int32_t x, std::int32_t y) {
    if (x % 1000 == 17 || y % 1000 == 17) throw std::runtime_error("boom");
    return x < y;
  };
  bool threw = false;
  try {
    parallel_merge(input.a.data(), 4096, input.b.data(), 4096, out.data(),
                   Executor{nullptr, 4}, throwing);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  // Uniform values over the full int32 range essentially surely contain a
  // residue-17 element; more importantly the pool must stay usable.
  if (threw) {
    std::vector<std::int32_t> ok(8192);
    parallel_merge(input.a.data(), 4096, input.b.data(), 4096, ok.data(),
                   Executor{nullptr, 4});
    EXPECT_EQ(ok, test::reference_merge(input.a, input.b));
  }
}

TEST(MergeSliceForLane, SlicesTileTheOutputExactly) {
  const auto input = make_merge_input(Dist::kClustered, 777, 555, 31);
  for (unsigned lanes : {1u, 2u, 5u, 16u}) {
    std::size_t expect_out = 0, sum_a = 0, sum_b = 0;
    for (unsigned lane = 0; lane < lanes; ++lane) {
      const MergeSlice s = merge_slice_for_lane(
          input.a.data(), 777, input.b.data(), 555, lane, lanes);
      EXPECT_EQ(s.out_begin, expect_out);
      EXPECT_EQ(s.a_begin + s.b_begin, s.out_begin);
      expect_out += s.steps;
      if (lane + 1 == lanes) {
        sum_a = 777 - s.a_begin;
        sum_b = 555 - s.b_begin;
      }
    }
    EXPECT_EQ(expect_out, 777u + 555u);
    EXPECT_LE(sum_a, 777u);
    EXPECT_LE(sum_b, 555u);
  }
}

TEST(ParallelMerge, WorkComplexityBound) {
  // Work must be <= N + p * (log2(min(m,n)) + 1) countable merge ops plus
  // N moves (Section III: O(N + p log N)).
  const std::size_t n = 1 << 15;
  const auto input = make_merge_input(Dist::kUniform, n, n, 37);
  for (unsigned p : {1u, 4u, 16u}) {
    std::vector<OpCounts> counts(p);
    std::vector<std::int32_t> out(2 * n);
    pram::counted_parallel_merge(input.a.data(), n, input.b.data(), n,
                                 out.data(), p, counts);
    EXPECT_EQ(out, test::reference_merge(input.a, input.b));
    std::uint64_t compares = 0, moves = 0, searches = 0;
    std::uint64_t max_lane_steps = 0;
    for (const auto& c : counts) {
      compares += c.compares;
      moves += c.moves;
      searches += c.search_steps;
      max_lane_steps = std::max(max_lane_steps, c.moves);
    }
    EXPECT_EQ(moves, 2 * n);
    EXPECT_LE(compares, 2 * n);
    EXPECT_LE(searches, static_cast<std::uint64_t>(p) * 17);
    // Corollary 7: perfect balance — every lane outputs N/p (+-1).
    EXPECT_LE(max_lane_steps, (2 * n) / p + 1);
  }
}

}  // namespace
}  // namespace mp
