// Tests for core/parallel_merge.hpp (Algorithm 1): correctness against the
// stable reference across distributions, shapes and thread counts;
// stability; the counted lanes' invariants (perfect balance,
// O(N + p log N) work); and exception safety.

#include "core/parallel_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

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

// Merging by key: key/value records under a comparator that reads only the
// key. Values tag their origin so stability and pairing can be verified.
using KeyValue = std::pair<std::int32_t, std::uint32_t>;

bool key_less(const KeyValue& x, const KeyValue& y) {
  return x.first < y.first;
}

std::vector<KeyValue> tag_values(const std::vector<std::int32_t>& keys,
                                 std::uint32_t origin) {
  std::vector<KeyValue> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    out[i] = {keys[i], (origin << 28) | static_cast<std::uint32_t>(i)};
  return out;
}

class MergeByKeyParam
    : public ::testing::TestWithParam<std::tuple<Dist, unsigned>> {};

TEST_P(MergeByKeyParam, KeysMatchPlainMergeAndValuesFollowKeys) {
  const auto [dist, threads] = GetParam();
  const auto input = make_merge_input(dist, 1000, 700, 171);
  const auto a = tag_values(input.a, 0);
  const auto b = tag_values(input.b, 1);
  std::vector<KeyValue> out(a.size() + b.size());
  parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                 Executor{nullptr, threads}, key_less);

  const auto keys = test::reference_merge(input.a, input.b);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].first, keys[i]) << "at " << i;
    // The value still sits next to its original key.
    const std::uint32_t origin = out[i].second >> 28;
    const std::uint32_t index = out[i].second & 0x0fffffffu;
    ASSERT_EQ(out[i].first, origin == 0 ? input.a[index] : input.b[index])
        << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistsAndThreads, MergeByKeyParam,
    ::testing::Combine(::testing::ValuesIn(kAllDists),
                       ::testing::Values(1u, 4u, 9u)),
    [](const auto& pinfo) {
      return to_string(std::get<0>(pinfo.param)) + "_p" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(MergeByKey, StableOnTies) {
  // All keys equal: output values must be A's in order, then B's in order.
  const auto a = tag_values(std::vector<std::int32_t>(50, 7), 0);
  const auto b = tag_values(std::vector<std::int32_t>(30, 7), 1);
  std::vector<KeyValue> out(80);
  parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                 Executor{nullptr, 4}, key_less);
  std::vector<KeyValue> expected = a;
  expected.insert(expected.end(), b.begin(), b.end());
  EXPECT_EQ(out, expected);
}

TEST(MergeByKey, EmptySides) {
  const std::vector<KeyValue> records{{1, 10}, {2, 20}, {3, 30}};
  const std::vector<KeyValue> none;
  std::vector<KeyValue> out(3);
  parallel_merge(records.data(), 3, none.data(), 0, out.data(), {}, key_less);
  EXPECT_EQ(out, records);
  out.assign(3, KeyValue{});
  parallel_merge(none.data(), 0, records.data(), 3, out.data(), {}, key_less);
  EXPECT_EQ(out, records);
}

TEST(MergeByKey, HeavyPayloadType) {
  // Values of a non-trivial type (strings): the merge must never assume
  // trivially-copyable elements.
  using Named = std::pair<std::int32_t, std::string>;
  const std::vector<Named> a{{1, "one"}, {3, "three"}, {5, "five"}};
  const std::vector<Named> b{{2, "two"}, {4, "four"}, {6, "six"}};
  std::vector<Named> out(6);
  const auto by_key = [](const Named& x, const Named& y) {
    return x.first < y.first;
  };
  parallel_merge(a.data(), 3, b.data(), 3, out.data(), Executor{nullptr, 3},
                 by_key);
  std::vector<std::string> values;
  for (const auto& record : out) values.push_back(record.second);
  const std::vector<std::string> expected{"one", "two",  "three",
                                          "four", "five", "six"};
  EXPECT_EQ(values, expected);
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
