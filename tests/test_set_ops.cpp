// Tests for core/set_ops.hpp: intersection and difference, each in both
// argument orders, against the std::set_* reference on every distribution
// (duplicate-heavy shapes are the point), at several thread counts, plus
// identities and edge cases.

#include "core/set_ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "test_support.hpp"
#include "util/data_gen.hpp"

namespace mp {
namespace {

std::vector<std::int32_t> ref_inter(const std::vector<std::int32_t>& a,
                                    const std::vector<std::int32_t>& b) {
  std::vector<std::int32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}
std::vector<std::int32_t> ref_diff(const std::vector<std::int32_t>& a,
                                   const std::vector<std::int32_t>& b) {
  std::vector<std::int32_t> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

class SetOpsParam
    : public ::testing::TestWithParam<std::tuple<Dist, unsigned>> {};

TEST_P(SetOpsParam, AllFourMatchStdReference) {
  // A ∩ B, B ∩ A, A \ B and B \ A: the swapped orders move the duplicate
  // surplus to the other side of each tie group.
  const auto [dist, threads] = GetParam();
  const Executor exec{nullptr, threads};
  constexpr std::pair<std::size_t, std::size_t> kShapes[] = {
      {900, 700}, {900, 0}, {0, 700}, {1, 1}, {64, 2048}};
  for (const auto& [m, n] : kShapes) {
    const auto input = make_merge_input(dist, m, n, 301 + m + n);
    EXPECT_EQ(parallel_set_intersection(input.a, input.b, exec),
              ref_inter(input.a, input.b))
        << "inter " << to_string(dist) << " " << m << "x" << n;
    EXPECT_EQ(parallel_set_intersection(input.b, input.a, exec),
              ref_inter(input.b, input.a))
        << "inter BA " << to_string(dist) << " " << m << "x" << n;
    EXPECT_EQ(parallel_set_difference(input.a, input.b, exec),
              ref_diff(input.a, input.b))
        << "diff " << to_string(dist) << " " << m << "x" << n;
    EXPECT_EQ(parallel_set_difference(input.b, input.a, exec),
              ref_diff(input.b, input.a))
        << "diff BA " << to_string(dist) << " " << m << "x" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistsAndThreads, SetOpsParam,
    ::testing::Combine(::testing::ValuesIn(kAllDists),
                       ::testing::Values(1u, 3u, 8u, 16u)),
    [](const auto& pinfo) {
      return to_string(std::get<0>(pinfo.param)) + "_p" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(SetOps, MultisetSemanticsOnDuplicates) {
  // A = {5 x3, 9 x1}, B = {5 x2, 7 x1}: intersection keeps min
  // multiplicities, difference A's surplus.
  const std::vector<std::int32_t> a{5, 5, 5, 9};
  const std::vector<std::int32_t> b{5, 5, 7};
  EXPECT_EQ(parallel_set_intersection(a, b),
            (std::vector<std::int32_t>{5, 5}));
  EXPECT_EQ(parallel_set_difference(a, b),
            (std::vector<std::int32_t>{5, 9}));
}

TEST(SetOps, Identities) {
  const auto input = make_merge_input(Dist::kFewDuplicates, 5000, 5000, 307);
  const Executor exec{nullptr, 6};
  const auto i = parallel_set_intersection(input.a, input.b, exec);
  const auto d_ab = parallel_set_difference(input.a, input.b, exec);
  const auto d_ba = parallel_set_difference(input.b, input.a, exec);

  // |A ∩ B| + |B \ A| = |B|  (multiset identity).
  EXPECT_EQ(i.size() + d_ba.size(), input.b.size());
  // A \ B merged with A ∩ B rebuilds A (as multisets).
  std::vector<std::int32_t> rebuilt;
  std::merge(d_ab.begin(), d_ab.end(), i.begin(), i.end(),
             std::back_inserter(rebuilt));
  EXPECT_EQ(rebuilt, input.a);
}

TEST(SetOps, DescendingComparator) {
  std::vector<std::int32_t> a{9, 7, 5, 1};
  std::vector<std::int32_t> b{8, 7, 2};
  std::vector<std::int32_t> out(4);
  const std::size_t n = parallel_set_difference(a.data(), a.size(), b.data(),
                                                b.size(), out.data(), {},
                                                std::greater<>{});
  out.resize(n);
  std::vector<std::int32_t> expected;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(expected), std::greater<>{});
  EXPECT_EQ(out, expected);
}

TEST(SetOps, SingleValueUniverseManyThreads) {
  // Every element identical: the key-aligned cut machinery degenerates to
  // one giant run — correctness must survive total imbalance.
  const std::vector<std::int32_t> a(10000, 3), b(7000, 3);
  const Executor exec{nullptr, 16};
  EXPECT_EQ(parallel_set_intersection(a, b, exec).size(), 7000u);
  EXPECT_EQ(parallel_set_difference(a, b, exec).size(), 3000u);
}

}  // namespace
}  // namespace mp
