// Tests for core/merge_path.hpp: the diagonal binary search (Theorem 14)
// and merge-path partitioning (Theorem 9 / Corollary 7), cross-checked
// against the explicit Merge Matrix reference model on exhaustive small
// inputs and against invariants on large random ones.

#include "core/merge_path.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/merge_matrix.hpp"
#include "test_support.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

TEST(DiagonalIntersection, EmptyArrays) {
  const std::vector<std::int32_t> a, b;
  EXPECT_EQ(diagonal_intersection(a.data(), 0, b.data(), 0, 0), 0u);
}

TEST(DiagonalIntersection, OneEmptySide) {
  const std::vector<std::int32_t> a{1, 2, 3};
  const std::vector<std::int32_t> b;
  for (std::size_t d = 0; d <= 3; ++d) {
    EXPECT_EQ(diagonal_intersection(a.data(), 3, b.data(), 0, d), d);
    EXPECT_EQ(diagonal_intersection(b.data(), 0, a.data(), 3, d), 0u);
  }
}

TEST(DiagonalIntersection, EndpointsAlwaysFixed) {
  const auto input = make_merge_input(Dist::kUniform, 100, 73, 1);
  const std::size_t m = input.a.size(), n = input.b.size();
  EXPECT_EQ(diagonal_intersection(input.a.data(), m, input.b.data(), n, 0),
            0u);
  EXPECT_EQ(
      diagonal_intersection(input.a.data(), m, input.b.data(), n, m + n), m);
}

TEST(DiagonalIntersection, DisjointLowTakesAllOfAFirst) {
  // All of A below all of B: path runs straight down, so co-rank(d) = d
  // until A is exhausted.
  const auto input = make_merge_input(Dist::kDisjointLow, 50, 50, 2);
  for (std::size_t d = 0; d <= 100; ++d) {
    const std::size_t i = diagonal_intersection(input.a.data(), 50,
                                                input.b.data(), 50, d);
    EXPECT_EQ(i, std::min<std::size_t>(d, 50)) << "diag " << d;
  }
}

TEST(DiagonalIntersection, DisjointHighTakesAllOfBFirst) {
  const auto input = make_merge_input(Dist::kDisjointHigh, 50, 50, 3);
  for (std::size_t d = 0; d <= 100; ++d) {
    const std::size_t i = diagonal_intersection(input.a.data(), 50,
                                                input.b.data(), 50, d);
    EXPECT_EQ(i, d > 50 ? d - 50 : 0) << "diag " << d;
  }
}

TEST(DiagonalIntersection, TiesGoToAFirst) {
  const std::vector<std::int32_t> a{5, 5, 5};
  const std::vector<std::int32_t> b{5, 5, 5};
  // Stable A-priority: the first three path steps consume A entirely.
  for (std::size_t d = 0; d <= 6; ++d) {
    EXPECT_EQ(diagonal_intersection(a.data(), 3, b.data(), 3, d),
              std::min<std::size_t>(d, 3));
  }
}

TEST(DiagonalIntersection, InstrumentCountsLogSteps) {
  const auto input = make_merge_input(Dist::kUniform, 1 << 16, 1 << 16, 4);
  OpCounts ops;
  diagonal_intersection(input.a.data(), input.a.size(), input.b.data(),
                        input.b.size(), input.a.size(), std::less<>{}, &ops);
  EXPECT_GT(ops.search_steps, 0u);
  EXPECT_LE(ops.search_steps, 17u);  // log2(min(m,n)) + 1
}

// --- Exhaustive cross-check against the Merge Matrix reference model.

class DiagonalVsMatrix : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(DiagonalVsMatrix, MatchesReferencePathOnAllDiagonals) {
  const auto [m, n] = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(m) * 1315423911u +
                 static_cast<std::uint64_t>(n));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::int32_t> a(static_cast<std::size_t>(m));
    std::vector<std::int32_t> b(static_cast<std::size_t>(n));
    // Small value universe => many ties, stressing stability handling.
    for (auto& x : a) x = static_cast<std::int32_t>(rng.bounded(8));
    for (auto& x : b) x = static_cast<std::int32_t>(rng.bounded(8));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());

    const MergeMatrix<std::int32_t> matrix(a, b);
    const auto path = matrix.build_path();
    for (std::size_t d = 0; d <= a.size() + b.size(); ++d) {
      const PathPoint expected = path[d];
      const PathPoint actual =
          path_point_on_diagonal(a.data(), a.size(), b.data(), b.size(), d);
      EXPECT_EQ(actual, expected)
          << "m=" << m << " n=" << n << " trial=" << trial << " diag=" << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallShapes, DiagonalVsMatrix,
    ::testing::Values(std::tuple(0, 0), std::tuple(0, 5), std::tuple(5, 0),
                      std::tuple(1, 1), std::tuple(1, 7), std::tuple(7, 1),
                      std::tuple(4, 4), std::tuple(8, 3), std::tuple(3, 8),
                      std::tuple(16, 16), std::tuple(13, 2),
                      std::tuple(2, 13)),
    [](const auto& pinfo) {
      // Appended piece by piece: at -O3, GCC 12 reports a false -Wrestrict
      // in the insert-at-front that "literal" + std::string performs.
      std::string name = "m";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_n";
      name += std::to_string(std::get<1>(pinfo.param));
      return name;
    });

// --- Partition properties on every distribution.

class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<Dist, int>> {};

TEST_P(PartitionProperty, PartitionIsValidAndBalanced) {
  const auto [dist, parts] = GetParam();
  const auto input = make_merge_input(dist, 1000, 700, 7);
  const std::size_t m = input.a.size(), n = input.b.size();
  const auto points =
      partition_merge_path(input.a.data(), m, input.b.data(), n,
                           static_cast<std::size_t>(parts));

  ASSERT_EQ(points.size(), static_cast<std::size_t>(parts) + 1);
  EXPECT_TRUE(validate_partition(input.a.data(), m, input.b.data(), n,
                                 points));
  // Corollary 7: segment lengths differ by at most one.
  std::size_t lo = m + n, hi = 0;
  for (std::size_t k = 1; k < points.size(); ++k) {
    const std::size_t len = points[k].diagonal() - points[k - 1].diagonal();
    lo = std::min(lo, len);
    hi = std::max(hi, len);
  }
  EXPECT_LE(hi - lo, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllDists, PartitionProperty,
    ::testing::Combine(::testing::ValuesIn(kAllDists),
                       ::testing::Values(1, 2, 3, 7, 12, 64)),
    [](const auto& pinfo) {
      return to_string(std::get<0>(pinfo.param)) + "_p" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(ValidatePartition, RejectsBrokenPartitions) {
  const auto input = make_merge_input(Dist::kUniform, 100, 100, 9);
  auto points = partition_merge_path(input.a.data(), 100, input.b.data(),
                                     100, std::size_t{4});
  ASSERT_TRUE(validate_partition(input.a.data(), 100, input.b.data(), 100,
                                 points));

  auto missing_end = points;
  missing_end.back() = PathPoint{99, 100};
  EXPECT_FALSE(validate_partition(input.a.data(), 100, input.b.data(), 100,
                                  missing_end));

  auto non_monotone = points;
  if (non_monotone[1].i > 0 && non_monotone[2].i < 100) {
    std::swap(non_monotone[1], non_monotone[2]);
    EXPECT_FALSE(validate_partition(input.a.data(), 100, input.b.data(), 100,
                                    non_monotone));
  }

  // A point with the right diagonal but the wrong co-rank is not on the
  // path (unless the data happens to make it ambiguous, which uniform
  // 32-bit values essentially never do).
  auto off_path = points;
  if (off_path[2].i > 0 && off_path[2].j < 100) {
    off_path[2].i -= 1;
    off_path[2].j += 1;
    EXPECT_FALSE(validate_partition(input.a.data(), 100, input.b.data(), 100,
                                    off_path));
  }
}

// The rank-k element of merge(A, B) is one diagonal search away: the path
// point on cross diagonal k says which head the merge takes next.
TEST(KthSmallest, MatchesMergedSequenceEverywhere) {
  for (Dist dist : kAllDists) {
    const auto input = make_merge_input(dist, 300, 200, 181);
    const auto full = test::reference_merge(input.a, input.b);
    for (std::size_t rank = 0; rank < full.size(); rank += 13) {
      EXPECT_EQ(test::element_at_rank(input.a, input.b, rank), full[rank])
          << to_string(dist) << " rank=" << rank;
    }
    // Boundary ranks.
    EXPECT_EQ(test::element_at_rank(input.a, input.b, 0), full.front());
    EXPECT_EQ(test::element_at_rank(input.a, input.b, full.size() - 1),
              full.back());
  }
}

TEST(KthSmallest, MedianOfTwoArrays) {
  // The classic interview formulation, O(log) here.
  const std::vector<std::int32_t> a{1, 3, 8, 9, 15};
  const std::vector<std::int32_t> b{7, 11, 18, 19, 21, 25};
  // Union sorted: 1 3 7 8 9 11 15 18 19 21 25 -> median (rank 5) = 11.
  EXPECT_EQ(test::element_at_rank(a, b, 5), 11);
  EXPECT_EQ(path_point_on_diagonal(a.data(), a.size(), b.data(), b.size(), 5),
            (PathPoint{4, 1}));
}

}  // namespace
}  // namespace mp
