// Executable verification of the paper's Section II structure theory
// (experiment E9): Lemmas 1-4, Propositions 10-13, Corollary 12 and
// Theorem 5, checked exhaustively on the Merge Matrix reference model.

#include "core/merge_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/sequential_merge.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

// Fixture generating duplicate-heavy random sorted pairs of a given shape.
class MatrixProperty : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  struct Instance {
    std::vector<std::int32_t> a, b;
  };

  std::vector<Instance> instances() {
    const auto [m, n] = GetParam();
    Xoshiro256 rng(static_cast<std::uint64_t>(m) * 7919 +
                   static_cast<std::uint64_t>(n));
    std::vector<Instance> out;
    for (int trial = 0; trial < 25; ++trial) {
      Instance inst;
      inst.a.resize(static_cast<std::size_t>(m));
      inst.b.resize(static_cast<std::size_t>(n));
      for (auto& x : inst.a) x = static_cast<std::int32_t>(rng.bounded(6));
      for (auto& x : inst.b) x = static_cast<std::int32_t>(rng.bounded(6));
      std::sort(inst.a.begin(), inst.a.end());
      std::sort(inst.b.begin(), inst.b.end());
      out.push_back(std::move(inst));
    }
    return out;
  }
};

// Lemma 1: traversing the path (down = take A, right = take B) yields the
// stable merge.
TEST_P(MatrixProperty, Lemma1PathTraversalYieldsMerge) {
  for (const auto& inst : instances()) {
    const MergeMatrix<std::int32_t> matrix(inst.a, inst.b);
    const auto path = matrix.build_path();
    std::vector<std::int32_t> merged;
    for (std::size_t s = 1; s < path.size(); ++s) {
      if (path[s].i > path[s - 1].i)
        merged.push_back(inst.a[path[s - 1].i]);
      else
        merged.push_back(inst.b[path[s - 1].j]);
    }
    EXPECT_EQ(merged, test::reference_merge(inst.a, inst.b));
  }
}

// Lemma 8: the d'th point of the path lies on grid cross diagonal d.
TEST_P(MatrixProperty, Lemma8PathPointOnItsDiagonal) {
  for (const auto& inst : instances()) {
    const MergeMatrix<std::int32_t> matrix(inst.a, inst.b);
    const auto path = matrix.build_path();
    for (std::size_t d = 0; d < path.size(); ++d)
      EXPECT_EQ(path[d].diagonal(), d);
  }
}

// Propositions 10 & 11: M[i,j]=1 fills down-left; M[i,j]=0 fills up-right.
TEST_P(MatrixProperty, Propositions10And11MonotoneRegions) {
  for (const auto& inst : instances()) {
    const MergeMatrix<std::int32_t> matrix(inst.a, inst.b);
    for (std::size_t i = 0; i < matrix.rows(); ++i) {
      for (std::size_t j = 0; j < matrix.cols(); ++j) {
        if (matrix.at(i, j)) {
          for (std::size_t k = i; k < matrix.rows(); ++k)
            for (std::size_t l = 0; l <= j; ++l)
              EXPECT_TRUE(matrix.at(k, l));
        } else {
          for (std::size_t k = 0; k <= i; ++k)
            for (std::size_t l = j; l < matrix.cols(); ++l)
              EXPECT_FALSE(matrix.at(k, l));
        }
      }
    }
  }
}

// Corollary 12: every matrix cross diagonal, read bottom-left to top-right,
// is monotonically non-increasing (all 1s then all 0s).
TEST_P(MatrixProperty, Corollary12DiagonalsNonIncreasing) {
  for (const auto& inst : instances()) {
    const MergeMatrix<std::int32_t> matrix(inst.a, inst.b);
    if (matrix.rows() == 0 || matrix.cols() == 0) continue;
    for (std::size_t d = 0; d < matrix.rows() + matrix.cols() - 1; ++d) {
      const auto entries = matrix.diagonal_entries(d);
      for (std::size_t k = 1; k < entries.size(); ++k)
        EXPECT_LE(entries[k], entries[k - 1]) << "diag " << d << " pos " << k;
    }
  }
}

// Lemmas 2-4 + Theorem 5: any segmentation of the path yields contiguous,
// disjoint, order-respecting sub-array pairs whose independent merges
// concatenate to the full merge.
TEST_P(MatrixProperty, Theorem5SegmentsMergeIndependently) {
  Xoshiro256 cut_rng(42);
  for (const auto& inst : instances()) {
    const MergeMatrix<std::int32_t> matrix(inst.a, inst.b);
    const auto path = matrix.build_path();
    const std::size_t total = inst.a.size() + inst.b.size();

    // Random segmentation: 0 = start, then random interior cuts, then end.
    std::vector<std::size_t> cuts{0, total};
    for (int c = 0; c < 3; ++c)
      cuts.push_back(cut_rng.bounded(total + 1));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::vector<std::int32_t> result(total);
    for (std::size_t c = 1; c < cuts.size(); ++c) {
      const PathPoint lo = path[cuts[c - 1]];
      const PathPoint hi = path[cuts[c]];
      // Lemma 2/3: contiguous, disjoint sub-arrays.
      ASSERT_GE(hi.i, lo.i);
      ASSERT_GE(hi.j, lo.j);
      std::size_t i = 0, j = 0;
      merge_steps(inst.a.data() + lo.i, hi.i - lo.i, inst.b.data() + lo.j,
                  hi.j - lo.j, &i, &j, result.data() + lo.diagonal(),
                  hi.diagonal() - lo.diagonal());
    }
    // Theorem 5 / Corollary 6: concatenation equals the full stable merge.
    EXPECT_EQ(result, test::reference_merge(inst.a, inst.b));

    // Lemma 4: every element of a later segment >= every element of an
    // earlier one — equivalent to the concatenated result being sorted,
    // which the equality above already guarantees; assert explicitly.
    EXPECT_TRUE(std::is_sorted(result.begin(), result.end()));
  }
}

// Proposition 13: the path point on diagonal d is the highest point whose
// left neighbour cell is 1, or the lowest point of the diagonal otherwise.
TEST_P(MatrixProperty, Proposition13TransitionPointCharacterisation) {
  for (const auto& inst : instances()) {
    const MergeMatrix<std::int32_t> matrix(inst.a, inst.b);
    const auto path = matrix.build_path();
    const std::size_t m = matrix.rows(), n = matrix.cols();
    for (std::size_t d = 0; d <= m + n; ++d) {
      const PathPoint pt = path[d];
      // Path-point conditions in matrix terms: the cell left of (i-1, j)
      // boundary... expressed via the co-rank characterisation:
      if (pt.i > 0 && pt.j < n) {
        // M[i-1, j] must be 0: A[i-1] <= B[j].
        EXPECT_FALSE(matrix.at(pt.i - 1, pt.j));
      }
      if (pt.j > 0 && pt.i < m) {
        // M[i, j-1] must be 1: A[i] > B[j-1].
        EXPECT_TRUE(matrix.at(pt.i, pt.j - 1));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatrixProperty,
    ::testing::Values(std::tuple(0, 0), std::tuple(0, 6), std::tuple(6, 0),
                      std::tuple(1, 1), std::tuple(2, 9), std::tuple(9, 2),
                      std::tuple(6, 6), std::tuple(10, 10),
                      std::tuple(12, 5)),
    [](const auto& pinfo) {
      // Appended piece by piece: at -O3, GCC 12 reports a false -Wrestrict
      // in the insert-at-front that "literal" + std::string performs.
      std::string name = "m";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_n";
      name += std::to_string(std::get<1>(pinfo.param));
      return name;
    });

TEST(MergeMatrix, KnownSmallExample) {
  // Hand-checked example: A = [3, 5], B = [1, 4].
  const MergeMatrix<std::int32_t> matrix({3, 5}, {1, 4});
  EXPECT_TRUE(matrix.at(0, 0));   // 3 > 1
  EXPECT_FALSE(matrix.at(0, 1));  // 3 > 4 ? no
  EXPECT_TRUE(matrix.at(1, 0));   // 5 > 1
  EXPECT_TRUE(matrix.at(1, 1));   // 5 > 4

  // Merge order: 1(B) 3(A) 4(B) 5(A) => path R D R D.
  const auto path = matrix.build_path();
  const std::vector<PathPoint> expected{
      {0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 2}};
  EXPECT_EQ(path, expected);
}

}  // namespace
}  // namespace mp
