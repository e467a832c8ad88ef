// Exhaustive small-case verification: EVERY pair of sorted arrays of
// length 0..4 over the alphabet {0,1,2} (each array is a multiset, so
// there are sum_{m=0..4} C(m+2,2) = 1+3+6+10+15 = 35 arrays, 35*35 = 1225
// ordered pairs), run through every merge implementation and checked
// against std::merge. Small alphabets maximise ties; small sizes hit every
// degenerate branch (empty sides, single elements, all-equal, complete
// containment). This is as close to a proof by cases as a test gets.

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/baselines.hpp"
#include "core/mergepath.hpp"
#include "test_support.hpp"

namespace mp {
namespace {

// All sorted arrays over {0..alphabet-1} with exactly `len` elements.
void enumerate_sorted(std::size_t len, std::int32_t alphabet,
                      std::vector<std::vector<std::int32_t>>& out) {
  std::vector<std::int32_t> current(len, 0);
  // Non-decreasing sequences == combinations with repetition.
  auto rec = [&](auto&& self, std::size_t pos, std::int32_t min_v) -> void {
    if (pos == len) {
      out.push_back(current);
      return;
    }
    for (std::int32_t v = min_v; v < alphabet; ++v) {
      current[pos] = v;
      self(self, pos + 1, v);
    }
  };
  rec(rec, 0, 0);
}

class ExhaustiveSmall : public ::testing::Test {
 protected:
  static std::vector<std::vector<std::int32_t>> all_arrays() {
    std::vector<std::vector<std::int32_t>> arrays;
    for (std::size_t len = 0; len <= 4; ++len)
      enumerate_sorted(len, 3, arrays);
    return arrays;
  }
};

TEST_F(ExhaustiveSmall, EveryMergeImplementationOnEveryPair) {
  const auto arrays = all_arrays();
  ASSERT_EQ(arrays.size(), 35u);
  ThreadPool pool(2);
  const Executor exec{&pool, 3};

  std::size_t pairs = 0;
  for (const auto& a : arrays) {
    for (const auto& b : arrays) {
      ++pairs;
      const auto expected = test::reference_merge(a, b);
      const std::size_t m = a.size(), n = b.size();
      std::vector<std::int32_t> out(m + n);

      parallel_merge(a.data(), m, b.data(), n, out.data(), exec);
      ASSERT_EQ(out, expected) << "parallel_merge";

      std::fill(out.begin(), out.end(), -9);
      SegmentedConfig seg;
      seg.segment_length = 2;
      segmented_parallel_merge(a.data(), m, b.data(), n, out.data(), seg,
                               exec);
      ASSERT_EQ(out, expected) << "segmented";

      ASSERT_EQ(baselines::shiloach_vishkin_merge(a, b, exec), expected);
      ASSERT_EQ(baselines::akl_santoro_merge(a, b, exec), expected);
      ASSERT_EQ(baselines::deo_sarkar_merge(a, b, exec), expected);
      ASSERT_EQ(baselines::bitonic_merge(a, b, exec), expected);
    }
  }
  EXPECT_EQ(pairs, 35u * 35u);
}

TEST_F(ExhaustiveSmall, EveryDiagonalOfEveryPairMatchesTheMatrixModel) {
  const auto arrays = all_arrays();
  for (const auto& a : arrays) {
    for (const auto& b : arrays) {
      const MergeMatrix<std::int32_t> matrix(a, b);
      const auto path = matrix.build_path();
      for (std::size_t d = 0; d <= a.size() + b.size(); ++d) {
        ASSERT_EQ(path_point_on_diagonal(a.data(), a.size(), b.data(),
                                         b.size(), d),
                  path[d]);
      }
    }
  }
}

TEST_F(ExhaustiveSmall, SetOperationsOnEveryPair) {
  const auto arrays = all_arrays();
  const Executor exec{nullptr, 3};
  for (const auto& a : arrays) {
    for (const auto& b : arrays) {
      std::vector<std::int32_t> expected;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(expected));
      ASSERT_EQ(parallel_set_intersection(a, b, exec), expected);
      expected.clear();
      std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
      ASSERT_EQ(parallel_set_difference(a, b, exec), expected);
    }
  }
}

TEST_F(ExhaustiveSmall, KthSmallestAndFirstKOnEveryPair) {
  // First k: a StreamMerger over two closed inputs pulls exactly the
  // k-prefix of the merge. Rank k: one diagonal search (element_at_rank).
  const auto arrays = all_arrays();
  for (const auto& a : arrays) {
    for (const auto& b : arrays) {
      const auto expected = test::reference_merge(a, b);
      for (std::size_t k = 0; k <= expected.size(); ++k) {
        StreamMerger<std::int32_t> merger;
        merger.push_a(std::span<const std::int32_t>(a));
        merger.push_b(std::span<const std::int32_t>(b));
        merger.close_a();
        merger.close_b();
        std::vector<std::int32_t> out(k);
        ASSERT_EQ(merger.pull(std::span<std::int32_t>(out)), k);
        ASSERT_TRUE(std::equal(out.begin(), out.end(), expected.begin()));
        if (k < expected.size()) {
          ASSERT_EQ(test::element_at_rank(a, b, k), expected[k]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace mp
