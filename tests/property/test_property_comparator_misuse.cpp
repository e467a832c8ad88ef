// Inconsistent-comparator torture. A comparator that violates strict weak
// ordering voids the *ordering* guarantees, but not the *memory-safety*
// ones: Algorithm 1 derives every lane's output slice from the diagonal
// arithmetic (lane * (m+n) / p), which is comparator-independent, and
// merge_steps bounds every read by (m, n). So for ANY sequence of
// comparator verdicts the merge must terminate, write every output
// position exactly once, and read/write strictly in bounds (the sanitizer
// presets check the last part mechanically — this binary is the designated
// ASan/UBSan payload for the lying-comparator attack surface).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/mergepath.hpp"
#include "../test_support.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

// Deterministic pseudo-random verdict per (x, y, salt): typically violates
// antisymmetry, transitivity and irreflexivity all at once.
struct LyingComparator {
  std::uint64_t salt;
  bool operator()(std::int32_t x, std::int32_t y) const {
    std::uint64_t h = salt ^ (static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(x))
                              << 32) ^
                      static_cast<std::uint32_t>(y);
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 33;
    return (h & 1) != 0;
  }
  bool operator()(const KeyedRecord& x, const KeyedRecord& y) const {
    return (*this)(x.key, y.key);
  }
};

constexpr std::int32_t kSentinel = -1;

// All inputs are drawn non-negative so the sentinel cannot collide.
std::vector<std::int32_t> nonneg(std::vector<std::int32_t> v) {
  for (auto& x : v) x &= 0x7fffffff;
  std::sort(v.begin(), v.end());
  return v;
}

void expect_written_from_inputs(const std::vector<std::int32_t>& out,
                                std::vector<std::int32_t> universe) {
  std::sort(universe.begin(), universe.end());
  for (std::size_t k = 0; k < out.size(); ++k) {
    ASSERT_NE(out[k], kSentinel) << "output position " << k << " not written";
    ASSERT_TRUE(std::binary_search(universe.begin(), universe.end(), out[k]))
        << "output position " << k << " holds value " << out[k]
        << " absent from the inputs";
  }
}

TEST(ComparatorMisuse, LyingComparatorCannotEscapeTheOutputSlice) {
  Xoshiro256 rng(0x11a45ULL);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t m = rng.bounded(5000);
    const std::size_t n = rng.bounded(5000);
    const unsigned threads = static_cast<unsigned>(1 + rng.bounded(16));
    const std::uint64_t salt = rng();
    SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n
                                      << " p=" << threads << " salt=" << salt);
    const auto a = nonneg(make_uniform_values(m, rng()));
    const auto b = nonneg(make_uniform_values(n, rng()));
    std::vector<std::int32_t> universe = a;
    universe.insert(universe.end(), b.begin(), b.end());
    const Executor exec{nullptr, threads};
    const LyingComparator comp{salt};

    std::vector<std::int32_t> out(m + n, kSentinel);
    parallel_merge(a.data(), m, b.data(), n, out.data(), exec, comp);
    expect_written_from_inputs(out, universe);
  }
}

TEST(ComparatorMisuse, LyingComparatorSortTerminatesInBounds) {
  Xoshiro256 rng(0x11a46ULL);
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = rng.bounded(20000);
    const unsigned threads = static_cast<unsigned>(1 + rng.bounded(12));
    const std::uint64_t salt = rng();
    SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << threads
                                      << " salt=" << salt);
    auto data = make_unsorted_values(n, rng());
    for (auto& x : data) x &= 0x7fffffff;
    auto universe = data;
    // A structurally-bounded merge sort must terminate and permute... at
    // minimum, keep every value it emits drawn from the input multiset and
    // stay in bounds. (std::sort with this comparator is outright UB; the
    // guarantee tested here is deliberately stronger than the STL's.)
    parallel_merge_sort(data.data(), n, Executor{nullptr, threads},
                        LyingComparator{salt});
    std::sort(universe.begin(), universe.end());
    for (std::size_t k = 0; k < data.size(); ++k)
      ASSERT_TRUE(
          std::binary_search(universe.begin(), universe.end(), data[k]))
          << "position " << k;
  }
}

// Records under a key-only comparator take the chained scalar merge: one
// chained loop per pass of the block sorts (kernels::detail::
// chained_merge_pass) and kernels::detail::chained_merge_steps in every
// merge round. Its interleaved loop trusts no verdict for its bounds, so
// lies may reorder, drop or repeat records but never read or write outside
// the buffers (the ASan/UBSan presets check that part).
TEST(ComparatorMisuse, LyingComparatorRecordSortStaysInBounds) {
  Xoshiro256 rng(0x11a48ULL);
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = rng.bounded(20000);
    const unsigned threads = static_cast<unsigned>(1 + rng.bounded(12));
    const std::uint64_t salt = rng();
    SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << threads
                                      << " salt=" << salt);
    std::vector<KeyedRecord> data(n);
    for (std::size_t k = 0; k < n; ++k)
      data[k] = KeyedRecord{static_cast<std::int32_t>(rng.bounded(64)),
                            static_cast<std::uint32_t>(k)};
    const auto input = data;
    parallel_merge_sort(data.data(), n, Executor{nullptr, threads},
                        LyingComparator{salt});
    // Payloads are input positions: every emitted record is an input one.
    for (std::size_t k = 0; k < data.size(); ++k) {
      ASSERT_LT(data[k].payload, n) << "position " << k;
      ASSERT_EQ(data[k], input[data[k].payload]) << "position " << k;
    }
  }
}

// The same through sequential_merge_sort directly, at n = 1..7 (mod 8):
// a short last rank-sort block, a trailing unpaired run in every pass
// and chains that cross pair boundaries. The rank sort scatters into a
// copy of its block, so repeated ranks repeat input records, never
// uninitialised bytes.
TEST(ComparatorMisuse, LyingComparatorSequentialRecordSortStaysInBounds) {
  Xoshiro256 rng(0x11a49ULL);
  for (std::size_t blocks : {0u, 1u, 5u, 37u, 613u}) {
    for (std::size_t rest = 1; rest < 8; ++rest) {
      const std::size_t n = 8 * blocks + rest;
      const std::uint64_t salt = rng();
      SCOPED_TRACE(::testing::Message() << "n=" << n << " salt=" << salt);
      std::vector<KeyedRecord> data(n), scratch(n);
      for (std::size_t k = 0; k < n; ++k)
        data[k] = KeyedRecord{static_cast<std::int32_t>(rng.bounded(64)),
                              static_cast<std::uint32_t>(k)};
      const auto input = data;
      sequential_merge_sort(data.data(), scratch.data(), n,
                            LyingComparator{salt});
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_LT(data[k].payload, n) << "position " << k;
        ASSERT_EQ(data[k], input[data[k].payload]) << "position " << k;
      }
    }
  }
}

// multiway_select's intervals are kept by arithmetic, not by verdicts: under
// any comparator the positions must sum to the rank and stay inside their
// runs (Pipeline::merge_unit clips each stretch to exactly `count` output
// elements with that sum), and every search read stays in bounds.
TEST(ComparatorMisuse, LyingComparatorMultiwaySelectStaysInBounds) {
  Xoshiro256 rng(0x11a4aULL);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t k = 1 + rng.bounded(40);
    std::vector<std::vector<std::int32_t>> runs(k);
    std::size_t total = 0;
    for (auto& run : runs) {
      run = nonneg(make_uniform_values(rng.bounded(300), rng()));
      total += run.size();
    }
    const std::vector<std::span<const std::int32_t>> views(runs.begin(),
                                                           runs.end());
    const std::uint64_t salt = rng();
    for (std::size_t rank : {std::size_t{0}, total, rng.bounded(total + 1),
                             rng.bounded(total + 1)}) {
      SCOPED_TRACE(::testing::Message() << "k=" << k << " rank=" << rank
                                        << " salt=" << salt);
      const auto pos = multiway_select(
          std::span<const std::span<const std::int32_t>>(views), rank,
          LyingComparator{salt});
      ASSERT_EQ(pos.size(), k);
      std::size_t sum = 0;
      for (std::size_t t = 0; t < k; ++t) {
        ASSERT_LE(pos[t], runs[t].size()) << "run " << t;
        sum += pos[t];
      }
      ASSERT_EQ(sum, rank);
    }
  }
}

// The diagonal search must stay within its clamped window even when the
// comparator's verdicts are maximally biased (always-true / always-false
// are the extreme points of the lying-comparator family).
TEST(ComparatorMisuse, ConstantComparatorsKeepSearchWindowsClamped) {
  Xoshiro256 rng(0x11a47ULL);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t m = rng.bounded(64);
    const std::size_t n = rng.bounded(64);
    const auto a = nonneg(make_uniform_values(m, rng()));
    const auto b = nonneg(make_uniform_values(n, rng()));
    for (std::size_t diag = 0; diag <= m + n; ++diag) {
      const std::size_t lo = diag > n ? diag - n : 0;
      const std::size_t hi = diag < m ? diag : m;
      const std::size_t always = diagonal_intersection(
          a.data(), m, b.data(), n, diag,
          [](std::int32_t, std::int32_t) { return true; });
      const std::size_t never = diagonal_intersection(
          a.data(), m, b.data(), n, diag,
          [](std::int32_t, std::int32_t) { return false; });
      ASSERT_GE(always, lo);
      ASSERT_LE(always, hi);
      ASSERT_GE(never, lo);
      ASSERT_LE(never, hi);
    }
  }
}

}  // namespace
}  // namespace mp
