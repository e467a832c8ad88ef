// Tests for core/multiway_merge.hpp: LoserTree pop order and stability,
// the pairwise-tree multiway_merge engine against the LoserTree (every
// kernel, stability-probing records), multiway_select against a
// brute-force stable reference (with its documented comparison bound), and
// the parallel k-way merge.

#include "core/multiway_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <tuple>

#include "kernels/kernels.hpp"
#include "test_support.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

std::vector<std::vector<std::int32_t>> make_runs(std::size_t k,
                                                 std::size_t max_len,
                                                 std::uint64_t seed,
                                                 std::uint64_t universe) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<std::int32_t>> runs(k);
  for (auto& run : runs) {
    run.resize(rng.bounded(max_len + 1));
    for (auto& x : run) x = static_cast<std::int32_t>(rng.bounded(universe));
    std::sort(run.begin(), run.end());
  }
  return runs;
}

std::vector<std::int32_t> flatten_sorted(
    const std::vector<std::vector<std::int32_t>>& runs) {
  std::vector<std::int32_t> all;
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  std::stable_sort(all.begin(), all.end());
  return all;
}

TEST(LoserTree, PopsInSortedOrder) {
  const auto runs = make_runs(5, 200, 71, 1000);
  std::vector<LoserTree<std::int32_t>::Cursor> cursors;
  for (const auto& run : runs)
    cursors.push_back({run.data(), run.data() + run.size()});
  LoserTree<std::int32_t> tree(std::move(cursors));

  std::vector<std::int32_t> out;
  while (!tree.empty()) out.push_back(tree.pop());
  EXPECT_EQ(out, flatten_sorted(runs));
}

TEST(LoserTree, EdgeCases) {
  // No runs.
  using Cursors = std::vector<LoserTree<std::int32_t>::Cursor>;
  LoserTree<std::int32_t> empty_tree(Cursors{});
  EXPECT_TRUE(empty_tree.empty());

  // Single run.
  const std::vector<std::int32_t> run{1, 2, 3};
  LoserTree<std::int32_t> single(Cursors{{run.data(), run.data() + 3}});
  EXPECT_EQ(single.pop(), 1);
  EXPECT_EQ(single.pop(), 2);
  EXPECT_EQ(single.pop(), 3);
  EXPECT_TRUE(single.empty());

  // All runs empty.
  LoserTree<std::int32_t> all_empty(
      Cursors{{run.data(), run.data()}, {run.data(), run.data()}});
  EXPECT_TRUE(all_empty.empty());
}

TEST(LoserTree, StableTieBreaking) {
  // Identical values everywhere: pops must cycle run 0 fully, then 1, ...
  // No — stability means: among equal heads, the LOWEST run index pops
  // first, and after popping, run 0's next equal head is again lowest. So
  // run 0 drains completely before run 1 contributes, etc.
  const std::vector<std::int32_t> r0{5, 5}, r1{5, 5}, r2{5};
  using Cursors = std::vector<LoserTree<std::int32_t>::Cursor>;
  LoserTree<std::int32_t> tree(Cursors{{r0.data(), r0.data() + 2},
                                       {r1.data(), r1.data() + 2},
                                       {r2.data(), r2.data() + 1}});
  // Track which run each pop came from by address.
  std::vector<int> origin;
  while (!tree.empty()) {
    const std::int32_t* addr = &tree.pop();
    if (addr >= r0.data() && addr < r0.data() + 2) origin.push_back(0);
    else if (addr >= r1.data() && addr < r1.data() + 2) origin.push_back(1);
    else origin.push_back(2);
  }
  const std::vector<int> expected{0, 0, 1, 1, 2};
  EXPECT_EQ(origin, expected);
}

TEST(LoserTree, NonPowerOfTwoRunCounts) {
  for (std::size_t k : {2u, 3u, 5u, 6u, 7u, 9u, 17u}) {
    const auto runs = make_runs(k, 50, 73 + k, 100);
    std::vector<LoserTree<std::int32_t>::Cursor> cursors;
    for (const auto& run : runs)
      cursors.push_back({run.data(), run.data() + run.size()});
    LoserTree<std::int32_t> tree(std::move(cursors));
    std::vector<std::int32_t> out;
    while (!tree.empty()) out.push_back(tree.pop());
    EXPECT_EQ(out, flatten_sorted(runs)) << "k=" << k;
  }
}

// ---- multiway_merge vs LoserTree ------------------------------------------

/// Key-only-comparator record: the payload tags (run, position), so any
/// reordering of equal keys changes the bytes.
struct Tagged32 {
  std::int32_t key;
  std::uint32_t tag;
  friend bool operator==(const Tagged32&, const Tagged32&) = default;
};
struct KeyOnlyLess {
  bool operator()(const Tagged32& a, const Tagged32& b) const {
    return a.key < b.key;
  }
};

template <typename T, typename Comp>
std::vector<T> loser_tree_merge(const std::vector<std::vector<T>>& runs,
                                Comp comp) {
  std::vector<typename LoserTree<T, Comp>::Cursor> cursors;
  for (const auto& run : runs)
    cursors.push_back({run.data(), run.data() + run.size()});
  LoserTree<T, Comp> tree(std::move(cursors), comp);
  std::vector<T> out;
  while (!tree.empty()) out.push_back(tree.pop());
  return out;
}

template <typename T, typename Comp>
std::vector<T> engine_merge(const std::vector<std::vector<T>>& runs,
                            Comp comp) {
  std::vector<std::span<const T>> views;
  std::size_t total = 0;
  for (const auto& run : runs) {
    views.emplace_back(run.data(), run.size());
    total += run.size();
  }
  std::vector<T> out(total);
  std::vector<T> scratch(total);
  multiway_merge(std::span<const std::span<const T>>(views), out.data(),
                 scratch.data(), comp);
  return out;
}

/// k sorted runs of T; every third run is empty, and universe 1 makes
/// every key equal.
template <typename T>
std::vector<std::vector<T>> engine_runs(std::size_t k, std::uint64_t universe,
                                        std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<T>> runs(k);
  for (std::size_t t = 0; t < k; ++t) {
    if (t % 3 == 2) continue;
    runs[t].resize(rng.bounded(300));
    for (auto& x : runs[t]) x = static_cast<T>(rng.bounded(universe)) - 3;
    std::sort(runs[t].begin(), runs[t].end());
  }
  return runs;
}

std::vector<kernels::Kernel> supported_kernels() {
  std::vector<kernels::Kernel> out;
  for (kernels::Kernel kernel : kernels::kAllKernels)
    if (kernels::kernel_supported(kernel)) out.push_back(kernel);
  return out;  // always includes kScalar: the forced-scalar arm
}

TEST(MultiwayMergeEngine, MatchesLoserTreeUnderEveryKernel) {
  const kernels::Kernel saved = kernels::selected_kernel();
  for (kernels::Kernel kernel : supported_kernels()) {
    ASSERT_TRUE(kernels::set_kernel(kernel));
    for (std::size_t k : {0u, 1u, 2u, 3u, 5u, 31u, 32u, 33u}) {
      for (std::uint64_t universe : {std::uint64_t{1}, std::uint64_t{6},
                                     std::uint64_t{1} << 30}) {
        const std::uint64_t seed = 17 * k + universe;
        const auto r32 = engine_runs<std::int32_t>(k, universe, seed);
        EXPECT_EQ(engine_merge(r32, std::less<>{}),
                  loser_tree_merge(r32, std::less<>{}))
            << kernels::to_string(kernel) << " k=" << k << " u=" << universe;
        const auto r64 = engine_runs<std::int64_t>(k, universe, seed + 1);
        EXPECT_EQ(engine_merge(r64, std::less<>{}),
                  loser_tree_merge(r64, std::less<>{}))
            << kernels::to_string(kernel) << " k=" << k << " u=" << universe;
      }
    }
  }
  kernels::set_kernel(saved);
}

TEST(MultiwayMergeEngine, KeyOnlyRecordsKeepRunThenPositionOrder) {
  for (std::size_t k : {0u, 1u, 2u, 3u, 5u, 31u, 32u, 33u}) {
    for (std::uint64_t universe : {std::uint64_t{1}, std::uint64_t{4}}) {
      const auto keys = engine_runs<std::int32_t>(k, universe, 91 + k);
      std::vector<std::vector<Tagged32>> runs(k);
      std::vector<Tagged32> expected;  // run order, then stable by key
      for (std::size_t t = 0; t < k; ++t) {
        for (std::size_t i = 0; i < keys[t].size(); ++i) {
          runs[t].push_back(
              {keys[t][i], static_cast<std::uint32_t>(t << 16 | i)});
        }
        expected.insert(expected.end(), runs[t].begin(), runs[t].end());
      }
      std::stable_sort(expected.begin(), expected.end(), KeyOnlyLess{});
      const auto got = engine_merge(runs, KeyOnlyLess{});
      EXPECT_EQ(got, loser_tree_merge(runs, KeyOnlyLess{})) << "k=" << k;
      EXPECT_EQ(got, expected) << "k=" << k << " u=" << universe;
    }
  }
}

TEST(MultiwayMergeEngine, TwoLiveRunsNeedNoScratch) {
  const std::vector<std::int32_t> a{1, 3, 5};
  const std::vector<std::int32_t> b{2, 3, 4};
  const std::vector<std::span<const std::int32_t>> views{
      {}, {a.data(), a.size()}, {}, {b.data(), b.size()}};
  std::vector<std::int32_t> out(6);
  multiway_merge(std::span<const std::span<const std::int32_t>>(views),
                 out.data(), static_cast<std::int32_t*>(nullptr));
  EXPECT_EQ(out, (std::vector<std::int32_t>{1, 2, 3, 3, 4, 5}));
}

// Brute-force stable selection reference: tag every element with
// (value, run, idx), sort, take prefix, count per run.
std::vector<std::size_t> reference_select(
    const std::vector<std::vector<std::int32_t>>& runs, std::size_t rank) {
  struct Tagged {
    std::int32_t value;
    std::size_t run, idx;
  };
  std::vector<Tagged> all;
  for (std::size_t t = 0; t < runs.size(); ++t)
    for (std::size_t i = 0; i < runs[t].size(); ++i)
      all.push_back({runs[t][i], t, i});
  std::sort(all.begin(), all.end(), [](const Tagged& x, const Tagged& y) {
    return std::tie(x.value, x.run, x.idx) < std::tie(y.value, y.run, y.idx);
  });
  std::vector<std::size_t> pos(runs.size(), 0);
  for (std::size_t s = 0; s < rank; ++s) ++pos[all[s].run];
  return pos;
}

TEST(MultiwaySelect, MatchesBruteForceWithHeavyTies) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto runs = make_runs(4, 30, 100 + seed, 5);  // universe of 5: ties
    std::vector<std::span<const std::int32_t>> views;
    for (const auto& run : runs) views.emplace_back(run.data(), run.size());
    std::size_t total = 0;
    for (const auto& run : runs) total += run.size();

    for (std::size_t rank = 0; rank <= total; ++rank) {
      const auto actual = multiway_select(
          std::span<const std::span<const std::int32_t>>(views), rank);
      const auto expected = reference_select(runs, rank);
      EXPECT_EQ(actual, expected) << "seed=" << seed << " rank=" << rank;
    }
  }
}

TEST(MultiwaySelect, TwoRunsAgreesWithDiagonalSearchSemantics) {
  // For k = 2 the selection must be the co-rank: prefixes tile the stable
  // merge. Verify via merged-output equivalence.
  const auto input = make_merge_input(Dist::kFewDuplicates, 500, 400, 79);
  std::vector<std::span<const std::int32_t>> views{
      {input.a.data(), input.a.size()}, {input.b.data(), input.b.size()}};
  const auto expected = test::reference_merge(input.a, input.b);
  for (std::size_t rank : {0u, 1u, 250u, 450u, 900u}) {
    const auto pos = multiway_select(
        std::span<const std::span<const std::int32_t>>(views), rank);
    EXPECT_EQ(pos[0] + pos[1], rank);
    // The claimed prefix must be exactly the first `rank` of the merge.
    std::vector<std::int32_t> claimed;
    claimed.insert(claimed.end(), input.a.begin(),
                   input.a.begin() + static_cast<std::ptrdiff_t>(pos[0]));
    claimed.insert(claimed.end(), input.b.begin(),
                   input.b.begin() + static_cast<std::ptrdiff_t>(pos[1]));
    std::sort(claimed.begin(), claimed.end());
    std::vector<std::int32_t> prefix(expected.begin(),
                                     expected.begin() +
                                         static_cast<std::ptrdiff_t>(rank));
    std::sort(prefix.begin(), prefix.end());
    EXPECT_EQ(claimed, prefix) << "rank " << rank;
  }
}

// ---- multiway_select: differential families and the comparison bound ----

enum class SelectFamily {
  kRandom,        // random lengths and keys
  kUnequal,       // empty runs beside runs of 1 and of hundreds
  kAllEqual,      // one key everywhere: run index alone decides
  kDisjointUp,    // run t holds the t-th value range
  kDisjointDown,  // run t holds the (k-1-t)-th value range
  kGiant,         // one big run in the middle, tiny runs around it
  kHeavyTies,     // a universe of 3 keys
};

constexpr SelectFamily kSelectFamilies[] = {
    SelectFamily::kRandom,       SelectFamily::kUnequal,
    SelectFamily::kAllEqual,     SelectFamily::kDisjointUp,
    SelectFamily::kDisjointDown, SelectFamily::kGiant,
    SelectFamily::kHeavyTies};

std::vector<std::vector<std::int32_t>> select_family(SelectFamily family,
                                                     std::size_t k,
                                                     std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<std::int32_t>> runs(k);
  for (std::size_t t = 0; t < k; ++t) {
    std::size_t len = rng.bounded(120);
    std::int32_t base = 0;
    std::uint64_t universe = 1u << 20;
    switch (family) {
      case SelectFamily::kRandom: break;
      case SelectFamily::kUnequal:
        len = t % 3 == 0 ? 0 : t % 3 == 1 ? 1 : 200 + rng.bounded(400);
        break;
      case SelectFamily::kAllEqual: universe = 1; break;
      case SelectFamily::kDisjointUp:
        base = static_cast<std::int32_t>(t) << 20;
        break;
      case SelectFamily::kDisjointDown:
        base = static_cast<std::int32_t>(k - 1 - t) << 20;
        break;
      case SelectFamily::kGiant:
        len = t == k / 2 ? 3000 : rng.bounded(3);
        break;
      case SelectFamily::kHeavyTies: universe = 3; break;
    }
    runs[t].resize(len);
    for (auto& x : runs[t])
      x = base + static_cast<std::int32_t>(rng.bounded(universe));
    std::sort(runs[t].begin(), runs[t].end());
  }
  return runs;
}

/// Ranks 0, 1, total - 1 and total, then `extra` random ones.
std::vector<std::size_t> probe_ranks(std::size_t total, std::size_t extra,
                                     std::uint64_t seed) {
  std::vector<std::size_t> ranks{0, total};
  if (total > 0) ranks.insert(ranks.end(), {1, total - 1});
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < extra; ++i)
    ranks.push_back(rng.bounded(total + 1));
  return ranks;
}

/// The documented worst case of multiway_select: L·(L - 1)/2 comparisons
/// for L = sum_t phi(|run_t|), phi(w) = ceil(log2 w) + 1, phi(0) = 0.
std::uint64_t select_comparison_bound(
    const std::vector<std::vector<std::int32_t>>& runs) {
  std::uint64_t l = 0;
  for (const auto& run : runs)
    if (!run.empty()) l += std::bit_width(run.size() - 1) + 1;
  return l > 0 ? l * (l - 1) / 2 : 0;
}

constexpr std::size_t kSelectRunCounts[] = {1, 2, 3, 5, 8, 31, 32, 33, 64};

TEST(MultiwaySelect, MatchesBruteForceOnEveryFamily) {
  for (SelectFamily family : kSelectFamilies) {
    for (std::size_t k : kSelectRunCounts) {
      const std::uint64_t seed = 1000 * static_cast<std::uint64_t>(family) + k;
      const auto runs = select_family(family, k, seed);
      std::vector<std::span<const std::int32_t>> views(runs.begin(),
                                                       runs.end());
      std::size_t total = 0;
      for (const auto& run : runs) total += run.size();
      for (std::size_t rank : probe_ranks(total, 12, seed)) {
        OpCounts counts;
        const auto actual = multiway_select(
            std::span<const std::span<const std::int32_t>>(views), rank,
            std::less<>{}, &counts);
        ASSERT_EQ(actual, reference_select(runs, rank))
            << "family " << static_cast<int>(family) << " k=" << k
            << " rank=" << rank;
        EXPECT_LE(counts.search_steps, select_comparison_bound(runs))
            << "family " << static_cast<int>(family) << " k=" << k
            << " rank=" << rank;
        EXPECT_EQ(counts.compares + counts.moves + counts.stages, 0u);
      }
    }
  }
}

TEST(MultiwaySelect, ComparisonBoundHoldsOnLongRuns) {
  // Runs long enough that log² n dominates: the bound must hold where the
  // refinement count, not the setup, decides the cost.
  for (SelectFamily family : kSelectFamilies) {
    for (std::size_t k : {2u, 32u}) {
      auto runs = select_family(family, k, 77 + k);
      for (auto& run : runs) {
        const std::size_t len = run.size();
        run.resize(len * 40);
        for (std::size_t i = len; i < run.size(); ++i) run[i] = run[i % len];
        std::sort(run.begin(), run.end());
      }
      std::vector<std::span<const std::int32_t>> views(runs.begin(),
                                                       runs.end());
      std::size_t total = 0;
      for (const auto& run : runs) total += run.size();
      for (std::size_t rank : probe_ranks(total, 20, 5 + k)) {
        OpCounts counts;
        const auto pos = multiway_select(
            std::span<const std::span<const std::int32_t>>(views), rank,
            std::less<>{}, &counts);
        std::size_t sum = 0;
        for (std::size_t p : pos) sum += p;
        EXPECT_EQ(sum, rank);
        EXPECT_LE(counts.search_steps, select_comparison_bound(runs))
            << "family " << static_cast<int>(family) << " k=" << k;
      }
    }
  }
}

TEST(MultiwaySelect, KeyOnlyRecordsSelectTheStablePrefix) {
  // Equal keys are told apart only by their tags (run, position): the
  // selected prefixes must hold exactly the first `rank` records of the
  // stable merge, which takes equal keys by run, then position.
  for (std::size_t k : kSelectRunCounts) {
    for (std::uint64_t universe : {std::uint64_t{1}, std::uint64_t{4}}) {
      const auto keys = engine_runs<std::int32_t>(k, universe, 303 + k);
      std::vector<std::vector<Tagged32>> runs(k);
      std::vector<Tagged32> merged;  // run order, then stable by key
      for (std::size_t t = 0; t < k; ++t) {
        for (std::size_t i = 0; i < keys[t].size(); ++i)
          runs[t].push_back(
              {keys[t][i], static_cast<std::uint32_t>(t << 16 | i)});
        merged.insert(merged.end(), runs[t].begin(), runs[t].end());
      }
      std::stable_sort(merged.begin(), merged.end(), KeyOnlyLess{});
      std::vector<std::span<const Tagged32>> views(runs.begin(), runs.end());
      for (std::size_t rank : probe_ranks(merged.size(), 10, k + universe)) {
        const auto pos = multiway_select(
            std::span<const std::span<const Tagged32>>(views), rank,
            KeyOnlyLess{});
        std::vector<std::uint32_t> got;
        for (std::size_t t = 0; t < k; ++t)
          for (std::size_t i = 0; i < pos[t]; ++i)
            got.push_back(runs[t][i].tag);
        std::vector<std::uint32_t> want;
        for (std::size_t i = 0; i < rank; ++i) want.push_back(merged[i].tag);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << "k=" << k << " u=" << universe
                             << " rank=" << rank;
      }
    }
  }
}

class MultiwayMergeParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(MultiwayMergeParam, MergesCorrectly) {
  const auto [k, threads] = GetParam();
  const auto runs = make_runs(k, 500, 200 + k + threads, 1u << 20);
  const auto result =
      parallel_multiway_merge(runs, Executor{nullptr, threads});
  EXPECT_EQ(result, flatten_sorted(runs));
}

INSTANTIATE_TEST_SUITE_P(
    RunsAndThreads, MultiwayMergeParam,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{8},
                                         std::size_t{13}),
                       ::testing::Values(1u, 4u, 7u)),
    [](const auto& pinfo) {
      // Appended piece by piece: at -O3, GCC 12 reports a false -Wrestrict
      // in the insert-at-front that "literal" + std::string performs.
      std::string name = "k";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_p";
      name += std::to_string(std::get<1>(pinfo.param));
      return name;
    });

TEST(ParallelMultiwayMerge, HeavyDuplicationStableAcrossLanes) {
  const auto runs = make_runs(6, 400, 83, 4);  // tiny universe
  const auto result = parallel_multiway_merge(runs, Executor{nullptr, 5});
  EXPECT_EQ(result, flatten_sorted(runs));
}

TEST(ParallelMultiwayMerge, EmptyAndDegenerate) {
  EXPECT_TRUE(parallel_multiway_merge(
                  std::vector<std::vector<std::int32_t>>{})
                  .empty());
  const std::vector<std::vector<std::int32_t>> some{{}, {1, 2}, {}};
  const auto result = parallel_multiway_merge(some, Executor{nullptr, 4});
  const std::vector<std::int32_t> expected{1, 2};
  EXPECT_EQ(result, expected);
}

}  // namespace
}  // namespace mp
