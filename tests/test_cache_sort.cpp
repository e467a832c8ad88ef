// Tests for core/cache_sort.hpp (Section IV.C): correctness across sizes,
// cache capacities and thread counts; stability; block-size resolution.

#include "core/cache_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "test_support.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

class CacheSortParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 unsigned>> {};

TEST_P(CacheSortParam, SortsCorrectly) {
  const auto [n, cache_bytes, threads] = GetParam();
  auto data = make_unsorted_values(n, 777 + n + cache_bytes);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  CacheSortConfig config;
  config.cache_bytes = cache_bytes;
  cache_efficient_parallel_sort(data.data(), n, config,
                                Executor{nullptr, threads});
  EXPECT_EQ(data, expected);
}

INSTANTIATE_TEST_SUITE_P(
    SizesCachesThreads, CacheSortParam,
    ::testing::Combine(
        ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{1000}, std::size_t{40000}),
        // Tiny "caches" force many blocks and many merge rounds.
        ::testing::Values(std::size_t{256}, std::size_t{4096},
                          std::size_t{32768}),
        ::testing::Values(1u, 4u, 9u)),
    [](const auto& pinfo) {
      // Appended piece by piece: at -O3, GCC 12 reports a false -Wrestrict
      // in the insert-at-front that "literal" + std::string performs.
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_c";
      name += std::to_string(std::get<1>(pinfo.param));
      name += "_p";
      name += std::to_string(std::get<2>(pinfo.param));
      return name;
    });

TEST(CacheSort, IsStable) {
  Xoshiro256 rng(43);
  std::vector<KeyedRecord> data(6000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i].key = static_cast<std::int32_t>(rng.bounded(7));
    data[i].payload = static_cast<std::uint32_t>(i);
  }
  auto expected = data;
  std::stable_sort(expected.begin(), expected.end());
  CacheSortConfig config;
  config.cache_bytes = 4096;  // many blocks and rounds
  cache_efficient_parallel_sort(data.data(), data.size(), config,
                                Executor{nullptr, 5});
  EXPECT_EQ(data, expected);
}

TEST(CacheSort, BlockSizeResolution) {
  CacheSortConfig config;
  config.cache_bytes = 32 * 1024;
  config.block_fraction = 0.5;
  EXPECT_EQ(config.resolve_block_elems<std::int32_t>(), 4096u);
  config.block_fraction = 0.25;
  EXPECT_EQ(config.resolve_block_elems<std::int32_t>(), 2048u);
  // Degenerate fractions still give a workable block.
  config.block_fraction = 0.0;
  EXPECT_GE(config.resolve_block_elems<std::int32_t>(), 2u);
}

TEST(CacheSort, AlreadySortedAndReversed) {
  std::vector<std::int32_t> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::int32_t>(i);
  auto expected = data;
  CacheSortConfig config;
  config.cache_bytes = 2048;
  cache_efficient_parallel_sort(data.data(), data.size(), config,
                                Executor{nullptr, 4});
  EXPECT_EQ(data, expected);

  std::reverse(data.begin(), data.end());
  cache_efficient_parallel_sort(data.data(), data.size(), config,
                                Executor{nullptr, 4});
  EXPECT_EQ(data, expected);
}

TEST(CacheSort, CustomComparator) {
  auto data = make_unsorted_values(5000, 47);
  auto expected = data;
  std::sort(expected.begin(), expected.end(), std::greater<>{});
  CacheSortConfig config;
  config.cache_bytes = 4096;
  cache_efficient_parallel_sort(std::span<std::int32_t>(data), config,
                                Executor{nullptr, 3}, std::greater<>{});
  EXPECT_EQ(data, expected);
}

TEST(CacheSort, MatchesParallelSortResult) {
  auto data1 = make_unsorted_values(30000, 53);
  auto data2 = data1;
  parallel_merge_sort(data1.data(), data1.size(), Executor{nullptr, 4});
  CacheSortConfig config;
  config.cache_bytes = 16 * 1024;
  cache_efficient_parallel_sort(data2.data(), data2.size(), config,
                                Executor{nullptr, 4});
  EXPECT_EQ(data1, data2);
}

}  // namespace
}  // namespace mp
