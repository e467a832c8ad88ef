// Differential fuzzing: every merge implementation in the repository must
// produce the identical stable merge on randomized (shape, distribution,
// thread-count, parameter) combinations. One seeded generator drives the
// whole schedule, so failures reproduce from the printed seed.

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/baselines.hpp"
#include "dist/distributed_merge.hpp"
#include "core/mergepath.hpp"
#include "pram/simulate.hpp"
#include "test_support.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

struct FuzzCase {
  Dist dist;
  std::size_t m, n;
  unsigned threads;
  std::size_t param;  // segment length and stream pull size
  std::uint64_t seed;
};

FuzzCase draw_case(Xoshiro256& rng) {
  FuzzCase c;
  c.dist = kAllDists[rng.bounded(std::size(kAllDists))];
  // Log-uniform sizes from tiny to mid-size, plus frequent degenerate 0/1.
  auto draw_size = [&]() -> std::size_t {
    switch (rng.bounded(8)) {
      case 0: return 0;
      case 1: return 1;
      default: return std::size_t{1} << rng.bounded(14);
    }
  };
  c.m = draw_size();
  c.n = draw_size();
  c.threads = static_cast<unsigned>(1 + rng.bounded(16));
  c.param = 1 + rng.bounded(4096);
  c.seed = rng();
  return c;
}

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, AllImplementationsAgree) {
  Xoshiro256 rng(0xfeedULL + static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 40; ++iter) {
    const FuzzCase c = draw_case(rng);
    SCOPED_TRACE(::testing::Message()
                 << "dist=" << to_string(c.dist) << " m=" << c.m
                 << " n=" << c.n << " p=" << c.threads
                 << " param=" << c.param << " seed=" << c.seed);
    const auto input = make_merge_input(c.dist, c.m, c.n, c.seed);
    const auto expected = test::reference_merge(input.a, input.b);
    const Executor exec{nullptr, c.threads};
    const std::size_t total = c.m + c.n;
    std::vector<std::int32_t> out(total);

    // Algorithm 1.
    parallel_merge(input.a.data(), c.m, input.b.data(), c.n, out.data(),
                   exec);
    ASSERT_EQ(out, expected) << "parallel_merge";

    // Algorithm 2 with a fuzzed segment length.
    std::fill(out.begin(), out.end(), -1);
    SegmentedConfig seg;
    seg.segment_length = c.param;
    segmented_parallel_merge(input.a.data(), c.m, input.b.data(), c.n,
                             out.data(), seg, exec);
    ASSERT_EQ(out, expected) << "segmented";

    // Baselines.
    ASSERT_EQ(baselines::shiloach_vishkin_merge(input.a, input.b, exec),
              expected)
        << "shiloach_vishkin";
    ASSERT_EQ(baselines::akl_santoro_merge(input.a, input.b, exec), expected)
        << "akl_santoro";
    ASSERT_EQ(baselines::deo_sarkar_merge(input.a, input.b, exec), expected)
        << "deo_sarkar";
    // Bitonic is unstable: compare values only (equal ints are
    // indistinguishable, so direct equality still holds).
    ASSERT_EQ(baselines::bitonic_merge(input.a, input.b, exec), expected)
        << "bitonic";

    // Multiway with k = 2 must coincide with the stable two-way merge.
    ASSERT_EQ(parallel_multiway_merge(
                  std::vector<std::vector<std::int32_t>>{input.a, input.b},
                  exec),
              expected)
        << "multiway";

    // Stream merger fed in fuzzed chunk sizes.
    {
      StreamMerger<std::int32_t> merger({}, exec);
      std::size_t fa = 0, fb = 0;
      std::vector<std::int32_t> got;
      std::vector<std::int32_t> buf(1 + c.param % 257);
      while (!merger.finished()) {
        if (fa < c.m && rng.bounded(2) == 0) {
          const std::size_t len =
              std::min<std::size_t>(1 + rng.bounded(1000), c.m - fa);
          merger.push_a(
              std::span<const std::int32_t>(input.a.data() + fa, len));
          fa += len;
        } else if (fb < c.n && rng.bounded(2) == 0) {
          const std::size_t len =
              std::min<std::size_t>(1 + rng.bounded(1000), c.n - fb);
          merger.push_b(
              std::span<const std::int32_t>(input.b.data() + fb, len));
          fb += len;
        } else {
          if (fa == c.m && merger.a_open()) merger.close_a();
          if (fb == c.n && merger.b_open()) merger.close_b();
          const std::size_t got_n =
              merger.pull(std::span<std::int32_t>(buf));
          got.insert(got.end(), buf.begin(),
                     buf.begin() + static_cast<std::ptrdiff_t>(got_n));
        }
      }
      ASSERT_EQ(got, expected) << "stream_merger";
    }
  }
}

// 8 shards x 40 cases x ~9 implementations each.
INSTANTIATE_TEST_SUITE_P(Shards, DifferentialFuzz, ::testing::Range(0, 8));

class SortFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SortFuzz, AllSortsAgree) {
  Xoshiro256 rng(0xbeefULL + static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 12; ++iter) {
    const std::size_t n = rng.bounded(3) == 0
                              ? rng.bounded(4)
                              : (std::size_t{1} << rng.bounded(15));
    const unsigned threads = static_cast<unsigned>(1 + rng.bounded(12));
    const std::size_t cache = 256u << rng.bounded(8);
    SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << threads
                                      << " cache=" << cache);
    auto data = make_unsorted_values(n, rng());
    auto expected = data;
    std::sort(expected.begin(), expected.end());

    auto d1 = data;
    parallel_merge_sort(d1.data(), n, Executor{nullptr, threads});
    ASSERT_EQ(d1, expected) << "parallel_merge_sort";

    auto d2 = data;
    std::vector<OpCounts> counts(threads);
    pram::cache_sort(d2, threads, cache, counts);
    ASSERT_EQ(d2, expected) << "pram::cache_sort";

    auto d3 = data;
    baselines::bitonic_sort(std::span<std::int32_t>(d3),
                            Executor{nullptr, threads});
    ASSERT_EQ(d3, expected) << "bitonic_sort";
  }
}

// Skewed and duplicate-heavy inputs: zipf key frequencies make long tie
// runs, and tiny-universe / descending inputs stress the co-rank snapping
// of every merge round.
TEST_P(SortFuzz, SkewAndDuplicatesSortExactly) {
  Xoshiro256 rng(0x51a9ULL + static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = rng.bounded(3) == 0 ? rng.bounded(4)
                                              : 100 + rng.bounded(30000);
    SCOPED_TRACE(::testing::Message() << "n=" << n << " iter=" << iter);
    std::vector<std::int32_t> data;
    switch (rng.bounded(3)) {
      case 0:  // zipf-skewed duplicates, shuffled
        data = make_zipf_values(n, 1000, 1.2, rng());
        for (std::size_t i = n; i > 1; --i)
          std::swap(data[i - 1], data[rng.bounded(i)]);
        break;
      case 1:  // tiny universe => almost everything is a tie
        data.resize(n);
        for (auto& v : data) v = static_cast<std::int32_t>(rng.bounded(3));
        break;
      default:  // descending runs (worst case for pre-sorted assumptions)
        data.resize(n);
        for (std::size_t i = 0; i < n; ++i)
          data[i] = static_cast<std::int32_t>(n - i);
        break;
    }
    auto expected = data;
    std::sort(expected.begin(), expected.end());
    const auto threads = static_cast<unsigned>(1 + rng.bounded(12));
    parallel_merge_sort(data.data(), n, Executor{nullptr, threads});
    ASSERT_EQ(data, expected) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, SortFuzz, ::testing::Range(0, 4));

class SetOpsFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SetOpsFuzz, SetOpsAgreeWithStd) {
  Xoshiro256 rng(0xcafeULL + static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 30; ++iter) {
    const Dist dist = kAllDists[rng.bounded(std::size(kAllDists))];
    const std::size_t m = rng.bounded(3000);
    const std::size_t n = rng.bounded(3000);
    const unsigned threads = static_cast<unsigned>(1 + rng.bounded(12));
    SCOPED_TRACE(::testing::Message() << to_string(dist) << " m=" << m
                                      << " n=" << n << " p=" << threads);
    const auto input = make_merge_input(dist, m, n, rng());
    const Executor exec{nullptr, threads};

    std::vector<std::int32_t> expected;
    std::set_intersection(input.a.begin(), input.a.end(), input.b.begin(),
                          input.b.end(), std::back_inserter(expected));
    ASSERT_EQ(parallel_set_intersection(input.a, input.b, exec), expected);

    expected.clear();
    std::set_difference(input.a.begin(), input.a.end(), input.b.begin(),
                        input.b.end(), std::back_inserter(expected));
    ASSERT_EQ(parallel_set_difference(input.a, input.b, exec), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, SetOpsFuzz, ::testing::Range(0, 4));

class ExtensionsFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ExtensionsFuzz, PayloadTopKAndDistributedAgree) {
  Xoshiro256 rng(0xabcdULL + static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 20; ++iter) {
    const Dist dist = kAllDists[rng.bounded(std::size(kAllDists))];
    const std::size_t m = rng.bounded(2000);
    const std::size_t n = rng.bounded(2000);
    const unsigned threads = static_cast<unsigned>(1 + rng.bounded(10));
    SCOPED_TRACE(::testing::Message() << to_string(dist) << " m=" << m
                                      << " n=" << n << " p=" << threads);
    const auto input = make_merge_input(dist, m, n, rng());
    const auto expected = test::reference_merge(input.a, input.b);
    const Executor exec{nullptr, threads};

    // Key/value pairs merged by key alone: the exact std::merge order, so
    // every value stays with its key and ties keep A first.
    {
      using Pair = std::pair<std::int32_t, std::uint32_t>;
      const auto by_key = [](const Pair& x, const Pair& y) {
        return x.first < y.first;
      };
      std::vector<Pair> a(m), b(n);
      for (std::size_t i = 0; i < m; ++i)
        a[i] = {input.a[i], static_cast<std::uint32_t>(i)};
      for (std::size_t j = 0; j < n; ++j)
        b[j] = {input.b[j], static_cast<std::uint32_t>(m + j)};
      std::vector<Pair> want(m + n), out(m + n);
      std::merge(a.begin(), a.end(), b.begin(), b.end(), want.begin(),
                 by_key);
      parallel_merge(a.data(), m, b.data(), n, out.data(), exec, by_key);
      ASSERT_EQ(out, want) << "payload merge";
    }

    // Top k at a random k: one StreamMerger pull is the prefix.
    {
      const std::size_t k = rng.bounded(m + n + 1);
      StreamMerger<std::int32_t> merger({}, exec);
      merger.push_a(std::span<const std::int32_t>(input.a));
      merger.push_b(std::span<const std::int32_t>(input.b));
      merger.close_a();
      merger.close_b();
      std::vector<std::int32_t> out(k);
      ASSERT_EQ(merger.pull(std::span<std::int32_t>(out)), k);
      ASSERT_TRUE(std::equal(out.begin(), out.end(), expected.begin()))
          << "top k=" << k;
    }

    // Distributed: both algorithms over a random rank count.
    {
      const unsigned ranks = static_cast<unsigned>(1 + rng.bounded(9));
      const auto da = dist::distribute(input.a, ranks);
      const auto db = dist::distribute(input.b, ranks);
      ASSERT_EQ(dist::merge_path_exchange(da, db).merged.gathered(),
                expected)
          << "dist exchange r=" << ranks;
      ASSERT_EQ(dist::tree_merge(da, db).merged.gathered(), expected)
          << "dist tree r=" << ranks;
    }
  }
}

TEST_P(ExtensionsFuzz, MultiwayAndDistributedSortsAgree) {
  Xoshiro256 rng(0xdcbaULL + static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = rng.bounded(20000);
    const unsigned threads = static_cast<unsigned>(1 + rng.bounded(10));
    SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << threads);
    const auto values = make_unsorted_values(n, rng());
    auto expected = values;
    std::sort(expected.begin(), expected.end());

    // One block per lane, each sorted, then a single k-way merge.
    auto blocks = values;
    std::vector<std::span<const std::int32_t>> runs;
    for (unsigned t = 0; t < threads; ++t) {
      const std::size_t begin = t * n / threads;
      const std::size_t end = (t + 1ull) * n / threads;
      std::sort(blocks.begin() + static_cast<std::ptrdiff_t>(begin),
                blocks.begin() + static_cast<std::ptrdiff_t>(end));
      runs.emplace_back(blocks.data() + begin, end - begin);
    }
    std::vector<std::int32_t> d1(n);
    parallel_multiway_merge(
        std::span<const std::span<const std::int32_t>>(runs), d1.data(),
        Executor{nullptr, threads});
    ASSERT_EQ(d1, expected) << "parallel_multiway_merge";

    auto d3 = values;
    baselines::parallel_radix_sort(d3.data(), n, Executor{nullptr, threads});
    ASSERT_EQ(d3, expected) << "radix";
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ExtensionsFuzz, ::testing::Range(0, 4));

}  // namespace
}  // namespace mp
