// Type-genericity suite: the algorithm templates must work for any
// random-access element type + strict-weak-order comparator combination,
// not just int32. Exercises double (NaN-free), int64, non-trivially-
// copyable std::string, and a padded struct with a projection comparator,
// across the main entry points.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/mergepath.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

template <typename T, typename Gen>
std::pair<std::vector<T>, std::vector<T>> sorted_pair(std::size_t m,
                                                      std::size_t n,
                                                      Gen gen) {
  std::pair<std::vector<T>, std::vector<T>> out;
  out.first.resize(m);
  out.second.resize(n);
  for (auto& v : out.first) v = gen();
  for (auto& v : out.second) v = gen();
  std::sort(out.first.begin(), out.first.end());
  std::sort(out.second.begin(), out.second.end());
  return out;
}

template <typename T>
std::vector<T> ref_merge(const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> out(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());
  return out;
}

TEST(GenericTypes, DoubleElements) {
  Xoshiro256 rng(1501);
  auto [a, b] = sorted_pair<double>(2000, 1500,
                                    [&] { return rng.uniform01() * 1e6; });
  const auto expected = ref_merge(a, b);

  std::vector<double> out(3500);
  parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                 Executor{nullptr, 4});
  EXPECT_EQ(out, expected);

  SegmentedConfig seg;
  seg.segment_length = 333;
  segmented_parallel_merge(a.data(), a.size(), b.data(), b.size(),
                           out.data(), seg, Executor{nullptr, 4});
  EXPECT_EQ(out, expected);
}

TEST(GenericTypes, Int64FullRange) {
  Xoshiro256 rng(1503);
  auto [a, b] = sorted_pair<std::int64_t>(3000, 3000, [&] {
    return static_cast<std::int64_t>(rng()) /* full 64-bit range */;
  });
  EXPECT_EQ(parallel_merge(a, b, Executor{nullptr, 6}), ref_merge(a, b));

  auto values = a;
  values.insert(values.end(), b.begin(), b.end());
  auto expected = values;
  std::sort(expected.begin(), expected.end());
  parallel_merge_sort(std::span<std::int64_t>(values), Executor{nullptr, 5});
  EXPECT_EQ(values, expected);
}

TEST(GenericTypes, Strings) {
  Xoshiro256 rng(1505);
  auto gen = [&] {
    std::string s(1 + rng.bounded(12), 'a');
    for (auto& c : s) c = static_cast<char>('a' + rng.bounded(26));
    return s;
  };
  auto [a, b] = sorted_pair<std::string>(500, 400, gen);
  EXPECT_EQ(parallel_merge(a, b, Executor{nullptr, 4}), ref_merge(a, b));

  // Sorting non-trivially-copyable elements through the move paths.
  auto values = a;
  values.insert(values.end(), b.begin(), b.end());
  auto expected = values;
  std::stable_sort(expected.begin(), expected.end());
  parallel_merge_sort(std::span<std::string>(values), Executor{nullptr, 4});
  EXPECT_EQ(values, expected);

  // Multiway with string runs.
  const auto merged = parallel_multiway_merge(
      std::vector<std::vector<std::string>>{a, b, a}, Executor{nullptr, 3});
  EXPECT_EQ(merged.size(), 2 * a.size() + b.size());
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
}

struct Reading {
  double celsius = 0;
  char station[16] = {};
  std::uint32_t id = 0;

  friend bool operator==(const Reading&, const Reading&) = default;
};

TEST(GenericTypes, StructWithProjectionComparator) {
  auto by_temp = [](const Reading& x, const Reading& y) {
    return x.celsius < y.celsius;
  };
  Xoshiro256 rng(1507);
  auto gen = [&] {
    Reading r;
    r.celsius = static_cast<double>(rng.bounded(80)) - 20.0;
    r.id = static_cast<std::uint32_t>(rng());
    return r;
  };
  std::vector<Reading> a(800), b(700);
  for (auto& r : a) r = gen();
  for (auto& r : b) r = gen();
  std::sort(a.begin(), a.end(), by_temp);
  std::sort(b.begin(), b.end(), by_temp);

  std::vector<Reading> out(1500);
  parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                 Executor{nullptr, 5}, by_temp);
  std::vector<Reading> expected(1500);
  std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin(),
             by_temp);
  // Duplicate temperatures abound (integer-degree readings), so equality
  // with std::merge under the projection pins the tie order too.
  EXPECT_EQ(out, expected);
}

TEST(GenericTypes, SetOpsAndStreamMergerOnDoubles) {
  Xoshiro256 rng(1509);
  auto [a, b] = sorted_pair<double>(1000, 900, [&] {
    return static_cast<double>(rng.bounded(500));  // duplicates guaranteed
  });
  std::vector<double> expected;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected));
  EXPECT_EQ(parallel_set_intersection(a, b, Executor{nullptr, 4}), expected);

  StreamMerger<double> merger;
  merger.push_a(std::span<const double>(a));
  merger.push_b(std::span<const double>(b));
  merger.close_a();
  merger.close_b();
  EXPECT_EQ(merger.pull_all(), ref_merge(a, b));
}

TEST(GenericTypes, KthSmallestOnStrings) {
  const std::vector<std::string> a{"apple", "cherry", "grape"};
  const std::vector<std::string> b{"banana", "date", "fig"};
  // Union: apple banana cherry date fig grape.
  EXPECT_EQ(test::element_at_rank(a, b, 0), "apple");
  EXPECT_EQ(test::element_at_rank(a, b, 3), "date");
  EXPECT_EQ(test::element_at_rank(a, b, 5), "grape");
}

}  // namespace
}  // namespace mp
