#pragma once
/// \file test_support.hpp
/// Shared helpers for the test suite.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/merge_path.hpp"
#include "util/data_gen.hpp"

namespace mp::test {

/// Reference merged output: stable std::merge of the two inputs.
inline std::vector<std::int32_t> reference_merge(
    const std::vector<std::int32_t>& a, const std::vector<std::int32_t>& b) {
  std::vector<std::int32_t> out(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());
  return out;
}

/// The element at 0-based `rank` of the stable merge of sorted `a` and `b`,
/// read off the merge path: at cross diagonal `rank` the path has consumed
/// a[0, i) and b[0, j), and its next step takes A's head unless B's head is
/// strictly smaller. Requires rank < a.size() + b.size().
template <typename T>
const T& element_at_rank(const std::vector<T>& a, const std::vector<T>& b,
                         std::size_t rank) {
  const PathPoint p =
      path_point_on_diagonal(a.data(), a.size(), b.data(), b.size(), rank);
  if (p.j == b.size()) return a[p.i];
  if (p.i == a.size() || b[p.j] < a[p.i]) return b[p.j];
  return a[p.i];
}

/// Readable test-parameter name for a distribution.
inline std::string dist_name(Dist dist) { return to_string(dist); }

}  // namespace mp::test
