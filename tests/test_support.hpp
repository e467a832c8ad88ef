#pragma once
/// \file test_support.hpp
/// Shared helpers for the test suite.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
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

/// IEEE-754 totalOrder on float and double (-NaN < -inf < ... < -0.0 <
/// +0.0 < ... < +inf < +NaN), for tests whose inputs hold NaNs and signed
/// zeros, where std::less is no strict weak order. The sign-flip bijection
/// maps each bit pattern to an unsigned key whose < is totalOrder:
/// negative values get every bit flipped, the others only the sign bit.
struct TotalOrderLess {
  template <typename T>
  static auto key(T x) {
    static_assert(std::is_floating_point_v<T>);
    using Bits =
        std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
    constexpr Bits kSign = Bits{1} << (sizeof(T) * 8 - 1);
    const auto bits = std::bit_cast<Bits>(x);
    return static_cast<Bits>(bits & kSign ? ~bits : bits | kSign);
  }
  template <typename T>
  bool operator()(T x, T y) const {
    return key(x) < key(y);
  }
};

/// Readable test-parameter name for a distribution.
inline std::string dist_name(Dist dist) { return to_string(dist); }

}  // namespace mp::test
