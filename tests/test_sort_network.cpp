// Tests for src/kernels/sort_network.hpp: run formation for the merge
// sorts. Under every kernel set_kernel accepts on this host and for int32,
// uint32, int64, uint64 and float/double (under a test-local IEEE
// totalOrder comparator), sort_runs_auto is compared byte for byte with
// std::stable_sort of each run at every length 0 .. 2W+17 (W the run
// width it reports) on all-ties, reversed, random and pad-valued inputs
// (keys equal to the tail pad, the type's maximum; +NaN with an
// all-ones payload for the floats), plus signed zeros and NaNs for the
// floats. Only int32 and int64 are admitted to the register network,
// which is data-oblivious, so the 0-1 principle turns the exhaustive 8-
// and 16-key cases into proofs. Forced-scalar runs and MERGEPATH_SIMD=OFF
// builds keep 24-key runs for those two, and every other trivially
// copyable type forms 8-key stable rank-sort runs.

#include "kernels/sort_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_sort.hpp"
#include "test_support.hpp"
#include "util/data_gen.hpp"

namespace mp::kernels {
namespace {

struct KernelGuard {
  Kernel saved = selected_kernel();
  ~KernelGuard() { set_kernel(saved); }
};

std::vector<Kernel> supported_kernels() {
  std::vector<Kernel> out;
  for (Kernel k : kAllKernels)
    if (kernel_supported(k)) out.push_back(k);
  return out;
}

/// The comparator T sorts under here: std::less, or totalOrder for the
/// floats, whose inputs hold NaNs.
template <typename T>
using KeyComp = std::conditional_t<std::is_floating_point_v<T>,
                                   test::TotalOrderLess, std::less<>>;

/// The run width sort_runs_auto uses for T under the selected kernel
/// (an empty call touches nothing and reports it).
template <typename T>
std::size_t run_width() {
  return sort_runs_auto(static_cast<T*>(nullptr), 0, KeyComp<T>{});
}

template <typename T>
bool same_bytes(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

/// Runs sort_runs_auto on `data` under `kernel` and checks every run of
/// the reported width against std::stable_sort of the same slice.
template <typename T, typename Comp>
void expect_runs_like_stable_sort(std::vector<T> data, Comp comp,
                                  Kernel kernel, const char* shape) {
  KernelGuard guard;
  ASSERT_TRUE(set_kernel(kernel));
  auto want = data;
  const std::size_t width = sort_runs_auto(data.data(), data.size(), comp);
  ASSERT_GT(width, 0u);
  for (std::size_t begin = 0; begin < want.size(); begin += width)
    std::stable_sort(want.begin() + static_cast<std::ptrdiff_t>(begin),
                     want.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(begin + width, want.size())),
                     comp);
  ASSERT_TRUE(same_bytes(data, want))
      << to_string(kernel) << " " << shape << " n=" << data.size()
      << " width=" << width << " sizeof=" << sizeof(T);
}

/// Keys that stress the order of T: the type's extremes (for the
/// integers the maximum is the tail pad of the register sort), and for
/// floats the totalOrder maximum (+NaN, all-ones payload), signed zeros,
/// NaNs of both signs with distinct payloads, infinities and denormals.
template <typename T>
std::vector<T> special_keys() {
  using L = std::numeric_limits<T>;
  if constexpr (std::is_floating_point_v<T>) {
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                    std::uint64_t>;
    constexpr Bits kSign = Bits{1} << (sizeof(T) * 8 - 1);
    return {std::bit_cast<T>(static_cast<Bits>(~kSign)),  // +NaN, all ones
            std::bit_cast<T>(static_cast<Bits>(~Bits{0})),  // -NaN, all ones
            T(0.0),
            T(-0.0),
            L::infinity(),
            -L::infinity(),
            L::quiet_NaN(),
            -L::quiet_NaN(),
            std::bit_cast<T>(static_cast<Bits>(std::bit_cast<Bits>(
                                                   L::quiet_NaN()) |
                                               1)),
            std::bit_cast<T>(static_cast<Bits>(kSign | 1)),  // -denorm_min
            L::denorm_min(),
            L::max(),
            L::lowest(),
            T(1.0),
            T(-1.0)};
  } else {
    return {L::max(), L::min(), T(0), T(1),
            static_cast<T>(L::max() - 1)};
  }
}

/// A small-universe key: many ties, both signs where T has them.
template <typename T>
T small_key(std::uint64_t r) {
  if constexpr (std::is_floating_point_v<T>)
    return static_cast<T>(static_cast<int>(r % 17) - 8) / T(4);
  else if constexpr (std::is_signed_v<T>)
    return static_cast<T>(static_cast<int>(r % 33) - 16);
  else
    return static_cast<T>(r % 33);
}

/// Every shape at every length 0 .. 2W+17 under `kernel`.
template <typename T>
void check_all_lengths(Kernel kernel, std::uint64_t seed) {
  KernelGuard guard;
  ASSERT_TRUE(set_kernel(kernel));
  const std::size_t width = run_width<T>();
  const std::vector<T> specials = special_keys<T>();
  std::mt19937_64 rng(seed);
  for (std::size_t n = 0; n <= 2 * width + 17; ++n) {
    std::vector<T> ties(n, small_key<T>(5)), reversed(n), random(n),
        padded(n);
    for (std::size_t i = 0; i < n; ++i) {
      reversed[i] = small_key<T>(n - i);
      random[i] = small_key<T>(rng());
      // One key in three is a special, the pad value among them.
      padded[i] = rng() % 3 == 0 ? specials[rng() % specials.size()]
                                 : small_key<T>(rng());
    }
    std::sort(reversed.begin(), reversed.end(), KeyComp<T>{});
    std::reverse(reversed.begin(), reversed.end());
    expect_runs_like_stable_sort(ties, KeyComp<T>{}, kernel, "ties");
    expect_runs_like_stable_sort(reversed, KeyComp<T>{}, kernel,
                                 "reversed");
    expect_runs_like_stable_sort(random, KeyComp<T>{}, kernel, "random");
    expect_runs_like_stable_sort(padded, KeyComp<T>{}, kernel,
                                 "specials");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// The register network, via the 0-1 principle: a comparator network sorts
// every input iff it sorts every 0-1 input. The network (padding
// included) does not depend on the data, so 2^8 and 2^16 patterns prove
// it for 8 and 16 keys under every kernel.

template <unsigned N>
void expect_zero_one_patterns_sort() {
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    for (unsigned pattern = 0; pattern < (1u << N); ++pattern) {
      std::int32_t d[N];
      for (unsigned i = 0; i < N; ++i) d[i] = (pattern >> i) & 1u;
      ASSERT_GE(sort_runs_auto(d, N), std::size_t{N});
      ASSERT_TRUE(std::is_sorted(d, d + N))
          << to_string(kernel) << " pattern " << pattern;
    }
  }
}

TEST(SortNetwork, Network8SortsAllZeroOnePatterns) {
  expect_zero_one_patterns_sort<8>();
}

TEST(SortNetwork, Network16SortsAllZeroOnePatterns) {
  expect_zero_one_patterns_sort<16>();
}

// ---------------------------------------------------------------------------
// sort_runs_auto equivalence. std::stable_sort is the oracle; for the
// admitted key types equal keys are bitwise identical, so the network's
// instability is unobservable and the comparison can be exact.

TEST(SortSmallAuto, RunWidthIsTheRegisterBlock) {
  // int32 and int64: 16 registers of keys per block under every vector
  // kernel, 24-key insertion runs without one. Every other key type forms
  // 8-key rank runs whatever the kernel.
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    std::size_t bytes = 0;
    if (kernel == Kernel::kSse4) bytes = 16 * 16;
    if (kernel == Kernel::kAvx2) bytes = 16 * 32;
    if (kernel == Kernel::kAvx512) bytes = 16 * 64;
    const auto want = [&](std::size_t key_bytes) {
      return bytes == 0 ? kInsertionRunWidth : bytes / key_bytes;
    };
    EXPECT_EQ(run_width<std::int32_t>(), want(4)) << to_string(kernel);
    EXPECT_EQ(run_width<std::int64_t>(), want(8)) << to_string(kernel);
    EXPECT_EQ(run_width<std::uint32_t>(), kRankRunWidth) << to_string(kernel);
    EXPECT_EQ(run_width<std::uint64_t>(), kRankRunWidth) << to_string(kernel);
    EXPECT_EQ(run_width<float>(), kRankRunWidth) << to_string(kernel);
    EXPECT_EQ(run_width<double>(), kRankRunWidth) << to_string(kernel);
  }
}

TEST(SortSmallAuto, AllLengthsThroughMaxAllKernels) {
  for (Kernel kernel : supported_kernels())
    check_all_lengths<std::int32_t>(kernel, 0x50f7);
}

TEST(SortSmallAuto, AllKeyWidths) {
  for (Kernel kernel : supported_kernels()) {
    check_all_lengths<std::uint32_t>(kernel, 0x5eed);
    check_all_lengths<std::int64_t>(kernel, 0x5eee);
    check_all_lengths<std::uint64_t>(kernel, 0x5eef);
  }
}

TEST(SortSmallAuto, FloatTotalOrderHostileInputs) {
  for (Kernel kernel : supported_kernels()) {
    check_all_lengths<float>(kernel, 0xf1);
    check_all_lengths<double>(kernel, 0xf2);
  }
}

TEST(SortSmallAuto, FullBlocksSortRandomZeroOneInputs) {
  // Beyond the exhaustive small cases: random 0-1 inputs of exactly one
  // full block, where every cross-register merge level runs.
  std::mt19937 rng(0x01);
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    const std::size_t width = run_width<std::int32_t>();
    std::vector<std::int32_t> d(width);
    for (int trial = 0; trial < 4000; ++trial) {
      const unsigned density = rng() % 8 + 1;
      for (auto& x : d) x = rng() % density == 0;
      sort_runs_auto(d.data(), d.size());
      ASSERT_TRUE(std::is_sorted(d.begin(), d.end()))
          << to_string(kernel) << " trial " << trial;
    }
  }
}

TEST(SortSmallAuto, NonAdmittedTypesStaySorted) {
  // Custom comparators and floats are not admitted to the network
  // (reordering their equal keys would be observable); they form 8-key
  // stable rank-sort runs. NaN-free input keeps std::less a valid strict
  // weak order here.
  struct ByHalf {
    bool operator()(int x, int y) const { return x / 2 < y / 2; }
  };
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    // One full run and a short one, each sorted on its own.
    std::vector<int> v{9, 3, 8, 2, 7, 1, 6, 0, 5, 4, 3, 9};
    auto want = v;
    std::stable_sort(want.begin(), want.begin() + kRankRunWidth, ByHalf{});
    std::stable_sort(want.begin() + kRankRunWidth, want.end(), ByHalf{});
    EXPECT_EQ(sort_runs_auto(v.data(), v.size(), ByHalf{}), kRankRunWidth);
    EXPECT_EQ(v, want);

    std::vector<float> f{3.5f, -0.0f, 0.0f, 2.25f, -7.0f, 3.5f};
    auto fwant = f;
    std::stable_sort(fwant.begin(), fwant.end(), std::less<>{});
    EXPECT_EQ(sort_runs_auto(f.data(), f.size(), std::less<>{}),
              kRankRunWidth);
    EXPECT_TRUE(same_bytes(f, fwant));
  }
}

TEST(SortSmallAuto, RankRunsAreStable) {
  // 8-byte {key, index} records under a key-only comparator: every key
  // pattern over three values at every block length 1-8 (so every short
  // last block), behind zero to two full blocks. Ties carry distinct
  // payloads, so an unstable rank would change the bytes.
  struct KeyOnly {
    bool operator()(const KeyedRecord& x, const KeyedRecord& y) const {
      return x.key < y.key;
    }
  };
  std::mt19937 rng(0x8a4c);
  for (std::size_t last = 1; last <= kRankRunWidth; ++last) {
    std::size_t patterns = 1;
    for (std::size_t t = 0; t < last; ++t) patterns *= 3;
    for (std::size_t full = 0; full <= 2; ++full) {
      const std::size_t n = full * kRankRunWidth + last;
      for (std::size_t pattern = 0; pattern < patterns; ++pattern) {
        std::vector<KeyedRecord> v(n);
        for (std::size_t t = 0; t < n; ++t)
          v[t] = KeyedRecord{static_cast<std::int32_t>(rng() % 3),
                             static_cast<std::uint32_t>(t)};
        for (std::size_t t = 0, code = pattern; t < last; ++t, code /= 3)
          v[n - last + t].key = static_cast<std::int32_t>(code % 3);
        auto want = v;
        for (std::size_t begin = 0; begin < n; begin += kRankRunWidth)
          std::stable_sort(want.begin() + static_cast<std::ptrdiff_t>(begin),
                           want.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(begin + kRankRunWidth,
                                                       n)),
                           KeyOnly{});
        ASSERT_EQ(sort_runs_auto(v.data(), n, KeyOnly{}), kRankRunWidth);
        ASSERT_EQ(std::memcmp(v.data(), want.data(), n * sizeof(KeyedRecord)),
                  0)
            << "n=" << n << " pattern=" << pattern;
      }
    }
  }
}

TEST(SortSmallAuto, ForcedScalarMatchesNetworkBytes) {
  // The register sort engages only under a vector kernel and forms wider
  // runs, but the sorted bytes must not depend on the dispatch decision.
  std::mt19937 rng(0x11);
  for (std::size_t n : {8u, 24u, 255u, 256u, 257u, 1000u, 4099u}) {
    std::vector<std::int32_t> a(n), b, scratch(n);
    for (auto& x : a) x = static_cast<std::int32_t>(rng() % 10);
    b = a;
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(Kernel::kScalar));
    sequential_merge_sort(a.data(), scratch.data(), n);
    ASSERT_TRUE(set_kernel(widest_supported()));
    sequential_merge_sort(b.data(), scratch.data(), n);
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

template <typename T>
void expect_sequential_sort_matches(std::size_t n, std::mt19937_64& rng,
                                    Kernel kernel) {
  std::vector<T> data(n);
  const std::vector<T> specials = special_keys<T>();
  for (auto& x : data) {
    if constexpr (std::is_floating_point_v<T>) {
      using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                      std::uint64_t>;
      x = rng() % 8 == 0 ? specials[rng() % specials.size()]
                         : std::bit_cast<T>(static_cast<Bits>(rng()));
    } else {
      x = static_cast<T>(rng() % 1000);
    }
  }
  auto want = data;
  std::stable_sort(want.begin(), want.end(), KeyComp<T>{});
  std::vector<T> scratch(n);
  sequential_merge_sort(data.data(), scratch.data(), n, KeyComp<T>{});
  EXPECT_TRUE(same_bytes(data, want))
      << to_string(kernel) << " sizeof=" << sizeof(T) << " n=" << n;
}

TEST(SortSmallAuto, SequentialMergeSortInheritsTheBaseCase) {
  // End-to-end: the wired base case produces the same bytes as
  // std::stable_sort through sequential_merge_sort, whichever kernel is
  // selected — including float keys under a totalOrder comparator.
  std::mt19937_64 rng(0xba5e);
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    for (std::size_t n : {3000u, 5000u}) {
      expect_sequential_sort_matches<std::int32_t>(n, rng, kernel);
      expect_sequential_sort_matches<std::uint32_t>(n, rng, kernel);
      expect_sequential_sort_matches<std::int64_t>(n, rng, kernel);
      expect_sequential_sort_matches<std::uint64_t>(n, rng, kernel);
      expect_sequential_sort_matches<float>(n, rng, kernel);
      expect_sequential_sort_matches<double>(n, rng, kernel);
    }
  }
}

}  // namespace
}  // namespace mp::kernels
