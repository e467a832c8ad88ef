#pragma once
/// \file radix_sort.hpp
/// Baseline S15b — parallel LSD radix sort, the comparison-free sorting
/// family Section V's GPU discussion cites (Satish et al. [8] built their
/// GPU sorter around radix + a merge tree).
///
/// Implementation: least-significant-digit radix over 8-bit digits with
/// the classic two-phase parallel pass per digit:
///   1. each lane histograms its contiguous chunk (no communication);
///   2. an exclusive prefix over the p×256 histogram grid assigns every
///      (lane, digit) cell its disjoint output cursor;
///   3. each lane scatters its chunk — stable, because cell cursors
///      advance in input order within a lane and lanes are ordered by the
///      prefix.
/// Signed keys are handled by biasing the top byte (two's-complement
/// order == unsigned order of key XOR sign bit).
///
/// Serves the sort benchmarks as the "when comparisons are not needed"
/// counterpoint: O(N·passes) work, no comparator generality, stable.

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/instrument.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp::baselines {

namespace detail {

/// Order-preserving map to unsigned: flip the sign bit.
inline std::uint32_t radix_key(std::int32_t v) {
  return static_cast<std::uint32_t>(v) ^ 0x80000000u;
}

}  // namespace detail

/// Stable parallel LSD radix sort of 32-bit integers.
template <typename Instr = NoInstrument>
void parallel_radix_sort(std::int32_t* data, std::size_t n,
                         Executor exec = {}, std::span<Instr> instr = {}) {
  if (n <= 1) return;
  const unsigned lanes = exec.resolve_threads();
  MP_CHECK(instr.empty() || instr.size() >= lanes);
  constexpr unsigned kPasses = 4;
  constexpr unsigned kBuckets = 256;

  std::vector<std::int32_t> scratch(n);
  std::int32_t* src = data;
  std::int32_t* dst = scratch.data();

  // p x 256 histogram/cursor grid, rebuilt per pass.
  std::vector<std::array<std::uint64_t, kBuckets>> grid(lanes);

  for (unsigned pass = 0; pass < kPasses; ++pass) {
    const unsigned shift = 8 * pass;

    exec.run_lanes(lanes, [&](unsigned lane) {
      auto& hist = grid[lane];
      hist.fill(0);
      const std::size_t begin = lane * n / lanes;
      const std::size_t end = (lane + 1ull) * n / lanes;
      for (std::size_t i = begin; i < end; ++i)
        ++hist[(detail::radix_key(src[i]) >> shift) & 0xffu];
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (!instr.empty()) instr[lane].move(end - begin);
      }
    });

    // Exclusive prefix in (digit-major, lane-minor) order: all of digit
    // d's output precedes digit d+1's; within a digit, lane order keeps
    // stability. Serial — 256·p cells, negligible.
    std::uint64_t running = 0;
    for (unsigned digit = 0; digit < kBuckets; ++digit) {
      for (unsigned lane = 0; lane < lanes; ++lane) {
        const std::uint64_t count = grid[lane][digit];
        grid[lane][digit] = running;
        running += count;
      }
    }
    MP_ASSERT(running == n);

    exec.run_lanes(lanes, [&](unsigned lane) {
      auto& cursor = grid[lane];
      const std::size_t begin = lane * n / lanes;
      const std::size_t end = (lane + 1ull) * n / lanes;
      for (std::size_t i = begin; i < end; ++i) {
        const unsigned digit =
            (detail::radix_key(src[i]) >> shift) & 0xffu;
        dst[cursor[digit]++] = src[i];
      }
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (!instr.empty()) instr[lane].move(end - begin);
      }
    });
    std::swap(src, dst);
  }
  // kPasses is even, so the result is back in `data` already.
  static_assert(kPasses % 2 == 0);
  MP_ASSERT(src == data);
}

/// Span front-end.
inline void parallel_radix_sort(std::span<std::int32_t> data,
                                Executor exec = {}) {
  parallel_radix_sort(data.data(), data.size(), exec);
}

}  // namespace mp::baselines
