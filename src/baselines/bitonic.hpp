#pragma once
/// \file bitonic.hpp
/// Baseline S14 — Batcher's bitonic sorting/merging network [4], the
/// representative of the "problem-size dependent number of processors"
/// family Section V contrasts with Merge Path.
///
/// Work complexity is O(N·log^2 N) for the sort and O(N·log N) for a
/// single merge, versus the merge's lower bound of Θ(N) — the blow-up the
/// baseline comparison (E7) quantifies. The compensation is a fully
/// data-independent schedule. Stages are parallelised over the available
/// lanes (each stage's N/2 compare-exchanges are independent).
///
/// Notes: bitonic networks are not stable, and require power-of-two
/// lengths; non-power inputs are handled by padding with the minimum
/// element on the descending flank (keeps the sequence bitonic), and the
/// pad prefix is dropped on output.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/instrument.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp::baselines {

namespace detail {

inline std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// One half-cleaner pass: for every index pair (i, i^j) with i < (i^j),
/// orders the pair ascending when (i & k) == 0 and descending otherwise
/// (k == 0 means "always ascending" — the merge network case).
template <typename T, typename Comp, typename Instr>
void bitonic_pass(T* data, std::size_t n2, std::size_t k, std::size_t j,
                  Executor exec, Comp comp, std::span<Instr> instr) {
  const unsigned lanes = exec.resolve_threads();
  exec.run_lanes(lanes, [&](unsigned lane) {
    Instr* li = instr.empty() ? nullptr : &instr[lane];
    const std::size_t begin = lane * n2 / lanes;
    const std::size_t end = (lane + 1ull) * n2 / lanes;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t partner = i ^ j;
      if (partner <= i) continue;
      const bool ascending = k == 0 || (i & k) == 0;
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (li) li->compare();
      }
      if (comp(data[partner], data[i]) == ascending) {
        std::swap(data[i], data[partner]);
        if constexpr (!std::is_same_v<Instr, NoInstrument>) {
          if (li) li->move(2);
        }
      }
    }
  });
}

}  // namespace detail

/// Sorts a power-of-two-sized buffer in place with the full bitonic
/// network. Exposed for tests; general callers use bitonic_sort().
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
void bitonic_sort_pow2(T* data, std::size_t n2, Executor exec = {},
                       Comp comp = {}, std::span<Instr> instr = {}) {
  MP_CHECK(n2 != 0 && (n2 & (n2 - 1)) == 0);
  for (std::size_t k = 2; k <= n2; k <<= 1)
    for (std::size_t j = k >> 1; j > 0; j >>= 1)
      detail::bitonic_pass(data, n2, k, j, exec, comp, instr);
}

/// Sorts arbitrary-length data (unstable). Pads internally to a power of
/// two using the minimum element.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
void bitonic_sort(std::span<T> data, Executor exec = {}, Comp comp = {},
                  std::span<Instr> instr = {}) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  const std::size_t n2 = detail::next_pow2(n);
  if (n2 == n) {
    bitonic_sort_pow2(data.data(), n2, exec, comp, instr);
    return;
  }
  const T pad = *std::min_element(data.begin(), data.end(), comp);
  std::vector<T> buf(n2, pad);
  std::copy(data.begin(), data.end(), buf.begin());
  bitonic_sort_pow2(buf.data(), n2, exec, comp, instr);
  std::copy(buf.begin() + static_cast<std::ptrdiff_t>(n2 - n), buf.end(),
            data.begin());
}

/// Merges two sorted arrays with the bitonic merge network (unstable,
/// O(N log N) work): concatenates A with reversed B — a bitonic sequence —
/// and runs the log2(N) half-cleaner stages.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
void bitonic_merge(const T* a, std::size_t m, const T* b, std::size_t n,
                   T* out, Executor exec = {}, Comp comp = {},
                   std::span<Instr> instr = {}) {
  const std::size_t total = m + n;
  if (total == 0) return;
  if (m == 0) {
    std::copy(b, b + n, out);
    return;
  }
  if (n == 0) {
    std::copy(a, a + m, out);
    return;
  }
  const std::size_t n2 = detail::next_pow2(total);
  // Layout: [A ascending | B descending | pad descending-to-min]; the pad
  // value continues the descending flank, keeping the sequence bitonic.
  const T pad = comp(a[0], b[0]) ? a[0] : b[0];
  std::vector<T> buf(n2, pad);
  std::copy(a, a + m, buf.begin());
  std::reverse_copy(b, b + n, buf.begin() + static_cast<std::ptrdiff_t>(m));
  for (std::size_t j = n2 >> 1; j > 0; j >>= 1)
    detail::bitonic_pass(buf.data(), n2, std::size_t{0}, j, exec, comp,
                         instr);
  std::copy(buf.begin() + static_cast<std::ptrdiff_t>(n2 - total), buf.end(),
            out);
}

/// Convenience vector front-end.
template <typename T, typename Comp = std::less<>>
std::vector<T> bitonic_merge(const std::vector<T>& a, const std::vector<T>& b,
                             Executor exec = {}, Comp comp = {}) {
  std::vector<T> out(a.size() + b.size());
  bitonic_merge(a.data(), a.size(), b.data(), b.size(), out.data(), exec,
                comp);
  return out;
}

}  // namespace mp::baselines
