#pragma once
/// \file sort_network.hpp
/// Run formation for the merge sorts: the base case of
/// sequential_merge_sort.
///
/// sort_runs_auto sorts every aligned block of W keys of its input in
/// place and returns W, and sequential_merge_sort starts its merge passes
/// at that width. There are three run-formation paths:
///   - register-resident blocks, for the key types the kernel dispatch
///     already certifies: 16 vector registers of keys (256 int32 or 128
///     64-bit keys under AVX-512, half that under AVX2, a quarter under
///     SSE4), sorted by a bitonic network that never leaves the register
///     file (simd_sort_common.hpp; Chhugani et al., VLDB 2008, and Bramas,
///     arXiv:1704.08579) — each register sorted on its own, then
///     cross-register merges 1+1 -> 2+2 -> 4+4 -> 8+8, each finished
///     inside the registers;
///   - 8-key rank runs, for the trivially copyable types the trait
///     refuses (records, custom comparators, unsigned keys, floats): a
///     branch-free stable rank sort, one comparison per pair, whose runs
///     the chained merge passes take from width 8;
///   - 24-key insertion runs for everything else.
///
/// Gating mirrors the merge dispatch exactly:
///   - compile time: use_vector_merge_v over T*/Comp — int32 and int64
///     keys under std::less. Networks reorder equal keys, so they are
///     admitted only where equal keys are bitwise identical (the same
///     argument that makes the vector merges stable "for free"). Refused
///     types take rank runs when trivially copyable, insertion runs
///     otherwise.
///   - run time: a vector kernel must actually be selected. Forced
///     --kernel scalar runs, MERGEPATH_SIMD=OFF builds and
///     non-x86 hosts keep the insertion-sort runs for admitted types,
///     byte for byte.
/// The PRAM model forms its runs with insertion_sort_fallback directly
/// (pram/simulate.cpp), so its op counts keep their per-step meaning.
/// Every path produces the bytes std::stable_sort would: the rank sort is
/// stable, and the admitted types' equal keys are bitwise identical, so
/// their sorted sequence — and so the merged result, whatever the run
/// width — is unique.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <type_traits>

#include "kernels/kernels.hpp"

namespace mp::kernels {

/// Width of the runs the insertion-sort path forms.
inline constexpr std::size_t kInsertionRunWidth = 24;

/// Width of the runs the rank-sort path forms.
inline constexpr std::size_t kRankRunWidth = 8;

namespace detail {

/// The insertion sort behind 24-key runs, and the base case of the PRAM
/// model's counted sort, whose op counts depend on it.
template <typename T, typename Comp, typename Instr = NoInstrument>
void insertion_sort_fallback(T* data, std::size_t n, Comp comp,
                             Instr* instr = nullptr) {
  for (std::size_t i = 1; i < n; ++i) {
    T value = std::move(data[i]);
    std::size_t j = i;
    while (j > 0) {
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (instr) instr->compare();
      }
      if (!comp(value, data[j - 1])) break;
      data[j] = std::move(data[j - 1]);
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (instr) instr->move();
      }
      --j;
    }
    data[j] = std::move(value);
    if constexpr (!std::is_same_v<Instr, NoInstrument>) {
      if (instr) instr->move();
    }
  }
}

/// Stable rank sort of data[0, k), k <= kRankRunWidth, without a
/// data-dependent branch: x_i goes to slot
///   #{j < i : !comp(x_i, x_j)} + #{j > i : comp(x_j, x_i)},
/// one comparison per pair. The slots start as a copy of the block, so a
/// comparator that is not a strict weak order can only repeat or drop
/// input elements, never emit uninitialised bytes.
template <typename T, typename Comp>
void rank_sort_block(T* data, std::size_t k, Comp comp) {
  static_assert(std::is_trivially_copyable_v<T>);
  alignas(T) unsigned char slots[kRankRunWidth * sizeof(T)];
  std::memcpy(slots, data, k * sizeof(T));
  std::size_t rank[kRankRunWidth] = {};
  // Unrolled, the ranks live in registers instead of a chain of
  // read-modify-writes through memory (measured 3.2 -> 2.1 ns/elem).
#pragma GCC unroll 8
  for (std::size_t i = 0; i < k; ++i) {
#pragma GCC unroll 8
    for (std::size_t j = i + 1; j < k; ++j) {
      const bool j_first = comp(data[j], data[i]);
      rank[i] += j_first;
      rank[j] += !j_first;
    }
  }
  for (std::size_t i = 0; i < k; ++i)
    std::memcpy(slots + rank[i] * sizeof(T), data + i, sizeof(T));
  std::memcpy(data, slots, k * sizeof(T));
}

}  // namespace detail

/// Forms sorted runs over all of [data, data+n): every aligned block of
/// the returned width W is sorted in place (the last one may be short).
/// W is the selected kernel's register-sort width when the trait admits
/// T/Comp and a vector kernel is selected; kRankRunWidth via rank sort
/// when the trait refuses T/Comp and T is trivially copyable; otherwise
/// W = kInsertionRunWidth via insertion sort.
template <typename T, typename Comp = std::less<>>
std::size_t sort_runs_auto(T* data, std::size_t n, Comp comp = {}) {
  if constexpr (use_vector_merge_v<const T*, const T*, T*, Comp>) {
    using Key = detail::simd_key_t<T>;
    if (const std::size_t width = detail::simd_sort_runs<Key>(
            selected_kernel(), reinterpret_cast<Key*>(data), n))
      return width;
  } else if constexpr (std::is_trivially_copyable_v<T>) {
    // Full blocks pass a constant k, so the unrolled loops specialise.
    std::size_t begin = 0;
    for (; n - begin >= kRankRunWidth; begin += kRankRunWidth)
      detail::rank_sort_block(data + begin, kRankRunWidth, comp);
    if (begin < n) detail::rank_sort_block(data + begin, n - begin, comp);
    return kRankRunWidth;
  }
  for (std::size_t begin = 0; begin < n; begin += kInsertionRunWidth)
    detail::insertion_sort_fallback(
        data + begin, std::min(kInsertionRunWidth, n - begin), comp);
  return kInsertionRunWidth;
}

}  // namespace mp::kernels
