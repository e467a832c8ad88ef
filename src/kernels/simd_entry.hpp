#pragma once
/// \file simd_entry.hpp
/// Private declarations of the per-ISA vector merge loops and register
/// sorts. Each lives in a TU compiled with its own target flags
/// (merge_sse4.cpp with -msse4.2, merge_avx2.cpp with -mavx2,
/// merge_avx512.cpp with -mavx512f -mavx512bw), is explicitly
/// instantiated there for the six admitted key types
/// (int32/uint32/int64/uint64/float/double), and is reached only through
/// kernels::detail::simd_loop / simd_sort_runs, which never route to an
/// ISA the cpuid probe did not report.
/// Shared loop contract: merge full W-wide steps while both windows hold >= W
/// unconsumed elements and >= W steps remain, advance *a_pos / *b_pos
/// exactly as merge_steps() would, return elements written; the caller
/// runs the scalar tail. The float/double loops implement the total-order
/// float mode: sign-flip bijection on load, unsigned integer window merge,
/// inverse bijection on store (byte-exact vs the scalar kernel under
/// TotalOrderLess).
/// The register sorts (simd_sort_common.hpp) share a second contract:
/// sort `blocks` consecutive blocks of `regs` registers' worth of keys in
/// place, `regs` a power of two no larger than kSortRegisters; the caller
/// (kernels::detail::simd_sort_runs) pads a short tail.

#include <cstddef>
#include <cstdint>

namespace mp::kernels::detail {

/// The signature every exported loop shares, for the explicit
/// instantiations in the ISA TUs.
template <typename Key>
using LoopFn = std::size_t(const Key* a, std::size_t m, const Key* b,
                           std::size_t n, std::size_t* a_pos,
                           std::size_t* b_pos, Key* out, std::size_t steps);

/// Registers in one full sort block: 16 x 16 int32 = 256 keys under
/// AVX-512, 16 x 8 = 128 for 64-bit keys, and half / a quarter of that
/// under AVX2 / SSE4.
inline constexpr std::size_t kSortRegisters = 16;

template <typename Key>
using SortBlocksFn = void(Key* data, std::size_t blocks, std::size_t regs);

template <typename Key>
void sse4_sort_blocks(Key* data, std::size_t blocks, std::size_t regs);

template <typename Key>
void avx2_sort_blocks(Key* data, std::size_t blocks, std::size_t regs);

template <typename Key>
void avx512_sort_blocks(Key* data, std::size_t blocks, std::size_t regs);

template <typename Key>
std::size_t sse4_loop(const Key* a, std::size_t m, const Key* b,
                      std::size_t n, std::size_t* a_pos, std::size_t* b_pos,
                      Key* out, std::size_t steps);

template <typename Key>
std::size_t avx2_loop(const Key* a, std::size_t m, const Key* b,
                      std::size_t n, std::size_t* a_pos, std::size_t* b_pos,
                      Key* out, std::size_t steps);

template <typename Key>
std::size_t avx512_loop(const Key* a, std::size_t m, const Key* b,
                        std::size_t n, std::size_t* a_pos, std::size_t* b_pos,
                        Key* out, std::size_t steps);

}  // namespace mp::kernels::detail
