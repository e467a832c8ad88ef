#pragma once
/// \file simd_entry.hpp
/// Private declarations of the per-ISA interleaved merge loops and
/// register sorts. Each lives in a TU compiled with its own target flags
/// (merge_sse4.cpp with -msse4.2, merge_avx2.cpp with -mavx2,
/// merge_avx512.cpp with -mavx512f -mavx512bw), is explicitly
/// instantiated there for the two admitted key types (int32 and int64),
/// and is reached only through kernels::detail::vector_merge_steps /
/// vector_merge_pass / simd_sort_runs (dispatch.cpp), which never route
/// to an ISA the cpuid probe did not report.
///
/// Loop contract (<isa>_advance): the ISA's vector step run by
/// kernels::detail::chain_advance. It advances chains ch[0, live), live
/// 1 or kVectorChains, one W-key step each per round, and returns as soon
/// as one chain has fewer than W keys left on a side of its pair or fewer
/// than W outputs left in its slice. A step loads W keys at each of the
/// chain's cursors, counts the A-side takes with the anti-diagonal rule
/// k = |{t : a[i+t] <= b[j+W-1-t]}| (the Merge Path diagonal predicate,
/// so the cursors move exactly as merge_steps()'s would), stores the
/// sorted W smallest of the 2W window and moves the cursors by (k, W - k).
/// The cuts, the short windows and the pair crossings belong to the
/// chained body (kernels::detail::chain_merge, instantiated in
/// dispatch.cpp), so no scalar code is compiled with the ISA flags;
/// scripts/check_isa_leak.py checks that nothing with external linkage
/// is. The loop has no software prefetch: with four chains it no longer
/// paid (docs/PERFORMANCE.md).
///
/// The register sorts (simd_sort_common.hpp) share a second contract:
/// sort `blocks` consecutive blocks of `regs` registers' worth of keys in
/// place, `regs` a power of two no larger than kSortRegisters; the caller
/// (kernels::detail::simd_sort_runs) pads a short tail.

#include <cstddef>
#include <cstdint>

#include "kernels/kernels.hpp"

namespace mp::kernels::detail {

/// One chain of a vector merge: key cursors into the pair, output cursors
/// into the slice.
template <typename Key>
using VectorCursor = ChainCursor<const Key*, const Key*, Key*>;

/// An ISA's W-wide merge step S as a chain step: S::step stores the
/// window and returns its A-side take count; the cursors move by it.
template <typename S>
struct WindowStep {
  static constexpr std::size_t kWidth = S::kWidth;
  template <typename Key>
  static void step(const Key*& pa, const Key*& pb, Key*& o) {
    const std::size_t k = S::step(pa, pb, o);
    pa += k;
    pb += kWidth - k;
    o += kWidth;
  }
};

/// The signature every exported interleaved loop shares, for the explicit
/// instantiations in the ISA TUs.
template <typename Key>
using AdvanceFn = void(VectorCursor<Key>* ch, std::size_t live);

/// Chains every ISA's loop interleaves: enough independent load ->
/// compare -> take-count chains to cover one step's latency, few enough
/// that their cursors stay in registers. Measured per ISA on 64 Ki
/// int32 keys per side (docs/PERFORMANCE.md "Chained merges"): AVX-512,
/// AVX2 and SSE4 all run fastest at 4 (2 and 8 are slower everywhere;
/// 6 ties AVX-512 and AVX2 and loses on SSE4).
inline constexpr std::size_t kVectorChains = 4;

template <typename Key>
void sse4_advance(VectorCursor<Key>* ch, std::size_t live);

template <typename Key>
void avx2_advance(VectorCursor<Key>* ch, std::size_t live);

template <typename Key>
void avx512_advance(VectorCursor<Key>* ch, std::size_t live);

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

}  // namespace mp::kernels::detail
