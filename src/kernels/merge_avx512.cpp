// merge_avx512.cpp — AVX-512 vector merge steps: 16-wide for 32-bit
// keys, 8-wide for 64-bit, run as kVectorChains interleaved chains.
// Compiled with -mavx512f -mavx512bw (bench and docs call this the
// "avx512" kernel); reached only through kernels::detail dispatch after
// cpuid reported both the F and BW subsets.
//
// Same anti-diagonal scheme as merge_avx2.cpp — take count k = |{t :
// a[i+t] <= b[j+W-1-t]}| over the reversed B window, then a
// log2(W)-level bitonic exchange network over lo = min(va, reverse(vb))
// — with two AVX-512 twists:
//   * the take count comes straight from a cmple mask register (the
//     predicate is monotone across lanes, so popcount(mask) is the Merge
//     Path split of the 2W window; no cmpeq/movemask detour), and
//   * exchange levels blend through mask registers
//     (_mm512_mask_mov_epi32) instead of blend immediates.
// Distances 8/4 (32-bit) and 4/2 (64-bit) move whole 128-bit groups, so
// they use shuffle_i32x4/i64x2; the in-lane distances use shuffle_epi32.
// Equal keys compare with <= so ties are taken from A — the same
// A-priority rule as merge_steps().
//
// The register sort (simd_sort_common.hpp) runs here at full width: 16 zmm
// x 16 int32 = 256 keys, or 16 x 8 = 128 for 64-bit keys, per block.

#include "kernels/simd_entry.hpp"

#include <utility>

#include "kernels/simd_intrin.hpp"
#include "kernels/simd_sort_common.hpp"

namespace mp::kernels::detail {
namespace {

// ---------------------------------------------------------------- 32-bit

inline __m512i reverse_epi32(__m512i v) {
  return _mm512_permutexvar_epi32(
      _mm512_setr_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
      v);
}

// Ascending sort of a 16-lane bitonic sequence: exchanges at distances
// 8, 4, 2, 1. Each level pairs lane t with lane t^dist; the mask marks
// the upper lane of each pair (t & dist != 0), which keeps the max.
inline __m512i sort_bitonic_epi32(__m512i v) {
  __m512i sw = _mm512_shuffle_i32x4(v, v, _MM_SHUFFLE(1, 0, 3, 2));  // d=8
  v = _mm512_mask_mov_epi32(_mm512_min_epi32(v, sw), 0xFF00,
                            _mm512_max_epi32(v, sw));
  sw = _mm512_shuffle_i32x4(v, v, _MM_SHUFFLE(2, 3, 0, 1));  // d=4
  v = _mm512_mask_mov_epi32(_mm512_min_epi32(v, sw), 0xF0F0,
                            _mm512_max_epi32(v, sw));
  sw = _mm512_shuffle_epi32(v, _MM_PERM_BADC);  // d=2
  v = _mm512_mask_mov_epi32(_mm512_min_epi32(v, sw), 0xCCCC,
                            _mm512_max_epi32(v, sw));
  sw = _mm512_shuffle_epi32(v, _MM_PERM_CDAB);  // d=1
  v = _mm512_mask_mov_epi32(_mm512_min_epi32(v, sw), 0xAAAA,
                            _mm512_max_epi32(v, sw));
  return v;
}

struct Avx512Step32 {
  static constexpr std::size_t kWidth = 16;
  static std::size_t step(const std::int32_t* pa, const std::int32_t* pb,
                          std::int32_t* po) {
    const __m512i va = _mm512_loadu_si512(pa);
    const __m512i vb = _mm512_loadu_si512(pb);
    const __m512i vbr = reverse_epi32(vb);
    const __mmask16 take_a = _mm512_cmple_epi32_mask(va, vbr);
    _mm512_storeu_si512(po, sort_bitonic_epi32(_mm512_min_epi32(va, vbr)));
    return static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(take_a)));
  }
};

// ---------------------------------------------------------------- 64-bit

inline __m512i reverse_epi64(__m512i v) {
  return _mm512_permutexvar_epi64(_mm512_setr_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                                  v);
}

// Ascending sort of an 8-lane bitonic sequence: distances 4, 2, 1.
inline __m512i sort_bitonic_epi64(__m512i v) {
  __m512i sw = _mm512_shuffle_i64x2(v, v, _MM_SHUFFLE(1, 0, 3, 2));  // d=4
  v = _mm512_mask_mov_epi64(_mm512_min_epi64(v, sw), 0xF0,
                            _mm512_max_epi64(v, sw));
  sw = _mm512_shuffle_i64x2(v, v, _MM_SHUFFLE(2, 3, 0, 1));  // d=2
  v = _mm512_mask_mov_epi64(_mm512_min_epi64(v, sw), 0xCC,
                            _mm512_max_epi64(v, sw));
  sw = _mm512_shuffle_epi32(v, _MM_PERM_BADC);  // d=1 (swap 64-bit halves)
  v = _mm512_mask_mov_epi64(_mm512_min_epi64(v, sw), 0xAA,
                            _mm512_max_epi64(v, sw));
  return v;
}

struct Avx512Step64 {
  static constexpr std::size_t kWidth = 8;
  static std::size_t step(const std::int64_t* pa, const std::int64_t* pb,
                          std::int64_t* po) {
    const __m512i va = _mm512_loadu_si512(pa);
    const __m512i vb = _mm512_loadu_si512(pb);
    const __m512i vbr = reverse_epi64(vb);
    const __mmask8 take_a = _mm512_cmple_epi64_mask(va, vbr);
    _mm512_storeu_si512(po, sort_bitonic_epi64(_mm512_min_epi64(va, vbr)));
    return static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(take_a)));
  }
};

// --------------------------------------------------------- register sort

/// The permutexvar index vector that moves lane t ^ X into lane t.
template <unsigned X, typename Lane, std::size_t... T>
inline __m512i xor_index(std::index_sequence<T...>) {
  alignas(64) static constexpr Lane kIndex[] = {static_cast<Lane>(T ^ X)...};
  return _mm512_load_si512(kIndex);
}

template <typename Key>
struct Avx512Sort {
  using V = __m512i;
  static V load(const Key* p) { return _mm512_loadu_si512(p); }
  static void store(Key* p, V v) { _mm512_storeu_si512(p, v); }
};

struct Avx512Sort32 : Avx512Sort<std::int32_t> {
  using V = __m512i;
  static constexpr std::size_t kLanes = 16;
  static V min(V x, V y) { return _mm512_min_epi32(x, y); }
  static V max(V x, V y) { return _mm512_max_epi32(x, y); }
  template <unsigned X>
  static V permute_xor(V v) {
    if constexpr (X < 4) {  // inside 128-bit groups
      return _mm512_shuffle_epi32(
          v, static_cast<_MM_PERM_ENUM>(xor_shuffle_imm(X)));
    } else if constexpr (X % 4 == 0) {  // whole 128-bit groups
      return _mm512_shuffle_i32x4(v, v, xor_shuffle_imm(X / 4));
    } else {
      return _mm512_permutexvar_epi32(
          xor_index<X, std::int32_t>(std::make_index_sequence<kLanes>{}), v);
    }
  }
  template <unsigned B>
  static V blend(V lo, V hi) {
    return _mm512_mask_mov_epi32(
        lo, static_cast<__mmask16>(lane_mask(kLanes, B, 1)), hi);
  }
};

struct Avx512Sort64 : Avx512Sort<std::int64_t> {
  using V = __m512i;
  static constexpr std::size_t kLanes = 8;
  static V min(V x, V y) { return _mm512_min_epi64(x, y); }
  static V max(V x, V y) { return _mm512_max_epi64(x, y); }
  template <unsigned X>
  static V permute_xor(V v) {
    if constexpr (X == 1) {  // swap the 64-bit halves of each group
      return _mm512_shuffle_epi32(v, _MM_PERM_BADC);
    } else if constexpr (X < 4) {  // inside 256-bit halves
      return _mm512_permutex_epi64(v, xor_shuffle_imm(X));
    } else if constexpr (X % 2 == 0) {  // whole 128-bit groups
      return _mm512_shuffle_i64x2(v, v, xor_shuffle_imm(X / 2));
    } else {
      return _mm512_permutexvar_epi64(
          xor_index<X, std::int64_t>(std::make_index_sequence<kLanes>{}), v);
    }
  }
  template <unsigned B>
  static V blend(V lo, V hi) {
    return _mm512_mask_mov_epi64(
        lo, static_cast<__mmask8>(lane_mask(kLanes, B, 1)), hi);
  }
};

}  // namespace

template <typename Key>
void avx512_sort_blocks(Key* data, std::size_t blocks, std::size_t regs) {
  using Sort =
      std::conditional_t<sizeof(Key) == 4, Avx512Sort32, Avx512Sort64>;
  sort_register_blocks<Sort>(data, blocks, regs);
}

template SortBlocksFn<std::int32_t> avx512_sort_blocks<std::int32_t>;
template SortBlocksFn<std::int64_t> avx512_sort_blocks<std::int64_t>;

template <typename Key>
void avx512_advance(VectorCursor<Key>* ch, std::size_t live) {
  WindowStep<
      std::conditional_t<sizeof(Key) == 4, Avx512Step32, Avx512Step64>>
      step;
  if (live == kVectorChains)
    chain_advance<kVectorChains>(ch, step);
  else
    chain_advance<1>(ch, step);
}

template AdvanceFn<std::int32_t> avx512_advance<std::int32_t>;
template AdvanceFn<std::int64_t> avx512_advance<std::int64_t>;

}  // namespace mp::kernels::detail
