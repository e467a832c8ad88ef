// merge_avx2.cpp — AVX2 vector merge steps: 8-wide for 32-bit keys,
// 4-wide for 64-bit, run as kVectorChains interleaved chains. Compiled
// with -mavx2 (bench/docs call this the "avx2" kernel); reached only
// through kernels::detail dispatch after cpuid reported AVX2.
//
// Per vector step (width W):
//   va  = a[i .. i+W)                      (ascending)
//   vbr = reverse(b[j .. j+W))             (descending)
//   k   = |{t : a[i+t] <= b[j+W-1-t]}|     anti-diagonal take count; the
//         predicate is monotone (a row ascends, the reversed b row
//         descends) so k is the Merge Path split of this 2W window and
//         advancing (i += k, j += W-k) lands exactly where the scalar
//         A-priority kernel would after W steps.
//   lo  = min(va, vbr)                     the W smallest of the window,
//         as a bitonic sequence (ascending prefix of A-half, descending
//         suffix of B-half), finished by a log2(W)-level bitonic
//         min/max exchange network into ascending order.
// Equal keys compare with <=, so ties are taken from A — the same
// A-priority rule as merge_steps(); integer keys make "the sorted W
// smallest" bitwise equal to the scalar outputs.
//
// The register sort (simd_sort_common.hpp) runs here at half the AVX-512
// width: 16 ymm x 8 int32 = 128 keys, or 16 x 4 = 64 for 64-bit keys.

#include "kernels/simd_entry.hpp"

#include <utility>

#include "kernels/simd_intrin.hpp"
#include "kernels/simd_sort_common.hpp"

namespace mp::kernels::detail {
namespace {

// ---------------------------------------------------------------- 32-bit

inline __m256i reverse_epi32(__m256i v) {
  return _mm256_permutevar8x32_epi32(v,
                                     _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0));
}

// Ascending sort of an 8-lane bitonic sequence: exchanges at distances
// 4, 2, 1. Each level pairs lane t with lane t^dist; the lower lane of
// each pair keeps the min (blend mask selects the max into the upper).
inline __m256i sort_bitonic_epi32(__m256i v) {
  __m256i sw = _mm256_permute2x128_si256(v, v, 0x01);  // distance 4
  v = _mm256_blend_epi32(_mm256_min_epi32(v, sw), _mm256_max_epi32(v, sw),
                         0xF0);
  sw = _mm256_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2));  // distance 2
  v = _mm256_blend_epi32(_mm256_min_epi32(v, sw), _mm256_max_epi32(v, sw),
                         0xCC);
  sw = _mm256_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1));  // distance 1
  v = _mm256_blend_epi32(_mm256_min_epi32(v, sw), _mm256_max_epi32(v, sw),
                         0xAA);
  return v;
}

struct Avx2Step32 {
  static constexpr std::size_t kWidth = 8;
  static std::size_t step(const std::int32_t* pa, const std::int32_t* pb,
                          std::int32_t* po) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb));
    const __m256i vbr = reverse_epi32(vb);
    const __m256i lo = _mm256_min_epi32(va, vbr);
    // Lane t took from A iff min(va,vbr) == va there, i.e. a <= b (ties
    // land on A: min picks va when equal).
    const int take_a = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(lo, va)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(po),
                        sort_bitonic_epi32(lo));
    return static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(take_a)));
  }
};

// ---------------------------------------------------------------- 64-bit

inline __m256i min_epi64(__m256i x, __m256i y) {
  return _mm256_blendv_epi8(x, y, _mm256_cmpgt_epi64(x, y));  // y where x > y
}
inline __m256i max_epi64(__m256i x, __m256i y) {
  return _mm256_blendv_epi8(y, x, _mm256_cmpgt_epi64(x, y));  // x where x > y
}

inline __m256i reverse_epi64(__m256i v) {
  return _mm256_permute4x64_epi64(v, _MM_SHUFFLE(0, 1, 2, 3));
}

// Ascending sort of a 4-lane bitonic sequence: distances 2, 1.
inline __m256i sort_bitonic_epi64(__m256i v) {
  __m256i sw = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(1, 0, 3, 2));
  v = _mm256_blend_epi32(min_epi64(v, sw), max_epi64(v, sw), 0xF0);
  sw = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(2, 3, 0, 1));
  v = _mm256_blend_epi32(min_epi64(v, sw), max_epi64(v, sw), 0xCC);
  return v;
}

struct Avx2Step64 {
  static constexpr std::size_t kWidth = 4;
  static std::size_t step(const std::int64_t* pa, const std::int64_t* pb,
                          std::int64_t* po) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb));
    const __m256i vbr = reverse_epi64(vb);
    // a <= b is the complement of a > b lane-wise.
    const int gt_mask =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(va, vbr)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(po),
                        sort_bitonic_epi64(min_epi64(va, vbr)));
    return kWidth - static_cast<std::size_t>(
                        __builtin_popcount(static_cast<unsigned>(gt_mask)));
  }
};

// --------------------------------------------------------- register sort

/// The permutevar8x32 index vector that moves lane t ^ X into lane t.
template <unsigned X, std::size_t... T>
inline __m256i xor_index_epi32(std::index_sequence<T...>) {
  alignas(32) static constexpr std::int32_t kIndex[] = {
      static_cast<std::int32_t>(T ^ X)...};
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(kIndex));
}

template <typename Key>
struct Avx2Sort {
  using V = __m256i;
  static V load(const Key* p) {
    return _mm256_loadu_si256(reinterpret_cast<const V*>(p));
  }
  static void store(Key* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<V*>(p), v);
  }
};

struct Avx2Sort32 : Avx2Sort<std::int32_t> {
  using V = __m256i;
  static constexpr std::size_t kLanes = 8;
  static V min(V x, V y) { return _mm256_min_epi32(x, y); }
  static V max(V x, V y) { return _mm256_max_epi32(x, y); }
  template <unsigned X>
  static V permute_xor(V v) {
    if constexpr (X < 4) {  // inside 128-bit halves
      return _mm256_shuffle_epi32(v, xor_shuffle_imm(X));
    } else if constexpr (X == 4) {  // swap the halves
      return _mm256_permute2x128_si256(v, v, 0x01);
    } else {
      return _mm256_permutevar8x32_epi32(
          v, xor_index_epi32<X>(std::make_index_sequence<kLanes>{}));
    }
  }
  template <unsigned B>
  static V blend(V lo, V hi) {
    return _mm256_blend_epi32(lo, hi, lane_mask(kLanes, B, 1));
  }
};

struct Avx2Sort64 : Avx2Sort<std::int64_t> {
  using V = __m256i;
  static constexpr std::size_t kLanes = 4;
  static V min(V x, V y) { return min_epi64(x, y); }
  static V max(V x, V y) { return max_epi64(x, y); }
  template <unsigned X>
  static V permute_xor(V v) {
    if constexpr (X == 1) {  // swap the 64-bit halves of each 128 bits
      return _mm256_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2));
    } else {
      return _mm256_permute4x64_epi64(v, xor_shuffle_imm(X));
    }
  }
  template <unsigned B>
  static V blend(V lo, V hi) {
    return _mm256_blend_epi32(lo, hi, lane_mask(kLanes, B, 2));
  }
};

}  // namespace

template <typename Key>
void avx2_sort_blocks(Key* data, std::size_t blocks, std::size_t regs) {
  using Sort = std::conditional_t<sizeof(Key) == 4, Avx2Sort32, Avx2Sort64>;
  sort_register_blocks<Sort>(data, blocks, regs);
}

template SortBlocksFn<std::int32_t> avx2_sort_blocks<std::int32_t>;
template SortBlocksFn<std::int64_t> avx2_sort_blocks<std::int64_t>;

template <typename Key>
void avx2_advance(VectorCursor<Key>* ch, std::size_t live) {
  WindowStep<std::conditional_t<sizeof(Key) == 4, Avx2Step32, Avx2Step64>>
      step;
  if (live == kVectorChains)
    chain_advance<kVectorChains>(ch, step);
  else
    chain_advance<1>(ch, step);
}

template AdvanceFn<std::int32_t> avx2_advance<std::int32_t>;
template AdvanceFn<std::int64_t> avx2_advance<std::int64_t>;

}  // namespace mp::kernels::detail
