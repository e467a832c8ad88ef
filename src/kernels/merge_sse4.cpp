// merge_sse4.cpp — SSE4.2 vector merge steps: 4-wide for 32-bit keys,
// 2-wide for 64-bit, run as kVectorChains interleaved chains (pcmpgtq is
// the SSE4.2 instruction the 64-bit variant needs; the 32-bit min/max are
// SSE4.1). Same scheme as
// merge_avx2.cpp — anti-diagonal take count + bitonic exchange network —
// at half the width; see that TU for the correctness argument. The
// register sort (simd_sort_common.hpp) runs here at a quarter of the
// AVX-512 width: 16 xmm x 4 int32 = 64 keys, or 16 x 2 = 32 for 64-bit.

#include "kernels/simd_entry.hpp"

#include "kernels/simd_intrin.hpp"
#include "kernels/simd_sort_common.hpp"

namespace mp::kernels::detail {
namespace {

// ---------------------------------------------------------------- 32-bit

inline __m128i reverse_epi32(__m128i v) {
  return _mm_shuffle_epi32(v, _MM_SHUFFLE(0, 1, 2, 3));
}

// Ascending sort of a 4-lane bitonic sequence: exchanges at distances
// 2, 1 (blend_epi16 masks address 16-bit halves: 32-bit lane t is bits
// 2t and 2t+1).
inline __m128i sort_bitonic_epi32(__m128i v) {
  __m128i sw = _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2));  // distance 2
  v = _mm_blend_epi16(_mm_min_epi32(v, sw), _mm_max_epi32(v, sw), 0xF0);
  sw = _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1));  // distance 1
  v = _mm_blend_epi16(_mm_min_epi32(v, sw), _mm_max_epi32(v, sw), 0xCC);
  return v;
}

struct Sse4Step32 {
  static constexpr std::size_t kWidth = 4;
  static std::size_t step(const std::int32_t* pa, const std::int32_t* pb,
                          std::int32_t* po) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb));
    const __m128i vbr = reverse_epi32(vb);
    const __m128i lo = _mm_min_epi32(va, vbr);
    const int take_a =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(lo, va)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(po), sort_bitonic_epi32(lo));
    return static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(take_a)));
  }
};

// ---------------------------------------------------------------- 64-bit

inline __m128i min_epi64(__m128i x, __m128i y) {
  return _mm_blendv_epi8(x, y, _mm_cmpgt_epi64(x, y));  // y where x > y
}
inline __m128i max_epi64(__m128i x, __m128i y) {
  return _mm_blendv_epi8(y, x, _mm_cmpgt_epi64(x, y));  // x where x > y
}

inline __m128i reverse_epi64(__m128i v) {
  return _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2));
}

struct Sse4Step64 {
  static constexpr std::size_t kWidth = 2;
  static std::size_t step(const std::int64_t* pa, const std::int64_t* pb,
                          std::int64_t* po) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb));
    const __m128i vbr = reverse_epi64(vb);
    const int gt_mask =
        _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpgt_epi64(va, vbr)));
    const __m128i lo = min_epi64(va, vbr);
    // Two-lane bitonic sort: one exchange at distance 1.
    const __m128i sw = reverse_epi64(lo);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(po),
        _mm_blend_epi16(min_epi64(lo, sw), max_epi64(lo, sw), 0xF0));
    return kWidth - static_cast<std::size_t>(
                        __builtin_popcount(static_cast<unsigned>(gt_mask)));
  }
};

// --------------------------------------------------------- register sort

template <typename Key>
struct Sse4Sort {
  using V = __m128i;
  static V load(const Key* p) {
    return _mm_loadu_si128(reinterpret_cast<const V*>(p));
  }
  static void store(Key* p, V v) {
    _mm_storeu_si128(reinterpret_cast<V*>(p), v);
  }
};

struct Sse4Sort32 : Sse4Sort<std::int32_t> {
  using V = __m128i;
  static constexpr std::size_t kLanes = 4;
  static V min(V x, V y) { return _mm_min_epi32(x, y); }
  static V max(V x, V y) { return _mm_max_epi32(x, y); }
  template <unsigned X>
  static V permute_xor(V v) {
    return _mm_shuffle_epi32(v, xor_shuffle_imm(X));
  }
  template <unsigned B>
  static V blend(V lo, V hi) {  // blend_epi16: two mask bits per lane
    return _mm_blend_epi16(lo, hi, lane_mask(kLanes, B, 2));
  }
};

struct Sse4Sort64 : Sse4Sort<std::int64_t> {
  using V = __m128i;
  static constexpr std::size_t kLanes = 2;
  static V min(V x, V y) { return min_epi64(x, y); }
  static V max(V x, V y) { return max_epi64(x, y); }
  template <unsigned X>
  static V permute_xor(V v) {  // X == 1: swap the two lanes
    return reverse_epi64(v);
  }
  template <unsigned B>
  static V blend(V lo, V hi) {
    return _mm_blend_epi16(lo, hi, lane_mask(kLanes, B, 4));
  }
};

}  // namespace

template <typename Key>
void sse4_sort_blocks(Key* data, std::size_t blocks, std::size_t regs) {
  using Sort = std::conditional_t<sizeof(Key) == 4, Sse4Sort32, Sse4Sort64>;
  sort_register_blocks<Sort>(data, blocks, regs);
}

template SortBlocksFn<std::int32_t> sse4_sort_blocks<std::int32_t>;
template SortBlocksFn<std::int64_t> sse4_sort_blocks<std::int64_t>;

template <typename Key>
void sse4_advance(VectorCursor<Key>* ch, std::size_t live) {
  WindowStep<std::conditional_t<sizeof(Key) == 4, Sse4Step32, Sse4Step64>>
      step;
  if (live == kVectorChains)
    chain_advance<kVectorChains>(ch, step);
  else
    chain_advance<1>(ch, step);
}

template AdvanceFn<std::int32_t> sse4_advance<std::int32_t>;
template AdvanceFn<std::int64_t> sse4_advance<std::int64_t>;

}  // namespace mp::kernels::detail
