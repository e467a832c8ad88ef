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

struct MinMaxI32 {
  static __m128i mn(__m128i x, __m128i y) { return _mm_min_epi32(x, y); }
  static __m128i mx(__m128i x, __m128i y) { return _mm_max_epi32(x, y); }
};
struct MinMaxU32 {
  static __m128i mn(__m128i x, __m128i y) { return _mm_min_epu32(x, y); }
  static __m128i mx(__m128i x, __m128i y) { return _mm_max_epu32(x, y); }
};

inline __m128i reverse_epi32(__m128i v) {
  return _mm_shuffle_epi32(v, _MM_SHUFFLE(0, 1, 2, 3));
}

// Ascending sort of a 4-lane bitonic sequence: exchanges at distances
// 2, 1 (blend_epi16 masks address 16-bit halves: 32-bit lane t is bits
// 2t and 2t+1).
template <typename Ops>
inline __m128i sort_bitonic_epi32(__m128i v) {
  __m128i sw = _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2));  // distance 2
  v = _mm_blend_epi16(Ops::mn(v, sw), Ops::mx(v, sw), 0xF0);
  sw = _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1));  // distance 1
  v = _mm_blend_epi16(Ops::mn(v, sw), Ops::mx(v, sw), 0xCC);
  return v;
}

template <typename Key, typename Ops>
struct Sse4Step32 {
  static constexpr std::size_t kWidth = 4;
  static std::size_t step(const Key* pa, const Key* pb, Key* po) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb));
    const __m128i vbr = reverse_epi32(vb);
    const __m128i lo = Ops::mn(va, vbr);
    const int take_a =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(lo, va)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(po),
                     sort_bitonic_epi32<Ops>(lo));
    return static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(take_a)));
  }
};

// ---------------------------------------------------------------- 64-bit

struct CmpI64 {
  static __m128i gt(__m128i x, __m128i y) { return _mm_cmpgt_epi64(x, y); }
};
struct CmpU64 {
  static __m128i gt(__m128i x, __m128i y) {
    const __m128i bias =
        _mm_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
    return _mm_cmpgt_epi64(_mm_xor_si128(x, bias), _mm_xor_si128(y, bias));
  }
};

template <typename Cmp>
inline __m128i min_epi64(__m128i x, __m128i y) {
  return _mm_blendv_epi8(x, y, Cmp::gt(x, y));  // y where x > y
}
template <typename Cmp>
inline __m128i max_epi64(__m128i x, __m128i y) {
  return _mm_blendv_epi8(y, x, Cmp::gt(x, y));  // x where x > y
}

inline __m128i reverse_epi64(__m128i v) {
  return _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2));
}

template <typename Key, typename Cmp>
struct Sse4Step64 {
  static constexpr std::size_t kWidth = 2;
  static std::size_t step(const Key* pa, const Key* pb, Key* po) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb));
    const __m128i vbr = reverse_epi64(vb);
    const int gt_mask =
        _mm_movemask_pd(_mm_castsi128_pd(Cmp::gt(va, vbr)));
    const __m128i lo = min_epi64<Cmp>(va, vbr);
    // Two-lane bitonic sort: one exchange at distance 1.
    const __m128i sw = reverse_epi64(lo);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(po),
        _mm_blend_epi16(min_epi64<Cmp>(lo, sw), max_epi64<Cmp>(lo, sw), 0xF0));
    return kWidth - static_cast<std::size_t>(
                        __builtin_popcount(static_cast<unsigned>(gt_mask)));
  }
};

// ----------------------------------------------------------------- float
// Total-order float mode: map IEEE bit patterns through the sign-flip
// bijection (non-negative: flip the sign bit; negative: flip all bits) so
// unsigned integer order on the keys equals IEEE totalOrder on the
// floats, run the unsigned window merge, invert before the store. The
// map is bijective, so byte-exactness vs the scalar TotalOrderLess
// kernel carries over from the integer argument.

inline __m128i f32_to_key(__m128i v) {
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  return _mm_xor_si128(v, _mm_or_si128(_mm_srai_epi32(v, 31), bias));
}
inline __m128i f32_from_key(__m128i k) {
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i inv =
      _mm_xor_si128(_mm_srai_epi32(k, 31), _mm_set1_epi32(-1));
  return _mm_xor_si128(k, _mm_or_si128(inv, bias));
}

// No 64-bit arithmetic shift below AVX-512: cmpgt against zero yields the
// same all-ones-when-negative lane mask (pcmpgtq is SSE4.2).
inline __m128i f64_to_key(__m128i v) {
  const __m128i bias =
      _mm_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const __m128i mask = _mm_cmpgt_epi64(_mm_setzero_si128(), v);
  return _mm_xor_si128(v, _mm_or_si128(mask, bias));
}
inline __m128i f64_from_key(__m128i k) {
  const __m128i bias =
      _mm_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const __m128i inv = _mm_xor_si128(_mm_cmpgt_epi64(_mm_setzero_si128(), k),
                                    _mm_set1_epi32(-1));
  return _mm_xor_si128(k, _mm_or_si128(inv, bias));
}

struct Sse4StepF32 {
  static constexpr std::size_t kWidth = 4;
  static std::size_t step(const float* pa, const float* pb, float* po) {
    const __m128i va =
        f32_to_key(_mm_loadu_si128(reinterpret_cast<const __m128i*>(pa)));
    const __m128i vb =
        f32_to_key(_mm_loadu_si128(reinterpret_cast<const __m128i*>(pb)));
    const __m128i vbr = reverse_epi32(vb);
    const __m128i lo = MinMaxU32::mn(va, vbr);
    const int take_a =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(lo, va)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(po),
                     f32_from_key(sort_bitonic_epi32<MinMaxU32>(lo)));
    return static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(take_a)));
  }
};

struct Sse4StepF64 {
  static constexpr std::size_t kWidth = 2;
  static std::size_t step(const double* pa, const double* pb, double* po) {
    const __m128i va =
        f64_to_key(_mm_loadu_si128(reinterpret_cast<const __m128i*>(pa)));
    const __m128i vb =
        f64_to_key(_mm_loadu_si128(reinterpret_cast<const __m128i*>(pb)));
    const __m128i vbr = reverse_epi64(vb);
    const int gt_mask =
        _mm_movemask_pd(_mm_castsi128_pd(CmpU64::gt(va, vbr)));
    const __m128i lo = min_epi64<CmpU64>(va, vbr);
    const __m128i sw = reverse_epi64(lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(po),
                     f64_from_key(_mm_blend_epi16(min_epi64<CmpU64>(lo, sw),
                                                  max_epi64<CmpU64>(lo, sw),
                                                  0xF0)));
    return kWidth - static_cast<std::size_t>(
                        __builtin_popcount(static_cast<unsigned>(gt_mask)));
  }
};

/// The vector step each admitted key type merges with.
template <typename Key>
struct Sse4Steps;
template <>
struct Sse4Steps<std::int32_t> {
  using type = Sse4Step32<std::int32_t, MinMaxI32>;
};
template <>
struct Sse4Steps<std::uint32_t> {
  using type = Sse4Step32<std::uint32_t, MinMaxU32>;
};
template <>
struct Sse4Steps<std::int64_t> {
  using type = Sse4Step64<std::int64_t, CmpI64>;
};
template <>
struct Sse4Steps<std::uint64_t> {
  using type = Sse4Step64<std::uint64_t, CmpU64>;
};
template <>
struct Sse4Steps<float> {
  using type = Sse4StepF32;
};
template <>
struct Sse4Steps<double> {
  using type = Sse4StepF64;
};

// --------------------------------------------------------- register sort

struct NoMap {
  static __m128i to_key(__m128i v) { return v; }
  static __m128i from_key(__m128i v) { return v; }
};
struct F32Map {
  static __m128i to_key(__m128i v) { return f32_to_key(v); }
  static __m128i from_key(__m128i k) { return f32_from_key(k); }
};
struct F64Map {
  static __m128i to_key(__m128i v) { return f64_to_key(v); }
  static __m128i from_key(__m128i k) { return f64_from_key(k); }
};

template <typename Key, typename Map>
struct Sse4Sort {
  using V = __m128i;
  static V load(const Key* p) {
    return Map::to_key(_mm_loadu_si128(reinterpret_cast<const V*>(p)));
  }
  static void store(Key* p, V v) {
    _mm_storeu_si128(reinterpret_cast<V*>(p), Map::from_key(v));
  }
};

template <typename Key, typename Ops, typename Map>
struct Sse4Sort32 : Sse4Sort<Key, Map> {
  using V = __m128i;
  static constexpr std::size_t kLanes = 4;
  static V min(V x, V y) { return Ops::mn(x, y); }
  static V max(V x, V y) { return Ops::mx(x, y); }
  template <unsigned X>
  static V permute_xor(V v) {
    return _mm_shuffle_epi32(v, xor_shuffle_imm(X));
  }
  template <unsigned B>
  static V blend(V lo, V hi) {  // blend_epi16: two mask bits per lane
    return _mm_blend_epi16(lo, hi, lane_mask(kLanes, B, 2));
  }
};

template <typename Key, typename Cmp, typename Map>
struct Sse4Sort64 : Sse4Sort<Key, Map> {
  using V = __m128i;
  static constexpr std::size_t kLanes = 2;
  static V min(V x, V y) { return min_epi64<Cmp>(x, y); }
  static V max(V x, V y) { return max_epi64<Cmp>(x, y); }
  template <unsigned X>
  static V permute_xor(V v) {  // X == 1: swap the two lanes
    return reverse_epi64(v);
  }
  template <unsigned B>
  static V blend(V lo, V hi) {
    return _mm_blend_epi16(lo, hi, lane_mask(kLanes, B, 4));
  }
};

/// The register-sort traits of each admitted key type.
template <typename Key>
struct Sse4Sorts;
template <>
struct Sse4Sorts<std::int32_t> {
  using type = Sse4Sort32<std::int32_t, MinMaxI32, NoMap>;
};
template <>
struct Sse4Sorts<std::uint32_t> {
  using type = Sse4Sort32<std::uint32_t, MinMaxU32, NoMap>;
};
template <>
struct Sse4Sorts<std::int64_t> {
  using type = Sse4Sort64<std::int64_t, CmpI64, NoMap>;
};
template <>
struct Sse4Sorts<std::uint64_t> {
  using type = Sse4Sort64<std::uint64_t, CmpU64, NoMap>;
};
template <>
struct Sse4Sorts<float> {
  using type = Sse4Sort32<float, MinMaxU32, F32Map>;
};
template <>
struct Sse4Sorts<double> {
  using type = Sse4Sort64<double, CmpU64, F64Map>;
};

}  // namespace

template <typename Key>
void sse4_sort_blocks(Key* data, std::size_t blocks, std::size_t regs) {
  sort_register_blocks<typename Sse4Sorts<Key>::type>(data, blocks, regs);
}

template SortBlocksFn<std::int32_t> sse4_sort_blocks<std::int32_t>;
template SortBlocksFn<std::uint32_t> sse4_sort_blocks<std::uint32_t>;
template SortBlocksFn<std::int64_t> sse4_sort_blocks<std::int64_t>;
template SortBlocksFn<std::uint64_t> sse4_sort_blocks<std::uint64_t>;
template SortBlocksFn<float> sse4_sort_blocks<float>;
template SortBlocksFn<double> sse4_sort_blocks<double>;

template <typename Key>
void sse4_advance(VectorCursor<Key>* ch, std::size_t live) {
  WindowStep<typename Sse4Steps<Key>::type> step;
  if (live == kVectorChains)
    chain_advance<kVectorChains>(ch, step);
  else
    chain_advance<1>(ch, step);
}

template AdvanceFn<std::int32_t> sse4_advance<std::int32_t>;
template AdvanceFn<std::uint32_t> sse4_advance<std::uint32_t>;
template AdvanceFn<std::int64_t> sse4_advance<std::int64_t>;
template AdvanceFn<std::uint64_t> sse4_advance<std::uint64_t>;
template AdvanceFn<float> sse4_advance<float>;
template AdvanceFn<double> sse4_advance<double>;

}  // namespace mp::kernels::detail
