#pragma once
/// \file simd_sort_common.hpp
/// The register-resident block sort shared by every vector kernel.
/// Included only by the per-ISA TUs; `Traits` supplies the register type
/// and five primitives, this template supplies the network:
///
///   using V;                                  the vector register
///   static constexpr std::size_t kLanes;      keys per register
///   static V load(const Key*), store(Key*, V) unaligned
///   static V min(V, V), max(V, V)             lane-wise, in key order
///   template <unsigned X> permute_xor(V)      lane t <- lane t ^ X
///   template <unsigned B> blend(V lo, V hi)   lane t <- t & B ? hi : lo
///
/// A block of R registers (R a power of two, at most kSortRegisters) is
/// sorted in three steps, all data-independent min/max exchanges:
///   1. each register gets a bitonic sort: for block sizes S = 2..L, a
///      flip (lane t against t ^ (S-1)) and then half-cleaners at lane
///      distances S/4..1;
///   2. runs of k sorted registers merge pairwise, k = 1, 2, .., R/2: a
///      flip across the 2k registers (register i against the reverse of
///      register 2k-1-i), then half-cleaners at register distances
///      k/2..1;
///   3. after each merge, a log2(L)-level clean inside every register.
/// Every compare-exchange is a min/max pair, so the network reorders
/// equal keys; it is admitted only for key types whose equal keys are
/// bitwise identical (kernels.hpp, use_vector_merge_v).

#include <bit>
#include <cstddef>
#include <utility>

#include "kernels/simd_entry.hpp"

namespace mp::kernels::detail {

/// Calls f(std::integral_constant<std::size_t, I>{}) for I = 0..N-1,
/// unrolled at compile time so register indices stay constants and the
/// block never leaves the register file.
template <std::size_t N, typename F>
inline void static_for(F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::integral_constant<std::size_t, I>{}), ...);
  }(std::make_index_sequence<N>{});
}

/// Immediate for a 4-field shuffle (2 bits per field) that moves field
/// t ^ x into field t.
constexpr int xor_shuffle_imm(unsigned x) {
  int imm = 0;
  for (unsigned t = 0; t < 4; ++t) imm |= static_cast<int>((t ^ x) << (2 * t));
  return imm;
}

/// Blend mask with `per_lane` bits set for every lane t < lanes with
/// t & b (the lanes that keep the max of an exchange).
constexpr unsigned lane_mask(unsigned lanes, unsigned b, unsigned per_lane) {
  unsigned mask = 0;
  for (unsigned t = 0; t < lanes; ++t)
    if (t & b) mask |= ((1u << per_lane) - 1) << (t * per_lane);
  return mask;
}

/// One exchange level inside a register: lane t meets lane t ^ X, and
/// the lane with t & B set keeps the max.
template <typename Traits, unsigned X, unsigned B>
inline typename Traits::V exchange(typename Traits::V v) {
  const typename Traits::V p = Traits::template permute_xor<X>(v);
  return Traits::template blend<B>(Traits::min(v, p), Traits::max(v, p));
}

/// Half-cleaners at lane distances D, D/2, .., 1: sorts a register that
/// holds a bitonic sequence in every aligned group of 2D lanes.
template <typename Traits, unsigned D>
inline typename Traits::V clean_register(typename Traits::V v) {
  if constexpr (D == 0) {
    return v;
  } else {
    return clean_register<Traits, D / 2>(exchange<Traits, D, D>(v));
  }
}

/// Bitonic sort of one register, from sorted groups of S/2 lanes up.
template <typename Traits, unsigned S = 2>
inline typename Traits::V sort_register(typename Traits::V v) {
  if constexpr (S > Traits::kLanes) {
    return v;
  } else {
    v = clean_register<Traits, S / 4>(exchange<Traits, S - 1, S / 2>(v));
    return sort_register<Traits, 2 * S>(v);
  }
}

/// Half-cleaners across registers at register distances D, D/2, .., 1.
template <typename Traits, std::size_t D, std::size_t R>
inline void clean_across(typename Traits::V (&r)[R]) {
  if constexpr (D > 0) {
    static_for<R>([&](auto j) {
      if constexpr ((j & D) == 0) {
        const typename Traits::V x = r[j];
        r[j] = Traits::min(x, r[j + D]);
        r[j + D] = Traits::max(x, r[j + D]);
      }
    });
    clean_across<Traits, D / 2>(r);
  }
}

/// Merges adjacent runs of K sorted registers pairwise into runs of 2K.
template <typename Traits, std::size_t K, std::size_t R>
inline void merge_register_runs(typename Traits::V (&r)[R]) {
  using V = typename Traits::V;
  constexpr unsigned kReverse = static_cast<unsigned>(Traits::kLanes - 1);
  static_for<R / (2 * K)>([&](auto pair) {
    static_for<K>([&](auto i) {
      constexpr std::size_t lo = pair * 2 * K + i;
      constexpr std::size_t hi = pair * 2 * K + 2 * K - 1 - i;
      // Key p of the 2K-register run meets key 2KL-1-p: the reversed
      // partner register lines them up lane by lane, and the max goes
      // back reversed into the partner's slots.
      const V b = Traits::template permute_xor<kReverse>(r[hi]);
      r[hi] = Traits::template permute_xor<kReverse>(Traits::max(r[lo], b));
      r[lo] = Traits::min(r[lo], b);
    });
  });
  clean_across<Traits, K / 2>(r);
  static_for<R>([&](auto j) {
    r[j] = clean_register<Traits, static_cast<unsigned>(Traits::kLanes / 2)>(
        r[j]);
  });
}

/// Sorts the R * kLanes keys at `data` in place.
template <typename Traits, std::size_t R, typename Key>
inline void sort_block(Key* data) {
  constexpr std::size_t L = Traits::kLanes;
  typename Traits::V r[R];
  static_for<R>([&](auto i) {
    r[i] = sort_register<Traits>(Traits::load(data + i * L));
  });
  static_for<std::bit_width(R) - 1>([&](auto level) {
    merge_register_runs<Traits, std::size_t{1} << level>(r);
  });
  static_for<R>([&](auto i) { Traits::store(data + i * L, r[i]); });
}

/// Sorts `blocks` consecutive blocks of `regs` registers each; `regs` is
/// a power of two no larger than kSortRegisters.
template <typename Traits, typename Key>
void sort_register_blocks(Key* data, std::size_t blocks, std::size_t regs) {
  const auto run = [&](auto block_regs) {
    constexpr std::size_t R = decltype(block_regs)::value;
    for (std::size_t b = 0; b < blocks; ++b)
      sort_block<Traits, R>(data + b * R * Traits::kLanes);
  };
  switch (regs) {
    case 1: return run(std::integral_constant<std::size_t, 1>{});
    case 2: return run(std::integral_constant<std::size_t, 2>{});
    case 4: return run(std::integral_constant<std::size_t, 4>{});
    case 8: return run(std::integral_constant<std::size_t, 8>{});
    default: return run(std::integral_constant<std::size_t, kSortRegisters>{});
  }
}

}  // namespace mp::kernels::detail
