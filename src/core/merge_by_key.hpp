#pragma once
/// \file merge_by_key.hpp
/// Key/value parallel merge and bounded ("first-k") merges.
///
/// Two extensions every production consumer of Merge Path ends up needing
/// (both ship in the algorithm's descendants, e.g. ModernGPU / CUB):
///
///  - parallel_merge_by_key(): merge two sorted key arrays while carrying
///    a value payload per element, without materialising (key, value)
///    structs. The partition is computed on the keys only; each lane then
///    moves keys and values through the same slice. Stable with
///    A-priority like everything in this library.
///
///  - merge_first_k(): produce only the first k elements of the merged
///    output in O(k/p + log min(|A|,|B|)) parallel time. The co-rank at
///    diagonal k (one binary search) bounds the inputs, after which the
///    job is an ordinary parallel merge of the two prefixes. This is the
///    top-k building block: k smallest of two sorted arrays.
///
///  - kth_smallest(): order statistic of the merged sequence without
///    merging, in O(log min(|A|,|B|)) — a direct read of the co-rank.

#include <cstddef>
#include <functional>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_path.hpp"
#include "core/parallel_merge.hpp"
#include "core/sequential_merge.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp {

namespace detail {

/// Bounded key/value merge kernel: the merge_steps() twin that moves a
/// value alongside every key.
template <typename KeyIt, typename ValIt, typename KeyIt2, typename ValIt2,
          typename KeyOut, typename ValOut, typename Comp,
          typename Instr = NoInstrument>
void merge_by_key_steps(KeyIt ka, ValIt va, std::size_t m, KeyIt2 kb,
                        ValIt2 vb, std::size_t n, std::size_t* a_pos,
                        std::size_t* b_pos, KeyOut key_out, ValOut val_out,
                        std::size_t steps, Comp comp,
                        Instr* instr = nullptr) {
  std::size_t i = *a_pos;
  std::size_t j = *b_pos;
  MP_ASSERT(steps <= (m - i) + (n - j));
  std::size_t remaining = steps;
  while (remaining > 0 && i < m && j < n) {
    if constexpr (!std::is_same_v<Instr, NoInstrument>) {
      if (instr) instr->compare();
    }
    if (comp(kb[j], ka[i])) {
      *key_out++ = kb[j];
      *val_out++ = vb[j];
      ++j;
    } else {
      *key_out++ = ka[i];
      *val_out++ = va[i];
      ++i;
    }
    if constexpr (!std::is_same_v<Instr, NoInstrument>) {
      if (instr) instr->move(2);
    }
    --remaining;
  }
  while (remaining > 0 && i < m) {
    *key_out++ = ka[i];
    *val_out++ = va[i];
    ++i;
    --remaining;
  }
  while (remaining > 0 && j < n) {
    *key_out++ = kb[j];
    *val_out++ = vb[j];
    ++j;
    --remaining;
  }
  *a_pos = i;
  *b_pos = j;
}

}  // namespace detail

/// Merges (keys_a, values_a) and (keys_b, values_b) — both sorted by key —
/// into (keys_out, values_out). Stable with A-priority. The partition is
/// computed on keys only; values are never compared.
template <typename KeyIt, typename ValIt, typename KeyIt2, typename ValIt2,
          typename KeyOut, typename ValOut, typename Comp = std::less<>>
void parallel_merge_by_key(KeyIt keys_a, ValIt values_a, std::size_t m,
                           KeyIt2 keys_b, ValIt2 values_b, std::size_t n,
                           KeyOut keys_out, ValOut values_out,
                           Executor exec = {}, Comp comp = {}) {
  const unsigned lanes = exec.resolve_threads();
  if (lanes == 1 || m + n <= lanes) {
    std::size_t i = 0, j = 0;
    detail::merge_by_key_steps(keys_a, values_a, m, keys_b, values_b, n, &i,
                               &j, keys_out, values_out, m + n, comp);
    return;
  }
  exec.run_lanes(lanes, [&](unsigned lane) {
    const MergeSlice slice =
        merge_slice_for_lane(keys_a, m, keys_b, n, lane, lanes, comp);
    std::size_t i = slice.a_begin;
    std::size_t j = slice.b_begin;
    detail::merge_by_key_steps(
        keys_a, values_a, m, keys_b, values_b, n, &i, &j,
        keys_out + static_cast<std::ptrdiff_t>(slice.out_begin),
        values_out + static_cast<std::ptrdiff_t>(slice.out_begin),
        slice.steps, comp);
  });
}

/// Convenience vector front-end; returns {keys, values}.
template <typename K, typename V, typename Comp = std::less<>>
std::pair<std::vector<K>, std::vector<V>> parallel_merge_by_key(
    const std::vector<K>& keys_a, const std::vector<V>& values_a,
    const std::vector<K>& keys_b, const std::vector<V>& values_b,
    Executor exec = {}, Comp comp = {}) {
  MP_CHECK(keys_a.size() == values_a.size());
  MP_CHECK(keys_b.size() == values_b.size());
  std::pair<std::vector<K>, std::vector<V>> out;
  out.first.resize(keys_a.size() + keys_b.size());
  out.second.resize(out.first.size());
  parallel_merge_by_key(keys_a.data(), values_a.data(), keys_a.size(),
                        keys_b.data(), values_b.data(), keys_b.size(),
                        out.first.data(), out.second.data(), exec, comp);
  return out;
}

/// Writes the first k elements of the merge of (A, B) to out — the k
/// smallest of the union, in order, stable. k must be <= m + n.
/// O(k/p + log min(m, n)) parallel time: one co-rank bounds the inputs,
/// then Algorithm 1 runs on the prefixes.
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>>
void merge_first_k(IterA a, std::size_t m, IterB b, std::size_t n,
                   OutIter out, std::size_t k, Executor exec = {},
                   Comp comp = {}) {
  MP_CHECK(k <= m + n);
  if (k == 0) return;
  const PathPoint cut = path_point_on_diagonal(a, m, b, n, k, comp);
  parallel_merge(a, cut.i, b, cut.j, out, exec, comp);
}

/// The k-th smallest element (0-based rank) of the merged sequence,
/// without merging: O(log min(m, n)). rank must be < m + n.
template <typename IterA, typename IterB, typename Comp = std::less<>>
auto kth_smallest(IterA a, std::size_t m, IterB b, std::size_t n,
                  std::size_t rank, Comp comp = {}) {
  MP_CHECK(rank < m + n);
  // The element at output position `rank` is the one consumed by the path
  // step from diagonal `rank` to `rank + 1`.
  const PathPoint pt = path_point_on_diagonal(a, m, b, n, rank, comp);
  if (pt.i >= m) return b[pt.j];
  if (pt.j >= n) return a[pt.i];
  // Stable order: the next consumed element is A's when A[i] <= B[j].
  return comp(b[pt.j], a[pt.i]) ? b[pt.j] : a[pt.i];
}

}  // namespace mp
