#pragma once
/// \file merge_soa.hpp
/// Structure-of-arrays merging: one sorted key column plus any number of
/// parallel value columns, merged without materialising row structs.
///
/// Columnar engines (and GPU libraries, where SoA is the default layout)
/// need exactly this shape: the partition is computed on keys alone, and
/// every lane then moves its slice of EVERY column through the same
/// (i, j) cursor sequence. The key observation that makes the multi-column
/// walk cheap is that the cursor sequence is fully determined by the keys,
/// so it is computed once per slice and replayed as a *gather pattern*
/// over the value columns.
///
/// parallel_merge_soa() takes the two key ranges plus a tuple of column
/// pairs; each column pair is (source_a, source_b, destination) expressed
/// as pointers of any (per-column) type.

#include <cstddef>
#include <functional>
#include <span>
#include <tuple>
#include <vector>

#include "core/merge_path.hpp"
#include "core/parallel_merge.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp {

/// One value column of an SoA merge: a[] and b[] are the two inputs
/// (parallel to the key arrays), out[] the destination.
template <typename V>
struct SoaColumn {
  const V* a = nullptr;
  const V* b = nullptr;
  V* out = nullptr;
};

namespace detail {

/// Replays a take-pattern over one column: `takes` holds, per output
/// element of the slice, true = element came from B.
template <typename V>
void replay_column(const SoaColumn<V>& column, std::size_t a_begin,
                   std::size_t b_begin, std::size_t out_begin,
                   const std::vector<bool>& takes) {
  std::size_t i = a_begin, j = b_begin;
  for (std::size_t s = 0; s < takes.size(); ++s) {
    column.out[out_begin + s] = takes[s] ? column.b[j++] : column.a[i++];
  }
}

}  // namespace detail

/// Merges sorted key columns (keys_a, keys_b) into keys_out while carrying
/// every column in `columns` (a tuple of SoaColumn<V>), in parallel.
/// Stable with A-priority on the keys. Value columns are written in one
/// replay pass per column — sequential per column within a lane, so wide
/// tables stream column-at-a-time (cache-friendlier than row-interleaved
/// writes).
template <typename K, typename Comp = std::less<>, typename... Vs>
void parallel_merge_soa(const K* keys_a, std::size_t m, const K* keys_b,
                        std::size_t n, K* keys_out,
                        std::tuple<SoaColumn<Vs>...> columns,
                        Executor exec = {}, Comp comp = {}) {
  const unsigned lanes = exec.resolve_threads();
  const std::size_t total = m + n;
  if (total == 0) return;

  const unsigned used = lanes == 0 ? 1 : lanes;
  exec.run_lanes(used, [&](unsigned lane) {
    const MergeSlice slice =
        merge_slice_for_lane(keys_a, m, keys_b, n, lane, used, comp);
    // Walk the keys once, recording the take pattern and writing keys.
    std::vector<bool> takes(slice.steps);
    std::size_t i = slice.a_begin, j = slice.b_begin;
    for (std::size_t s = 0; s < slice.steps; ++s) {
      const bool has_a = i < m;
      const bool has_b = j < n;
      const bool take_b = !has_a || (has_b && comp(keys_b[j], keys_a[i]));
      takes[s] = take_b;
      keys_out[slice.out_begin + s] = take_b ? keys_b[j++] : keys_a[i++];
    }
    // Replay over every value column.
    std::apply(
        [&](const auto&... column) {
          (detail::replay_column(column, slice.a_begin, slice.b_begin,
                                 slice.out_begin, takes),
           ...);
        },
        columns);
  });
}

}  // namespace mp
