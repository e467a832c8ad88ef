#pragma once
/// \file cache_sort.hpp
/// Cache-efficient parallel sort — Section IV.C of the paper.
///
/// Stage 1: partition the unsorted input into equisized blocks whose size is
/// a fraction of the cache capacity C, and sort the blocks one after the
/// other, each with the (in-cache) parallel merge sort on all p lanes
/// (Fig. 4 of the paper).
///
/// Stage 2: a binary tree of merge rounds; every pair of sorted blocks is
/// merged with the cache-efficient Segmented Parallel Merge (Algorithm 2),
/// one pair at a time, all p lanes cooperating inside each pair.
///
/// Complexity (paper): O(N/p·log N + N/C·log p·log C) time.

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_sort.hpp"
#include "core/segmented_merge.hpp"
#include "util/assert.hpp"
#include "util/hw.hpp"
#include "util/threading.hpp"

namespace mp {

struct CacheSortConfig {
  /// Cache capacity in bytes the working set should fit; 0 = host L1d.
  std::size_t cache_bytes = 0;
  /// Fraction of the cache one block may occupy in stage 1. A block is
  /// sorted out-of-place (block + scratch), so 1/2 keeps the working set
  /// within the cache.
  double block_fraction = 0.5;
  /// Configuration forwarded to the stage-2 segmented merges. Its
  /// cache_bytes defaults to this struct's value when left at 0.
  SegmentedConfig merge;

  template <typename T>
  std::size_t resolve_block_elems() const {
    const std::size_t bytes =
        cache_bytes > 0 ? cache_bytes : host_info().l1d_bytes();
    auto elems = static_cast<std::size_t>(
        static_cast<double>(bytes / sizeof(T)) * block_fraction);
    return elems >= 2 ? elems : 2;
  }
};

/// Sorts [data, data+n) stably. `instr` (optional, per lane) accumulates
/// operation counts over both stages.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
void cache_efficient_parallel_sort(T* data, std::size_t n,
                                   CacheSortConfig config = {},
                                   Executor exec = {}, Comp comp = {},
                                   std::span<Instr> instr = {}) {
  if (n <= 1) return;
  const std::size_t block = config.resolve_block_elems<T>();
  SegmentedConfig merge_cfg = config.merge;
  if (merge_cfg.cache_bytes == 0) merge_cfg.cache_bytes = config.cache_bytes;

  // Stage 1: sort cache-sized blocks one by one, each with all p lanes.
  std::vector<Run> runs;
  for (std::size_t begin = 0; begin < n; begin += block) {
    const std::size_t end = std::min(begin + block, n);
    parallel_merge_sort(data + begin, end - begin, exec, comp, instr);
    runs.push_back(Run{begin, end});
  }

  // Stage 2: binary merge tree; each pair merged with Algorithm 2.
  // Uninitialised: each merge's lanes write their own slices first.
  const auto scratch = std::make_unique_for_overwrite<T[]>(n);
  T* src = data;
  T* dst = scratch.get();
  while (runs.size() > 1) {
    std::vector<Run> merged;
    merged.reserve((runs.size() + 1) / 2);
    for (std::size_t t = 0; 2 * t < runs.size(); ++t) {
      const Run a = runs[2 * t];
      if (2 * t + 1 < runs.size()) {
        const Run b = runs[2 * t + 1];
        MP_ASSERT(b.begin == a.end);
        segmented_parallel_merge(src + a.begin, a.size(), src + b.begin,
                                 b.size(), dst + a.begin, merge_cfg, exec,
                                 comp, instr);
        merged.push_back(Run{a.begin, b.end});
      } else {
        // Unpaired trailing run: carry it over to the other buffer.
        for (std::size_t i = a.begin; i < a.end; ++i) dst[i] = src[i];
        if constexpr (!std::is_same_v<Instr, NoInstrument>) {
          if (!instr.empty()) instr[0].move(a.size());
        }
        merged.push_back(a);
      }
    }
    runs = std::move(merged);
    std::swap(src, dst);
  }
  if (src != data) {
    const unsigned lanes = exec.resolve_threads();
    exec.run_lanes(lanes, [&](unsigned lane) {
      const std::size_t begin = lane * n / lanes;
      const std::size_t end = (lane + 1ull) * n / lanes;
      for (std::size_t i = begin; i < end; ++i) data[i] = std::move(src[i]);
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (!instr.empty()) instr[lane].move(end - begin);
      }
    });
  }
}

/// Convenience span front-end.
template <typename T, typename Comp = std::less<>>
void cache_efficient_parallel_sort(std::span<T> data,
                                   CacheSortConfig config = {},
                                   Executor exec = {}, Comp comp = {}) {
  cache_efficient_parallel_sort(data.data(), data.size(), config, exec, comp);
}

}  // namespace mp
