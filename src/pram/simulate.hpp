#pragma once
/// \file simulate.hpp
/// Drivers that execute the library's algorithms under the PRAM cost model.
///
/// The counted_* drivers run the phases of parallel_merge,
/// parallel_merge_sort and parallel_multiway_merge, lanes inline in lane
/// order, through the counted scalar primitives (core/instrument.hpp), so
/// one counted step is one step of the paper's model; the production
/// entry points count nothing. Each simulate_* function prices the
/// per-lane, per-phase counts with a MachineModel; the SimResult carries
/// the modelled time and the raw work measures, shared by the complexity
/// (E3) and speedup (E1) experiments. Elements are the paper's 32-bit
/// integers; every counted_* driver needs counts.size() >= lanes.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/instrument.hpp"
#include "core/segmented_merge.hpp"
#include "pram/machine.hpp"

namespace mp::pram {

struct SimResult {
  double time_ns = 0.0;            ///< modelled wall time
  double compute_ns = 0.0;         ///< critical-path compute component
  double memory_ns = 0.0;          ///< bandwidth component
  double barrier_ns = 0.0;         ///< synchronisation component
  std::uint64_t work_ops = 0;      ///< total operations over all lanes
  std::uint64_t critical_ops = 0;  ///< sum over phases of max-lane ops
  OpCounts totals;                 ///< aggregate operation breakdown
  unsigned lanes = 1;
  std::uint64_t phases = 0;        ///< fork-join phase count
};

/// parallel_merge_sort's phases: `lanes` block sorts, the flattened
/// rounds (merge_round_balanced: path_point_on_diagonal plus merge_steps
/// per pair a lane's slice overlaps) and a copy-back; one serial sort on
/// lane 0 when lanes == 1 or n <= 24·lanes.
void counted_parallel_merge_sort(std::int32_t* data, std::size_t n,
                                 unsigned lanes, std::span<OpCounts> counts);

/// Algorithm 1: each lane runs merge_slice_for_lane and merge_steps over
/// its slice (lane 0 merges everything when lanes == 1 or m + n <= lanes).
void counted_parallel_merge(const std::int32_t* a, std::size_t m,
                            const std::int32_t* b, std::size_t n,
                            std::int32_t* out, unsigned lanes,
                            std::span<OpCounts> counts);

/// The k-way merge: each lane selects its first rank with
/// multiway_select and pops its quota from a LoserTree, ~log2 k compares
/// per element (two runs included).
void counted_multiway_merge(std::span<const std::span<const std::int32_t>> runs,
                            std::int32_t* out, unsigned lanes,
                            std::span<OpCounts> counts);

/// Plain sequential two-array merge (the Section VI baseline).
SimResult simulate_sequential_merge(const std::vector<std::int32_t>& a,
                                    const std::vector<std::int32_t>& b,
                                    const MachineModel& model);

/// Algorithm 1 with p lanes.
SimResult simulate_parallel_merge(const std::vector<std::int32_t>& a,
                                  const std::vector<std::int32_t>& b,
                                  unsigned lanes, const MachineModel& model);

/// Algorithm 2 (Segmented Parallel Merge) with p lanes.
/// Phase structure: per segment one parallel staging phase, one balanced
/// partition+merge phase and one write-back phase (3·segments barriers);
/// see the function's definition for the pricing approximation.
SimResult simulate_segmented_merge(const std::vector<std::int32_t>& a,
                                   const std::vector<std::int32_t>& b,
                                   unsigned lanes, const MachineModel& model,
                                   SegmentedConfig config = {});

/// Section III parallel merge sort of `data` (copied internally).
SimResult simulate_merge_sort(std::vector<std::int32_t> data, unsigned lanes,
                              const MachineModel& model);

/// One-pass multiway merge sort of `data`: p block sorts, one
/// parallel_multiway_merge of the p runs (k = p) and a copy-back — the
/// fan-in alternative to parallel_merge_sort's log2 p pairwise rounds,
/// driven phase by phase here from the library's building blocks.
SimResult simulate_multiway_sort(std::vector<std::int32_t> data,
                                 unsigned lanes, const MachineModel& model);

/// Block length, in elements, of the Section IV.C sort for a cache budget
/// of `cache_bytes` (0 = host L1d): half the budget, since a block is
/// sorted out of place (block + scratch); at least 2.
std::size_t cache_sort_block_elems(std::size_t cache_bytes);

/// The Section IV.C cache-efficient parallel sort, with `lanes` lanes run
/// inline in lane order. Stage 1 sorts cache_sort_block_elems() blocks one
/// after another, each with counted_parallel_merge_sort on all lanes
/// (Fig. 4).
/// Stage 2 is a binary tree of rounds that merges every pair of adjacent
/// blocks with segmented_parallel_merge (Algorithm 2), all lanes inside each
/// pair, with the segment length L = C/3 of the same budget. Sorts `data`
/// in place and adds each lane's operations to `counts` (at least `lanes`
/// entries). Complexity (paper): O(N/p·log N + N/C·log p·log C).
void cache_sort(std::span<std::int32_t> data, unsigned lanes,
                std::size_t cache_bytes, std::span<OpCounts> counts);

/// cache_sort() of `data` (copied internally), priced: the per-lane totals
/// as one balanced phase plus the analytic barrier count of both stages.
SimResult simulate_cache_sort(std::vector<std::int32_t> data, unsigned lanes,
                              const MachineModel& model,
                              std::size_t cache_bytes = 0);

}  // namespace mp::pram
