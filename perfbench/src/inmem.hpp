#pragma once
/// \file inmem.hpp
/// Workload `inmem-64mib`: parallel_merge_sort of 16 Mi int32,
/// parallel_merge_sort of 8 Mi 8-byte Zipf-keyed records, and
/// parallel_merge of two sorted 8 Mi int32 halves, back to back in every
/// iteration at p = nproc lanes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.hpp"

namespace pb {

/// 8-byte record: Zipf-distributed key, payload = index in the input, so
/// a byte-exact match with std::stable_sort proves stability.
struct Rec {
  std::int32_t key;
  std::uint32_t index;
};
struct KeyLess {
  bool operator()(const Rec& a, const Rec& b) const { return a.key < b.key; }
};

struct InmemSizes {
  std::size_t i32 = std::size_t{16} << 20;   ///< 64 MiB of int32
  std::size_t rec = std::size_t{8} << 20;    ///< 64 MiB of records
  std::size_t half = std::size_t{8} << 20;   ///< 2 x 32 MiB merge halves
};

struct InmemInputs {
  std::vector<std::int32_t> i32;  ///< uniform over the int32 range
  std::vector<Rec> rec;           ///< Zipf(s = 1) keys over 65536 ranks
  std::vector<std::int32_t> a;    ///< sorted merge half A
  std::vector<std::int32_t> b;    ///< sorted merge half B
};

/// Pure function of (seed, sizes).
InmemInputs make_inmem_inputs(std::uint64_t seed, const InmemSizes& sizes);

/// Layer split of one parallel_merge_sort, measured from outside by
/// replaying its phases through the library's public functions.
struct SortLayers {
  double e2e_ms = 0;         ///< median of the whole sort
  double e2e_iqr_ms = 0;     ///< its quartile distance
  double block_ms = 0;       ///< one n/p block sorted alone
  double block_phase_ms = 0; ///< all p blocks under parallel_for_lanes
  std::vector<double> round_ms;  ///< merge_round_balanced, per round
  double partition_us = 0;   ///< p-1 splitters of the last round
  double residual_ms = 0;    ///< e2e - block_phase - sum(rounds)
  double lane_busy_frac = 0; ///< process CPU / (p x wall) of the sort
};

struct InmemTrace {
  SortLayers i32, rec;
  double merge_ns_per_elem = 0;  ///< merge_steps_auto, one lane
  double forkjoin_us = 0;        ///< empty parallel_for_lanes at p lanes
};

/// Runs the workload (or, with args.trace, its layer split) and fills
/// `result`. `trace_out`, when given, receives the layer split.
void run_inmem(const Args& args, Result& result, const InmemSizes& sizes = {},
               InmemTrace* trace_out = nullptr);

}  // namespace pb
