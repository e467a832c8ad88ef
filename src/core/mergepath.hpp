#pragma once
/// \file mergepath.hpp
/// Umbrella header: the complete public API of the Merge Path library.
///
/// Quick tour (see README.md for a guided version):
///
///   #include "core/mergepath.hpp"
///
///   std::vector<int> s = mp::parallel_merge(a, b);            // Algorithm 1
///   mp::parallel_merge_sort(std::span(v));                    // Section III
///   auto t = mp::segmented_parallel_merge(a, b);               // Algorithm 2
///   auto u = mp::parallel_multiway_merge(runs);                // k-way ext.
///
/// Section IV.C's cache-efficient sort is reproduced under the PRAM and
/// cache models only (mp::pram::simulate_cache_sort, src/pram).
///
/// Thread count and pool are controlled with mp::Executor:
///
///   mp::ThreadPool pool(7);                       // 8-lane machine
///   mp::Executor exec{&pool, 8};
///   mp::parallel_merge(a.data(), a.size(), b.data(), b.size(),
///                      out.data(), exec);
///
/// The same executor can carry a lane-recovery context, so any algorithm
/// retries faulted lanes and hedges stragglers (util/recovery.hpp):
///
///   mp::LaneRecovery recovery;
///   mp::parallel_merge_sort(std::span(v), mp::Executor{&pool, 8, &recovery});
///
/// All algorithms are stable (ties favour the first input / lower run
/// index), generic over random-access iterators and comparators, and
/// lock-free in the sense of the paper: lanes synchronise only at the
/// terminal fork-join barrier.

#include "core/instrument.hpp"        // IWYU pragma: export
#include "core/merge_matrix.hpp"      // IWYU pragma: export
#include "core/merge_path.hpp"        // IWYU pragma: export
#include "core/merge_sort.hpp"        // IWYU pragma: export
#include "core/multiway_merge.hpp"    // IWYU pragma: export
#include "core/parallel_merge.hpp"    // IWYU pragma: export
#include "core/segmented_merge.hpp"   // IWYU pragma: export
#include "core/sequential_merge.hpp"  // IWYU pragma: export
#include "core/set_ops.hpp"           // IWYU pragma: export
#include "core/stream_merger.hpp"     // IWYU pragma: export
#include "util/recovery.hpp"          // IWYU pragma: export

namespace mp {

/// Library version, set from the paper reproduction milestones.
const char* version();

}  // namespace mp
