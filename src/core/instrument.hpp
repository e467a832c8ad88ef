#pragma once
/// \file instrument.hpp
/// Operation-counting hooks of the scalar primitives the PRAM model
/// composes (merge_steps, the diagonal searches, multiway_select,
/// LoserTree::pop_n, the insertion sort, segmented_parallel_merge and the
/// baselines). The default NoInstrument inlines to nothing. The PRAM
/// drivers (pram/simulate.hpp) pass one OpCounts per lane and derive
/// modelled parallel time from the per-lane totals; this is how the
/// repository reproduces the paper's speedup figures on a host with fewer
/// cores than the authors' testbed (see DESIGN.md section 2).
///
/// Counted events:
///  - compare:     one key comparison (merge kernel or binary search)
///  - move:        one element copied to an output or staging buffer
///  - search_step: one iteration of the diagonal binary search
///                 (distinguished from `compare` so the parallelisation
///                 overhead term "p·log N" of the work complexity can be
///                 reported separately)
///  - stage:       one element staged into a cyclic buffer (Algorithm 2)

#include <cstdint>

namespace mp {

/// Zero-cost default instrument.
struct NoInstrument {
  void compare(std::uint64_t = 1) {}
  void move(std::uint64_t = 1) {}
  void search_step(std::uint64_t = 1) {}
  void stage(std::uint64_t = 1) {}
};

/// Plain per-lane operation counters.
struct OpCounts {
  std::uint64_t compares = 0;
  std::uint64_t moves = 0;
  std::uint64_t search_steps = 0;
  std::uint64_t stages = 0;

  void compare(std::uint64_t n = 1) { compares += n; }
  void move(std::uint64_t n = 1) { moves += n; }
  void search_step(std::uint64_t n = 1) { search_steps += n; }
  void stage(std::uint64_t n = 1) { stages += n; }

  /// Total countable operations (used as the unit-cost PRAM work measure).
  std::uint64_t total() const {
    return compares + moves + search_steps + stages;
  }

  OpCounts& operator+=(const OpCounts& other) {
    compares += other.compares;
    moves += other.moves;
    search_steps += other.search_steps;
    stages += other.stages;
    return *this;
  }
};

}  // namespace mp
