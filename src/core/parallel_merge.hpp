#pragma once
/// \file parallel_merge.hpp
/// Algorithm 1 of the paper — Parallel Merge.
///
/// Each of p lanes independently (1) computes its starting diagonal
/// (k·(|A|+|B|)/p), (2) binary-searches the intersection of the merge path
/// with that cross diagonal (merge_path.hpp), and (3) runs (|A|+|B|)/p
/// steps of sequential merge writing to a disjoint slice of the output.
/// There is no inter-lane communication; the trailing barrier is the
/// executor's fork-join (Executor::run_lanes), which a recovering executor
/// turns into per-lane retry without a second copy of the lane body.
///
/// Complexity (paper, Section III): time O(N/p + log N), work
/// O(N + p·log N) for N = |A|+|B|.
///
/// pram::counted_parallel_merge counts the same lanes for the PRAM model
/// (DESIGN.md S9/E1).

#include <cstddef>
#include <functional>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_path.hpp"
#include "core/sequential_merge.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp {

/// Work descriptor for one lane of Algorithm 1. Exposed so that callers
/// embedding the merge in larger parallel phases (merge sort's flattened
/// rounds) can compute lane slices themselves.
struct MergeSlice {
  std::size_t a_begin = 0;  ///< first element of A this lane consumes
  std::size_t b_begin = 0;  ///< first element of B this lane consumes
  std::size_t out_begin = 0;  ///< first output position
  std::size_t steps = 0;      ///< number of merge steps (output elements)
};

/// Computes lane `lane` of `lanes`' slice of the merge of (m, n): the
/// starting diagonal, its path intersection, and the step count. Pure
/// function of the inputs; O(log min(m,n)) comparisons.
template <typename IterA, typename IterB, typename Comp = std::less<>,
          typename Instr = NoInstrument>
MergeSlice merge_slice_for_lane(IterA a, std::size_t m, IterB b,
                                std::size_t n, unsigned lane, unsigned lanes,
                                Comp comp = {}, Instr* instr = nullptr) {
  MP_CHECK(lanes >= 1 && lane < lanes);
  const std::size_t total = m + n;
  const std::size_t diag_lo = lane * total / lanes;
  const std::size_t diag_hi = (lane + 1ull) * total / lanes;
  const PathPoint start =
      path_point_on_diagonal(a, m, b, n, diag_lo, comp, instr);
  return MergeSlice{start.i, start.j, diag_lo, diag_hi - diag_lo};
}

/// Algorithm 1 with an explicit executor. Merges sorted [a, a+m) and
/// [b, b+n) into [out, out+m+n); stable with A-priority.
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>>
void parallel_merge(IterA a, std::size_t m, IterB b, std::size_t n,
                    OutIter out, Executor exec = {}, Comp comp = {}) {
  const unsigned lanes = exec.resolve_threads();
  obs::Span merge_span("merge", "n", m + n);

  if (lanes == 1 || m + n <= lanes) {
    // Degenerate cases: one lane merges everything, through the same
    // dispatched kernel the lanes use.
    std::size_t i = 0, j = 0;
    kernels::merge_steps_auto(a, m, b, n, &i, &j, out, m + n, comp);
    return;
  }

  exec.run_lanes(lanes, [&](unsigned lane) {
    MergeSlice slice;
    {
      obs::Span span("merge.partition", "lane", lane);
      slice = merge_slice_for_lane(a, m, b, n, lane, lanes, comp);
    }
    obs::Span span("merge.segment", "lane", lane);
    std::size_t i = slice.a_begin;
    std::size_t j = slice.b_begin;
    // Per-lane kernel: routed through the dispatcher (scalar / SIMD —
    // byte-identical by contract, see src/kernels).
    kernels::merge_steps_auto(a, m, b, n, &i, &j,
                              out + static_cast<std::ptrdiff_t>(slice.out_begin),
                              slice.steps, comp);
  });
}

/// Convenience vector front-end: returns the merged vector.
template <typename T, typename Comp = std::less<>>
std::vector<T> parallel_merge(const std::vector<T>& a, const std::vector<T>& b,
                              Executor exec = {}, Comp comp = {}) {
  std::vector<T> out(a.size() + b.size());
  parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(), exec,
                 comp);
  return out;
}

}  // namespace mp
