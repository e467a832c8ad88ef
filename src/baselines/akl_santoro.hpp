#pragma once
/// \file akl_santoro.hpp
/// Baseline S12 — Akl & Santoro's merge via recursive median partitioning
/// [5] ("Optimal Parallel Merging and Sorting Without Memory Conflicts",
/// IEEE ToC 1987), as characterised in Section V of the Merge Path paper.
///
/// Scheme: find the output median of (A, B) — the pair of positions (i, j)
/// with i + j = (|A|+|B|)/2 splitting both arrays consistently — then
/// recurse on the two halves, log2(p) rounds in total, producing 2^ceil(lg p)
/// segments that are merged sequentially in parallel. The rounds are
/// inherently sequential (a half can only be split after its parent), which
/// is where the extra log(N)·log(p) term of their complexity
/// O(N/p + log N·log p) comes from — the cost the paper's Section V
/// contrasts with Merge Path's independent, single-round partition.
///
/// The median search is the same co-rank computation as the diagonal
/// intersection (the paper notes the similarity); what differs is the
/// *dependency structure* of the searches. The instrumented run exposes
/// that: search steps here contribute to log p successive phases instead
/// of one.
///
/// For p not a power of two the 2^ceil(lg p) segments are distributed
/// round-robin over the p lanes, which degrades balance — an honest
/// property of the method, reported by experiment E7.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_path.hpp"
#include "core/sequential_merge.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp::baselines {

/// One leaf segment of the recursive partition.
struct AsSegment {
  std::size_t a_begin = 0, a_end = 0;
  std::size_t b_begin = 0, b_end = 0;
  std::size_t out_begin = 0;

  std::size_t total() const { return (a_end - a_begin) + (b_end - b_begin); }
};

/// Builds the recursive median partition down to `rounds` levels (2^rounds
/// leaves). Each round's splits are computed as one parallel phase.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
std::vector<AsSegment> akl_santoro_partition(const T* a, std::size_t m,
                                             const T* b, std::size_t n,
                                             unsigned rounds,
                                             Executor exec = {},
                                             Comp comp = {},
                                             std::span<Instr> instr = {}) {
  std::vector<AsSegment> segments{AsSegment{0, m, 0, n, 0}};
  const unsigned lanes = exec.resolve_threads();
  for (unsigned r = 0; r < rounds; ++r) {
    std::vector<AsSegment> next(2 * segments.size());
    exec.run_lanes(
        static_cast<unsigned>(segments.size()), [&](unsigned idx) {
          Instr* li =
              instr.empty() ? nullptr : &instr[idx % lanes];
          const AsSegment seg = segments[idx];
          const std::size_t sm = seg.a_end - seg.a_begin;
          const std::size_t sn = seg.b_end - seg.b_begin;
          const std::size_t half = (sm + sn) / 2;
          const PathPoint mid = path_point_on_diagonal(
              a + seg.a_begin, sm, b + seg.b_begin, sn, half, comp, li);
          next[2 * idx] = AsSegment{seg.a_begin, seg.a_begin + mid.i,
                                    seg.b_begin, seg.b_begin + mid.j,
                                    seg.out_begin};
          next[2 * idx + 1] =
              AsSegment{seg.a_begin + mid.i, seg.a_end, seg.b_begin + mid.j,
                        seg.b_end, seg.out_begin + half};
        });
    segments = std::move(next);
  }
  return segments;
}

/// Full Akl-Santoro merge: partition into 2^ceil(lg p) segments over
/// ceil(lg p) dependent rounds, then merge the segments with the p lanes
/// (round-robin assignment). Returns the leaf segments (for E7).
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
std::vector<AsSegment> akl_santoro_merge(const T* a, std::size_t m,
                                         const T* b, std::size_t n, T* out,
                                         Executor exec = {}, Comp comp = {},
                                         std::span<Instr> instr = {}) {
  const unsigned lanes = exec.resolve_threads();
  MP_CHECK(instr.empty() || instr.size() >= lanes);
  unsigned rounds = 0;
  while ((1u << rounds) < lanes) ++rounds;

  std::vector<AsSegment> segments =
      akl_santoro_partition(a, m, b, n, rounds, exec, comp, instr);

  exec.run_lanes(lanes, [&](unsigned lane) {
    Instr* li = instr.empty() ? nullptr : &instr[lane];
    for (std::size_t s = lane; s < segments.size(); s += lanes) {
      const AsSegment& seg = segments[s];
      const std::size_t sm = seg.a_end - seg.a_begin;
      const std::size_t sn = seg.b_end - seg.b_begin;
      std::size_t i = 0, j = 0;
      merge_steps(a + seg.a_begin, sm, b + seg.b_begin, sn, &i, &j,
                  out + seg.out_begin, sm + sn, comp, li);
    }
  });
  return segments;
}

/// Convenience vector front-end.
template <typename T, typename Comp = std::less<>>
std::vector<T> akl_santoro_merge(const std::vector<T>& a,
                                 const std::vector<T>& b, Executor exec = {},
                                 Comp comp = {}) {
  std::vector<T> out(a.size() + b.size());
  akl_santoro_merge(a.data(), a.size(), b.data(), b.size(), out.data(), exec,
                    comp);
  return out;
}

}  // namespace mp::baselines
