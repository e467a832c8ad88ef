#pragma once
/// \file shiloach_vishkin.hpp
/// Baseline S11 — the partitioned merge of Shiloach & Vishkin [6]
/// ("Finding the maximum, merging, and sorting in a parallel computation
/// model", J. Algorithms 1981), as characterised in Section V of the Merge
/// Path paper.
///
/// Scheme: both arrays are cut into p equal blocks; every block boundary
/// is located in the *other* array by binary search, giving 2p boundary
/// path points. The 2p-1 segments between consecutive boundary points are
/// assigned two-per-processor. Each segment spans at most one A block and
/// one B block, i.e. at most N/p elements, so a processor receives at most
/// 2N/p — the bound the paper quotes: load is balanced only *on average*
/// (N/p), and the worst case costs "a 2X increase in latency" (Section V).
/// Experiment E7 measures the realised max/mean ratio per input shape.
///
/// Tie handling follows the library convention (stable, A-priority), so
/// every boundary is a genuine merge-path point and the output equals the
/// stable merge.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_path.hpp"
#include "core/sequential_merge.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp::baselines {

/// Rank of value `v` in [b, b+n): number of elements strictly less than v.
template <typename T, typename IterB, typename Comp,
          typename Instr = NoInstrument>
std::size_t rank_in(const T& v, IterB b, std::size_t n, Comp comp,
                    Instr* instr = nullptr) {
  std::size_t lo = 0, hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if constexpr (!std::is_same_v<Instr, NoInstrument>) {
      if (instr) instr->search_step();
    }
    if (comp(b[mid], v))
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// Rank counting less-or-equal: number of elements of [a, a+m) that are
/// <= v (first index whose element is strictly greater).
template <typename T, typename IterA, typename Comp,
          typename Instr = NoInstrument>
std::size_t rank_upper_in(const T& v, IterA a, std::size_t m, Comp comp,
                          Instr* instr = nullptr) {
  std::size_t lo = 0, hi = m;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if constexpr (!std::is_same_v<Instr, NoInstrument>) {
      if (instr) instr->search_step();
    }
    if (!comp(v, a[mid]))  // a[mid] <= v
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// The boundary path points (sorted by diagonal) and the per-processor
/// assigned totals of the last partition, for the balance experiment.
struct SvPartition {
  std::vector<PathPoint> points;       ///< 2p boundary points incl. ends
  std::vector<std::size_t> assigned;   ///< total elements per processor

  std::size_t max_total() const {
    std::size_t best = 0;
    for (std::size_t v : assigned) best = std::max(best, v);
    return best;
  }
};

/// Shiloach-Vishkin style parallel merge. Output layout is identical to
/// the stable merge. Returns the partition used (for E7).
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
SvPartition shiloach_vishkin_merge(const T* a, std::size_t m, const T* b,
                                   std::size_t n, T* out, Executor exec = {},
                                   Comp comp = {},
                                   std::span<Instr> instr = {}) {
  const unsigned lanes = exec.resolve_threads();
  MP_CHECK(instr.empty() || instr.size() >= lanes);

  SvPartition part;
  // 2p boundary points: the ends plus p-1 block boundaries per array, each
  // ranked into the other array (one independent parallel phase).
  part.points.assign(2 * lanes, PathPoint{});
  part.points[0] = PathPoint{0, 0};
  part.points[2 * lanes - 1] = PathPoint{m, n};
  if (lanes > 1) {
    exec.run_lanes(
        2 * (lanes - 1), [&](unsigned idx) {
          Instr* li = instr.empty() ? nullptr : &instr[idx % lanes];
          const unsigned k = idx / 2 + 1;
          if (idx % 2 == 0) {
            // A boundary: i = k*m/p, j = #B strictly below A[i]; at i == m
            // (degenerate tiny A) every B element precedes the end.
            const std::size_t i = k * m / lanes;
            const std::size_t j =
                i < m ? rank_in(a[i], b, n, comp, li) : n;
            part.points[2 * k - 1] = PathPoint{i, j};
          } else {
            // B boundary: j = k*n/p, i = #A less-or-equal B[j] (equals go
            // to A first under the stable order).
            const std::size_t j = k * n / lanes;
            const std::size_t i =
                j < n ? rank_upper_in(b[j], a, m, comp, li) : m;
            part.points[2 * k] = PathPoint{i, j};
          }
        });
  }
  // All boundaries lie on the single merge path, so ordering by diagonal
  // (ties impossible: one path point per diagonal) restores monotonicity.
  std::sort(part.points.begin(), part.points.end(),
            [](const PathPoint& x, const PathPoint& y) {
              return x.diagonal() < y.diagonal();
            });
  MP_ASSERT(validate_partition(a, m, b, n, part.points, comp));

  // Segments between consecutive points, two per processor.
  part.assigned.assign(lanes, 0);
  exec.run_lanes(lanes, [&](unsigned lane) {
    Instr* li = instr.empty() ? nullptr : &instr[lane];
    std::size_t assigned = 0;
    for (std::size_t seg = 2 * lane;
         seg < std::min<std::size_t>(2 * lane + 2, part.points.size() - 1);
         ++seg) {
      const PathPoint lo = part.points[seg];
      const PathPoint hi = part.points[seg + 1];
      const std::size_t sm = hi.i - lo.i;
      const std::size_t sn = hi.j - lo.j;
      std::size_t i = 0, j = 0;
      merge_steps(a + lo.i, sm, b + lo.j, sn, &i, &j, out + lo.diagonal(),
                  sm + sn, comp, li);
      assigned += sm + sn;
    }
    part.assigned[lane] = assigned;
  });
  return part;
}

/// Convenience vector front-end.
template <typename T, typename Comp = std::less<>>
std::vector<T> shiloach_vishkin_merge(const std::vector<T>& a,
                                      const std::vector<T>& b,
                                      Executor exec = {}, Comp comp = {}) {
  std::vector<T> out(a.size() + b.size());
  shiloach_vishkin_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                         exec, comp);
  return out;
}

}  // namespace mp::baselines
