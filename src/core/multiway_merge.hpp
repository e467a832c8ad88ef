#pragma once
/// \file multiway_merge.hpp
/// k-way merging built on the Merge Path machinery — the natural extension
/// of the paper's two-way algorithm (and the direction its successors, e.g.
/// GPU Merge Path, took).
///
/// Four components:
///  - LoserTree: classic sequential k-way merge in O(N log k) comparisons,
///    one element per tournament. Kept as the PRAM model's k-way lane body
///    (pram::counted_multiway_merge) and as the reference order.
///  - multiway_merge(): the same stable order from a balanced tree of
///    pairwise Merge Path merges (kernels::merge_steps_auto) — ceil(log2 k)
///    streaming passes of the dispatched two-way kernel instead of a
///    per-element tournament. The lane body and the pipeline's
///    block-batched merge units.
///  - multiway_select(): multisequence selection — finds, for a global rank
///    r, the unique stable split positions across the k runs such that the
///    union of the prefixes is exactly the r smallest elements (ties broken
///    by run index, then position, consistent with the library's A-priority
///    stability). This generalises the two-array co-rank that
///    diagonal_intersection computes.
///  - parallel_multiway_merge(): p lanes; lane k spans global output ranks
///    [k·N/p, (k+1)·N/p), locates its bounds with multiway_select(), and
///    merges its quota with multiway_merge(). Perfect load balance, no
///    inter-lane communication — Algorithm 1 generalised to k inputs.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/instrument.hpp"
#include "core/parallel_merge.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/hw.hpp"
#include "util/threading.hpp"

namespace mp {

inline constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// A tournament (loser) tree over k cursors. Pop order is stable: ties are
/// won by the lower run index.
template <typename T, typename Comp = std::less<>>
class LoserTree {
 public:
  /// One input cursor: a [first, last) range the tree will consume.
  struct Cursor {
    const T* first = nullptr;
    const T* last = nullptr;
  };

  explicit LoserTree(std::vector<Cursor> runs, Comp comp = {})
      : runs_(std::move(runs)), comp_(comp) {
    k_ = runs_.size();
    slots_ = 1;
    while (slots_ < k_) slots_ *= 2;
    tree_.assign(slots_, kNone);
    if (k_ == 0) return;
    // Two-pass build: compute the winner at every internal node bottom-up,
    // storing the loser; the overall winner ends up in winner_.
    std::vector<std::size_t> winners(2 * slots_, kNone);
    for (std::size_t s = 0; s < slots_; ++s)
      winners[slots_ + s] = s < k_ ? s : kNone;
    for (std::size_t node = slots_ - 1; node >= 1; --node) {
      const std::size_t w1 = winners[2 * node];
      const std::size_t w2 = winners[2 * node + 1];
      const std::size_t win = play(w1, w2);
      tree_[node] = win == w1 ? w2 : w1;  // store the loser
      winners[node] = win;
    }
    winner_ = winners[1];
  }

  bool empty() const { return winner_ == kNone || exhausted(winner_); }

  /// Returns the smallest remaining element and advances its cursor.
  const T& pop() {
    MP_ASSERT(!empty());
    const std::size_t run = winner_;
    const T& value = *runs_[run].first++;
    replay(run);
    return value;
  }

  /// Pops exactly `steps` elements into out; counts ~log2(k) comparisons
  /// and one move per element on the instrument.
  template <typename OutIter, typename Instr = NoInstrument>
  OutIter pop_n(OutIter out, std::size_t steps, Instr* instr = nullptr) {
    for (std::size_t s = 0; s < steps; ++s) {
      *out++ = pop();
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (instr) {
          instr->move();
          instr->compare(tree_levels());
        }
      }
    }
    return out;
  }

  std::size_t tree_levels() const {
    std::size_t levels = 0, s = slots_;
    while (s > 1) {
      s /= 2;
      ++levels;
    }
    return levels;
  }

 private:
  bool exhausted(std::size_t run) const {
    return run >= k_ || runs_[run].first == runs_[run].last;
  }

  /// Winner between two run indices: the one with the smaller head; an
  /// exhausted/absent run always loses; ties go to the lower run index.
  std::size_t play(std::size_t x, std::size_t y) const {
    const bool xe = exhausted(x);
    const bool ye = exhausted(y);
    if (xe || ye) {
      if (xe && ye) return x < y ? x : y;
      return xe ? y : x;
    }
    const T& xv = *runs_[x].first;
    const T& yv = *runs_[y].first;
    if (comp_(xv, yv)) return x;
    if (comp_(yv, xv)) return y;
    return x < y ? x : y;  // stable: lower run wins ties
  }

  /// After consuming from `run`, replay its path to the root: the new head
  /// of `run` is matched against the stored losers level by level.
  void replay(std::size_t run) {
    std::size_t contender = run;
    for (std::size_t node = (slots_ + run) / 2; node >= 1; node /= 2) {
      const std::size_t winner = play(tree_[node], contender);
      if (winner != contender) std::swap(tree_[node], contender);
    }
    winner_ = contender;
  }

  std::vector<Cursor> runs_;
  Comp comp_;
  std::size_t k_ = 0;
  std::size_t slots_ = 1;
  std::vector<std::size_t> tree_;  // tree_[node] = losing run at that match
  std::size_t winner_ = kNone;
};

namespace detail {

/// One refinement's searches: for the pivot x = runs[s][m], sets cut[t]
/// (t != s) to the first index in [lo[t], hi[t]) whose element does not
/// stably precede x — upper_bound (elements <= x precede) for a run before
/// s, lower_bound (elements < x precede) after it — and returns m plus the
/// sum of the cuts. The k - 1 binary searches are independent, so they run
/// interleaved, one halving step of every run per sweep: their loads
/// overlap instead of waiting on each other's comparisons. Each search is
/// branch-free and reads only inside [lo[t], hi[t]); a width w >= 1 costs
/// exactly ceil(log2 w) + 1 comparisons (w = 0 none), one search_step each.
template <typename T, typename Comp, typename Instr>
std::size_t clamped_rank(std::span<const std::span<const T>> runs,
                         std::size_t s, std::size_t m,
                         const std::vector<std::size_t>& lo,
                         const std::vector<std::size_t>& hi,
                         std::vector<std::size_t>& cut,
                         std::vector<std::size_t>& width, Comp& comp,
                         Instr* instr) {
  const std::size_t k = runs.size();
  const T& x = runs[s][m];
  auto precedes = [&](std::size_t t, std::size_t i) {
    if constexpr (!std::is_same_v<Instr, NoInstrument>) {
      if (instr) instr->search_step();
    }
    const T& e = runs[t][i];
    return t < s ? !comp(x, e) : comp(e, x);
  };
  bool more = false;
  for (std::size_t t = 0; t < k; ++t) {
    cut[t] = lo[t];
    width[t] = t == s ? 0 : hi[t] - lo[t];
    more |= width[t] > 1;
  }
  while (more) {
    more = false;
    for (std::size_t t = 0; t < k; ++t) {
      const std::size_t n = width[t];
      if (n <= 1) continue;
      const std::size_t half = n / 2;
      cut[t] = precedes(t, cut[t] + half - 1) ? cut[t] + half : cut[t];
      width[t] = n - half;
      more |= n - half > 1;
    }
  }
  std::size_t c = m;
  for (std::size_t t = 0; t < k; ++t) {
    if (width[t] == 1 && precedes(t, cut[t])) ++cut[t];
    if (t != s) c += cut[t];
  }
  return c;
}

}  // namespace detail

/// Multisequence selection: returns positions pos[t] (one per run, with
/// sum(pos) == rank) such that the prefixes runs[t][0, pos[t]) are exactly
/// the `rank` smallest elements of the union under the stable order
/// (value, run index, position). The k-sequence co-rank: for k = 2 it is
/// diagonal_intersection's split, and two runs return that split directly
/// (path_point_on_diagonal, at most log2(min(m, n)) + 1 comparisons). The
/// stable co-rank is unique, so the positions equal the bisection's.
///
/// Algorithm: interval bisection. Every run keeps an interval [lo_t, hi_t]
/// holding its answer, with sum(lo) <= rank <= sum(hi). A refinement takes
/// the middle element x = runs[s][m] of the widest interval (ties to the
/// lowest run) and counts, in every other run, the elements that stably
/// precede it (upper_bound before run s, lower_bound after), searching only
/// inside [lo_t, hi_t]. The clamp is exact: with lo_t <= pos_t <= hi_t the
/// clamped count sum c = m + sum_t clamp(count_t) is below `rank` exactly
/// when x's true stable rank is. If c < rank, x and everything before it
/// are in the prefix: lo_t = clamp(count_t), lo_s = m + 1; otherwise
/// nothing from x on is: hi_t = clamp(count_t), hi_s = m. The result is
/// lo (or hi) once sum(lo) or sum(hi) reaches rank.
///
/// Cost: a search over width w costs phi(w) = ceil(log2 w) + 1 comparisons
/// (phi(0) = 0), and a refinement at least halves its pivot's interval,
/// which lowers phi there by at least 1. With Phi = sum_t phi(w_t), a
/// refinement costs at most Phi - 1 and lowers Phi by at least 1, so a call
/// makes at most L = sum_t phi(|run_t|) refinements and L·(L - 1)/2
/// comparisons: O(log n) per run per refinement, O(k²·log² n) in all for k
/// runs of length n. When the runs' values interleave (random keys, the
/// pipeline's fenced blocks) each refinement narrows every interval and a
/// call costs roughly k·log2²(n)/2 comparisons (≈ 3900 for 32 random runs
/// of 16 Ki keys).
///
/// The bounds are structural: whatever the comparator answers, every
/// refinement keeps lo_t <= hi_t <= |run_t| and sum(lo) <= rank <= sum(hi)
/// and shrinks one interval, so the result always sums to `rank`.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
std::vector<std::size_t> multiway_select(
    std::span<const std::span<const T>> runs, std::size_t rank,
    Comp comp = {}, Instr* instr = nullptr) {
  const std::size_t k = runs.size();
  if (k == 2) {
    MP_CHECK(rank <= runs[0].size() + runs[1].size());
    const PathPoint at =
        path_point_on_diagonal(runs[0].data(), runs[0].size(), runs[1].data(),
                               runs[1].size(), rank, comp, instr);
    return {at.i, at.j};
  }
  std::vector<std::size_t> lo(k, 0);
  std::vector<std::size_t> hi(k);
  std::vector<std::size_t> cut(k);
  std::vector<std::size_t> width(k);
  std::size_t total = 0;
  for (std::size_t t = 0; t < k; ++t) total += hi[t] = runs[t].size();
  MP_CHECK(rank <= total);
  std::size_t lo_sum = 0;
  std::size_t hi_sum = total;

  while (lo_sum < rank && hi_sum > rank) {
    std::size_t s = 0;
    for (std::size_t t = 1; t < k; ++t)
      if (hi[t] - lo[t] > hi[s] - lo[s]) s = t;
    MP_ASSERT(hi[s] > lo[s]);
    const std::size_t m = lo[s] + (hi[s] - lo[s]) / 2;
    const std::size_t c =
        detail::clamped_rank(runs, s, m, lo, hi, cut, width, comp, instr);
    if (c < rank) {
      cut[s] = m + 1;
      lo.swap(cut);
      lo_sum = c + 1;
    } else {
      cut[s] = m;
      hi.swap(cut);
      hi_sum = c;
    }
  }
  return lo_sum == rank ? lo : hi;
}

namespace detail {

/// Merges runs[lo, hi) into `dst`, with `other` as the ping-pong buffer for
/// the level below; returns where the result lives (a single run is its
/// own result, so leaves are never copied). Children land in `other` at
/// their own offsets and are consumed before anything is written back to
/// `dst`'s region.
template <typename T, typename Comp>
std::span<const T> merge_tree(std::span<const std::span<const T>> runs,
                              std::size_t lo, std::size_t hi, T* dst,
                              T* other, Comp comp) {
  if (hi - lo == 1) return runs[lo];
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::span<const T> a = merge_tree(runs, lo, mid, other, dst, comp);
  const std::span<const T> b = merge_tree(runs, mid, hi, other + a.size(),
                                          dst + a.size(), comp);
  std::size_t i = 0, j = 0;
  kernels::merge_steps_auto(a.data(), a.size(), b.data(), b.size(), &i, &j,
                            dst, a.size() + b.size(), comp);
  return {dst, a.size() + b.size()};
}

}  // namespace detail

/// Sequential stable k-way merge of `runs` into `out`: a balanced tree of
/// pairwise kernels::merge_steps_auto merges over adjacent runs, the lower
/// run as the A side, so ties go to the lower run index and the output is
/// exactly LoserTree's (value, run index, position) order. Interior levels
/// ping-pong between `out` and `scratch`, which needs room for the total
/// when more than two runs are non-empty (it is unused otherwise and may
/// be null). One non-empty run is copied. Admitted key types run the
/// dispatched vector kernel; any other T or Comp runs the chained scalar
/// merge, still ceil(log2 k) two-way passes rather than a tournament.
/// `out` and `scratch` must not overlap the runs or each other.
template <typename T, typename Comp = std::less<>>
void multiway_merge(std::span<const std::span<const T>> runs, T* out,
                    T* scratch, Comp comp = {}) {
  std::vector<std::span<const T>> live;
  live.reserve(runs.size());
  for (const auto& r : runs)
    if (!r.empty()) live.push_back(r);
  if (live.empty()) return;
  if (live.size() == 1) {
    std::copy(live[0].begin(), live[0].end(), out);
    return;
  }
  MP_ASSERT(live.size() == 2 || scratch != nullptr);
  detail::merge_tree(std::span<const std::span<const T>>(live), 0,
                     live.size(), out, scratch, comp);
}

/// Merges k sorted runs into `out` using p lanes; stable across runs (lower
/// run index wins ties). Time O((N/p)·log k) per lane plus the selection.
template <typename T, typename Comp = std::less<>>
void parallel_multiway_merge(std::span<const std::span<const T>> runs, T* out,
                             Executor exec = {}, Comp comp = {}) {
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  if (total == 0) return;
  const unsigned lanes = exec.resolve_threads();
  obs::Span mwm_span("mwm", "n", total);

  if (runs.size() == 2) {
    // Pairwise fallback: two runs are exactly Algorithm 1, whose diagonal
    // search is cheaper than multiway selection. Lower-run-wins tie
    // breaking IS A-priority, so the output is identical.
    parallel_merge(runs[0].data(), runs[0].size(), runs[1].data(),
                   runs[1].size(), out, exec, comp);
    return;
  }

  // Lane k owns global output ranks [k·N/p, (k+1)·N/p), bounded by
  // multiway_select, and runs multiway_merge over the selected slices.
  exec.run_lanes(lanes, [&](unsigned lane) {
    const std::size_t r0 = lane * total / lanes;
    const std::size_t r1 = (lane + 1ull) * total / lanes;
    if (r0 == r1) return;
    std::vector<std::size_t> start;
    std::vector<std::size_t> end;
    {
      obs::Span span("mwm.select", "lane", lane);
      start = multiway_select(runs, r0, comp);
      end = multiway_select(runs, r1, comp);
    }
    obs::Span span("mwm.merge", "lane", lane);
    std::vector<std::span<const T>> slices(runs.size());
    for (std::size_t t = 0; t < runs.size(); ++t)
      slices[t] = runs[t].subspan(start[t], end[t] - start[t]);
    const auto scratch = std::make_unique_for_overwrite<T[]>(r1 - r0);
    advise_huge_pages(scratch.get(), (r1 - r0) * sizeof(T));
    multiway_merge(std::span<const std::span<const T>>(slices), out + r0,
                   scratch.get(), comp);
  });
}

/// Convenience front-end for vector-of-vectors input.
template <typename T, typename Comp = std::less<>>
std::vector<T> parallel_multiway_merge(const std::vector<std::vector<T>>& runs,
                                       Executor exec = {}, Comp comp = {}) {
  std::vector<std::span<const T>> views;
  views.reserve(runs.size());
  std::size_t total = 0;
  for (const auto& r : runs) {
    views.emplace_back(r.data(), r.size());
    total += r.size();
  }
  std::vector<T> out(total);
  parallel_multiway_merge(std::span<const std::span<const T>>(views),
                          out.data(), exec, comp);
  return out;
}

}  // namespace mp
