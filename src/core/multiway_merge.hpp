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

/// Multisequence selection: returns positions pos[t] (one per run, with
/// sum(pos) == rank) such that the prefixes runs[t][0, pos[t]) are exactly
/// the `rank` smallest elements of the union under the stable order
/// (value, run index, position).
///
/// Algorithm: greedy block advancement. While `remaining` elements are
/// still to be claimed, advance — by up to c = max(1, remaining/(2·k_act))
/// elements — the run whose c-th unclaimed element is smallest (ties to the
/// lowest run index). Safety: the claimed block's elements all stably
/// precede that candidate value v, and across the k_act active runs at most
/// k_act·c <= remaining/2 + k_act <= remaining unclaimed elements stably
/// precede v, so the block lies inside the remaining target prefix.
/// Runs in O(k·(k + log rank)) comparisons.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
std::vector<std::size_t> multiway_select(
    std::span<const std::span<const T>> runs, std::size_t rank,
    Comp comp = {}, Instr* instr = nullptr) {
  const std::size_t k = runs.size();
  std::vector<std::size_t> pos(k, 0);
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  MP_CHECK(rank <= total);

  std::size_t remaining = rank;
  while (remaining > 0) {
    std::size_t active = 0;
    for (std::size_t t = 0; t < k; ++t)
      if (pos[t] < runs[t].size()) ++active;
    MP_ASSERT(active > 0);
    const std::size_t c =
        remaining >= 2 * active ? remaining / (2 * active) : 1;

    // The run whose c'-th unclaimed element (c' = min(c, available)) is
    // smallest under (value, run index). A run shorter than c competes with
    // its final element and is advanced by fewer than c.
    std::size_t best = kNone;
    std::size_t best_take = 0;
    for (std::size_t t = 0; t < k; ++t) {
      const std::size_t avail = runs[t].size() - pos[t];
      if (avail == 0) continue;
      const std::size_t take = c < avail ? c : avail;
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (instr) instr->search_step();
      }
      if (best == kNone ||
          comp(runs[t][pos[t] + take - 1], runs[best][pos[best] + best_take - 1])) {
        best = t;
        best_take = take;
      }
    }
    const std::size_t take = best_take < remaining ? best_take : remaining;
    pos[best] += take;
    remaining -= take;
  }
  return pos;
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
