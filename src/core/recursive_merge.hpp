#pragma once
/// \file recursive_merge.hpp
/// Recursive divide-and-conquer merge and merge sort on the work-stealing
/// TaskScheduler — the PAM/pbbslib scheduling shape driven by Merge Path
/// co-ranks.
///
/// Where Algorithm 1 cuts the merge path into p equispaced slices up
/// front (static lanes, perfect balance by Corollary 7), the recursive
/// form repeatedly bisects it: find the path point on the *median* cross
/// diagonal (one O(log min(m,n)) co-rank search, Theorem 14), fork the
/// two halves with TaskScheduler::par_do, and bottom out on the
/// dispatched sequential kernel (kernels::merge_steps_auto) once a
/// subproblem fits under the grain size. pbbslib splits on the median of
/// the larger *input* and binary-searches the other; splitting on the
/// median *output* diagonal is the same co-ranking idea but guarantees
/// both children are exactly half the work, so the task tree is balanced
/// no matter how skewed the inputs interleave — and because the co-rank
/// search resolves ties A-first, every leaf writes the identical bytes
/// the static partition would (Träff's stability argument for
/// rank-splitting recursion; enforced byte-for-byte by the property
/// layer).
///
/// Why a second shape at all: static lanes fork exactly p tasks, so a
/// stream of many small merges pays the full fork-join barrier per merge
/// while big lanes cannot help small ones; the recursive tree exposes
/// work proportional to n/grain that any idle worker can steal, nests
/// freely (a sort round can fork merges which fork halves...), and
/// degrades to a single sequential kernel call below the grain with no
/// barrier at all. bench/ablation_scheduler measures where each wins.
///
/// Instrumentation: `instr`, when non-empty, must hold at least
/// scheduler.slots() OpCounts; each task accumulates into the slot of the
/// thread that ran it, so totals (the PRAM work measure) are comparable
/// with the per-lane counts of the static scheduler. Instrumented runs
/// stay on the scalar kernel, same contract as parallel_merge.

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_path.hpp"
#include "core/merge_sort.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/tasksched.hpp"

namespace mp {

/// Knobs for the recursive merge/sort family. Defaults keep leaf tasks
/// big enough that spawn cost (two deque operations) stays far below the
/// kernel time, while still exposing ~n/grain stealable tasks.
struct RecursiveConfig {
  TaskScheduler* scheduler = nullptr;  ///< nullptr => TaskScheduler::shared()
  /// Merge subproblems of total size <= merge_grain run the sequential
  /// kernel directly (clamped to >= 1).
  std::size_t merge_grain = 4096;
  /// Sort subranges of size <= sort_grain run sequential_merge_sort
  /// (clamped to >= 1).
  std::size_t sort_grain = 2048;

  TaskScheduler& resolve_scheduler() const {
    return scheduler ? *scheduler : TaskScheduler::shared();
  }
};

namespace detail {

template <typename Instr>
Instr* slot_instr(std::span<Instr> instr) {
  if constexpr (std::is_same_v<Instr, NoInstrument>) {
    return nullptr;
  } else {
    if (instr.empty()) return nullptr;
    const unsigned slot = TaskScheduler::current_slot();
    MP_ASSERT(slot < instr.size());
    return &instr[slot];
  }
}

/// One node of the recursive merge tree. Must run inside a TaskScheduler
/// context (par_do would otherwise serialise, which is correct but
/// defeats the point); the public wrappers establish it.
template <typename IterA, typename IterB, typename OutIter, typename Comp,
          typename Instr>
void recursive_merge_node(IterA a, std::size_t m, IterB b, std::size_t n,
                          OutIter out, std::size_t grain, Comp comp,
                          std::span<Instr> instr) {
  const std::size_t total = m + n;
  if (total <= grain) {
    std::size_t i = 0, j = 0;
    kernels::merge_steps_auto(a, m, b, n, &i, &j, out, total, comp,
                              slot_instr(instr));
    return;
  }
  obs::Span span("merge.rec", "n", total);
  // Median cross diagonal: both children inherit exactly half the output,
  // whatever the inputs' interleaving. A-priority co-rank keeps the
  // recursion byte-identical to the static partition.
  const std::size_t diag = total / 2;
  const PathPoint mid =
      path_point_on_diagonal(a, m, b, n, diag, comp, slot_instr(instr));
  TaskScheduler::par_do(
      [&] { recursive_merge_node(a, mid.i, b, mid.j, out, grain, comp, instr); },
      [&] {
        recursive_merge_node(a + static_cast<std::ptrdiff_t>(mid.i), m - mid.i,
                             b + static_cast<std::ptrdiff_t>(mid.j), n - mid.j,
                             out + static_cast<std::ptrdiff_t>(diag), grain,
                             comp, instr);
      });
}

/// One node of the recursive sort tree. Result lands in `data` when
/// `to_scratch` is false, in `scratch` otherwise; children sort into the
/// opposite buffer so each level merges across, never in place.
template <typename T, typename Comp, typename Instr>
void recursive_sort_node(T* data, T* scratch, std::size_t n, bool to_scratch,
                         std::size_t sort_grain, std::size_t merge_grain,
                         Comp comp, std::span<Instr> instr) {
  if (n <= sort_grain) {
    Instr* li = slot_instr(instr);
    sequential_merge_sort(data, scratch, n, comp, li);
    if (to_scratch) {
      for (std::size_t i = 0; i < n; ++i) scratch[i] = std::move(data[i]);
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (li) li->move(n);
      }
    }
    return;
  }
  obs::Span span("sort.rec", "n", n);
  const std::size_t half = n / 2;
  TaskScheduler::par_do(
      [&] {
        recursive_sort_node(data, scratch, half, !to_scratch, sort_grain,
                            merge_grain, comp, instr);
      },
      [&] {
        recursive_sort_node(data + half, scratch + half, n - half, !to_scratch,
                            sort_grain, merge_grain, comp, instr);
      });
  // The halves sit in the buffer opposite our destination; merge across.
  T* src = to_scratch ? data : scratch;
  T* dst = to_scratch ? scratch : data;
  recursive_merge_node(src, half, src + half, n - half, dst, merge_grain,
                       comp, instr);
}

}  // namespace detail

/// Recursive-splitting stable merge of sorted [a, a+m) and [b, b+n) into
/// [out, out+m+n). Byte-identical to parallel_merge (both produce the
/// unique A-priority stable merge). Called from inside a scheduler task
/// it forks in place (composing with an enclosing tree); called from
/// outside it roots a run() on cfg's scheduler.
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>, typename Instr = NoInstrument>
void par_merge_recursive(IterA a, std::size_t m, IterB b, std::size_t n,
                         OutIter out, RecursiveConfig cfg = {}, Comp comp = {},
                         std::span<Instr> instr = {}) {
  const std::size_t grain = cfg.merge_grain > 0 ? cfg.merge_grain : 1;
  obs::Span merge_span("merge", "n", m + n);
  if (TaskScheduler::in_task()) {
    detail::recursive_merge_node(a, m, b, n, out, grain, comp, instr);
    return;
  }
  TaskScheduler& sched = cfg.resolve_scheduler();
  MP_CHECK(instr.empty() || instr.size() >= sched.slots());
  sched.run(
      [&] { detail::recursive_merge_node(a, m, b, n, out, grain, comp, instr); });
}

/// Convenience vector front-end: returns the merged vector.
template <typename T, typename Comp = std::less<>>
std::vector<T> par_merge_recursive(const std::vector<T>& a,
                                   const std::vector<T>& b,
                                   RecursiveConfig cfg = {}, Comp comp = {}) {
  std::vector<T> out(a.size() + b.size());
  par_merge_recursive(a.data(), a.size(), b.data(), b.size(), out.data(), cfg,
                      comp);
  return out;
}

/// Recursive divide-and-conquer stable merge sort of [data, data+n):
/// fork halves, sort each (sequentially below sort_grain), merge with the
/// recursive splitter. Output equals any stable sort's (byte-identical to
/// parallel_merge_sort). Nests like par_merge_recursive.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
void recursive_merge_sort(T* data, std::size_t n, RecursiveConfig cfg = {},
                          Comp comp = {}, std::span<Instr> instr = {}) {
  if (n <= 1) return;
  const std::size_t sort_grain = cfg.sort_grain > 0 ? cfg.sort_grain : 1;
  const std::size_t merge_grain = cfg.merge_grain > 0 ? cfg.merge_grain : 1;
  obs::Span sort_span("sort", "n", n);
  // Uninitialised: the task that first writes a slice touches its pages.
  const auto scratch = std::make_unique_for_overwrite<T[]>(n);
  if (TaskScheduler::in_task()) {
    detail::recursive_sort_node(data, scratch.get(), n, false, sort_grain,
                                merge_grain, comp, instr);
    return;
  }
  TaskScheduler& sched = cfg.resolve_scheduler();
  MP_CHECK(instr.empty() || instr.size() >= sched.slots());
  sched.run([&] {
    detail::recursive_sort_node(data, scratch.get(), n, false, sort_grain,
                                merge_grain, comp, instr);
  });
}

/// Convenience span front-end.
template <typename T, typename Comp = std::less<>>
void recursive_merge_sort(std::span<T> data, RecursiveConfig cfg = {},
                          Comp comp = {}) {
  recursive_merge_sort(data.data(), data.size(), cfg, comp);
}

}  // namespace mp
