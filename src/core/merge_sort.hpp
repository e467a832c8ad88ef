#pragma once
/// \file merge_sort.hpp
/// Sequential merge sort (from scratch) and the paper's Parallel Merge Sort
/// (Section III).
///
/// Parallel scheme: the input is split into p equal blocks, each sorted
/// sequentially by its own lane; then log2(p) rounds of pairwise merges
/// follow, every round parallelised with the Merge Path partition. Rather
/// than assigning whole pair-merges to threads (which would idle threads in
/// the late rounds when few arrays remain — exactly the problem the paper's
/// introduction describes), each round is *flattened*: the round's total
/// output is divided into p equal global slices, and every lane maps its
/// slice onto the (possibly several) pair-merges it overlaps using one
/// diagonal binary search per overlapped pair. Load balance is therefore
/// perfect in every round, including the last one where a single pair
/// remains and all p lanes cooperate on it — Algorithm 1 as a special case.
///
/// Complexity (paper): O(N/p·log N + log p·log N) time.
///
/// Stability: blocks are contiguous and pair merges are A-priority stable,
/// so the overall sort is stable.

#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/merge_path.hpp"
#include "core/parallel_merge.hpp"
#include "core/sequential_merge.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sort_network.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/hw.hpp"
#include "util/threading.hpp"

namespace mp {

/// Sorted-run descriptor inside a flat buffer: [begin, end).
struct Run {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

/// Elements of `elem_bytes` bytes in one chunk of sequential_merge_sort's
/// blocked passes: a chunk and its scratch fill half the core's L2
/// (128 Ki int32 for a 2 MiB L2; a quarter or all of the L2 measured the
/// same, docs/PERFORMANCE.md).
inline std::size_t sort_chunk_elems(std::size_t elem_bytes) {
  return host_info().l2_bytes() / (4 * elem_bytes);
}

/// Bottom-up stable merge sort of [data, data+n) using caller-provided
/// scratch of the same length. kernels::sort_runs_auto forms the initial
/// runs — register-resident blocks of 16 vector registers for the
/// dispatch-certified key types (256 int32 under AVX-512), 8-key rank
/// runs or 24-key insertion sorts for everything else (see
/// kernels/sort_network.hpp) — and the runs are merged with doubling
/// widths from there, ping-ponging between the two buffers; the result
/// always ends in `data`.
///
/// Pass order: every pass narrower than the L2 chunk (sort_chunk_elems)
/// runs chunk by chunk, so one chunk's passes stay in the core's L2 until
/// the chunk is one run; the wider passes then run over the whole range.
/// The chunk is the run width doubled up to the L2 target, so chunk
/// boundaries are pair boundaries at every blocked width and each pass
/// merges the same pairs as a pass over the whole range would: same
/// bytes, same comparisons.
///
/// Spans: sort.runs (run formation), one sort.chunks (every blocked pass)
/// and one sort.pass per whole-range pass, arg its width: about 20 per
/// call at most.
template <typename T, typename Comp = std::less<>>
void sequential_merge_sort(T* data, T* scratch, std::size_t n,
                           Comp comp = {}) {
  if (n <= 1) return;

  const std::size_t runs = [&] {
    obs::Span span("sort.runs", "n", n);
    return kernels::sort_runs_auto(data, n, comp);
  }();
  const std::size_t target = sort_chunk_elems(sizeof(T));
  std::size_t chunk = runs;
  while (chunk < n && 2 * chunk <= target) chunk *= 2;
  std::size_t width = runs;
  bool in_scratch = false;
  {
    obs::Span span("sort.chunks", "chunk", chunk);
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      T* src = data + begin;
      T* dst = scratch + begin;
      for (width = runs; width < chunk && width < n; width *= 2) {
        kernels::merge_pass_auto(src, dst, std::min(chunk, n - begin), width,
                                 comp);
        std::swap(src, dst);
      }
      in_scratch = src != data + begin;
    }
  }
  T* src = in_scratch ? scratch : data;
  T* dst = in_scratch ? data : scratch;
  for (; width < n; width *= 2) {
    obs::Span span("sort.pass", "width", width);
    kernels::merge_pass_auto(src, dst, n, width, comp);
    std::swap(src, dst);
  }
  if (src != data)
    for (std::size_t i = 0; i < n; ++i) data[i] = std::move(src[i]);
}

/// Convenience overload allocating its own scratch.
template <typename T, typename Comp = std::less<>>
void sequential_merge_sort(std::span<T> data, Comp comp = {}) {
  const auto scratch = std::make_unique_for_overwrite<T[]>(data.size());
  advise_huge_pages(scratch.get(), data.size() * sizeof(T));
  sequential_merge_sort(data.data(), scratch.get(), data.size(), comp);
}

/// One flattened round: merges adjacent pairs of `runs` (runs must tile
/// [0, n) contiguously) from `src` into `dst`, dividing the round's total
/// output equally among the executor's lanes. A trailing unpaired run is
/// copied. Returns the merged run list. Each lane only reads `src` and
/// writes a disjoint slice of `dst`, so a recovering executor can re-run
/// any lane on its own.
///
/// The building block of parallel_merge_sort, exposed for the layer
/// measurements that replay a sort round by round, and for tests.
template <typename T, typename Comp = std::less<>>
std::vector<Run> merge_round_balanced(const T* src, T* dst,
                                      const std::vector<Run>& runs,
                                      Executor exec = {}, Comp comp = {}) {
  MP_CHECK(!runs.empty());
  const unsigned lanes = exec.resolve_threads();
  // Pair descriptors: pair t merges runs[2t] (A) and runs[2t+1] (B, possibly
  // missing). Output starts at runs[2t].begin since runs tile the buffer.
  struct Pair {
    Run a, b;
    std::size_t out_begin, out_end;
  };
  std::vector<Pair> pairs;
  std::vector<Run> merged;
  pairs.reserve((runs.size() + 1) / 2);
  for (std::size_t t = 0; 2 * t < runs.size(); ++t) {
    const Run a = runs[2 * t];
    const Run b = 2 * t + 1 < runs.size() ? runs[2 * t + 1]
                                          : Run{a.end, a.end};
    MP_ASSERT(b.begin == a.end);
    pairs.push_back(Pair{a, b, a.begin, b.end});
    merged.push_back(Run{a.begin, b.end});
  }
  const std::size_t total = runs.back().end - runs.front().begin;
  const std::size_t base = runs.front().begin;
  obs::Span round_span("sort.round", "runs", runs.size());

  exec.run_lanes(lanes, [&](unsigned lane) {
    obs::Span span("sort.round_slice", "lane", lane);
    const std::size_t g0 = base + lane * total / lanes;
    const std::size_t g1 = base + (lane + 1ull) * total / lanes;
    if (g0 == g1) return;
    // First pair whose output interval contains g0 (pairs are sorted by
    // out_begin and tile [base, base+total)).
    std::size_t t = 0;
    {
      std::size_t lo = 0, hi = pairs.size() - 1;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo + 1) / 2;
        if (pairs[mid].out_begin <= g0)
          lo = mid;
        else
          hi = mid - 1;
      }
      t = lo;
    }
    for (; t < pairs.size() && pairs[t].out_begin < g1; ++t) {
      const Pair& pr = pairs[t];
      const std::size_t s0 = std::max(g0, pr.out_begin);
      const std::size_t s1 = std::min(g1, pr.out_end);
      if (s0 >= s1) continue;
      const std::size_t m = pr.a.size();
      const std::size_t n2 = pr.b.size();
      const std::size_t local_diag = s0 - pr.out_begin;
      PathPoint start;
      {
        obs::Span search_span("sort.partition", "lane", lane);
        start = path_point_on_diagonal(src + pr.a.begin, m, src + pr.b.begin,
                                       n2, local_diag, comp);
      }
      std::size_t i = start.i;
      std::size_t j = start.j;
      kernels::merge_steps_auto(src + pr.a.begin, m, src + pr.b.begin, n2, &i,
                                &j, dst + s0, s1 - s0, comp);
    }
  });
  return merged;
}

/// The paper's Parallel Merge Sort (Section III). Sorts [data, data+n)
/// stably using `exec`. Its PRAM model, with the same phases, is
/// pram::counted_parallel_merge_sort.
template <typename T, typename Comp = std::less<>>
void parallel_merge_sort(T* data, std::size_t n, Executor exec = {},
                         Comp comp = {}) {
  const unsigned lanes = exec.resolve_threads();
  if (n <= 1) return;
  obs::Span sort_span("sort", "n", n);
  // Uninitialised: every lane's first write touches its own slice, in
  // huge pages where the kernel grants them.
  const auto scratch = std::make_unique_for_overwrite<T[]>(n);
  advise_huge_pages(scratch.get(), n * sizeof(T));
  if (lanes == 1 || n <= lanes * kernels::kInsertionRunWidth) {
    sequential_merge_sort(data, scratch.get(), n, comp);
    return;
  }

  // Phase 1: p blocks, each sorted sequentially by its own lane.
  std::vector<Run> runs(lanes);
  exec.run_lanes(lanes, [&](unsigned lane) {
    obs::Span span("sort.block", "lane", lane);
    const std::size_t begin = lane * n / lanes;
    const std::size_t end = (lane + 1ull) * n / lanes;
    runs[lane] = Run{begin, end};
    sequential_merge_sort(data + begin, scratch.get() + begin, end - begin,
                          comp);
  });

  // Phase 2: log2(p) flattened merge rounds, ping-ponging buffers. The
  // round-index counter brackets each sort.round span so a trace viewer
  // (and check_trace.py) can attribute per-lane imbalance to the round
  // that produced it — late rounds merge few, long runs and are where
  // skewed inputs bite.
  T* src = data;
  T* dst = scratch.get();
  std::uint64_t round = 0;
  while (runs.size() > 1) {
    obs::Span::counter("sort.round_index", round++);
    runs = merge_round_balanced(src, dst, runs, exec, comp);
    std::swap(src, dst);
  }
  if (src != data) {
    // Result landed in scratch: parallel copy-back.
    exec.run_lanes(lanes, [&](unsigned lane) {
      obs::Span span("sort.copyback", "lane", lane);
      const std::size_t begin = lane * n / lanes;
      const std::size_t end = (lane + 1ull) * n / lanes;
      for (std::size_t i = begin; i < end; ++i) data[i] = std::move(src[i]);
    });
  }
}

/// Convenience span front-end.
template <typename T, typename Comp = std::less<>>
void parallel_merge_sort(std::span<T> data, Executor exec = {},
                         Comp comp = {}) {
  parallel_merge_sort(data.data(), data.size(), exec, comp);
}

}  // namespace mp
