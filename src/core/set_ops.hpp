#pragma once
/// \file set_ops.hpp
/// Parallel sorted-set intersection and difference built on Merge Path
/// partitioning.
///
/// Semantics match std::set_intersection / std::set_difference exactly
/// (multiset semantics: intersection, min of multiplicities from A;
/// difference, A's surplus copies).
///
/// Parallelisation differs from the plain merge in two ways the paper's
/// machinery still covers:
///
///  1. *Cut placement.* A set-operation walk advances BOTH cursors on
///     equal keys, so merge-path diagonals are not directly valid cut
///     points — a cut must never split a run of equal keys in either
///     array. Each boundary therefore takes the co-rank point at its
///     equispaced diagonal (the load-balance anchor), reads the key there,
///     and snaps to (lower_bound_A(key), lower_bound_B(key)): all copies
///     of a key land in exactly one slice of each array. Balance remains
///     within one key-run of perfect.
///
///  2. *Output placement.* Output sizes are data dependent, so the
///     operation runs as count + prefix-sum + emit: each lane walks its
///     slice twice, first counting, then writing at its exclusive offset.
///     Still lock-free and barrier-synchronised only between the phases.
///
/// Each entry point returns the number of elements written.

#include <cstddef>
#include <functional>
#include <numeric>
#include <vector>

#include "core/merge_path.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp {

namespace detail {

/// One lane's slice of both inputs.
struct SetSlice {
  std::size_t a_begin = 0, a_end = 0;
  std::size_t b_begin = 0, b_end = 0;
};

/// First index in [first, first+count) whose element is not less than
/// `value` (std::lower_bound on an index range).
template <typename Iter, typename T, typename Comp>
std::size_t lower_bound_index(Iter first, std::size_t count, const T& value,
                              Comp comp) {
  std::size_t lo = 0, hi = count;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (comp(first[mid], value))
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// Key-run-aligned slices for `lanes` lanes: co-rank at each equispaced
/// diagonal, snapped to the lower bound of the key found there.
template <typename IterA, typename IterB, typename Comp>
std::vector<SetSlice> key_aligned_slices(IterA a, std::size_t m, IterB b,
                                         std::size_t n, unsigned lanes,
                                         Comp comp) {
  std::vector<std::size_t> a_cut(lanes + 1, 0), b_cut(lanes + 1, 0);
  a_cut[lanes] = m;
  b_cut[lanes] = n;
  for (unsigned k = 1; k < lanes; ++k) {
    const PathPoint pt =
        path_point_on_diagonal(a, m, b, n, k * (m + n) / lanes, comp);
    if (pt.i < m) {
      a_cut[k] = lower_bound_index(a, m, a[pt.i], comp);
      b_cut[k] = lower_bound_index(b, n, a[pt.i], comp);
    } else if (pt.j < n) {
      a_cut[k] = lower_bound_index(a, m, b[pt.j], comp);
      b_cut[k] = lower_bound_index(b, n, b[pt.j], comp);
    } else {
      a_cut[k] = m;
      b_cut[k] = n;
    }
  }
  // Snapping is monotone in the diagonal, but equal splitter keys at
  // adjacent boundaries produce equal cuts; normalise just in case.
  for (unsigned k = 1; k <= lanes; ++k) {
    a_cut[k] = std::max(a_cut[k], a_cut[k - 1]);
    b_cut[k] = std::max(b_cut[k], b_cut[k - 1]);
  }
  std::vector<SetSlice> slices(lanes);
  for (unsigned k = 0; k < lanes; ++k)
    slices[k] = {a_cut[k], a_cut[k + 1], b_cut[k], b_cut[k + 1]};
  return slices;
}

/// Sequential kernels, emitting through a sink (counting or writing).
/// Semantics mirror the std::set_* reference implementations.
template <typename IterA, typename IterB, typename Comp, typename Sink>
void set_intersection_walk(IterA a, std::size_t m, IterB b, std::size_t n,
                           Comp comp, Sink&& sink) {
  std::size_t i = 0, j = 0;
  while (i < m && j < n) {
    if (comp(a[i], b[j])) {
      ++i;
    } else if (comp(b[j], a[i])) {
      ++j;
    } else {
      sink(a[i]);
      ++i;
      ++j;
    }
  }
}

template <typename IterA, typename IterB, typename Comp, typename Sink>
void set_difference_walk(IterA a, std::size_t m, IterB b, std::size_t n,
                         Comp comp, Sink&& sink) {
  std::size_t i = 0, j = 0;
  while (i < m && j < n) {
    if (comp(a[i], b[j])) {
      sink(a[i++]);
    } else if (comp(b[j], a[i])) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  while (i < m) sink(a[i++]);
}

/// Shared driver: count per lane, prefix, emit per lane. `Walk` is one of
/// the kernels above.
template <typename IterA, typename IterB, typename OutIter, typename Comp,
          typename Walk>
std::size_t parallel_set_op(IterA a, std::size_t m, IterB b, std::size_t n,
                            OutIter out, Executor exec, Comp comp,
                            Walk walk) {
  const unsigned lanes = exec.resolve_threads();
  if (lanes == 1 || m + n <= lanes) {
    std::size_t written = 0;
    walk(a, m, b, n, comp, [&](const auto& v) {
      *(out + static_cast<std::ptrdiff_t>(written)) = v;
      ++written;
    });
    return written;
  }
  const auto slices = key_aligned_slices(a, m, b, n, lanes, comp);

  std::vector<std::size_t> counts(lanes, 0);
  exec.run_lanes(lanes, [&](unsigned lane) {
    const SetSlice& s = slices[lane];
    std::size_t c = 0;
    walk(a + static_cast<std::ptrdiff_t>(s.a_begin), s.a_end - s.a_begin,
         b + static_cast<std::ptrdiff_t>(s.b_begin), s.b_end - s.b_begin,
         comp, [&](const auto&) { ++c; });
    counts[lane] = c;
  });

  std::vector<std::size_t> offsets(lanes + 1, 0);
  std::partial_sum(counts.begin(), counts.end(), offsets.begin() + 1);

  exec.run_lanes(lanes, [&](unsigned lane) {
    const SetSlice& s = slices[lane];
    std::size_t pos = offsets[lane];
    walk(a + static_cast<std::ptrdiff_t>(s.a_begin), s.a_end - s.a_begin,
         b + static_cast<std::ptrdiff_t>(s.b_begin), s.b_end - s.b_begin,
         comp, [&](const auto& v) {
           *(out + static_cast<std::ptrdiff_t>(pos)) = v;
           ++pos;
         });
  });
  return offsets[lanes];
}

}  // namespace detail

/// Intersection (std::set_intersection semantics); out needs min(m, n).
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>>
std::size_t parallel_set_intersection(IterA a, std::size_t m, IterB b,
                                      std::size_t n, OutIter out,
                                      Executor exec = {}, Comp comp = {}) {
  return detail::parallel_set_op(
      a, m, b, n, out, exec, comp, [](auto&&... args) {
        detail::set_intersection_walk(std::forward<decltype(args)>(args)...);
      });
}

/// Difference A \ B (std::set_difference semantics); out needs m.
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>>
std::size_t parallel_set_difference(IterA a, std::size_t m, IterB b,
                                    std::size_t n, OutIter out,
                                    Executor exec = {}, Comp comp = {}) {
  return detail::parallel_set_op(
      a, m, b, n, out, exec, comp, [](auto&&... args) {
        detail::set_difference_walk(std::forward<decltype(args)>(args)...);
      });
}

/// Vector front-ends.
template <typename T, typename Comp = std::less<>>
std::vector<T> parallel_set_intersection(const std::vector<T>& a,
                                         const std::vector<T>& b,
                                         Executor exec = {}, Comp comp = {}) {
  std::vector<T> out(std::min(a.size(), b.size()));
  out.resize(parallel_set_intersection(a.data(), a.size(), b.data(),
                                       b.size(), out.data(), exec, comp));
  return out;
}

template <typename T, typename Comp = std::less<>>
std::vector<T> parallel_set_difference(const std::vector<T>& a,
                                       const std::vector<T>& b,
                                       Executor exec = {}, Comp comp = {}) {
  std::vector<T> out(a.size());
  out.resize(parallel_set_difference(a.data(), a.size(), b.data(), b.size(),
                                     out.data(), exec, comp));
  return out;
}

}  // namespace mp
