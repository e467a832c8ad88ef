#pragma once
/// \file deo_sarkar.hpp
/// Baseline S13 — Deo & Sarkar's merge via multiselection [2] ("Parallel
/// algorithms for merging and sorting", Information Sciences 1991), the
/// algorithm Section V of the Merge Path paper calls "very similar" to its
/// own: p-1 equispaced output ranks are located independently (CREW), then
/// the sub-array pairs are merged sequentially in parallel.
///
/// The difference from Merge Path is the *search procedure*: instead of
/// bisecting a cross diagonal of the merge matrix, the k-th smallest
/// element of the union is found with the classic two-array selection that
/// discards ~k/2 candidates per iteration. Same O(log N) bound, different
/// constant factors and access pattern — which is precisely what the
/// partition-cost ablation (E10) and baseline comparison (E7) measure.
///
/// Tie handling matches the library convention (stable, A-priority), so
/// the split points coincide exactly with diagonal_intersection's; tests
/// assert that equivalence.

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

/// Finds the stable split (i, j), i + j = k, such that the prefixes
/// a[0,i) and b[0,j) are exactly the k smallest elements of the union
/// (ties favouring A). Classic halving selection: each iteration commits
/// roughly k/2 elements from one of the arrays.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
PathPoint kth_element_split(const T* a, std::size_t m, const T* b,
                            std::size_t n, std::size_t k, Comp comp = {},
                            Instr* instr = nullptr) {
  MP_CHECK(k <= m + n);
  std::size_t i = 0, j = 0;
  std::size_t remaining = k;
  while (remaining > 0) {
    if (i >= m) {
      j += remaining;
      break;
    }
    if (j >= n) {
      i += remaining;
      break;
    }
    if (remaining == 1) {
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (instr) instr->search_step();
      }
      if (!comp(b[j], a[i]))
        ++i;  // a[i] <= b[j]: stable, take A
      else
        ++j;
      break;
    }
    std::size_t ia = std::min(remaining / 2, m - i);
    if (ia == 0) ia = 1;  // m - i >= 1 here, remaining/2 >= 1
    std::size_t ib = remaining - ia;
    if (ib > n - j) {
      ib = n - j;
      ia = remaining - ib;  // fits: remaining <= (m-i) + (n-j)
    }
    MP_ASSERT(ia >= 1 && ia <= m - i && ib >= 1 && ib <= n - j);
    if constexpr (!std::is_same_v<Instr, NoInstrument>) {
      if (instr) instr->search_step();
    }
    if (!comp(b[j + ib - 1], a[i + ia - 1])) {
      // a[i+ia-1] <= b[j+ib-1]: all ia elements of A stably precede the
      // b-candidate, hence lie inside the k-smallest prefix.
      i += ia;
      remaining -= ia;
    } else {
      j += ib;
      remaining -= ib;
    }
  }
  return PathPoint{i, j};
}

/// Deo-Sarkar parallel merge: p-1 independent multiselections at ranks
/// k·N/p, then p sequential merges. Output identical to the stable merge.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
void deo_sarkar_merge(const T* a, std::size_t m, const T* b, std::size_t n,
                      T* out, Executor exec = {}, Comp comp = {},
                      std::span<Instr> instr = {}) {
  const unsigned lanes = exec.resolve_threads();
  MP_CHECK(instr.empty() || instr.size() >= lanes);
  const std::size_t total = m + n;

  exec.run_lanes(lanes, [&](unsigned lane) {
    Instr* li = instr.empty() ? nullptr : &instr[lane];
    const std::size_t r0 = lane * total / lanes;
    const std::size_t r1 = (lane + 1ull) * total / lanes;
    const PathPoint start = kth_element_split(a, m, b, n, r0, comp, li);
    std::size_t i = start.i;
    std::size_t j = start.j;
    merge_steps(a, m, b, n, &i, &j, out + r0, r1 - r0, comp, li);
  });
}

/// Convenience vector front-end.
template <typename T, typename Comp = std::less<>>
std::vector<T> deo_sarkar_merge(const std::vector<T>& a,
                                const std::vector<T>& b, Executor exec = {},
                                Comp comp = {}) {
  std::vector<T> out(a.size() + b.size());
  deo_sarkar_merge(a.data(), a.size(), b.data(), b.size(), out.data(), exec,
                   comp);
  return out;
}

}  // namespace mp::baselines
