#pragma once
/// \file sequential_merge.hpp
/// Sequential merge kernels.
///
/// The kernels the parallel algorithms build on:
///  - merge_steps(): merges exactly `steps` output elements starting from
///    given positions in A and B. This is the "(|A|+|B|)/p steps of
///    sequential merge" primitive of Algorithm 1 and the "L/p steps"
///    primitive of Algorithm 2. Handles either input running out.
///  - sequential_merge(): the classic full two-array merge (the paper's
///    single-thread baseline for the 6%-overhead remark of Section VI).
///
/// All kernels are stable with A-priority (ties take from A), matching the
/// Merge Matrix definition M[i,j] = A[i] > B[j].

#include <cstddef>
#include <functional>
#include <type_traits>

#include "core/instrument.hpp"
#include "util/assert.hpp"

namespace mp {

/// Merges exactly `steps` elements, reading from positions *a_pos of A and
/// *b_pos of B, writing to `out`. Updates a_pos/b_pos to the consumed
/// counts. The caller guarantees steps <= (m - *a_pos) + (n - *b_pos).
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>, typename Instr = NoInstrument>
OutIter merge_steps(IterA a, std::size_t m, IterB b, std::size_t n,
                    std::size_t* a_pos, std::size_t* b_pos, OutIter out,
                    std::size_t steps, Comp comp = {},
                    Instr* instr = nullptr) {
  std::size_t i = *a_pos;
  std::size_t j = *b_pos;
  MP_ASSERT(steps <= (m - i) + (n - j));
  auto note_compare = [&] {
    if constexpr (!std::is_same_v<Instr, NoInstrument>) {
      if (instr) instr->compare();
    }
  };
  auto note_move = [&] {
    if constexpr (!std::is_same_v<Instr, NoInstrument>) {
      if (instr) instr->move();
    }
  };

  std::size_t remaining = steps;
  // Main loop: both inputs non-empty.
  while (remaining > 0 && i < m && j < n) {
    note_compare();
    if (comp(b[j], a[i])) {
      *out++ = b[j++];
    } else {
      *out++ = a[i++];  // ties take A: stability
    }
    note_move();
    --remaining;
  }
  // Tail: one side exhausted.
  while (remaining > 0 && i < m) {
    *out++ = a[i++];
    note_move();
    --remaining;
  }
  while (remaining > 0 && j < n) {
    *out++ = b[j++];
    note_move();
    --remaining;
  }
  MP_ASSERT(remaining == 0);
  *a_pos = i;
  *b_pos = j;
  return out;
}

/// Classic full merge of [a, a+m) and [b, b+n) into `out`; returns the end
/// of the output. Stable with A-priority. This is the sequential baseline
/// used in experiment E2 (the paper's "6% single-thread overhead" remark).
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>, typename Instr = NoInstrument>
OutIter sequential_merge(IterA a, std::size_t m, IterB b, std::size_t n,
                         OutIter out, Comp comp = {},
                         Instr* instr = nullptr) {
  std::size_t i = 0, j = 0;
  return merge_steps(a, m, b, n, &i, &j, out, m + n, comp, instr);
}

/// The "truly sequential merge" of the paper's Section VI remark: the
/// textbook two-pointer merge with no step budget and no resumable
/// positions — the leanest loop a sequential implementation can run.
/// Algorithm 1 with p = 1 executes merge_steps() instead, which carries a
/// remaining-steps counter and resumable cursors; the instruction
/// difference between the two is what experiment E2 measures (the paper
/// reports ~6% including OpenMP overhead).
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>>
OutIter classic_merge(IterA a, std::size_t m, IterB b, std::size_t n,
                      OutIter out, Comp comp = {}) {
  std::size_t i = 0, j = 0;
  while (i < m && j < n) {
    if (comp(b[j], a[i]))
      *out++ = b[j++];
    else
      *out++ = a[i++];
  }
  while (i < m) *out++ = a[i++];
  while (j < n) *out++ = b[j++];
  return out;
}

}  // namespace mp
