#pragma once
/// \file naive_split.hpp
/// Baseline S15 — the *incorrect* naive parallel merge from the paper's
/// introduction: partition each input into p equal contiguous chunks,
/// merge same-numbered chunk pairs independently, and concatenate.
///
/// "Unfortunately, this is incorrect. (To see this, consider the case
///  wherein all the elements of A are greater than all those of B.)"
///                                                       — Section I
///
/// The function is kept in the library deliberately: the test suite and
/// the quickstart example use it to *demonstrate* the failure mode the
/// Merge Path partition exists to solve. It produces a permutation of the
/// input that is sorted only when the chunk pairs happen to align.

#include <cstddef>
#include <functional>
#include <vector>

#include "core/sequential_merge.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp::baselines {

/// The naive equal-split "merge". Output is always a permutation of the
/// union of A and B, but in general NOT sorted.
template <typename T, typename Comp = std::less<>>
void naive_split_merge(const T* a, std::size_t m, const T* b, std::size_t n,
                       T* out, Executor exec = {}, Comp comp = {}) {
  const unsigned lanes = exec.resolve_threads();
  exec.run_lanes(lanes, [&](unsigned lane) {
    const std::size_t a0 = lane * m / lanes;
    const std::size_t a1 = (lane + 1ull) * m / lanes;
    const std::size_t b0 = lane * n / lanes;
    const std::size_t b1 = (lane + 1ull) * n / lanes;
    std::size_t i = 0, j = 0;
    merge_steps(a + a0, a1 - a0, b + b0, b1 - b0, &i, &j, out + a0 + b0,
                (a1 - a0) + (b1 - b0), comp);
  });
}

/// Convenience vector front-end.
template <typename T, typename Comp = std::less<>>
std::vector<T> naive_split_merge(const std::vector<T>& a,
                                 const std::vector<T>& b, Executor exec = {},
                                 Comp comp = {}) {
  std::vector<T> out(a.size() + b.size());
  naive_split_merge(a.data(), a.size(), b.data(), b.size(), out.data(), exec,
                    comp);
  return out;
}

}  // namespace mp::baselines
