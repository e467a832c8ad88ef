#pragma once
/// \file segmented_merge.hpp
/// Algorithm 2 of the paper — Segmented Parallel Merge (SPM), Section IV.B.
///
/// The merge path is processed in segments of length L = C/3 (C = cache
/// capacity in elements), so the working set of one segment — up to L
/// staged elements of A, L of B, and L outputs — fits in cache. Each
/// iteration:
///   1. fetches input elements into two cyclic staging buffers, replacing
///      exactly the elements consumed by the previous iteration (step 1 of
///      Algorithm 2);
///   2. in parallel, each of p lanes binary-searches its start point on the
///      staged windows and merges L/p steps (step 2);
///   3. writes the merged segment out to the destination (step 3).
///
/// The cyclic buffers mirror the paper's formulation: staged elements keep
/// fixed buffer slots for their lifetime, which is what makes the 3-way
/// set-associativity collision-freedom claim (Section IV.B Remark)
/// meaningful. Indexing wraps via CyclicView.
///
/// Complexity (paper): O(N/C·(log C + C/p)) time, O(N/C·p·log C + N) work.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_path.hpp"
#include "core/sequential_merge.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/hw.hpp"
#include "util/threading.hpp"

namespace mp {

/// Random-access view over a fixed-capacity ring buffer: view[k] is the
/// k-th staged-but-unconsumed element. Cheap to copy; supports the subset
/// of iterator operations the merge kernels use (operator[], operator+).
template <typename T>
class CyclicView {
 public:
  CyclicView(const T* storage, std::size_t capacity, std::size_t head)
      : storage_(storage), capacity_(capacity), head_(head) {}

  const T& operator[](std::size_t k) const {
    std::size_t idx = head_ + k;
    if (idx >= capacity_) idx -= capacity_;  // k < capacity_ by contract
    return storage_[idx];
  }

  CyclicView operator+(std::size_t offset) const {
    std::size_t head = head_ + offset;
    if (head >= capacity_) head -= capacity_;
    return CyclicView(storage_, capacity_, head);
  }

 private:
  const T* storage_;
  std::size_t capacity_;
  std::size_t head_;
};

/// Tuning parameters for SPM.
struct SegmentedConfig {
  /// Cache capacity C in BYTES the merge should fit in; 0 = host L1d size.
  std::size_t cache_bytes = 0;
  /// Segment length L in ELEMENTS; 0 = derive as (cache_bytes/elem)/3, the
  /// paper's L = C/3 rule.
  std::size_t segment_length = 0;

  template <typename T>
  std::size_t resolve_segment_length() const {
    if (segment_length > 0) return segment_length;
    const std::size_t bytes =
        cache_bytes > 0 ? cache_bytes : host_info().l1d_bytes();
    const std::size_t elems = bytes / sizeof(T);
    return elems >= 3 ? elems / 3 : 1;
  }
};

/// Per-run statistics SPM can report (segment count, staged element
/// totals); useful for the cache experiments and tests.
struct SegmentedStats {
  std::size_t segments = 0;
  std::size_t staged_a = 0;
  std::size_t staged_b = 0;
  /// Ring windows copied into the linear slabs (0 when the merge is
  /// scalar or counted, or no window ever wrapped).
  std::size_t linearized_windows = 0;
  /// Elements those copies moved.
  std::size_t linearized_elements = 0;
};

/// Algorithm 2: merges sorted [a, a+m) and [b, b+n) into [out, out+m+n)
/// through cache-sized staging buffers. Stable with A-priority, like all
/// merges in this library. `instr` (optional, per lane) is the PRAM
/// model's: counted lanes run merge_steps. Uncounted lanes of a
/// vector-eligible merge under a vector kernel copy wrapped ring windows
/// flat, so every segment takes the vector kernel (docs/PERFORMANCE.md).
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
SegmentedStats segmented_parallel_merge(const T* a, std::size_t m, const T* b,
                                        std::size_t n, T* out,
                                        SegmentedConfig config = {},
                                        Executor exec = {}, Comp comp = {},
                                        std::span<Instr> instr = {}) {
  const std::size_t L = config.resolve_segment_length<T>();
  const unsigned lanes = exec.resolve_threads();
  MP_CHECK(instr.empty() || instr.size() >= lanes);
  obs::Span spm_span("spm", "n", m + n);
  SegmentedStats stats;

  // Staging areas: cyclic input rings of capacity L and a linear output
  // segment of length L — together the 3L = C working set of the paper.
  std::vector<T> ring_a(std::max<std::size_t>(L, 1));
  std::vector<T> ring_b(std::max<std::size_t>(L, 1));
  std::vector<T> seg_out(std::max<std::size_t>(L, 1));

  // Ring-window linearization: when profitable, wrapped windows are
  // copied into these slabs before step 2 so the segment merge always sees
  // contiguous arrays. Decided once per run — the selected kernel cannot
  // change mid-merge.
  bool linearize = false;
  if constexpr (kernels::use_vector_merge_v<const T*, const T*, T*, Comp>) {
    linearize = instr.empty() &&
                kernels::is_vector_kernel(kernels::selected_kernel());
  }
  std::vector<T> lin_a(linearize ? std::max<std::size_t>(L, 1) : 0);
  std::vector<T> lin_b(linearize ? std::max<std::size_t>(L, 1) : 0);

  std::size_t a_done = 0, b_done = 0;   // globally consumed
  std::size_t a_staged = 0, b_staged = 0;  // globally staged into rings
  std::size_t out_pos = 0;
  const std::size_t total = m + n;

  while (out_pos < total) {
    // --- Step 1: fetch. Refill each ring to min(L, remaining) staged
    // elements, writing over the slots freed by the previous iteration.
    // The refill ranges are disjoint per lane, so this phase parallelises
    // like the rest of the algorithm (lanes split both rings' refills).
    const std::size_t a_target = a_done + std::min(L, m - a_done);
    const std::size_t b_target = b_done + std::min(L, n - b_done);
    const std::size_t fill_a = a_target - a_staged;
    const std::size_t fill_b = b_target - b_staged;
    if (fill_a + fill_b > 0) {
      exec.run_lanes(lanes, [&](unsigned lane) {
        obs::Span span("spm.fetch", "lane", lane);
        Instr* li = instr.empty() ? nullptr : &instr[lane];
        const std::size_t a0 = a_staged + lane * fill_a / lanes;
        const std::size_t a1 = a_staged + (lane + 1ull) * fill_a / lanes;
        for (std::size_t g = a0; g < a1; ++g) ring_a[g % L] = a[g];
        const std::size_t b0 = b_staged + lane * fill_b / lanes;
        const std::size_t b1 = b_staged + (lane + 1ull) * fill_b / lanes;
        for (std::size_t g = b0; g < b1; ++g) ring_b[g % L] = b[g];
        if constexpr (!std::is_same_v<Instr, NoInstrument>) {
          if (li) li->stage((a1 - a0) + (b1 - b0));
        }
      });
      a_staged = a_target;
      b_staged = b_target;
      stats.staged_a += fill_a;
      stats.staged_b += fill_b;
    }

    const std::size_t win_a = a_staged - a_done;  // staged A window size
    const std::size_t win_b = b_staged - b_done;
    const std::size_t seg_len = std::min(L, total - out_pos);
    MP_ASSERT(seg_len <= win_a + win_b);

    const std::size_t a_head = a_done % L;
    const std::size_t b_head = b_done % L;
    CyclicView<T> va(ring_a.data(), L, a_head);
    CyclicView<T> vb(ring_b.data(), L, b_head);
    // When a staged window does not wrap around its ring it is a plain
    // contiguous array, and the in-cache segment merge can take the
    // dispatched (possibly vector) kernel; a wrapped window stays on the
    // CyclicView + scalar path unless linearization copies it flat.
    // Same windows, same path, same output bytes either way.
    const T* flat_a = a_head + win_a <= L ? ring_a.data() + a_head : nullptr;
    const T* flat_b = b_head + win_b <= L ? ring_b.data() + b_head : nullptr;
    if (linearize && (flat_a == nullptr || flat_b == nullptr)) {
      obs::Span lin_span("spm.linearize", "len", seg_len);
      if (flat_a == nullptr) {
        const std::size_t first = L - a_head;  // [a_head, L) then the wrap
        std::copy(ring_a.data() + a_head, ring_a.data() + L, lin_a.data());
        std::copy(ring_a.data(), ring_a.data() + (win_a - first),
                  lin_a.data() + first);
        flat_a = lin_a.data();
        ++stats.linearized_windows;
        stats.linearized_elements += win_a;
      }
      if (flat_b == nullptr) {
        const std::size_t first = L - b_head;
        std::copy(ring_b.data() + b_head, ring_b.data() + L, lin_b.data());
        std::copy(ring_b.data(), ring_b.data() + (win_b - first),
                  lin_b.data() + first);
        flat_b = lin_b.data();
        ++stats.linearized_windows;
        stats.linearized_elements += win_b;
      }
    }

    // --- Step 2: parallel partition + merge of this segment (Theorem 16:
    // the p start points depend only on the staged windows).
    obs::Span::counter("spm.segment_len", seg_len);
    exec.run_lanes(lanes, [&](unsigned lane) {
      obs::Span span("spm.segment", "lane", lane);
      Instr* li = instr.empty() ? nullptr : &instr[lane];
      const std::size_t d0 = lane * seg_len / lanes;
      const std::size_t d1 = (lane + 1ull) * seg_len / lanes;
      if (d0 == d1) return;
      if (flat_a && flat_b) {
        const PathPoint start =
            path_point_on_diagonal(flat_a, win_a, flat_b, win_b, d0, comp, li);
        std::size_t i = start.i;
        std::size_t j = start.j;
        if (li)
          merge_steps(flat_a, win_a, flat_b, win_b, &i, &j,
                      seg_out.data() + d0, d1 - d0, comp, li);
        else
          kernels::merge_steps_auto(flat_a, win_a, flat_b, win_b, &i, &j,
                                    seg_out.data() + d0, d1 - d0, comp);
      } else {
        const PathPoint start =
            path_point_on_diagonal(va, win_a, vb, win_b, d0, comp, li);
        std::size_t i = start.i;
        std::size_t j = start.j;
        merge_steps(va, win_a, vb, win_b, &i, &j, seg_out.data() + d0, d1 - d0,
                    comp, li);
      }
    });

    // Consumed counts for this segment = path point at local diagonal
    // seg_len (also what step 1 of the next iteration must refetch).
    const PathPoint seg_end =
        path_point_on_diagonal(va, win_a, vb, win_b, seg_len, comp,
                               instr.empty() ? nullptr : &instr[0]);
    a_done += seg_end.i;
    b_done += seg_end.j;

    // --- Step 3: write the merged segment out.
    exec.run_lanes(lanes, [&](unsigned lane) {
      obs::Span span("spm.flush", "lane", lane);
      const std::size_t d0 = lane * seg_len / lanes;
      const std::size_t d1 = (lane + 1ull) * seg_len / lanes;
      for (std::size_t k = d0; k < d1; ++k) out[out_pos + k] = seg_out[k];
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (!instr.empty()) instr[lane].move(d1 - d0);
      }
    });
    out_pos += seg_len;
    ++stats.segments;
  }
  MP_ASSERT(a_done == m && b_done == n);
  return stats;
}

/// Convenience vector front-end.
template <typename T, typename Comp = std::less<>>
std::vector<T> segmented_parallel_merge(const std::vector<T>& a,
                                        const std::vector<T>& b,
                                        SegmentedConfig config = {},
                                        Executor exec = {}, Comp comp = {}) {
  std::vector<T> out(a.size() + b.size());
  segmented_parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                           config, exec, comp);
  return out;
}

}  // namespace mp
