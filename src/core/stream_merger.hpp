#pragma once
/// \file stream_merger.hpp
/// Online merging of two sorted streams that arrive in chunks.
///
/// The segmented algorithm (Algorithm 2) processes a *complete* pair of
/// arrays through cache-sized windows; StreamMerger handles the harder
/// online variant where the windows are all that exists yet: sources push
/// sorted chunks as they arrive (network feeds, sorted-run spills), and
/// the merger emits the maximal prefix of the final merged sequence that
/// is already *determined* — i.e. provably unaffected by any future input.
///
/// Determinedness rule (with the library's stable A-priority order):
///  - taking A's head is final whenever a[i] <= b[j] (any future B is
///    >= b[j]);
///  - taking B's head is final whenever b[j] < a[i] (any future A is
///    >= a[i] > b[j]);
///  - once a buffer runs dry with its stream still open, nothing more is
///    determined until data arrives or the stream closes.
///
/// The length of the determined prefix is exactly the diagonal at which
/// the merge path of the buffered windows first touches an open stream's
/// buffer boundary — found with the paper's diagonal binary search, so a
/// pull() costs O(log) beyond the copying, and large pulls can run the
/// merge itself in parallel via Algorithm 1.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/merge_path.hpp"
#include "core/parallel_merge.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp {

template <typename T, typename Comp = std::less<>>
class StreamMerger {
 public:
  explicit StreamMerger(Comp comp = {}, Executor exec = {})
      : comp_(comp), exec_(exec) {}

  /// Appends a sorted chunk to stream A. Chunks must be internally sorted
  /// and no smaller than anything previously pushed on A (checked).
  void push_a(std::span<const T> chunk) { push(chunk, buf_a_, head_a_, a_open_); }
  /// Appends a sorted chunk to stream B (same contract as push_a).
  void push_b(std::span<const T> chunk) { push(chunk, buf_b_, head_b_, b_open_); }

  /// Declares stream A finished: its buffered remainder becomes fully
  /// determined (subject to B).
  void close_a() { a_open_ = false; }
  void close_b() { b_open_ = false; }

  bool a_open() const { return a_open_; }
  bool b_open() const { return b_open_; }

  /// Elements currently buffered (pushed but not yet pulled).
  std::size_t buffered_a() const { return buf_a_.size() - head_a_; }
  std::size_t buffered_b() const { return buf_b_.size() - head_b_; }

  /// Number of merged elements that are determined right now.
  std::size_t available() const {
    const std::size_t avail_a = buffered_a();
    const std::size_t avail_b = buffered_b();
    const T* a = buf_a_.data() + head_a_;
    const T* b = buf_b_.data() + head_b_;
    std::size_t limit = avail_a + avail_b;
    if (a_open_)
      limit = std::min(limit, exhaustion_diagonal(a, avail_a, b, avail_b,
                                                  /*of_a=*/true));
    if (b_open_)
      limit = std::min(limit, exhaustion_diagonal(a, avail_a, b, avail_b,
                                                  /*of_a=*/false));
    return limit;
  }

  /// True when both streams are closed and every element has been pulled.
  bool finished() const {
    return !a_open_ && !b_open_ && buffered_a() == 0 && buffered_b() == 0;
  }

  /// Merges up to out.size() determined elements into `out`; returns the
  /// number written. Uses the parallel merge when the pull is large.
  std::size_t pull(std::span<T> out) {
    const std::size_t take = std::min(out.size(), available());
    if (take == 0) return 0;
    obs::Span span("stream.pull", "take", take);
    const std::size_t avail_a = buffered_a();
    const std::size_t avail_b = buffered_b();
    const T* a = buf_a_.data() + head_a_;
    const T* b = buf_b_.data() + head_b_;

    // How much of each buffer the pull consumes: the co-rank at `take`.
    const PathPoint cut =
        path_point_on_diagonal(a, avail_a, b, avail_b, take, comp_);
    if (take >= kParallelPullThreshold) {
      parallel_merge(a, cut.i, b, cut.j, out.data(), exec_, comp_);
    } else {
      std::size_t i = 0, j = 0;
      kernels::merge_steps_auto(a, cut.i, b, cut.j, &i, &j, out.data(), take,
                                comp_);
    }
    head_a_ += cut.i;
    head_b_ += cut.j;
    compact(buf_a_, head_a_);
    compact(buf_b_, head_b_);
    return take;
  }

  /// Drains everything determined into a vector (convenience).
  std::vector<T> pull_all() {
    std::vector<T> out(available());
    const std::size_t got = pull(std::span<T>(out));
    static_cast<void>(got);  // MP_ASSERT compiles away under NDEBUG
    MP_ASSERT(got == out.size());
    return out;
  }

 private:
  // Pulls get parallel execution once they are comfortably larger than a
  // partition's bookkeeping.
  static constexpr std::size_t kParallelPullThreshold = 1 << 15;

  void push(std::span<const T> chunk, std::vector<T>& buf, std::size_t head,
            bool open) {
    MP_CHECK(open);  // pushing after close_x() is a contract violation
    if (chunk.empty()) return;
    obs::Span span("stream.push", "size", chunk.size());
    MP_ASSERT(std::is_sorted(chunk.begin(), chunk.end(), comp_));
    if (buf.size() > head) MP_ASSERT(!comp_(chunk.front(), buf.back()));
    buf.insert(buf.end(), chunk.begin(), chunk.end());
  }

  /// Smallest diagonal at which the merge path of the buffered windows has
  /// consumed ALL of one side (A when of_a). Monotone in the diagonal, so
  /// a binary search over diagonals (each probe one co-rank search).
  std::size_t exhaustion_diagonal(const T* a, std::size_t avail_a,
                                  const T* b, std::size_t avail_b,
                                  bool of_a) const {
    const std::size_t target = of_a ? avail_a : avail_b;
    std::size_t lo = target;  // cannot exhaust side X before X steps
    std::size_t hi = avail_a + avail_b;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const PathPoint pt =
          path_point_on_diagonal(a, avail_a, b, avail_b, mid, comp_);
      const std::size_t consumed = of_a ? pt.i : pt.j;
      if (consumed >= target)
        hi = mid;
      else
        lo = mid + 1;
    }
    return lo;
  }

  /// Reclaims consumed space once it dominates the buffer.
  static void compact(std::vector<T>& buf, std::size_t& head) {
    if (head > 0 && head >= buf.size() / 2) {
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }

  Comp comp_;
  Executor exec_;
  std::vector<T> buf_a_, buf_b_;
  std::size_t head_a_ = 0, head_b_ = 0;
  bool a_open_ = true, b_open_ = true;
};

}  // namespace mp
