#include "pram/simulate.hpp"

#include <algorithm>
#include <cmath>

#include "core/mergepath.hpp"
#include "kernels/sort_network.hpp"
#include "util/assert.hpp"
#include "util/hw.hpp"
#include "util/threading.hpp"

namespace mp::pram {
namespace {

using Element = std::int32_t;
constexpr std::uint64_t kElem = sizeof(Element);

/// Accumulates phases into a SimResult, applying the machine model.
class Accumulator {
 public:
  Accumulator(const MachineModel& model, unsigned lanes)
      : model_(model), lanes_(lanes) {
    result_.lanes = lanes;
  }

  /// One fork-join phase over `counts` lanes.
  void phase(std::span<const OpCounts> counts) {
    double slowest = 0.0;
    std::uint64_t max_ops = 0;
    for (const OpCounts& ops : counts) {
      slowest = std::max(slowest, model_.lane_ns(ops));
      max_ops = std::max(max_ops, ops.total());
      result_.work_ops += ops.total();
      result_.totals += ops;
    }
    result_.compute_ns += slowest;
    result_.barrier_ns += model_.barrier_ns(lanes_);
    result_.critical_ops += max_ops;
    ++result_.phases;
  }

  /// Serial (single-lane, no barrier) work.
  void serial(const OpCounts& ops) {
    result_.compute_ns += model_.lane_ns(ops);
    result_.critical_ops += ops.total();
    result_.work_ops += ops.total();
    result_.totals += ops;
  }

  /// One streaming pass over `bytes` of memory; only the portion beyond
  /// the LLC is priced (capacity traffic). Lanes share bandwidth up to the
  /// saturation point.
  void memory_pass(std::uint64_t bytes) {
    const std::uint64_t excess =
        bytes > model_.llc_bytes ? bytes - model_.llc_bytes : 0;
    result_.memory_ns += model_.memory_ns(excess, lanes_);
  }

  SimResult finish() {
    result_.time_ns =
        result_.compute_ns + result_.memory_ns + result_.barrier_ns;
    return result_;
  }

 private:
  const MachineModel& model_;
  unsigned lanes_;
  SimResult result_;
};

constexpr std::size_t kRun = kernels::kInsertionRunWidth;

/// Streaming passes a bottom-up sequential merge sort of `n` elements makes
/// over its data (insertion-sort pass plus one per width doubling).
std::uint64_t merge_sort_passes(std::size_t n) {
  std::uint64_t passes = 1;
  for (std::size_t width = kRun; width < n; width *= 2) ++passes;
  return passes;
}

/// The stage-2 merge configuration of the Section IV.C sort. Its
/// cache_bytes is the resolved budget C (the request, or the host L1d for
/// 0) that the blocks derive from too, so L = C/3 of the same budget.
SegmentedConfig cache_sort_merge_config(std::size_t cache_bytes) {
  SegmentedConfig config;
  config.cache_bytes =
      cache_bytes > 0 ? cache_bytes : host_info().l1d_bytes();
  return config;
}

/// The counted bottom-up sort of data[0, n) with scratch of the same
/// length: 24-key insertion runs, whole merge_steps passes of doubling
/// width, and a copy-back when the result ends in scratch.
void counted_merge_sort(Element* data, Element* scratch, std::size_t n,
                        OpCounts& ops) {
  if (n <= 1) return;
  for (std::size_t begin = 0; begin < n; begin += kRun)
    kernels::detail::insertion_sort_fallback(
        data + begin, std::min(kRun, n - begin), std::less<>{}, &ops);
  Element* src = data;
  Element* dst = scratch;
  for (std::size_t width = kRun; width < n; width *= 2) {
    for (std::size_t begin = 0; begin < n; begin += 2 * width) {
      const std::size_t mid = std::min(begin + width, n);
      const std::size_t end = std::min(begin + 2 * width, n);
      std::size_t i = 0, j = 0;
      merge_steps(src + begin, mid - begin, src + mid, end - mid, &i, &j,
                  dst + begin, end - begin, std::less<>{}, &ops);
    }
    std::swap(src, dst);
  }
  if (src != data) {
    std::copy(src, src + n, data);
    ops.move(n);
  }
}

/// Lane k's block [k·n/p, (k+1)·n/p) of the parallel sorts' p blocks.
Run block(std::size_t n, unsigned lanes, unsigned lane) {
  return Run{lane * n / lanes, (lane + 1ull) * n / lanes};
}

/// Phase 1 of both parallel sorts: lane k sorts its block.
std::vector<OpCounts> counted_block_sorts(Element* data, Element* scratch,
                                          std::size_t n, unsigned lanes) {
  std::vector<OpCounts> counts(lanes);
  for (unsigned lane = 0; lane < lanes; ++lane) {
    const Run r = block(n, lanes, lane);
    counted_merge_sort(data + r.begin, scratch + r.begin, r.size(),
                       counts[lane]);
  }
  return counts;
}

/// The copy-back phase of the parallel sorts: lane k moves its block.
std::vector<OpCounts> copyback_counts(std::size_t n, unsigned lanes) {
  std::vector<OpCounts> counts(lanes);
  for (unsigned lane = 0; lane < lanes; ++lane)
    counts[lane].move(block(n, lanes, lane).size());
  return counts;
}

/// One flattened round of parallel_merge_sort (merge_round_balanced): the
/// round's output is cut into `lanes` equal slices, and a lane runs one
/// path_point_on_diagonal plus merge_steps per pair its slice overlaps.
std::vector<Run> counted_merge_round(const Element* src, Element* dst,
                                     const std::vector<Run>& runs,
                                     std::span<OpCounts> counts) {
  const std::size_t base = runs.front().begin;
  const std::size_t total = runs.back().end - base;
  const std::size_t p = counts.size();
  std::vector<Run> merged;
  for (std::size_t t = 0; 2 * t < runs.size(); ++t) {
    const Run a = runs[2 * t];
    const Run b = 2 * t + 1 < runs.size() ? runs[2 * t + 1] : Run{a.end, a.end};
    merged.push_back(Run{a.begin, b.end});
    for (std::size_t lane = 0; lane < p; ++lane) {
      const std::size_t s0 = std::max(base + lane * total / p, a.begin);
      const std::size_t s1 = std::min(base + (lane + 1) * total / p, b.end);
      if (s0 >= s1) continue;
      PathPoint at = path_point_on_diagonal(
          src + a.begin, a.size(), src + b.begin, b.size(), s0 - a.begin,
          std::less<>{}, &counts[lane]);
      merge_steps(src + a.begin, a.size(), src + b.begin, b.size(), &at.i,
                  &at.j, dst + s0, s1 - s0, std::less<>{}, &counts[lane]);
    }
  }
  return merged;
}

/// parallel_merge_sort's fork-join phases over data[0, n), one per-lane
/// count vector each: one serial sort when lanes == 1 or n <= 24·lanes,
/// else the block sorts, the flattened rounds, and the copy-back when the
/// result ends in scratch.
std::vector<std::vector<OpCounts>> merge_sort_phases(Element* data,
                                                     std::size_t n,
                                                     unsigned lanes) {
  std::vector<Element> scratch(n);
  if (lanes == 1 || n <= lanes * kRun) {
    std::vector<OpCounts> ops(1);
    counted_merge_sort(data, scratch.data(), n, ops[0]);
    return {ops};
  }
  std::vector<std::vector<OpCounts>> phases{
      counted_block_sorts(data, scratch.data(), n, lanes)};
  std::vector<Run> runs(lanes);
  for (unsigned lane = 0; lane < lanes; ++lane)
    runs[lane] = block(n, lanes, lane);
  Element* src = data;
  Element* dst = scratch.data();
  while (runs.size() > 1) {
    phases.emplace_back(lanes);
    runs = counted_merge_round(src, dst, runs, phases.back());
    std::swap(src, dst);
  }
  if (src != data) {
    std::copy(src, src + n, data);
    phases.push_back(copyback_counts(n, lanes));
  }
  return phases;
}

/// The one-lane sort both sort drivers fall back to, priced serially.
SimResult simulate_serial_sort(std::vector<Element>& data, Accumulator& acc) {
  const std::size_t n = data.size();
  std::vector<Element> scratch(n);
  OpCounts ops;
  counted_merge_sort(data.data(), scratch.data(), n, ops);
  acc.serial(ops);
  for (std::uint64_t p = 0; p < merge_sort_passes(n); ++p)
    acc.memory_pass(2 * kElem * n);
  return acc.finish();
}

}  // namespace

void counted_parallel_merge_sort(Element* data, std::size_t n,
                                 unsigned lanes, std::span<OpCounts> counts) {
  MP_CHECK(lanes >= 1 && counts.size() >= lanes);
  for (const auto& phase : merge_sort_phases(data, n, lanes))
    for (std::size_t lane = 0; lane < phase.size(); ++lane)
      counts[lane] += phase[lane];
}

void counted_parallel_merge(const Element* a, std::size_t m, const Element* b,
                            std::size_t n, Element* out, unsigned lanes,
                            std::span<OpCounts> counts) {
  MP_CHECK(lanes >= 1 && counts.size() >= lanes);
  if (lanes == 1 || m + n <= lanes) {
    sequential_merge(a, m, b, n, out, std::less<>{}, &counts[0]);
    return;
  }
  for (unsigned lane = 0; lane < lanes; ++lane) {
    MergeSlice s = merge_slice_for_lane(a, m, b, n, lane, lanes,
                                        std::less<>{}, &counts[lane]);
    merge_steps(a, m, b, n, &s.a_begin, &s.b_begin, out + s.out_begin,
                s.steps, std::less<>{}, &counts[lane]);
  }
}

void counted_multiway_merge(std::span<const std::span<const Element>> runs,
                            Element* out, unsigned lanes,
                            std::span<OpCounts> counts) {
  MP_CHECK(lanes >= 1 && counts.size() >= lanes);
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  for (unsigned lane = 0; lane < lanes; ++lane) {
    const std::size_t r0 = lane * total / lanes;
    const std::size_t r1 = (lane + 1ull) * total / lanes;
    if (r0 == r1) continue;
    const auto start = multiway_select(runs, r0, std::less<>{}, &counts[lane]);
    std::vector<LoserTree<Element>::Cursor> cursors(runs.size());
    for (std::size_t t = 0; t < runs.size(); ++t)
      cursors[t] = {runs[t].data() + start[t], std::to_address(runs[t].end())};
    LoserTree<Element>(std::move(cursors)).pop_n(out + r0, r1 - r0,
                                                 &counts[lane]);
  }
}

SimResult simulate_sequential_merge(const std::vector<Element>& a,
                                    const std::vector<Element>& b,
                                    const MachineModel& model) {
  Accumulator acc(model, 1);
  std::vector<Element> out(a.size() + b.size());
  OpCounts ops;
  sequential_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                   std::less<>{}, &ops);
  acc.serial(ops);
  acc.memory_pass(2 * kElem * out.size());
  return acc.finish();
}

SimResult simulate_parallel_merge(const std::vector<Element>& a,
                                  const std::vector<Element>& b,
                                  unsigned lanes, const MachineModel& model) {
  MP_CHECK(lanes >= 1);
  Accumulator acc(model, lanes);
  std::vector<Element> out(a.size() + b.size());
  std::vector<OpCounts> counts(lanes);
  counted_parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                         lanes, counts);
  acc.phase(counts);
  acc.memory_pass(2 * kElem * out.size());
  return acc.finish();
}

SimResult simulate_segmented_merge(const std::vector<Element>& a,
                                   const std::vector<Element>& b,
                                   unsigned lanes, const MachineModel& model,
                                   SegmentedConfig config) {
  MP_CHECK(lanes >= 1);
  ThreadPool serial_pool(0);
  Executor exec{&serial_pool, lanes};
  Accumulator acc(model, lanes);

  std::vector<Element> out(a.size() + b.size());
  std::vector<OpCounts> counts(lanes);
  const SegmentedStats stats = segmented_parallel_merge(
      a.data(), a.size(), b.data(), b.size(), out.data(), config, exec,
      std::less<>{}, std::span<OpCounts>(counts));

  // Approximation (documented in simulate.hpp): staging, partition+merge
  // and write-back are each balanced across lanes by construction, so the
  // accumulated per-lane totals price correctly as one max(); the
  // per-segment barriers are charged separately — three per segment (end
  // of staging, end of the parallel merge, end of the write-back).
  acc.phase(counts);
  for (std::size_t s = 1; s < 3 * stats.segments; ++s) {
    // phase() above already charged one barrier; charge the rest.
    const OpCounts empty{};
    acc.phase(std::span<const OpCounts>(&empty, 1));
  }
  acc.memory_pass(2 * kElem * out.size());
  return acc.finish();
}

SimResult simulate_merge_sort(std::vector<Element> data, unsigned lanes,
                              const MachineModel& model) {
  MP_CHECK(lanes >= 1);
  const std::size_t n = data.size();
  Accumulator acc(model, lanes);
  if (n <= 1) return acc.finish();
  if (lanes == 1 || n <= lanes * kRun) return simulate_serial_sort(data, acc);

  // Phase 1 (block sorts) streams the data once per pass; every round and
  // the copy-back stream it once.
  const auto phases = merge_sort_phases(data.data(), n, lanes);
  acc.phase(phases[0]);
  for (std::uint64_t p = 0; p < merge_sort_passes(n / lanes); ++p)
    acc.memory_pass(2 * kElem * n);
  for (std::size_t k = 1; k < phases.size(); ++k) {
    acc.phase(phases[k]);
    acc.memory_pass(2 * kElem * n);
  }
  return acc.finish();
}

SimResult simulate_multiway_sort(std::vector<Element> data, unsigned lanes,
                                 const MachineModel& model) {
  MP_CHECK(lanes >= 1);
  const std::size_t n = data.size();
  Accumulator acc(model, lanes);
  if (n <= 1) return acc.finish();
  if (lanes == 1 || n <= lanes * 32) return simulate_serial_sort(data, acc);

  // Phase 1: p block sorts.
  std::vector<Element> scratch(n);
  acc.phase(counted_block_sorts(data.data(), scratch.data(), n, lanes));
  for (std::uint64_t p = 0; p < merge_sort_passes(n / lanes); ++p)
    acc.memory_pass(2 * kElem * n);

  // Phase 2: one k-way merge (selection + loser tree), then copy-back.
  std::vector<std::span<const Element>> runs(lanes);
  for (unsigned lane = 0; lane < lanes; ++lane) {
    const Run r = block(n, lanes, lane);
    runs[lane] = {data.data() + r.begin, r.size()};
  }
  std::vector<OpCounts> counts(lanes);
  counted_multiway_merge(runs, scratch.data(), lanes, counts);
  acc.phase(counts);
  acc.memory_pass(2 * kElem * n);
  acc.phase(copyback_counts(n, lanes));
  acc.memory_pass(2 * kElem * n);
  return acc.finish();
}

std::size_t cache_sort_block_elems(std::size_t cache_bytes) {
  const std::size_t elems =
      cache_sort_merge_config(cache_bytes).cache_bytes / kElem / 2;
  return elems >= 2 ? elems : 2;
}

void cache_sort(std::span<Element> data, unsigned lanes,
                std::size_t cache_bytes, std::span<OpCounts> counts) {
  MP_CHECK(lanes >= 1 && counts.size() >= lanes);
  const std::size_t n = data.size();
  if (n <= 1) return;
  ThreadPool serial_pool(0);
  const Executor exec{&serial_pool, lanes};
  const std::size_t block = cache_sort_block_elems(cache_bytes);
  const SegmentedConfig merge_cfg = cache_sort_merge_config(cache_bytes);

  // Stage 1: sort cache-sized blocks one by one, each with all p lanes.
  std::vector<Run> runs;
  for (std::size_t begin = 0; begin < n; begin += block) {
    const std::size_t end = std::min(begin + block, n);
    counted_parallel_merge_sort(data.data() + begin, end - begin, lanes,
                                counts);
    runs.push_back(Run{begin, end});
  }

  // Stage 2: binary merge tree; each pair merged with Algorithm 2.
  std::vector<Element> scratch(n);
  Element* src = data.data();
  Element* dst = scratch.data();
  while (runs.size() > 1) {
    std::vector<Run> merged;
    merged.reserve((runs.size() + 1) / 2);
    for (std::size_t t = 0; 2 * t < runs.size(); ++t) {
      const Run a = runs[2 * t];
      if (2 * t + 1 < runs.size()) {
        const Run b = runs[2 * t + 1];
        segmented_parallel_merge(src + a.begin, a.size(), src + b.begin,
                                 b.size(), dst + a.begin, merge_cfg, exec,
                                 std::less<>{}, counts);
        merged.push_back(Run{a.begin, b.end});
      } else {
        // Unpaired trailing run: carry it over to the other buffer.
        std::copy(src + a.begin, src + a.end, dst + a.begin);
        counts[0].move(a.size());
        merged.push_back(a);
      }
    }
    runs = std::move(merged);
    std::swap(src, dst);
  }
  if (src != data.data()) {
    std::copy(src, src + n, data.data());
    const auto copyback = copyback_counts(n, lanes);
    for (unsigned lane = 0; lane < lanes; ++lane)
      counts[lane] += copyback[lane];
  }
}

SimResult simulate_cache_sort(std::vector<Element> data, unsigned lanes,
                              const MachineModel& model,
                              std::size_t cache_bytes) {
  MP_CHECK(lanes >= 1);
  const std::size_t n = data.size();
  Accumulator acc(model, lanes);
  if (n <= 1) return acc.finish();

  std::vector<OpCounts> counts(lanes);
  cache_sort(data, lanes, cache_bytes, counts);

  // Coarse phase pricing (the per-phase structure is inside the algorithm):
  // charge the accumulated per-lane totals as one balanced phase, then add
  // the analytically known barrier count — stage 1 runs one parallel sort
  // per block (1 + ceil(log2 p) + 1 phases each), stage 2 runs two barriers
  // per merge segment per round, with the L the merges themselves use.
  acc.phase(counts);
  const std::size_t block = cache_sort_block_elems(cache_bytes);
  const std::size_t blocks = (n + block - 1) / block;
  const std::size_t seg =
      cache_sort_merge_config(cache_bytes).resolve_segment_length<Element>();
  const double log2p = std::ceil(std::log2(static_cast<double>(lanes)));
  const double rounds = std::ceil(std::log2(static_cast<double>(
      std::max<std::size_t>(blocks, 1))));
  double extra_barriers = static_cast<double>(blocks) * (2.0 + log2p);
  extra_barriers += rounds * 2.0 * static_cast<double>(n) /
                    static_cast<double>(std::max<std::size_t>(seg, 1));
  OpCounts empty{};
  for (double s = 1; s < extra_barriers; s += 1.0)
    acc.phase(std::span<const OpCounts>(&empty, 1));

  const std::uint64_t passes =
      merge_sort_passes(block) + static_cast<std::uint64_t>(rounds);
  for (std::uint64_t p = 0; p < passes; ++p) acc.memory_pass(2 * kElem * n);
  return acc.finish();
}

}  // namespace mp::pram
