#include "pram/simulate.hpp"

#include <algorithm>
#include <cmath>

#include "core/mergepath.hpp"
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

/// Streaming passes a bottom-up sequential merge sort of `n` elements makes
/// over its data (insertion-sort pass plus one per width doubling).
std::uint64_t merge_sort_passes(std::size_t n) {
  std::uint64_t passes = 1;
  for (std::size_t width = 24; width < n; width *= 2) ++passes;
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

}  // namespace

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
  ThreadPool serial_pool(0);
  Executor exec{&serial_pool, lanes};
  Accumulator acc(model, lanes);

  std::vector<Element> out(a.size() + b.size());
  std::vector<OpCounts> counts(lanes);
  parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(), exec,
                 std::less<>{}, std::span<OpCounts>(counts));
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
  ThreadPool serial_pool(0);
  Executor exec{&serial_pool, lanes};
  Accumulator acc(model, lanes);
  if (n <= 1) return acc.finish();

  std::vector<Element> scratch(n);
  if (lanes == 1 || n <= lanes * 24) {
    OpCounts ops;
    sequential_merge_sort(data.data(), scratch.data(), n, std::less<>{},
                          &ops);
    acc.serial(ops);
    for (std::uint64_t p = 0; p < merge_sort_passes(n); ++p)
      acc.memory_pass(2 * kElem * n);
    return acc.finish();
  }

  // Phase 1: p block sorts (mirrors parallel_merge_sort's phase 1 exactly;
  // the real function is covered against this driver by tests).
  std::vector<Run> runs(lanes);
  {
    std::vector<OpCounts> counts(lanes);
    for (unsigned lane = 0; lane < lanes; ++lane) {
      const std::size_t begin = lane * n / lanes;
      const std::size_t end = (lane + 1ull) * n / lanes;
      runs[lane] = Run{begin, end};
      sequential_merge_sort(data.data() + begin, scratch.data() + begin,
                            end - begin, std::less<>{}, &counts[lane]);
    }
    acc.phase(counts);
    for (std::uint64_t p = 0; p < merge_sort_passes(n / lanes); ++p)
      acc.memory_pass(2 * kElem * n);
  }

  // Phase 2: flattened merge rounds.
  Element* src = data.data();
  Element* dst = scratch.data();
  while (runs.size() > 1) {
    std::vector<OpCounts> counts(lanes);
    runs = merge_round_balanced(src, dst, runs, exec, std::less<>{},
                                std::span<OpCounts>(counts));
    acc.phase(counts);
    acc.memory_pass(2 * kElem * n);
    std::swap(src, dst);
  }
  if (src != data.data()) {
    std::vector<OpCounts> counts(lanes);
    for (unsigned lane = 0; lane < lanes; ++lane)
      counts[lane].move((lane + 1ull) * n / lanes - lane * n / lanes);
    acc.phase(counts);
    acc.memory_pass(2 * kElem * n);
  }
  return acc.finish();
}

SimResult simulate_multiway_sort(std::vector<Element> data, unsigned lanes,
                                 const MachineModel& model) {
  MP_CHECK(lanes >= 1);
  const std::size_t n = data.size();
  ThreadPool serial_pool(0);
  Executor exec{&serial_pool, lanes};
  Accumulator acc(model, lanes);
  if (n <= 1) return acc.finish();

  std::vector<Element> scratch(n);
  if (lanes == 1 || n <= lanes * 32) {
    OpCounts ops;
    sequential_merge_sort(data.data(), scratch.data(), n, std::less<>{},
                          &ops);
    acc.serial(ops);
    for (std::uint64_t p = 0; p < merge_sort_passes(n); ++p)
      acc.memory_pass(2 * kElem * n);
    return acc.finish();
  }

  // Phase 1: p block sorts.
  std::vector<std::span<const Element>> runs(lanes);
  {
    std::vector<OpCounts> counts(lanes);
    for (unsigned lane = 0; lane < lanes; ++lane) {
      const std::size_t begin = lane * n / lanes;
      const std::size_t end = (lane + 1ull) * n / lanes;
      sequential_merge_sort(data.data() + begin, scratch.data() + begin,
                            end - begin, std::less<>{}, &counts[lane]);
      runs[lane] = std::span<const Element>(data.data() + begin,
                                            end - begin);
    }
    acc.phase(counts);
    for (std::uint64_t p = 0; p < merge_sort_passes(n / lanes); ++p)
      acc.memory_pass(2 * kElem * n);
  }

  // Phase 2: one k-way merge (selection + loser tree), then copy-back.
  {
    std::vector<OpCounts> counts(lanes);
    parallel_multiway_merge(std::span<const std::span<const Element>>(runs),
                            scratch.data(), exec, std::less<>{},
                            std::span<OpCounts>(counts));
    acc.phase(counts);
    acc.memory_pass(2 * kElem * n);
  }
  {
    std::vector<OpCounts> counts(lanes);
    for (unsigned lane = 0; lane < lanes; ++lane)
      counts[lane].move((lane + 1ull) * n / lanes - lane * n / lanes);
    acc.phase(counts);
    acc.memory_pass(2 * kElem * n);
  }
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
    parallel_merge_sort(data.data() + begin, end - begin, exec, std::less<>{},
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
    for (unsigned lane = 0; lane < lanes; ++lane) {
      const std::size_t begin = lane * n / lanes;
      const std::size_t end = (lane + 1ull) * n / lanes;
      std::copy(src + begin, src + end, data.data() + begin);
      counts[lane].move(end - begin);
    }
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
