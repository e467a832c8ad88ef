// Experiment E10 (micro half) — google-benchmark microbenchmarks of the
// primitives: the diagonal binary search vs the Deo-Sarkar halving
// selection, the full path partition, the sequential merge kernels, the
// loser tree, multiway selection, the record merge (BM_MergeRecords), the
// record sort (BM_SortRecords) and its passes (BM_MergePassRecords), and
// one int32 sort lane (BM_SortI32Lane) —
// plus the kernel ablation family (BM_KernelMerge32/64/F32/F64 and
// BM_SortRuns256) that
// scripts/bench_kernels.py turns into BENCH_5.json. Carries its own
// main(): --kernel <name> is stripped before google-benchmark sees argv,
// forces the dispatch choice for every benchmark, and restricts the
// ablation family to that kernel. An unknown name exits 2; a
// known-but-unsupported one prints a skip notice and exits 0 so CI can
// request avx2/avx512 unconditionally.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "baselines/deo_sarkar.hpp"
#include "core/merge_sort.hpp"
#include "core/mergepath.hpp"
#include "core/multiway_merge.hpp"
#include "core/segmented_merge.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sort_network.hpp"
#include "obs/flight.hpp"
#include "obs/percentiles.hpp"
#include "obs/trace.hpp"
#include "util/data_gen.hpp"
#include "util/hw.hpp"
#include "util/rng.hpp"

namespace {

using namespace mp;

void BM_DiagonalIntersection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kUniform, n, n, 42);
  Xoshiro256 rng(7);
  for (auto _ : state) {
    const std::size_t diag = rng.bounded(2 * n + 1);
    benchmark::DoNotOptimize(diagonal_intersection(
        input.a.data(), n, input.b.data(), n, diag));
  }
}
BENCHMARK(BM_DiagonalIntersection)->Arg(1 << 16)->Arg(1 << 24);

void BM_DeoSarkarSelection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kUniform, n, n, 42);
  Xoshiro256 rng(7);
  for (auto _ : state) {
    const std::size_t k = rng.bounded(2 * n + 1);
    benchmark::DoNotOptimize(baselines::kth_element_split(
        input.a.data(), n, input.b.data(), n, k));
  }
}
BENCHMARK(BM_DeoSarkarSelection)->Arg(1 << 16)->Arg(1 << 24);

void BM_PartitionMergePath(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  const auto parts = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kUniform, n, n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_merge_path(
        input.a.data(), n, input.b.data(), n, parts));
  }
}
BENCHMARK(BM_PartitionMergePath)->Arg(2)->Arg(12)->Arg(128);

void BM_MergeStepsKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kUniform, n, n, 42);
  std::vector<std::int32_t> out(2 * n);
  for (auto _ : state) {
    std::size_t i = 0, j = 0;
    merge_steps(input.a.data(), n, input.b.data(), n, &i, &j, out.data(),
                2 * n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MergeStepsKernel)->Arg(1 << 16);

void BM_ClassicMergeKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kUniform, n, n, 42);
  std::vector<std::int32_t> out(2 * n);
  for (auto _ : state) {
    classic_merge(input.a.data(), n, input.b.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClassicMergeKernel)->Arg(1 << 16);

void BM_LoserTreePopN(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<std::int32_t>> runs(k);
  Xoshiro256 rng(9);
  const std::size_t per_run = (1u << 16) / k;
  for (auto& run : runs) {
    run.resize(per_run);
    for (auto& x : run) x = static_cast<std::int32_t>(rng.bounded(1 << 30));
    std::sort(run.begin(), run.end());
  }
  std::vector<std::int32_t> out(k * per_run);
  for (auto _ : state) {
    std::vector<LoserTree<std::int32_t>::Cursor> cursors(k);
    for (std::size_t t = 0; t < k; ++t)
      cursors[t] = {runs[t].data(), runs[t].data() + runs[t].size()};
    LoserTree<std::int32_t> tree(std::move(cursors));
    tree.pop_n(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(out.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LoserTreePopN)->Arg(2)->Arg(8)->Arg(64);

void BM_MultiwaySelect(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<std::int32_t>> runs(k);
  Xoshiro256 rng(11);
  for (auto& run : runs) {
    run.resize((1u << 20) / k);
    for (auto& x : run) x = static_cast<std::int32_t>(rng.bounded(1 << 30));
    std::sort(run.begin(), run.end());
  }
  std::vector<std::span<const std::int32_t>> views;
  for (const auto& run : runs) views.emplace_back(run.data(), run.size());
  std::size_t total = 0;
  for (const auto& run : runs) total += run.size();
  for (auto _ : state) {
    const std::size_t rank = rng.bounded(total + 1);
    benchmark::DoNotOptimize(multiway_select(
        std::span<const std::span<const std::int32_t>>(views), rank));
  }
}
BENCHMARK(BM_MultiwaySelect)->Arg(2)->Arg(8)->Arg(32)->Arg(64);

// --- Ring-window linearization (SPM) -------------------------------------
// The serial segmented merge with wrapped ring windows copied flat so the
// segment loop runs the vector kernel (under --kernel scalar they
// are walked through CyclicView instead). L = 192 is deliberately not a
// power of two so most windows wrap.

void BM_SegmentedLinearize(benchmark::State& state) {
  constexpr std::size_t kN = 256 << 10;
  const auto input = make_merge_input(Dist::kUniform, kN, kN, 42);
  std::vector<std::int32_t> out(2 * kN);
  SegmentedConfig config;
  config.segment_length = 192;
  for (auto _ : state) {
    segmented_parallel_merge(input.a.data(), kN, input.b.data(), kN,
                             out.data(), config, Executor{nullptr, 1});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * kN) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SegmentedLinearize);

// --- Span overhead -------------------------------------------------------
// Prices one obs::Span construct/destruct edge under every consumer
// configuration the combined state byte can express. "disarmed" is what
// every instrumented region pays when nothing records (one atomic load);
// "flight_only" is the default state (the flight recorder is always
// armed).

struct SpanOverheadConfig {
  bool trace = false;
  bool stats = false;
  bool flight = false;
};

void run_span_overhead(benchmark::State& state,
                       const SpanOverheadConfig& config) {
  // All consumer switches are control-plane operations; flip them outside
  // the timed loop and restore the process defaults afterwards.
  const bool flight_was = obs::flight_enabled();
  obs::set_flight_enabled(config.flight);
  if (config.trace)
    obs::arm_tracing();
  else
    obs::disarm_tracing();
  obs::reset_span_stats();
  if (config.stats)
    obs::arm_span_stats();
  else
    obs::disarm_span_stats();
  for (auto _ : state) {
    obs::Span span("bench.span_overhead");
    benchmark::DoNotOptimize(&span);
  }
  obs::disarm_tracing();
  obs::reset_tracing();
  obs::disarm_span_stats();
  obs::reset_span_stats();
  obs::set_flight_enabled(flight_was);
}

void BM_SpanOverhead_Disarmed(benchmark::State& state) {
  run_span_overhead(state, {});
}
BENCHMARK(BM_SpanOverhead_Disarmed);

void BM_SpanOverhead_FlightOnly(benchmark::State& state) {
  run_span_overhead(state, {.flight = true});
}
BENCHMARK(BM_SpanOverhead_FlightOnly);

void BM_SpanOverhead_StatsOnly(benchmark::State& state) {
  run_span_overhead(state, {.stats = true});
}
BENCHMARK(BM_SpanOverhead_StatsOnly);

void BM_SpanOverhead_Trace(benchmark::State& state) {
  run_span_overhead(state, {.trace = true, .stats = true, .flight = true});
}
BENCHMARK(BM_SpanOverhead_Trace);

// --- Kernel ablation (BENCH_5) -------------------------------------------
// One benchmark per dispatchable kernel on a pinned input (uniform, seed
// 42, m = n = 64 Ki — in-L2 so the measurement is kernel-bound, not
// DRAM-bound). scripts/bench_kernels.py runs this family with
// --benchmark_format=json and emits results/BENCH_5.json (ns/element per
// kernel, speedup vs scalar).

constexpr std::size_t kAblationN = 1 << 16;

void run_kernel_merge32(benchmark::State& state, kernels::Kernel kernel) {
  const auto input = make_merge_input(Dist::kUniform, kAblationN, kAblationN,
                                      42);
  std::vector<std::int32_t> out(2 * kAblationN);
  const kernels::Kernel previous = kernels::selected_kernel();
  kernels::set_kernel(kernel);
  for (auto _ : state) {
    std::size_t i = 0, j = 0;
    kernels::merge_steps_auto(input.a.data(), kAblationN, input.b.data(),
                              kAblationN, &i, &j, out.data(),
                              2 * kAblationN);
    benchmark::DoNotOptimize(out.data());
  }
  kernels::set_kernel(previous);
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * kAblationN) *
                          static_cast<std::int64_t>(state.iterations()));
}

void run_kernel_merge64(benchmark::State& state, kernels::Kernel kernel) {
  // Same pinned keys widened to 64 bits (order-preserving), exercising
  // the half-width lane variants.
  const auto input = make_merge_input(Dist::kUniform, kAblationN, kAblationN,
                                      42);
  std::vector<std::int64_t> a(kAblationN), b(kAblationN);
  for (std::size_t k = 0; k < kAblationN; ++k) {
    a[k] = static_cast<std::int64_t>(input.a[k]) << 16;
    b[k] = static_cast<std::int64_t>(input.b[k]) << 16;
  }
  std::vector<std::int64_t> out(2 * kAblationN);
  const kernels::Kernel previous = kernels::selected_kernel();
  kernels::set_kernel(kernel);
  for (auto _ : state) {
    std::size_t i = 0, j = 0;
    kernels::merge_steps_auto(a.data(), kAblationN, b.data(), kAblationN, &i,
                              &j, out.data(), 2 * kAblationN);
    benchmark::DoNotOptimize(out.data());
  }
  kernels::set_kernel(previous);
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * kAblationN) *
                          static_cast<std::int64_t>(state.iterations()));
}

void run_kernel_merge_f32(benchmark::State& state, kernels::Kernel kernel) {
  // Total-order float mode row: the pinned keys as floats (monotone
  // conversion; mantissa rounding adds extra ties, which is the harder
  // case), merged under TotalOrderLess so dispatch admits the vector
  // path via the sign-flip key bijection.
  const auto input = make_merge_input(Dist::kUniform, kAblationN, kAblationN,
                                      42);
  std::vector<float> a(kAblationN), b(kAblationN);
  for (std::size_t k = 0; k < kAblationN; ++k) {
    a[k] = static_cast<float>(input.a[k]);
    b[k] = static_cast<float>(input.b[k]);
  }
  std::vector<float> out(2 * kAblationN);
  const kernels::Kernel previous = kernels::selected_kernel();
  kernels::set_kernel(kernel);
  for (auto _ : state) {
    std::size_t i = 0, j = 0;
    kernels::merge_steps_auto(a.data(), kAblationN, b.data(), kAblationN, &i,
                              &j, out.data(), 2 * kAblationN,
                              kernels::TotalOrderLess{});
    benchmark::DoNotOptimize(out.data());
  }
  kernels::set_kernel(previous);
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * kAblationN) *
                          static_cast<std::int64_t>(state.iterations()));
}

void run_kernel_merge_f64(benchmark::State& state, kernels::Kernel kernel) {
  const auto input = make_merge_input(Dist::kUniform, kAblationN, kAblationN,
                                      42);
  std::vector<double> a(kAblationN), b(kAblationN);
  for (std::size_t k = 0; k < kAblationN; ++k) {
    a[k] = static_cast<double>(input.a[k]) * 1.25;
    b[k] = static_cast<double>(input.b[k]) * 1.25;
  }
  std::vector<double> out(2 * kAblationN);
  const kernels::Kernel previous = kernels::selected_kernel();
  kernels::set_kernel(kernel);
  for (auto _ : state) {
    std::size_t i = 0, j = 0;
    kernels::merge_steps_auto(a.data(), kAblationN, b.data(), kAblationN, &i,
                              &j, out.data(), 2 * kAblationN,
                              kernels::TotalOrderLess{});
    benchmark::DoNotOptimize(out.data());
  }
  kernels::set_kernel(previous);
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * kAblationN) *
                          static_cast<std::int64_t>(state.iterations()));
}

// Run formation up to 256-key sorted runs, the width of one AVX-512
// int32 register block: 64 Ki keys sorted as independent 256-key runs by
// sequential_merge_sort, fresh (unsorted) bytes every iteration via a
// timed memcpy every row pays identically. Under a vector kernel each run
// is one register sort; under scalar (and in the "insertion" row, which
// forces scalar) it is 24-key insertion runs plus the merge
// passes at widths 24..192.
void run_sort_runs(benchmark::State& state, kernels::Kernel kernel) {
  // Unsorted keys, not make_merge_input (whose arrays are pre-sorted —
  // insertion sort would run its O(n) best case and the comparison would
  // be meaningless).
  std::vector<std::int32_t> pristine(kAblationN);
  Xoshiro256 rng(42);
  for (auto& x : pristine) x = static_cast<std::int32_t>(rng.bounded(1u << 30));
  std::vector<std::int32_t> data(kAblationN), scratch(kAblationN);
  const kernels::Kernel previous = kernels::selected_kernel();
  kernels::set_kernel(kernel);
  constexpr std::size_t kRun = 256;
  for (auto _ : state) {
    std::memcpy(data.data(), pristine.data(),
                kAblationN * sizeof(std::int32_t));
    for (std::size_t begin = 0; begin < kAblationN; begin += kRun)
      sequential_merge_sort(data.data() + begin, scratch.data() + begin,
                            std::min(kRun, kAblationN - begin));
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  kernels::set_kernel(previous);
  state.SetItemsProcessed(static_cast<std::int64_t>(kAblationN) *
                          static_cast<std::int64_t>(state.iterations()));
}

// Payload merges, which the vector trait refuses: two sorted runs of
// 512 Ki 8-byte records (Zipf(s = 1) keys over 65536 ranks, payload =
// index) merged under a key-only comparator, in ns per output element.
// "merge_steps" is the one-element-per-iteration scalar body;
// "auto" is what merge_steps_auto dispatches (the chained body).
constexpr std::size_t kRecordsHalf = 1 << 19;

struct RecordKeyLess {
  bool operator()(const KeyedRecord& x, const KeyedRecord& y) const {
    return x.key < y.key;
  }
};

std::vector<KeyedRecord> zipf_record_run(std::uint64_t seed) {
  const auto keys = make_zipf_values(kRecordsHalf, 65536, 1.0, seed);
  std::vector<KeyedRecord> run(kRecordsHalf);
  for (std::size_t k = 0; k < kRecordsHalf; ++k)
    run[k] = KeyedRecord{keys[k], static_cast<std::uint32_t>(k)};
  return run;
}

void BM_MergeRecords(benchmark::State& state, bool dispatched) {
  const auto a = zipf_record_run(42);
  const auto b = zipf_record_run(43);
  std::vector<KeyedRecord> out(2 * kRecordsHalf);
  for (auto _ : state) {
    std::size_t i = 0, j = 0;
    if (dispatched)
      kernels::merge_steps_auto(a.data(), kRecordsHalf, b.data(),
                                kRecordsHalf, &i, &j, out.data(),
                                2 * kRecordsHalf, RecordKeyLess{});
    else
      merge_steps(a.data(), kRecordsHalf, b.data(), kRecordsHalf, &i, &j,
                  out.data(), 2 * kRecordsHalf, RecordKeyLess{});
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  // Inverted element rate: seconds per element, printed as "<x>ns".
  state.counters["per_elem"] = benchmark::Counter(
      static_cast<double>(2 * kRecordsHalf),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

BENCHMARK_CAPTURE(BM_MergeRecords, merge_steps, false);
BENCHMARK_CAPTURE(BM_MergeRecords, auto, true);

// The records sort behind inmem-64mib's lanes: sequential_merge_sort of
// 2 Mi 8-byte records (Zipf(s = 1) keys over 65536 ranks in random order,
// payload = index) under a key-only comparator, in ns per element, against
// std::stable_sort. Run formation and every pass are in the timing; the
// input copy is not.
constexpr std::size_t kSortRecords = 1 << 21;

void BM_SortRecords(benchmark::State& state, bool reference) {
  auto keys = make_zipf_values(kSortRecords, 65536, 1.0, 44);
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(44));
  std::vector<KeyedRecord> pristine(kSortRecords);
  for (std::size_t k = 0; k < kSortRecords; ++k)
    pristine[k] = KeyedRecord{keys[k], static_cast<std::uint32_t>(k)};
  std::vector<KeyedRecord> data(kSortRecords), scratch(kSortRecords);
  for (auto _ : state) {
    state.PauseTiming();
    std::memcpy(data.data(), pristine.data(),
                kSortRecords * sizeof(KeyedRecord));
    state.ResumeTiming();
    if (reference)
      std::stable_sort(data.begin(), data.end(), RecordKeyLess{});
    else
      sequential_merge_sort(data.data(), scratch.data(), kSortRecords,
                            RecordKeyLess{});
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_elem"] = benchmark::Counter(
      static_cast<double>(kSortRecords),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

BENCHMARK_CAPTURE(BM_SortRecords, sequential_merge_sort, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SortRecords, std_stable_sort, true)
    ->Unit(benchmark::kMillisecond);

// One pass of the records sort at width <arg> as sequential_merge_sort
// runs it: merge_pass_auto over the 2 Mi records of BM_SortRecords,
// already sorted in width-wide runs, one L2 chunk (sort_chunk_elems) at a
// time with the chunk already in L2, in ns per element. Widths up to
// kernels::detail::kParityMaxWidth run the parity groups, the wider ones
// the chained loop; the rows are how that cap was picked. The untimed
// copy that brings each chunk into L2 stands in for the pass before it.
void BM_MergePassRecords(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  auto keys = make_zipf_values(kSortRecords, 65536, 1.0, 44);
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(44));
  std::vector<KeyedRecord> runs(kSortRecords);
  for (std::size_t k = 0; k < kSortRecords; ++k)
    runs[k] = KeyedRecord{keys[k], static_cast<std::uint32_t>(k)};
  for (std::size_t begin = 0; begin < kSortRecords; begin += width)
    std::stable_sort(runs.begin() + static_cast<std::ptrdiff_t>(begin),
                     runs.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(begin + width, kSortRecords)),
                     RecordKeyLess{});
  const std::size_t chunk = std::max(
      2 * width, std::min(kSortRecords, sort_chunk_elems(sizeof(KeyedRecord))));
  std::vector<KeyedRecord> src(chunk), dst(chunk);
  for (auto _ : state) {
    for (std::size_t begin = 0; begin < kSortRecords; begin += chunk) {
      const std::size_t len = std::min(chunk, kSortRecords - begin);
      state.PauseTiming();
      std::memcpy(src.data(), runs.data() + begin, len * sizeof(KeyedRecord));
      state.ResumeTiming();
      kernels::merge_pass_auto(src.data(), dst.data(), len, width,
                               RecordKeyLess{});
    }
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_elem"] = benchmark::Counter(
      static_cast<double>(kSortRecords),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

BENCHMARK(BM_MergePassRecords)
    ->RangeMultiplier(2)
    ->Range(8, 256)
    ->Unit(benchmark::kMillisecond);

// One lane of inmem-64mib's int32 block phase: sequential_merge_sort of
// 4 Mi uniform int32 keys under the selected kernel (register runs, the
// L2-blocked passes, then the wide passes), in ns per element. The input
// copy is not timed.
constexpr std::size_t kSortLane = 1 << 22;

void BM_SortI32Lane(benchmark::State& state) {
  std::vector<std::int32_t> pristine(kSortLane);
  Xoshiro256 rng(45);
  for (auto& x : pristine) x = static_cast<std::int32_t>(rng() >> 32);
  std::vector<std::int32_t> data(kSortLane), scratch(kSortLane);
  for (auto _ : state) {
    state.PauseTiming();
    std::memcpy(data.data(), pristine.data(),
                kSortLane * sizeof(std::int32_t));
    state.ResumeTiming();
    sequential_merge_sort(data.data(), scratch.data(), kSortLane);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_elem"] = benchmark::Counter(
      static_cast<double>(kSortLane),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

BENCHMARK(BM_SortI32Lane)->Unit(benchmark::kMillisecond);

void register_kernel_ablation(bool restrict_to_selected) {
  benchmark::RegisterBenchmark(
      "BM_SortRuns256/insertion", [](benchmark::State& state) {
        run_sort_runs(state, kernels::Kernel::kScalar);
      });
  for (const kernels::Kernel kernel : kernels::kAllKernels) {
    if (!kernels::kernel_supported(kernel)) continue;
    if (restrict_to_selected && kernel != kernels::selected_kernel())
      continue;
    const std::string name = kernels::to_string(kernel);
    benchmark::RegisterBenchmark(
        ("BM_KernelMerge32/" + name).c_str(),
        [kernel](benchmark::State& state) {
          run_kernel_merge32(state, kernel);
        });
    benchmark::RegisterBenchmark(
        ("BM_KernelMerge64/" + name).c_str(),
        [kernel](benchmark::State& state) {
          run_kernel_merge64(state, kernel);
        });
    benchmark::RegisterBenchmark(
        ("BM_KernelMergeF32/" + name).c_str(),
        [kernel](benchmark::State& state) {
          run_kernel_merge_f32(state, kernel);
        });
    benchmark::RegisterBenchmark(
        ("BM_KernelMergeF64/" + name).c_str(),
        [kernel](benchmark::State& state) {
          run_kernel_merge_f64(state, kernel);
        });
    benchmark::RegisterBenchmark(
        ("BM_SortRuns256/" + name).c_str(),
        [kernel](benchmark::State& state) {
          run_sort_runs(state, kernel);
        });
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Pre-parse --kernel: google-benchmark rejects flags it doesn't know,
  // and the dispatch choice must be applied before registration.
  std::string forced;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--kernel") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --kernel needs a value (%s)\n",
                     kernels::kernel_names().c_str());
        return 2;
      }
      forced = argv[++i];
    } else if (std::strncmp(argv[i], "--kernel=", 9) == 0) {
      forced = argv[i] + 9;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!forced.empty()) {
    const auto kernel = kernels::parse_kernel(forced);
    if (!kernel) {
      std::fprintf(stderr, "error: unknown --kernel '%s' (%s)\n",
                   forced.c_str(), kernels::kernel_names().c_str());
      return 2;
    }
    if (!kernels::set_kernel(*kernel)) {
      // Graceful skip: CI asks for avx2 unconditionally and treats a
      // host without it as "nothing to measure", not a failure.
      std::printf("bench_micro: kernel %s not supported on this host/build "
                  "(%s); skipping\n",
                  forced.c_str(), kernels::kernel_banner().c_str());
      return 0;
    }
  }
  // stderr: --benchmark_format=json readers own stdout.
  std::fprintf(stderr, "bench_micro: %s; host: %s\n",
               kernels::kernel_banner().c_str(),
               describe(host_info()).c_str());
  register_kernel_ablation(!forced.empty());

  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
