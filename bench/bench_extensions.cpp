// Throughput microbenchmarks for the extension APIs (S19/S8): set
// operations, key/value and SoA merging, top-k, the stream merger, the
// adaptive kernel on run-structured data, and the radix sort — one
// registry so regressions in the extension surface show up in the same
// sweep as the core.

#include <benchmark/benchmark.h>

#include "baselines/radix_sort.hpp"
#include "core/mergepath.hpp"
#include "util/data_gen.hpp"

namespace {

using namespace mp;

constexpr unsigned kThreads = 4;

void BM_SetUnion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kFewDuplicates, n, n, 42);
  std::vector<std::int32_t> out(2 * n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parallel_set_union(input.a.data(), n, input.b.data(), n, out.data(),
                           Executor{nullptr, kThreads}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SetUnion)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

void BM_SetIntersection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kFewDuplicates, n, n, 42);
  std::vector<std::int32_t> out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel_set_intersection(
        input.a.data(), n, input.b.data(), n, out.data(),
        Executor{nullptr, kThreads}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SetIntersection)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

void BM_MergeByKey(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kUniform, n, n, 42);
  std::vector<std::uint64_t> va(n), vb(n);
  std::vector<std::int32_t> keys_out(2 * n);
  std::vector<std::uint64_t> vals_out(2 * n);
  for (auto _ : state) {
    parallel_merge_by_key(input.a.data(), va.data(), n, input.b.data(),
                          vb.data(), n, keys_out.data(), vals_out.data(),
                          Executor{nullptr, kThreads});
    benchmark::DoNotOptimize(keys_out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MergeByKey)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

void BM_MergeSoaTwoColumns(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kUniform, n, n, 42);
  std::vector<std::uint32_t> ca(n), cb(n), c_out(2 * n);
  std::vector<double> da(n), db(n), d_out(2 * n);
  std::vector<std::int32_t> keys_out(2 * n);
  for (auto _ : state) {
    parallel_merge_soa(
        input.a.data(), n, input.b.data(), n, keys_out.data(),
        std::tuple{
            SoaColumn<std::uint32_t>{ca.data(), cb.data(), c_out.data()},
            SoaColumn<double>{da.data(), db.data(), d_out.data()}},
        Executor{nullptr, kThreads});
    benchmark::DoNotOptimize(keys_out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MergeSoaTwoColumns)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

void BM_MergeFirstK(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kUniform, n, n, 42);
  std::vector<std::int32_t> out(k);
  for (auto _ : state) {
    merge_first_k(input.a.data(), n, input.b.data(), n, out.data(), k,
                  Executor{nullptr, kThreads});
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MergeFirstK)->Arg(16)->Arg(4096)->Arg(1 << 18);

void BM_StreamMergerChunked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kClustered, n, n, 42);
  std::vector<std::int32_t> sink(2 * n);
  for (auto _ : state) {
    StreamMerger<std::int32_t> merger;
    std::size_t fa = 0, fb = 0, written = 0;
    const std::size_t chunk = 8192;
    while (written < 2 * n) {
      if (fa < n) {
        const std::size_t len = std::min(chunk, n - fa);
        merger.push_a(std::span<const std::int32_t>(input.a.data() + fa,
                                                    len));
        fa += len;
        if (fa == n) merger.close_a();
      }
      if (fb < n) {
        const std::size_t len = std::min(chunk, n - fb);
        merger.push_b(std::span<const std::int32_t>(input.b.data() + fb,
                                                    len));
        fb += len;
        if (fb == n) merger.close_b();
      }
      written += merger.pull(
          std::span<std::int32_t>(sink.data() + written, 2 * n - written));
    }
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamMergerChunked)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

void BM_AdaptiveVsClassicOnRuns(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kOrganPipe, n, n, 42);
  std::vector<std::int32_t> out(2 * n);
  for (auto _ : state) {
    adaptive_merge(input.a.data(), n, input.b.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AdaptiveVsClassicOnRuns)->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

}  // namespace
