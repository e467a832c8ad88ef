// Throughput microbenchmarks for the extension APIs the library keeps
// beyond the paper: the set intersection (examples/inverted_index) and the
// stream merger (the serving layer) — one registry so regressions in the
// extension surface show up in the same sweep as the core.

#include <benchmark/benchmark.h>

#include "core/mergepath.hpp"
#include "util/data_gen.hpp"

namespace {

using namespace mp;

constexpr unsigned kThreads = 4;

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

}  // namespace
