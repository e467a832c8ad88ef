// Tests for the CREW PRAM cost-model simulator (S9): machine-model
// arithmetic, complexity-shape validation (E3's backing logic), the
// speedup curves that reproduce Figure 5's qualitative structure, and the
// Section IV.C cache-efficient sort, pram::cache_sort (correctness across
// sizes, cache budgets and lane counts; block size; barrier pricing).

#include "pram/simulate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/mergepath.hpp"
#include "pram/machine.hpp"
#include "pram/speedup.hpp"
#include "util/data_gen.hpp"

namespace mp::pram {
namespace {

TEST(MachineModel, LaneCostArithmetic) {
  MachineModel m;
  m.ns_per_compare = 2.0;
  m.ns_per_move = 1.0;
  m.ns_per_search_step = 10.0;
  m.ns_per_stage = 0.5;
  OpCounts ops;
  ops.compare(10);
  ops.move(20);
  ops.search_step(3);
  ops.stage(4);
  EXPECT_DOUBLE_EQ(m.lane_ns(ops), 10 * 2.0 + 20 * 1.0 + 3 * 10.0 + 4 * 0.5);
}

TEST(MachineModel, PhaseCostIsMaxLanePlusBarrier) {
  MachineModel m;
  m.ns_per_move = 1.0;
  m.barrier_base_ns = 100.0;
  m.barrier_per_lane_ns = 10.0;
  OpCounts fast, slow;
  fast.move(10);
  slow.move(50);
  const OpCounts lanes[] = {fast, slow};
  EXPECT_DOUBLE_EQ(phase_ns(m, lanes, 2), 50.0 + 100.0 + 20.0);
}

TEST(MachineModel, MemoryBandwidthSaturates) {
  MachineModel m;
  m.bytes_per_ns_per_lane = 2.0;
  m.bw_saturation_lanes = 4;
  EXPECT_DOUBLE_EQ(m.memory_ns(800, 1), 400.0);
  EXPECT_DOUBLE_EQ(m.memory_ns(800, 2), 200.0);
  EXPECT_DOUBLE_EQ(m.memory_ns(800, 4), 100.0);
  EXPECT_DOUBLE_EQ(m.memory_ns(800, 12), 100.0);  // saturated
}

TEST(Simulate, SequentialMergeWorkIsLinear) {
  const auto model = MachineModel::paper_x5670();
  const auto small = make_merge_input(Dist::kUniform, 10000, 10000, 7);
  const auto large = make_merge_input(Dist::kUniform, 40000, 40000, 7);
  const auto r1 = simulate_sequential_merge(small.a, small.b, model);
  const auto r4 = simulate_sequential_merge(large.a, large.b, model);
  EXPECT_EQ(r1.totals.moves, 20000u);
  EXPECT_EQ(r4.totals.moves, 80000u);
  // Work within [N, 2N] countable ops: compares <= moves.
  EXPECT_NEAR(static_cast<double>(r4.work_ops) /
                  static_cast<double>(r1.work_ops),
              4.0, 0.1);
}

TEST(Simulate, ParallelMergeWorkOverheadIsPLogN) {
  const auto model = MachineModel::paper_x5670();
  const auto input = make_merge_input(Dist::kUniform, 1 << 18, 1 << 18, 11);
  const auto serial = simulate_parallel_merge(input.a, input.b, 1, model);
  for (unsigned p : {2u, 8u, 32u}) {
    const auto par = simulate_parallel_merge(input.a, input.b, p, model);
    const std::uint64_t overhead = par.work_ops - serial.work_ops;
    // Excess work <= p * (log2(min) + 1) search steps plus p extra
    // boundary compares.
    EXPECT_LE(overhead, static_cast<std::uint64_t>(p) * 25) << "p=" << p;
    EXPECT_EQ(par.phases, 1u);
  }
}

TEST(Simulate, ParallelMergeCriticalPathShrinksLinearly) {
  const auto model = MachineModel::paper_x5670();
  const auto input = make_merge_input(Dist::kUniform, 1 << 18, 1 << 18, 13);
  const auto p1 = simulate_parallel_merge(input.a, input.b, 1, model);
  const auto p4 = simulate_parallel_merge(input.a, input.b, 4, model);
  const auto p8 = simulate_parallel_merge(input.a, input.b, 8, model);
  EXPECT_NEAR(static_cast<double>(p1.critical_ops) /
                  static_cast<double>(p4.critical_ops),
              4.0, 0.1);
  EXPECT_NEAR(static_cast<double>(p1.critical_ops) /
                  static_cast<double>(p8.critical_ops),
              8.0, 0.1);
}

TEST(Simulate, MergeSpeedupIsNearLinearInCache) {
  // 64k elements/array = 512 KiB total: fits the modelled LLC, so the
  // curve is compute-bound and should be near-linear like Figure 5's 1M.
  const auto model = MachineModel::paper_x5670();
  const std::vector<unsigned> threads{1, 2, 4, 8, 12};
  const auto curve = merge_speedup_curve(1 << 16, threads, model, 42);
  ASSERT_EQ(curve.points.size(), threads.size());
  EXPECT_NEAR(curve.points[1].speedup, 2.0, 0.2);
  EXPECT_NEAR(curve.points[2].speedup, 4.0, 0.4);
  EXPECT_GT(curve.points[4].speedup, 10.0);
  EXPECT_LE(curve.points[4].speedup, 12.1);
}

TEST(Simulate, LargeArraysLoseALittleSpeedupToBandwidth) {
  // Figure 5's "slight reduction in performance for the bigger input
  // arrays": beyond-LLC traffic is bandwidth-bound and saturates before
  // 12 lanes.
  const auto model = MachineModel::paper_x5670();
  const std::vector<unsigned> threads{12};
  // 1M per array (8 MiB total) fits the modelled LLC; 16M (128 MiB) is
  // firmly bandwidth-exposed — the two ends of Figure 5's size axis.
  const auto small = merge_speedup_curve(1 << 20, threads, model, 42);
  const auto large = merge_speedup_curve(1 << 24, threads, model, 42);
  EXPECT_LT(large.points[0].speedup, small.points[0].speedup);
  EXPECT_GT(large.points[0].speedup, 9.0);  // still near-linear
}

TEST(Simulate, SegmentedMergeMatchesParallelWorkApproximately) {
  const auto model = MachineModel::paper_x5670();
  const auto input = make_merge_input(Dist::kUniform, 1 << 15, 1 << 15, 17);
  SegmentedConfig config;
  config.segment_length = 2048;
  const auto seg = simulate_segmented_merge(input.a, input.b, 4, model,
                                            config);
  const auto par = simulate_parallel_merge(input.a, input.b, 4, model);
  // SPM does strictly more work (staging + write-back) ...
  EXPECT_GT(seg.work_ops, par.work_ops);
  // ... but bounded: roughly 2 extra touches per element.
  EXPECT_LT(seg.work_ops, 3 * par.work_ops);
  // And far more barriers: three per segment.
  EXPECT_GE(seg.phases, 3 * ((1u << 16) / 2048) - 1);
}

TEST(Simulate, MergeSortOutputsSortedAndScales) {
  const auto model = MachineModel::paper_x5670();
  const auto values = make_unsorted_values(1 << 15, 19);
  const auto s1 = simulate_merge_sort(values, 1, model);
  const auto s8 = simulate_merge_sort(values, 8, model);
  EXPECT_GT(s1.time_ns, s8.time_ns);
  const double speedup = s1.time_ns / s8.time_ns;
  EXPECT_GT(speedup, 4.0);
  EXPECT_LE(speedup, 8.5);
}

TEST(Simulate, SortSpeedupCurveIsMonotone) {
  const auto model = MachineModel::paper_x5670();
  const std::vector<unsigned> threads{1, 2, 4, 8};
  const auto curve = sort_speedup_curve(1 << 15, threads, model, 23);
  for (std::size_t i = 1; i < curve.points.size(); ++i)
    EXPECT_GT(curve.points[i].speedup, curve.points[i - 1].speedup);
}

TEST(Simulate, CacheSortAccountsMoreBarriersThanPlainSort) {
  const auto model = MachineModel::paper_x5670();
  const auto values = make_unsorted_values(1 << 15, 29);
  const auto plain = simulate_merge_sort(values, 4, model);
  const auto cache = simulate_cache_sort(values, 4, model, 16 * 1024);
  EXPECT_GT(cache.phases, plain.phases);
  EXPECT_GT(cache.barrier_ns, plain.barrier_ns);
}

TEST(Simulate, CacheSortPricesTheRequestedBudget) {
  // Stage-2 barriers are priced with the segment length of the requested
  // budget, not of the host's L1d. n = 32Ki, p = 4:
  //  - 16 KiB: 2048-element blocks, so 16 blocks and 4 rounds; L = 1365.
  //    Extra barriers 16·(2 + 2) + 4·2·32768/1365 = 256.05, so 1 + 256
  //    phases.
  //  - 32 KiB: 4096-element blocks, so 8 blocks and 3 rounds; L = 2730.
  //    Extra barriers 8·(2 + 2) + 3·2·32768/2730 = 104.02, so 1 + 104
  //    phases.
  const auto model = MachineModel::paper_x5670();
  const auto values = make_unsorted_values(1 << 15, 29);
  EXPECT_EQ(simulate_cache_sort(values, 4, model, 16 * 1024).phases, 257u);
  EXPECT_EQ(simulate_cache_sort(values, 4, model, 32 * 1024).phases, 105u);
}

class CacheSortParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 unsigned>> {};

TEST_P(CacheSortParam, SortsCorrectly) {
  const auto [n, cache_bytes, lanes] = GetParam();
  auto data = make_unsorted_values(n, 777 + n + cache_bytes);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  std::vector<OpCounts> counts(lanes);
  cache_sort(data, lanes, cache_bytes, counts);
  EXPECT_EQ(data, expected);
}

INSTANTIATE_TEST_SUITE_P(
    SizesCachesThreads, CacheSortParam,
    ::testing::Combine(
        ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{1000}, std::size_t{40000}),
        // Tiny "caches" force many blocks and many merge rounds.
        ::testing::Values(std::size_t{256}, std::size_t{4096},
                          std::size_t{32768}),
        ::testing::Values(1u, 4u, 9u)),
    [](const auto& pinfo) {
      // Appended piece by piece: at -O3, GCC 12 reports a false -Wrestrict
      // in the insert-at-front that "literal" + std::string performs.
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_c";
      name += std::to_string(std::get<1>(pinfo.param));
      name += "_p";
      name += std::to_string(std::get<2>(pinfo.param));
      return name;
    });

TEST(CacheSort, BlockSizeResolution) {
  // Half the budget: a block is sorted out of place, block + scratch.
  EXPECT_EQ(cache_sort_block_elems(32 * 1024), 4096u);
  EXPECT_EQ(cache_sort_block_elems(16 * 1024), 2048u);
  // Degenerate budgets still give a workable block.
  EXPECT_EQ(cache_sort_block_elems(4), 2u);
  EXPECT_GE(cache_sort_block_elems(0), 2u);
}

TEST(CacheSort, AlreadySortedAndReversed) {
  std::vector<std::int32_t> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::int32_t>(i);
  const auto expected = data;
  std::vector<OpCounts> counts(4);
  cache_sort(data, 4, 2048, counts);
  EXPECT_EQ(data, expected);

  std::reverse(data.begin(), data.end());
  cache_sort(data, 4, 2048, counts);
  EXPECT_EQ(data, expected);
}

// Golden counts: the exact op totals, work, critical path and phase count
// of every PRAM driver on fixed seeds and lane counts. The E1/E3/E6 tables
// are priced from these numbers, so a change to how the drivers count —
// a different base case, pass order, lane body or phase split — shows
// here before it shows in a figure.
struct Golden {
  std::uint64_t compares, moves, search_steps, stages;
  std::uint64_t work_ops, critical_ops, phases;
};

void expect_golden(const SimResult& got, const Golden& want) {
  EXPECT_EQ(got.totals.compares, want.compares);
  EXPECT_EQ(got.totals.moves, want.moves);
  EXPECT_EQ(got.totals.search_steps, want.search_steps);
  EXPECT_EQ(got.totals.stages, want.stages);
  EXPECT_EQ(got.work_ops, want.work_ops);
  EXPECT_EQ(got.critical_ops, want.critical_ops);
  EXPECT_EQ(got.phases, want.phases);
}

TEST(PramGolden, ParallelMerge) {
  const auto model = MachineModel::paper_x5670();
  const auto input = make_merge_input(Dist::kUniform, 3000, 2000, 101);
  expect_golden(simulate_parallel_merge(input.a, input.b, 1, model),
                {4999, 5000, 0, 0, 9999, 9999, 1});
  expect_golden(simulate_parallel_merge(input.a, input.b, 7, model),
                {4999, 5000, 64, 0, 10063, 1441, 1});
  const auto skew = make_merge_input(Dist::kClustered, 2500, 4100, 102);
  expect_golden(simulate_parallel_merge(skew.a, skew.b, 12, model),
                {4911, 6600, 116, 0, 11627, 1112, 1});
}

TEST(PramGolden, MergeSort) {
  const auto model = MachineModel::paper_x5670();
  const auto values = make_unsorted_values(20000, 103);
  expect_golden(simulate_merge_sort(values, 1, model),
                {327159, 332925, 0, 0, 660084, 660084, 0});
  expect_golden(simulate_merge_sort(values, 6, model),
                {338479, 374411, 132, 0, 713022, 120478, 5});
  expect_golden(simulate_merge_sort(values, 8, model),
                {328159, 373978, 201, 0, 702338, 88864, 5});
  // n <= 24·p: one serial sort.
  const auto tiny = make_unsorted_values(100, 104);
  expect_golden(simulate_merge_sort(tiny, 5, model),
                {891, 1026, 0, 0, 1917, 1917, 0});
}

TEST(PramGolden, MultiwaySort) {
  const auto model = MachineModel::paper_x5670();
  const auto values = make_unsorted_values(20000, 105);
  expect_golden(simulate_multiway_sort(values, 1, model),
                {329343, 334930, 0, 0, 664273, 664273, 0});
  expect_golden(simulate_multiway_sort(values, 5, model),
                {344240, 334458, 1508, 0, 680206, 136696, 3});
  expect_golden(simulate_multiway_sort(values, 2, model),
                {328754, 374478, 115, 0, 703347, 352205, 3});
}

TEST(PramGolden, SegmentedMerge) {
  const auto model = MachineModel::paper_x5670();
  const auto input = make_merge_input(Dist::kUniform, 5000, 4000, 106);
  SegmentedConfig config;
  config.segment_length = 333;
  expect_golden(simulate_segmented_merge(input.a, input.b, 1, model, config),
                {8999, 18000, 224, 9000, 36223, 36223, 84});
  expect_golden(simulate_segmented_merge(input.a, input.b, 4, model, config),
                {8999, 18000, 822, 9000, 36821, 9299, 84});
}

TEST(PramGolden, CacheSort) {
  const auto model = MachineModel::paper_x5670();
  const auto values = make_unsorted_values(20000, 107);
  expect_golden(simulate_cache_sort(values, 1, model, 4096),
                {334806, 485186, 2540, 112768, 935300, 935300, 784});
  expect_golden(simulate_cache_sort(values, 4, model, 4096),
                {332125, 481638, 11192, 112768, 937723, 239527, 864});
  // Blocks of 64 keys at 3 lanes: 64 <= 24·3, so every block sort is one
  // serial sort on lane 0.
  expect_golden(simulate_cache_sort(values, 3, model, 256),
                {320432, 546296, 102584, 192640, 1161952, 579378, 21548});
}

TEST(Simulate, MergeSortDriverMatchesRealAlgorithmExactly) {
  // simulate_merge_sort prices the phases of counted_parallel_merge_sort,
  // the PRAM model of parallel_merge_sort: the counted sort must produce
  // the real (uncounted) sort's bytes, and the priced totals must be the
  // counted sort's.
  const auto model = MachineModel::paper_x5670();
  const auto values = make_unsorted_values(50000, 31);
  const unsigned p = 6;

  const SimResult sim = simulate_merge_sort(values, p, model);

  auto counted = values;
  std::vector<OpCounts> counts(p);
  counted_parallel_merge_sort(counted.data(), counted.size(), p, counts);
  auto real = values;
  parallel_merge_sort(real.data(), real.size(), Executor{nullptr, p});
  EXPECT_TRUE(std::is_sorted(real.begin(), real.end()));
  EXPECT_EQ(counted, real);

  OpCounts counted_totals;
  for (const auto& c : counts) counted_totals += c;
  EXPECT_EQ(sim.totals.compares, counted_totals.compares);
  EXPECT_EQ(sim.totals.moves, counted_totals.moves);
  EXPECT_EQ(sim.totals.search_steps, counted_totals.search_steps);
}

TEST(Simulate, CountedMergesMatchRealOutputs) {
  // The counted Algorithm 1 and k-way lanes write the real merges' bytes,
  // and count one move per output.
  const auto input = make_merge_input(Dist::kClustered, 7000, 5000, 37);
  const unsigned p = 5;
  std::vector<std::int32_t> counted(12000);
  std::vector<OpCounts> counts(p);
  counted_parallel_merge(input.a.data(), 7000, input.b.data(), 5000,
                         counted.data(), p, counts);
  EXPECT_EQ(counted, parallel_merge(input.a, input.b, Executor{nullptr, p}));

  const auto extra = make_uniform_values(3000, 38);
  const std::vector<std::vector<std::int32_t>> runs{input.a, input.b, extra};
  std::vector<std::span<const std::int32_t>> views(runs.begin(), runs.end());
  counted.resize(15000);
  std::vector<OpCounts> kway(p);
  counted_multiway_merge(views, counted.data(), p, kway);
  EXPECT_EQ(counted, parallel_multiway_merge(runs, Executor{nullptr, p}));
  std::uint64_t moves = 0;
  for (const auto& c : kway) moves += c.moves;
  EXPECT_EQ(moves, 15000u);
}

TEST(Simulate, SegmentedDriverMatchesRealAlgorithmExactly) {
  const auto model = MachineModel::paper_x5670();
  const auto input = make_merge_input(Dist::kClustered, 20000, 17000, 33);
  const unsigned p = 5;
  SegmentedConfig config;
  config.segment_length = 777;

  const SimResult sim =
      simulate_segmented_merge(input.a, input.b, p, model, config);

  ThreadPool serial(0);
  std::vector<OpCounts> counts(p);
  std::vector<std::int32_t> out(37000);
  segmented_parallel_merge(input.a.data(), 20000, input.b.data(), 17000,
                           out.data(), config, Executor{&serial, p},
                           std::less<>{}, std::span<OpCounts>(counts));
  OpCounts real_totals;
  for (const auto& c : counts) real_totals += c;
  EXPECT_EQ(sim.totals.compares, real_totals.compares);
  EXPECT_EQ(sim.totals.moves, real_totals.moves);
  EXPECT_EQ(sim.totals.stages, real_totals.stages);
}

}  // namespace
}  // namespace mp::pram
