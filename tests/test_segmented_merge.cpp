// Tests for core/segmented_merge.hpp (Algorithm 2): correctness across
// distributions / segment lengths / thread counts, cyclic-buffer edge
// cases, stats reporting, Lemma 15 / Theorem 16 invariants and stability.

#include "core/segmented_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "test_support.hpp"
#include "util/data_gen.hpp"

namespace mp {
namespace {

class SegmentedMergeParam
    : public ::testing::TestWithParam<std::tuple<Dist, std::size_t, unsigned>> {
};

TEST_P(SegmentedMergeParam, MatchesReference) {
  const auto [dist, seg_len, threads] = GetParam();
  const auto input = make_merge_input(dist, 1000, 777, 53);
  std::vector<std::int32_t> out(1777);
  SegmentedConfig config;
  config.segment_length = seg_len;
  const auto stats = segmented_parallel_merge(
      input.a.data(), 1000, input.b.data(), 777, out.data(), config,
      Executor{nullptr, threads});
  EXPECT_EQ(out, test::reference_merge(input.a, input.b));
  // Segment count: ceil(total / L).
  EXPECT_EQ(stats.segments, (1777 + seg_len - 1) / seg_len);
  // Lemma 15: staged totals never exceed the inputs, and everything that
  // is consumed was staged.
  EXPECT_EQ(stats.staged_a, 1000u);
  EXPECT_EQ(stats.staged_b, 777u);
}

INSTANTIATE_TEST_SUITE_P(
    DistsSegsThreads, SegmentedMergeParam,
    ::testing::Combine(::testing::ValuesIn(kAllDists),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{64}, std::size_t{333},
                                         std::size_t{1777},
                                         std::size_t{5000}),
                       ::testing::Values(1u, 3u, 8u)),
    [](const auto& pinfo) {
      return to_string(std::get<0>(pinfo.param)) + "_L" +
             std::to_string(std::get<1>(pinfo.param)) + "_p" +
             std::to_string(std::get<2>(pinfo.param));
    });

TEST(SegmentedMerge, DefaultSegmentLengthFollowsCacheRule) {
  // L = (cache_bytes / elem) / 3 (the paper's L = C/3).
  SegmentedConfig config;
  config.cache_bytes = 32 * 1024;
  EXPECT_EQ(config.resolve_segment_length<std::int32_t>(),
            (32u * 1024 / 4) / 3);
  EXPECT_EQ(config.resolve_segment_length<std::int64_t>(),
            (32u * 1024 / 8) / 3);
  SegmentedConfig explicit_len;
  explicit_len.segment_length = 123;
  EXPECT_EQ(explicit_len.resolve_segment_length<std::int32_t>(), 123u);
}

TEST(SegmentedMerge, EmptyInputs) {
  SegmentedConfig config;
  config.segment_length = 8;
  std::vector<std::int32_t> a{1, 2, 3}, empty, out(3);
  auto stats = segmented_parallel_merge(a.data(), 3, empty.data(), 0,
                                        out.data(), config);
  EXPECT_EQ(out, a);
  EXPECT_EQ(stats.segments, 1u);
  out.assign(3, 0);
  segmented_parallel_merge(empty.data(), 0, a.data(), 3, out.data(), config);
  EXPECT_EQ(out, a);
  std::vector<std::int32_t> none;
  stats = segmented_parallel_merge(none.data(), 0, none.data(), 0,
                                   none.data(), config);
  EXPECT_EQ(stats.segments, 0u);
}

TEST(SegmentedMerge, StableAcrossSegments) {
  const auto input = make_keyed_input(2000, 2000, 5, 59);
  std::vector<KeyedRecord> out(4000);
  SegmentedConfig config;
  config.segment_length = 97;  // prime: boundaries fall mid-tie constantly
  segmented_parallel_merge(input.a.data(), 2000, input.b.data(), 2000,
                           out.data(), config, Executor{nullptr, 4});
  for (std::size_t i = 1; i < out.size(); ++i) {
    ASSERT_LE(out[i - 1].key, out[i].key);
    if (out[i - 1].key == out[i].key) {
      ASSERT_LT(out[i - 1].payload, out[i].payload) << "at " << i;
    }
  }
}

TEST(SegmentedMerge, CyclicViewWrapsCorrectly) {
  const std::vector<std::int32_t> storage{10, 11, 12, 13, 14};
  const CyclicView<std::int32_t> view(storage.data(), 5, 3);
  EXPECT_EQ(view[0], 13);
  EXPECT_EQ(view[1], 14);
  EXPECT_EQ(view[2], 10);
  EXPECT_EQ(view[4], 12);
  const auto shifted = view + 2;
  EXPECT_EQ(shifted[0], 10);
  EXPECT_EQ(shifted[2], 12);
}

TEST(SegmentedMerge, EquivalentToParallelMergeOnLargeInput) {
  const auto input = make_merge_input(Dist::kClustered, 50000, 49999, 61);
  std::vector<std::int32_t> out(99999);
  SegmentedConfig config;  // host-L1-derived default L
  segmented_parallel_merge(input.a.data(), 50000, input.b.data(), 49999,
                           out.data(), config, Executor{nullptr, 6});
  EXPECT_EQ(out, test::reference_merge(input.a, input.b));
}

TEST(SegmentedMerge, LinearizationIsByteExactAtEveryWrapOffset) {
  // Ring-window linearization: under a vector kernel, wrapped staged
  // windows are copied flat and merged by the dispatched kernel; under the
  // forced scalar kernel they take the CyclicView + scalar path. The two
  // must agree byte for byte. Sweeping the A-side length through a full
  // ring period (L consecutive sizes) drives the ring heads through every
  // wrap offset, because the heads advance by the data-dependent consumed
  // counts modulo L.
  constexpr std::size_t kL = 48;
  struct RestoreKernel {
    kernels::Kernel saved = kernels::selected_kernel();
    ~RestoreKernel() { kernels::set_kernel(saved); }
  } restore;
  for (std::size_t delta = 0; delta < kL; ++delta) {
    const std::size_t m = 600 + delta;
    const auto input = make_merge_input(Dist::kClustered, m, 555, 71 + delta);
    std::vector<std::int32_t> flat_out(m + 555), ring_out(m + 555);
    SegmentedConfig config;
    config.segment_length = kL;
    ASSERT_TRUE(kernels::set_kernel(kernels::widest_supported()));
    const auto flat_stats = segmented_parallel_merge(
        input.a.data(), m, input.b.data(), 555, flat_out.data(), config,
        Executor{nullptr, 3});
    ASSERT_TRUE(kernels::set_kernel(kernels::Kernel::kScalar));
    const auto ring_stats = segmented_parallel_merge(
        input.a.data(), m, input.b.data(), 555, ring_out.data(), config,
        Executor{nullptr, 3});
    ASSERT_EQ(flat_out, ring_out) << "delta=" << delta;
    EXPECT_EQ(ring_stats.linearized_windows, 0u);
    EXPECT_EQ(flat_stats.segments, ring_stats.segments);
  }
}

TEST(SegmentedMerge, LinearizationActuallyEngagesOnWrappedWindows) {
  // Guard against linearization silently becoming a no-op: a
  // non-power-of-two segment length over a long merge must produce wrapped
  // windows, and with a vector kernel selected they must be counted as
  // linearized. Skipped where no vector kernel exists — the gate keeps the
  // copy off on scalar-only hosts by design.
  if (!kernels::is_vector_kernel(kernels::widest_supported()))
    GTEST_SKIP() << "no vector kernel on this host/build";
  const auto input = make_merge_input(Dist::kUniform, 7001, 6400, 83);
  std::vector<std::int32_t> out(13401);
  SegmentedConfig config;
  config.segment_length = 192;
  const auto stats = segmented_parallel_merge(input.a.data(), 7001,
                                              input.b.data(), 6400,
                                              out.data(), config,
                                              Executor{nullptr, 3});
  EXPECT_EQ(out, test::reference_merge(input.a, input.b));
  EXPECT_GT(stats.linearized_windows, 0u);
  EXPECT_GT(stats.linearized_elements, 0u);
}

TEST(SegmentedMerge, LinearizationStaysOffForNonVectorTypes) {
  // KeyedRecord merges are not vector-eligible; the trait keeps the
  // linearize slabs unallocated and the counters at zero.
  const auto keyed = make_keyed_input(900, 800, 5, 0x91);
  std::vector<KeyedRecord> out(1700);
  SegmentedConfig config;
  config.segment_length = 96;
  const auto stats = segmented_parallel_merge(
      keyed.a.data(), keyed.a.size(), keyed.b.data(), keyed.b.size(),
      out.data(), config, Executor{nullptr, 3});
  std::vector<KeyedRecord> want(1700);
  std::merge(keyed.a.begin(), keyed.a.end(), keyed.b.begin(), keyed.b.end(),
             want.begin());
  EXPECT_EQ(out, want);
  EXPECT_EQ(stats.linearized_windows, 0u);
  EXPECT_EQ(stats.linearized_elements, 0u);
}

TEST(SegmentedMerge, InstrumentStageCountsEqualInputSizes) {
  const auto input = make_merge_input(Dist::kUniform, 1500, 900, 67);
  std::vector<std::int32_t> out(2400);
  SegmentedConfig config;
  config.segment_length = 128;
  ThreadPool serial(0);
  std::vector<OpCounts> counts(4);
  segmented_parallel_merge(input.a.data(), 1500, input.b.data(), 900,
                           out.data(), config, Executor{&serial, 4},
                           std::less<>{}, std::span<OpCounts>(counts));
  std::uint64_t stages = 0, moves = 0;
  for (const auto& c : counts) stages += c.stages;
  EXPECT_EQ(stages, 2400u);  // every input element staged exactly once
  for (const auto& c : counts) moves += c.moves;
  // Each output element: one move in the segment merge + one write-back.
  EXPECT_EQ(moves, 2 * 2400u);
}

}  // namespace
}  // namespace mp
