// Tests for core/stream_merger.hpp: the determinedness rule, incremental
// pulls, close semantics, tie stability across pulls, and randomized
// chunk-schedule equivalence against the offline merge.

#include "core/stream_merger.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_support.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

TEST(StreamMerger, NothingDeterminedWhileABufferIsDryAndOpen) {
  StreamMerger<std::int32_t> merger;
  const std::vector<std::int32_t> chunk{1, 2, 3};
  merger.push_a(std::span<const std::int32_t>(chunk));
  // B has no data yet and is open: a future B value could precede 1.
  EXPECT_EQ(merger.available(), 0u);
  merger.close_b();
  // Now all of A is determined.
  EXPECT_EQ(merger.available(), 3u);
  EXPECT_EQ(merger.pull_all(), chunk);
  merger.close_a();
  EXPECT_TRUE(merger.finished());
}

TEST(StreamMerger, DeterminedPrefixStopsAtOpenFrontier) {
  StreamMerger<std::int32_t> merger;
  const std::vector<std::int32_t> a{1, 5, 9};
  const std::vector<std::int32_t> b{2, 3};
  merger.push_a(std::span<const std::int32_t>(a));
  merger.push_b(std::span<const std::int32_t>(b));
  // Path on the windows: 1,2,3 then B exhausts while open => 3 determined.
  EXPECT_EQ(merger.available(), 3u);
  const auto got = merger.pull_all();
  EXPECT_EQ(got, (std::vector<std::int32_t>{1, 2, 3}));
  // 5 is not determined: a future B value 4 could precede it.
  EXPECT_EQ(merger.available(), 0u);
  const std::vector<std::int32_t> b2{4, 20};
  merger.push_b(std::span<const std::int32_t>(b2));
  // Now A's buffered 5, 9 precede B's 20, but 20 itself waits for A.
  EXPECT_EQ(merger.available(), 3u);
  EXPECT_EQ(merger.pull_all(), (std::vector<std::int32_t>{4, 5, 9}));
  merger.close_a();
  EXPECT_EQ(merger.pull_all(), (std::vector<std::int32_t>{20}));
  merger.close_b();
  EXPECT_TRUE(merger.finished());
}

TEST(StreamMerger, EqualKeysAreDeterminedImmediately) {
  // a == b at the heads: taking A is final (stable order) even though
  // more elements equal to it may arrive on either stream.
  StreamMerger<std::int32_t> merger;
  const std::vector<std::int32_t> a{7}, b{7};
  merger.push_a(std::span<const std::int32_t>(a));
  merger.push_b(std::span<const std::int32_t>(b));
  // A's 7 <= B's 7: determined. B's 7 then stalls on A's open frontier
  // (a future A 7 would stably precede it? No — future A elements come
  // AFTER a[0] in A's own order, and A-priority only orders A's elements
  // before B's at equal keys when they are present; B's 7 must wait until
  // it is known no smaller-or-equal A arrives: a future 7 on A would
  // stably precede B's 7).
  EXPECT_EQ(merger.available(), 1u);
  std::vector<std::int32_t> out(1);
  EXPECT_EQ(merger.pull(std::span<std::int32_t>(out)), 1u);
  EXPECT_EQ(out[0], 7);
  merger.close_a();
  EXPECT_EQ(merger.pull_all(), (std::vector<std::int32_t>{7}));
}

TEST(StreamMerger, PartialPullsRespectCapacity) {
  StreamMerger<std::int32_t> merger;
  const auto input = make_merge_input(Dist::kUniform, 1000, 1000, 401);
  merger.push_a(std::span<const std::int32_t>(input.a));
  merger.push_b(std::span<const std::int32_t>(input.b));
  merger.close_a();
  merger.close_b();
  const auto expected = test::reference_merge(input.a, input.b);

  std::vector<std::int32_t> got;
  std::vector<std::int32_t> buf(137);  // odd capacity: exercises resume
  while (!merger.finished()) {
    const std::size_t n = merger.pull(std::span<std::int32_t>(buf));
    got.insert(got.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
    ASSERT_GT(n, 0u);
  }
  EXPECT_EQ(got, expected);
}

TEST(StreamMerger, RandomChunkScheduleMatchesOfflineMerge) {
  // Property: any interleaving of pushes/pulls/closes yields exactly the
  // offline stable merge.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto input = make_merge_input(Dist::kClustered, 3000, 2500,
                                        500 + seed);
    const auto expected = test::reference_merge(input.a, input.b);
    Xoshiro256 rng(seed);
    StreamMerger<std::int32_t> merger;
    std::size_t fed_a = 0, fed_b = 0;
    std::vector<std::int32_t> got;
    std::vector<std::int32_t> buf(512);

    while (!merger.finished()) {
      switch (rng.bounded(4)) {
        case 0: {  // feed A
          if (fed_a < input.a.size()) {
            const std::size_t len = std::min<std::size_t>(
                1 + rng.bounded(400), input.a.size() - fed_a);
            merger.push_a(std::span<const std::int32_t>(
                input.a.data() + fed_a, len));
            fed_a += len;
          } else if (merger.a_open()) {
            merger.close_a();
          }
          break;
        }
        case 1: {  // feed B
          if (fed_b < input.b.size()) {
            const std::size_t len = std::min<std::size_t>(
                1 + rng.bounded(400), input.b.size() - fed_b);
            merger.push_b(std::span<const std::int32_t>(
                input.b.data() + fed_b, len));
            fed_b += len;
          } else if (merger.b_open()) {
            merger.close_b();
          }
          break;
        }
        default: {  // pull
          const std::size_t n = merger.pull(std::span<std::int32_t>(buf));
          got.insert(got.end(), buf.begin(),
                     buf.begin() + static_cast<std::ptrdiff_t>(n));
          break;
        }
      }
    }
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
}

TEST(StreamMerger, StabilityAcrossManySmallPulls) {
  const auto keyed = make_keyed_input(800, 800, 4, 601);
  StreamMerger<KeyedRecord> merger;
  merger.push_a(std::span<const KeyedRecord>(keyed.a));
  merger.push_b(std::span<const KeyedRecord>(keyed.b));
  merger.close_a();
  merger.close_b();
  std::vector<KeyedRecord> got;
  std::vector<KeyedRecord> buf(33);
  while (!merger.finished()) {
    const std::size_t n = merger.pull(std::span<KeyedRecord>(buf));
    got.insert(got.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  for (std::size_t i = 1; i < got.size(); ++i) {
    ASSERT_LE(got[i - 1].key, got[i].key);
    if (got[i - 1].key == got[i].key) {
      ASSERT_LT(got[i - 1].payload, got[i].payload) << "at " << i;
    }
  }
}

TEST(StreamMerger, LargePullUsesParallelPath) {
  // Above the parallel threshold (1 << 15): exercises the Algorithm 1
  // branch inside pull().
  const auto input = make_merge_input(Dist::kUniform, 50000, 50000, 701);
  StreamMerger<std::int32_t> merger({}, Executor{nullptr, 4});
  merger.push_a(std::span<const std::int32_t>(input.a));
  merger.push_b(std::span<const std::int32_t>(input.b));
  merger.close_a();
  merger.close_b();
  EXPECT_EQ(merger.pull_all(), test::reference_merge(input.a, input.b));
}

// The first k elements of a merge: close both inputs and pull k. Only the
// co-rank at k is searched; the rest of the inputs is never touched.
TEST(MergeFirstK, PrefixOfFullMerge) {
  const auto input = make_merge_input(Dist::kClustered, 800, 600, 173);
  const auto full = test::reference_merge(input.a, input.b);
  for (std::size_t k : {0u, 1u, 7u, 400u, 1399u, 1400u}) {
    StreamMerger<std::int32_t> merger({}, Executor{nullptr, 4});
    merger.push_a(std::span<const std::int32_t>(input.a));
    merger.push_b(std::span<const std::int32_t>(input.b));
    merger.close_a();
    merger.close_b();
    std::vector<std::int32_t> out(k);
    EXPECT_EQ(merger.pull(std::span<std::int32_t>(out)), k);
    const std::vector<std::int32_t> expected(
        full.begin(), full.begin() + static_cast<std::ptrdiff_t>(k));
    EXPECT_EQ(out, expected) << "k=" << k;
  }
}

TEST(MergeFirstK, TopKUseCase) {
  // k smallest of two large arrays.
  const auto input = make_merge_input(Dist::kUniform, 100000, 100000, 179);
  StreamMerger<std::int32_t> merger;
  merger.push_a(std::span<const std::int32_t>(input.a));
  merger.push_b(std::span<const std::int32_t>(input.b));
  merger.close_a();
  merger.close_b();
  std::vector<std::int32_t> top10(10);
  EXPECT_EQ(merger.pull(std::span<std::int32_t>(top10)), 10u);
  const auto full = test::reference_merge(input.a, input.b);
  EXPECT_TRUE(std::equal(top10.begin(), top10.end(), full.begin()));
}

}  // namespace
}  // namespace mp
