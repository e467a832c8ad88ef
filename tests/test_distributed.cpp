// Tests for the distributed-memory substrate (S21): network accounting,
// all three distributed merge algorithms' correctness, and the traffic
// relationships E16 is about (merge-path exchange: one data round,
// balanced receives, <= N total; tree: ~N/2·log p; gather: root hotspot).

#include "dist/distributed_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_support.hpp"
#include "util/data_gen.hpp"

namespace mp::dist {
namespace {

TEST(RankNetwork, AlphaBetaAccounting) {
  NetConfig config;
  config.alpha_us = 5.0;
  config.beta_bytes_per_us = 100.0;
  RankNetwork net(3, config);
  net.send(0, 1, 1000);  // 5 + 10 = 15us on both ports
  net.send(2, 1, 200);   // 5 + 2 = 7us; rank 1 recv port now 22us
  net.end_round();
  const NetStats stats = net.stats();
  EXPECT_EQ(stats.messages, 2u);
  EXPECT_EQ(stats.bytes, 1200u);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_DOUBLE_EQ(stats.modeled_time_us, 22.0);  // rank 1's recv port
  EXPECT_EQ(stats.max_rank_recv_bytes, 1200u);
}

TEST(RankNetwork, SelfSendsAreFree) {
  RankNetwork net(2);
  net.send(1, 1, 1 << 20);
  net.end_round();
  EXPECT_EQ(net.stats().messages, 0u);
  EXPECT_EQ(net.stats().bytes, 0u);
}

class DistributedMerge
    : public ::testing::TestWithParam<std::tuple<Dist, unsigned>> {};

TEST_P(DistributedMerge, AllThreeAlgorithmsProduceTheMerge) {
  const auto [dist, ranks] = GetParam();
  const auto input = make_merge_input(dist, 5000, 4000, 1700);
  const auto expected = test::reference_merge(input.a, input.b);
  const DistArray da = distribute(input.a, ranks);
  const DistArray db = distribute(input.b, ranks);

  EXPECT_EQ(merge_path_exchange(da, db).merged.gathered(), expected);
  EXPECT_EQ(tree_merge(da, db).merged.gathered(), expected);
  EXPECT_EQ(gather_at_root(da, db).merged.gathered(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    DistsAndRanks, DistributedMerge,
    ::testing::Combine(::testing::Values(Dist::kUniform, Dist::kDisjointLow,
                                         Dist::kAllEqual, Dist::kClustered),
                       ::testing::Values(1u, 2u, 3u, 8u, 13u)),
    [](const auto& pinfo) {
      return to_string(std::get<0>(pinfo.param)) + "_r" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(DistributedMerge, MergePathExchangeMovesAtMostNPlusProbes) {
  const auto input = make_merge_input(Dist::kUniform, 40000, 40000, 1701);
  const DistArray da = distribute(input.a, 8);
  const DistArray db = distribute(input.b, 8);
  const auto result = merge_path_exchange(da, db);
  const std::uint64_t n_bytes = 80000ull * 4;
  // Data volume <= N elements (fragments that are already local are free)
  // plus the tiny probe round.
  EXPECT_LE(result.net.bytes, n_bytes + 8 * 2 * 20 * 16);
  // Exactly two rounds: probes, then the one personalized exchange.
  EXPECT_EQ(result.net.rounds, 2u);
  // Balanced receives: no rank receives more than ~N/p + probe slack.
  EXPECT_LE(result.net.max_rank_recv_bytes, n_bytes / 8 + 4096);
}

TEST(DistributedMerge, TreeMovesMoreAndConcentrates) {
  const auto input = make_merge_input(Dist::kUniform, 40000, 40000, 1703);
  const DistArray da = distribute(input.a, 8);
  const DistArray db = distribute(input.b, 8);
  const auto path = merge_path_exchange(da, db);
  const auto tree = tree_merge(da, db);
  const auto gather = gather_at_root(da, db);

  // Tree: ~ (N/2)·log2(8) + scatter N ≈ 2.3N vs path's <= ~0.9N.
  EXPECT_GT(tree.net.bytes, 2 * path.net.bytes);
  // Gather: 2N total with an N-byte hotspot at the root.
  EXPECT_GE(gather.net.max_rank_recv_bytes, 80000ull * 4 * 7 / 8);
  EXPECT_GT(gather.net.max_rank_recv_bytes,
            3 * path.net.max_rank_recv_bytes);
  // And the modelled time ordering follows.
  EXPECT_LT(path.net.modeled_time_us, tree.net.modeled_time_us);
  EXPECT_LT(path.net.modeled_time_us, gather.net.modeled_time_us);
}

TEST(Distribute, RoundTripsAndBalances) {
  const auto values = make_uniform_values(1000, 5);
  const DistArray d = distribute(values, 7);
  EXPECT_EQ(d.gathered(), values);
  for (const auto& shard : d.shards) {
    EXPECT_GE(shard.size(), 1000u / 7);
    EXPECT_LE(shard.size(), 1000u / 7 + 1);
  }
}

}  // namespace
}  // namespace mp::dist
