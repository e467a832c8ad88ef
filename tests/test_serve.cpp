// Tests of the serving layer (src/serve/): queue lifecycle (submit /
// cancel / shutdown-drain), typed admission-control rejections, watermark
// hysteresis, batch-assembly boundaries (empty queue, singleton,
// max-batch caps, width segregation, solo cuts), merge execution
// (buffered and streaming), and the deterministic closed-loop load
// generator including its serve.* span-percentile surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/percentiles.hpp"
#include "obs/trace.hpp"
#include "serve/loadgen.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace {

using namespace mp;
using namespace mp::serve;

std::vector<std::int32_t> random_keys(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  std::vector<std::int32_t> keys(n);
  for (auto& v : keys) v = static_cast<std::int32_t>(rng());
  return keys;
}

Request sort_request(std::uint64_t seed, std::size_t n,
                     std::uint64_t session = 0, std::uint64_t seq = 0) {
  Request req;
  req.kind = RequestKind::kSort;
  req.width = KeyWidth::k32;
  req.keys32 = random_keys(seed, n);
  req.session = session;
  req.sequence = seq;
  return req;
}

/// A manual-pump server config sized so tests control every batch.
ServerConfig manual_config() {
  ServerConfig cfg;
  cfg.manual_pump = true;
  cfg.record_batch_sizes = true;
  return cfg;
}

TEST(ServeQueue, SubmitPumpCompleteSorted) {
  Server server(manual_config());
  std::vector<Response> responses;
  for (int i = 0; i < 5; ++i) {
    const auto res =
        server.submit(sort_request(100 + i, 1000, /*session=*/0,
                                   /*seq=*/static_cast<std::uint64_t>(i)),
                      [&](Response&& r) { responses.push_back(std::move(r)); });
    ASSERT_TRUE(res.accepted());
    EXPECT_GT(res.id, 0u);
  }
  EXPECT_EQ(server.queue_depth(), 5u);
  EXPECT_GT(server.pump(), 0u);
  ASSERT_EQ(responses.size(), 5u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const Response& r = responses[i];
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.sequence, i);  // FIFO delivery
    EXPECT_EQ(r.keys32.size(), 1000u);
    EXPECT_TRUE(std::is_sorted(r.keys32.begin(), r.keys32.end()));
    EXPECT_GE(r.service_ns, 0u);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.accepted, 5u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ServeQueue, CancelAnswersWithoutExecuting) {
  Server server(manual_config());
  std::vector<Response> responses;
  const auto done = [&](Response&& r) { responses.push_back(std::move(r)); };
  const auto a = server.submit(sort_request(1, 64), done);
  const auto b = server.submit(sort_request(2, 64), done);
  const auto c = server.submit(sort_request(3, 64), done);
  ASSERT_TRUE(a.accepted() && b.accepted() && c.accepted());

  EXPECT_TRUE(server.cancel(b.id));
  ASSERT_EQ(responses.size(), 1u);  // cancelled completes immediately
  EXPECT_EQ(responses[0].id, b.id);
  EXPECT_EQ(responses[0].outcome, Outcome::kCancelled);
  EXPECT_FALSE(server.cancel(b.id));      // already gone
  EXPECT_FALSE(server.cancel(999999u));   // unknown id

  server.pump();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[1].ok());
  EXPECT_TRUE(responses[2].ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServeQueue, ShutdownDrainAnswersEverything) {
  Server server(manual_config());
  std::size_t answered = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(server
                    .submit(sort_request(10 + i, 256),
                            [&](Response&& r) { answered += r.ok(); })
                    .accepted());
  }
  server.shutdown(/*drain=*/true);
  EXPECT_EQ(answered, 8u);
  EXPECT_EQ(server.queue_depth(), 0u);
  // Post-shutdown submits are refused with the typed reason.
  const auto late = server.submit(sort_request(1, 16), [](Response&&) {});
  EXPECT_FALSE(late.accepted());
  EXPECT_EQ(late.rejected, RejectReason::kShutdown);
  server.shutdown();  // idempotent
}

TEST(ServeQueue, ShutdownWithoutDrainCancelsQueued) {
  Server server(manual_config());
  std::vector<Outcome> outcomes;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server
                    .submit(sort_request(i, 128),
                            [&](Response&& r) { outcomes.push_back(r.outcome); })
                    .accepted());
  }
  server.shutdown(/*drain=*/false);
  ASSERT_EQ(outcomes.size(), 4u);  // conservation: every accept answered
  for (const Outcome o : outcomes) EXPECT_EQ(o, Outcome::kCancelled);
  EXPECT_EQ(server.stats().cancelled, 4u);
}

TEST(ServeQueue, ThreadedServerDrainsOnShutdown) {
  ServerConfig cfg;  // dispatcher-threaded
  std::atomic<std::size_t> answered{0};
  Server server(cfg);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(server
                    .submit(sort_request(i, 2048),
                            [&](Response&& r) {
                              if (r.ok() &&
                                  std::is_sorted(r.keys32.begin(),
                                                 r.keys32.end()))
                                ++answered;
                            })
                    .accepted());
  }
  server.shutdown(/*drain=*/true);
  EXPECT_EQ(answered.load(), 16u);
}

TEST(ServeAdmission, TypedRejections) {
  ServerConfig cfg = manual_config();
  cfg.max_request_elements = 100;
  Server server(cfg);
  const auto drop = [](Response&&) {};

  // Oversized.
  auto res = server.submit(sort_request(1, 101), drop);
  EXPECT_EQ(res.rejected, RejectReason::kOversized);

  // Malformed: unsorted merge input.
  Request merge;
  merge.kind = RequestKind::kMerge;
  merge.keys32 = {3, 1, 2};
  merge.other32 = {1, 2, 3};
  res = server.submit(std::move(merge), drop);
  EXPECT_EQ(res.rejected, RejectReason::kMalformed);

  // Malformed: payload in the wrong width lane.
  Request wrong;
  wrong.width = KeyWidth::k32;
  wrong.keys64 = {1, 2, 3};
  res = server.submit(std::move(wrong), drop);
  EXPECT_EQ(res.rejected, RejectReason::kMalformed);

  // Malformed: a sort carrying a second stream.
  Request extra;
  extra.kind = RequestKind::kSort;
  extra.keys32 = {1, 2};
  extra.other32 = {3};
  res = server.submit(std::move(extra), drop);
  EXPECT_EQ(res.rejected, RejectReason::kMalformed);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(stats.rejected_oversized, 1u);
  EXPECT_EQ(stats.rejected_malformed, 3u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST(ServeAdmission, QueueFullAtTheRim) {
  ServerConfig cfg = manual_config();
  cfg.queue_capacity = 2;
  cfg.high_watermark = 2;  // shedding and the rim coincide
  cfg.low_watermark = 1;
  Server server(cfg);
  const auto drop = [](Response&&) {};
  EXPECT_TRUE(server.submit(sort_request(1, 8), drop).accepted());
  EXPECT_TRUE(server.submit(sort_request(2, 8), drop).accepted());
  const auto res = server.submit(sort_request(3, 8), drop);
  EXPECT_EQ(res.rejected, RejectReason::kQueueFull);
  server.shutdown();
}

TEST(ServeAdmission, WatermarkHysteresis) {
  ServerConfig cfg = manual_config();
  cfg.queue_capacity = 8;
  cfg.high_watermark = 4;
  cfg.low_watermark = 2;
  cfg.max_batch_requests = 1;  // one request per pump for exact control
  Server server(cfg);
  const auto drop = [](Response&&) {};

  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(server.submit(sort_request(i, 16), drop).accepted());
  EXPECT_TRUE(server.shedding());  // crossed high watermark

  // Shedding rejects with kBackpressure, not kQueueFull (depth 4 < 8).
  auto res = server.submit(sort_request(9, 16), drop);
  EXPECT_EQ(res.rejected, RejectReason::kBackpressure);

  // Draining to depth 3 (> low) must NOT clear shedding — hysteresis.
  EXPECT_EQ(server.pump(1), 1u);
  EXPECT_EQ(server.queue_depth(), 3u);
  EXPECT_TRUE(server.shedding());
  EXPECT_EQ(server.submit(sort_request(9, 16), drop).rejected,
            RejectReason::kBackpressure);

  // Draining to the low watermark clears it; submits flow again.
  EXPECT_EQ(server.pump(1), 1u);
  EXPECT_EQ(server.queue_depth(), 2u);
  EXPECT_FALSE(server.shedding());
  EXPECT_TRUE(server.submit(sort_request(10, 16), drop).accepted());

  // Refill to the high watermark: a second shed transition.
  ASSERT_TRUE(server.submit(sort_request(11, 16), drop).accepted());
  EXPECT_TRUE(server.shedding());
  EXPECT_EQ(server.stats().shed_transitions, 2u);
  server.shutdown();
}

TEST(ServeBatch, EmptyQueuePumpsNothing) {
  Server server(manual_config());
  EXPECT_EQ(server.pump(), 0u);
  EXPECT_TRUE(server.stats().batch_sizes.empty());
}

TEST(ServeBatch, SingletonAndMaxBatchBoundaries) {
  ServerConfig cfg = manual_config();
  cfg.max_batch_requests = 4;
  Server server(cfg);
  std::vector<Response> responses;
  const auto done = [&](Response&& r) { responses.push_back(std::move(r)); };

  // A single small sort is still a (singleton) coalesced batch.
  ASSERT_TRUE(server.submit(sort_request(1, 64), done).accepted());
  server.pump();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].batched);

  // Nine small sorts at cap 4 pack 4+4+1.
  responses.clear();
  for (int i = 0; i < 9; ++i)
    ASSERT_TRUE(server.submit(sort_request(i, 64), done).accepted());
  server.pump();
  ASSERT_EQ(responses.size(), 9u);
  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.batch_sizes.size(), 4u);  // 1 + 3 batches
  EXPECT_EQ(stats.batch_sizes[1], 4u);
  EXPECT_EQ(stats.batch_sizes[2], 4u);
  EXPECT_EQ(stats.batch_sizes[3], 1u);
  // Requests in one batch share a batch ordinal; batches are ordered.
  EXPECT_EQ(responses[0].batch, responses[3].batch);
  EXPECT_NE(responses[3].batch, responses[4].batch);
}

TEST(ServeBatch, ElementBudgetBoundsABatch) {
  ServerConfig cfg = manual_config();
  cfg.max_batch_requests = 64;
  cfg.max_batch_elements = 250;
  Server server(cfg);
  const auto drop = [](Response&&) {};
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(server.submit(sort_request(i, 100), drop).accepted());
  server.pump();
  // 100+100 fits in 250; a third would overflow: batches of 2.
  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.batch_sizes.size(), 3u);
  for (const std::size_t s : stats.batch_sizes) EXPECT_EQ(s, 2u);
}

TEST(ServeBatch, MixedKeyWidthsNeverShareABatch) {
  Server server(manual_config());
  const auto drop = [](Response&&) {};
  for (int i = 0; i < 4; ++i) {
    Request req;
    req.width = i < 2 ? KeyWidth::k32 : KeyWidth::k64;
    if (i < 2)
      req.keys32 = random_keys(i, 64);
    else {
      Xoshiro256 rng(static_cast<std::uint64_t>(i));
      req.keys64.resize(64);
      for (auto& v : req.keys64) v = static_cast<std::int64_t>(rng());
    }
    ASSERT_TRUE(server.submit(std::move(req), drop).accepted());
  }
  server.pump();
  // k32,k32 coalesce; the width flip cuts the batch: {2, 2}.
  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.batch_sizes.size(), 2u);
  EXPECT_EQ(stats.batch_sizes[0], 2u);
  EXPECT_EQ(stats.batch_sizes[1], 2u);
}

TEST(ServeBatch, SoloThresholdCutsLargeRequestsOut) {
  ServerConfig cfg = manual_config();
  cfg.solo_threshold = 1000;
  Server server(cfg);
  std::vector<Response> responses;
  const auto done = [&](Response&& r) { responses.push_back(std::move(r)); };
  ASSERT_TRUE(server.submit(sort_request(1, 100), done).accepted());
  ASSERT_TRUE(server.submit(sort_request(2, 5000), done).accepted());  // solo
  ASSERT_TRUE(server.submit(sort_request(3, 100), done).accepted());
  server.pump();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].batched);
  EXPECT_FALSE(responses[1].batched);  // at/above the threshold: solo
  EXPECT_TRUE(responses[2].batched);
  EXPECT_TRUE(std::is_sorted(responses[1].keys32.begin(),
                             responses[1].keys32.end()));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batched_requests, 2u);
  EXPECT_EQ(stats.solo_requests, 1u);
}

TEST(ServeBatch, BatchingOffDispatchesEveryRequestSolo) {
  ServerConfig cfg = manual_config();
  cfg.batching = false;
  Server server(cfg);
  const auto drop = [](Response&&) {};
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(server.submit(sort_request(i, 64), drop).accepted());
  server.pump();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 5u);
  EXPECT_EQ(stats.solo_requests, 5u);
  EXPECT_EQ(stats.batched_requests, 0u);
}

TEST(ServeMerge, BufferedMergeMatchesStdMerge) {
  Server server(manual_config());
  Xoshiro256 rng(7);
  std::vector<std::int32_t> a(5000), b(3000);
  for (auto& v : a) v = static_cast<std::int32_t>(rng.bounded(1000));
  for (auto& v : b) v = static_cast<std::int32_t>(rng.bounded(1000));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<std::int32_t> want(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), want.begin());

  Request req;
  req.kind = RequestKind::kMerge;
  req.keys32 = a;
  req.other32 = b;
  std::vector<Response> responses;
  ASSERT_TRUE(
      server
          .submit(std::move(req),
                  [&](Response&& r) { responses.push_back(std::move(r)); })
          .accepted());
  server.pump();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_FALSE(responses[0].batched);  // merges never coalesce
  EXPECT_EQ(responses[0].keys32, want);
}

TEST(ServeMerge, StreamingSinkDeliversChunksInOrder) {
  ServerConfig cfg = manual_config();
  cfg.stream_chunk = 512;  // force several push/pull rounds
  Server server(cfg);
  Xoshiro256 rng(11);
  std::vector<std::int64_t> a(4000), b(4000);
  for (auto& v : a) v = static_cast<std::int64_t>(rng.bounded(5000));
  for (auto& v : b) v = static_cast<std::int64_t>(rng.bounded(5000));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<std::int64_t> want(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), want.begin());

  Request req;
  req.kind = RequestKind::kMerge;
  req.width = KeyWidth::k64;
  req.keys64 = a;
  req.other64 = b;
  std::vector<std::int64_t> streamed;
  std::size_t chunks = 0;
  req.sink64 = [&](std::span<const std::int64_t> chunk) {
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
    ++chunks;
  };
  std::vector<Response> responses;
  ASSERT_TRUE(
      server
          .submit(std::move(req),
                  [&](Response&& r) { responses.push_back(std::move(r)); })
          .accepted());
  server.pump();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_TRUE(responses[0].keys64.empty());  // payload went via the sink
  EXPECT_EQ(responses[0].streamed, want.size());
  EXPECT_GT(chunks, 1u);
  EXPECT_EQ(streamed, want);
}

TEST(ServeBatch, EmptyPayloadSortCompletes) {
  Server server(manual_config());
  std::vector<Response> responses;
  ASSERT_TRUE(
      server
          .submit(sort_request(1, 0),
                  [&](Response&& r) { responses.push_back(std::move(r)); })
          .accepted());
  server.pump();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_TRUE(responses[0].keys32.empty());
}

// ---------------------------------------------------------------------------
// Deterministic closed-loop load generation (the simulated-clock run: a
// manual-pump server makes the whole loop single-threaded and replayable).

TEST(ServeLoadGen, DeterministicRunConservesAndOrders) {
  obs::reset_span_stats();
  obs::arm_span_stats();
  LoadGenConfig lg;
  lg.seed = 42;
  lg.sessions = 3;
  lg.requests = 60;
  lg.window = 4;
  lg.mix.min_elements = 16;
  lg.mix.max_elements = 512;
  lg.mix.merge_fraction = 0.25;
  lg.mix.width64_fraction = 0.3;

  const auto run = [&] {
    ServerConfig cfg = manual_config();
    cfg.queue_capacity = 32;
    Server server(cfg);
    const LoadGenReport rep = run_closed_loop(server, lg);
    const ServerStats stats = server.stats();
    return std::pair<LoadGenReport, ServerStats>(rep, stats);
  };
  const auto [rep1, stats1] = run();
  const auto [rep2, stats2] = run();
  obs::disarm_span_stats();

  // Conservation: requests in == responses + rejections; every accepted
  // request answered exactly once with its payload intact, in session
  // FIFO order.
  EXPECT_TRUE(rep1.conservation_ok);
  EXPECT_TRUE(rep1.ordering_ok);
  EXPECT_TRUE(rep1.payload_ok);
  EXPECT_EQ(rep1.submitted, 60u);
  EXPECT_EQ(rep1.completed, rep1.accepted);
  EXPECT_GT(rep1.batched, 0u);

  // Same seed, fresh server: identical logical outcome (timing aside).
  EXPECT_EQ(rep1.submitted, rep2.submitted);
  EXPECT_EQ(rep1.accepted, rep2.accepted);
  EXPECT_EQ(rep1.completed, rep2.completed);
  EXPECT_EQ(rep1.batched, rep2.batched);
  EXPECT_EQ(rep1.elements, rep2.elements);
  EXPECT_EQ(stats1.batches, stats2.batches);
  EXPECT_EQ(stats1.batch_sizes, stats2.batch_sizes);

  // The run fed the serve.* span-percentile surface the metrics JSON
  // exports (the --metrics-json satellite, in-process).
  const auto snapshot = obs::span_stats_snapshot();
  bool request_seen = false, wait_seen = false, service_seen = false;
  for (const auto& stat : snapshot) {
    if (stat.name == "serve.request") request_seen = stat.count > 0;
    if (stat.name == "serve.queue_wait") wait_seen = stat.count > 0;
    if (stat.name == "serve.service") service_seen = stat.count > 0;
  }
  EXPECT_TRUE(request_seen);
  EXPECT_TRUE(wait_seen);
  EXPECT_TRUE(service_seen);
  std::ostringstream json;
  obs::write_metrics_json(json);
  EXPECT_NE(json.str().find("serve.request"), std::string::npos);
  obs::reset_span_stats();
}

TEST(ServeLoadGen, ThreadedClosedLoopConserves) {
  ServerConfig cfg;  // dispatcher-threaded
  cfg.queue_capacity = 64;
  Server server(cfg);
  LoadGenConfig lg;
  lg.seed = 7;
  lg.sessions = 2;
  lg.requests = 40;
  lg.window = 3;
  lg.mix.min_elements = 16;
  lg.mix.max_elements = 1024;
  lg.mix.merge_fraction = 0.2;
  const LoadGenReport rep = run_closed_loop(server, lg);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.completed, rep.accepted);
  EXPECT_GT(rep.throughput_rps(), 0.0);
  EXPECT_GE(rep.latency_ns(0.99), rep.latency_ns(0.5));
  server.shutdown();
}

}  // namespace
