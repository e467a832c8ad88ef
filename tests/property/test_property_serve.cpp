// Serving-layer property sweeps (see docs/TESTING.md).
//
// Three contracts, each swept over seeds:
//  (a) Cross-request batching is invisible in the results: a coalesced
//      segmented batch produces byte-exact the output of sorting every
//      request individually. Payload stability is proven with encoded
//      64-bit keys ((key << 32) | unique_id): the low halves ride along
//      untouched, so byte-equality catches any payload rewrite, not just
//      misordering.
//  (b) Same seed + same fault plan replays identically: the plan's
//      schedule_hash, every per-request outcome, and every result byte.
//  (c) Rate-1.0 lane faults exhaust the retry budget and degrade batches
//      to the sequential caller fallback — with every request still
//      answered, correctly. The server never drops work and never dies.
//
// Seed counts drop under sanitizers (10-20x slowdown); every case logs
// its seed via SCOPED_TRACE so a CI failure replays with --gtest_filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MP_TEST_SANITIZED 1
#endif
#endif
#if !defined(MP_TEST_SANITIZED) && \
    (defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__))
#define MP_TEST_SANITIZED 1
#endif
#ifndef MP_TEST_SANITIZED
#define MP_TEST_SANITIZED 0
#endif

namespace mp {
namespace {

using namespace mp::serve;

#if MP_TEST_SANITIZED
constexpr std::uint64_t kSweepSeeds = 24;
#else
constexpr std::uint64_t kSweepSeeds = 200;
#endif

/// Encoded stability payload: high half orders (small key universe =>
/// heavy duplication at the key level), low half is a globally unique id
/// the sort must carry along untouched.
std::int64_t encode(std::uint64_t key, std::uint64_t id) {
  return static_cast<std::int64_t>((key << 32) | (id & 0xffffffffu));
}

// ---------------------------------------------------------------------------
// (a) Batched execution is byte-exact vs sorting each request alone.

TEST(ServeProperty, BatchedExecutionByteExactAndPayloadStable) {
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 1);
    ThreadPool pool(2);
    ServerConfig cfg;
    cfg.manual_pump = true;
    cfg.exec = Executor{&pool, 3};
    cfg.solo_threshold = 4096;
    cfg.max_batch_requests = 8;  // several batches per sweep
    Server server(cfg);

    constexpr std::size_t kRequests = 24;
    std::vector<std::vector<std::int64_t>> want64(kRequests);
    std::vector<std::vector<std::int32_t>> want32(kRequests);
    std::vector<Response> responses(kRequests);
    std::vector<bool> answered(kRequests, false);
    std::uint64_t next_id = 0;

    for (std::size_t i = 0; i < kRequests; ++i) {
      // Fuzzed skewed sizes, including empty payloads.
      const std::size_t n = static_cast<std::size_t>(
          rng.bounded(8) == 0 ? rng.bounded(4)
                              : rng.bounded(2048));
      Request req;
      req.sequence = i;
      const std::uint64_t flavor = rng.bounded(8);
      if (flavor == 0) {
        // A merge in the mix: never coalesced, must still be exact.
        req.kind = RequestKind::kMerge;
        req.width = KeyWidth::k64;
        req.keys64.resize(n / 2);
        req.other64.resize(n - n / 2);
        for (auto& v : req.keys64) v = encode(rng.bounded(64), next_id++);
        for (auto& v : req.other64) v = encode(rng.bounded(64), next_id++);
        std::sort(req.keys64.begin(), req.keys64.end());
        std::sort(req.other64.begin(), req.other64.end());
        want64[i].resize(n);
        std::merge(req.keys64.begin(), req.keys64.end(),
                   req.other64.begin(), req.other64.end(),
                   want64[i].begin());
      } else if (flavor <= 2) {
        // 32-bit sorts interleave so width segregation is exercised.
        req.width = KeyWidth::k32;
        req.keys32.resize(n);
        for (auto& v : req.keys32)
          v = static_cast<std::int32_t>(rng.bounded(64));
        want32[i] = req.keys32;
        std::sort(want32[i].begin(), want32[i].end());
      } else {
        req.width = KeyWidth::k64;
        req.keys64.resize(n);
        for (auto& v : req.keys64) v = encode(rng.bounded(64), next_id++);
        want64[i] = req.keys64;
        std::sort(want64[i].begin(), want64[i].end());
      }
      const auto res = server.submit(std::move(req), [&, i](Response&& r) {
        responses[i] = std::move(r);
        answered[i] = true;
      });
      ASSERT_TRUE(res.accepted());
    }
    server.pump();

    std::uint64_t batched = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
      SCOPED_TRACE(::testing::Message() << "request=" << i);
      ASSERT_TRUE(answered[i]);
      ASSERT_TRUE(responses[i].ok());
      batched += responses[i].batched;
      // Byte-exact vs the individually sorted/merged reference — the low
      // id halves prove the payload was carried, not reconstructed.
      EXPECT_EQ(responses[i].keys64, want64[i]);
      EXPECT_EQ(responses[i].keys32, want32[i]);
    }
    EXPECT_GT(batched, 1u);  // coalescing actually happened
  }
}

// ---------------------------------------------------------------------------
// (b) Replay: same seed + same fault plan => identical schedule_hash and
// identical per-request outcomes (and bytes).

struct ReplayRecord {
  std::uint64_t sequence = 0;
  Outcome outcome = Outcome::kOk;
  bool degraded = false;
  bool batched = false;
  std::uint64_t batch = 0;
  std::vector<std::int32_t> result;

  bool operator==(const ReplayRecord&) const = default;
};

std::pair<std::uint64_t, std::vector<ReplayRecord>> replay_run(
    std::uint64_t seed) {
  ThreadPool pool(3);
  fault::FaultPlan plan(
      fault::FaultConfig{seed, /*rate=*/0.10, /*latency_us=*/250.0,
                         /*lane_delay_us=*/50.0});
  fault::ScopedInjector injector(pool, plan);
  ServerConfig cfg;
  cfg.manual_pump = true;
  cfg.exec = Executor{&pool, 4};
  cfg.solo_threshold = 1024;
  cfg.max_batch_requests = 4;
  Server server(cfg);

  Xoshiro256 rng(seed ^ 0xdeadbeefcafef00dull);
  constexpr std::size_t kRequests = 16;
  std::vector<ReplayRecord> records;
  records.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    Request req;
    req.sequence = i;
    req.keys32.resize(rng.bounded(3000));  // some solo (>= 1024), some small
    for (auto& v : req.keys32) v = static_cast<std::int32_t>(rng());
    const auto res = server.submit(std::move(req), [&](Response&& r) {
      records.push_back(ReplayRecord{r.sequence, r.outcome, r.degraded,
                                     r.batched, r.batch,
                                     std::move(r.keys32)});
    });
    EXPECT_TRUE(res.accepted());
  }
  server.pump();
  return {plan.schedule_hash(), std::move(records)};
}

TEST(ServeProperty, SameSeedAndFaultPlanReplayIdentically) {
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const auto [hash1, records1] = replay_run(seed);
    const auto [hash2, records2] = replay_run(seed);
    EXPECT_EQ(hash1, hash2);
    ASSERT_EQ(records1.size(), records2.size());
    EXPECT_TRUE(records1 == records2);
    for (const ReplayRecord& rec : records1) {
      EXPECT_EQ(rec.outcome, Outcome::kOk);
      EXPECT_TRUE(std::is_sorted(rec.result.begin(), rec.result.end()));
    }
  }
}

// ---------------------------------------------------------------------------
// (c) Rate-1.0 lane faults: batches degrade to the sequential fallback,
// every request is still answered with the correct result.

TEST(ServeProperty, RateOneFaultsDegradeButAnswerEverything) {
  std::uint64_t degraded_responses = 0;
  std::uint64_t degraded_merges = 0;
  std::uint64_t injected_runs = 0;
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    ThreadPool pool(3);
    fault::FaultPlan plan(
        fault::FaultConfig{seed + 1, /*rate=*/1.0, /*latency_us=*/250.0,
                           /*lane_delay_us=*/50.0});
    fault::ScopedInjector injector(pool, plan);
    ServerConfig cfg;
    cfg.manual_pump = true;
    cfg.exec = Executor{&pool, 4};
    cfg.solo_threshold = 512;
    cfg.max_batch_requests = 8;
    Server server(cfg);

    Xoshiro256 rng(seed * 31 + 7);
    std::size_t submitted = 0;
    std::size_t answered = 0;
    std::size_t correct = 0;
    const auto done = [&](Response&& r) {
      ++answered;
      if (!r.ok()) return;
      degraded_responses += r.degraded;
      const bool sorted =
          std::is_sorted(r.keys32.begin(), r.keys32.end()) &&
          std::is_sorted(r.keys64.begin(), r.keys64.end());
      correct += sorted;
    };

    // Ten coalescable small sorts...
    for (int i = 0; i < 10; ++i) {
      Request req;
      req.keys32.resize(64 + rng.bounded(384));
      for (auto& v : req.keys32) v = static_cast<std::int32_t>(rng());
      ASSERT_TRUE(server.submit(std::move(req), done).accepted());
      ++submitted;
    }
    // ...one solo parallel sort...
    {
      Request req;
      req.keys32.resize(4096);
      for (auto& v : req.keys32) v = static_cast<std::int32_t>(rng());
      ASSERT_TRUE(server.submit(std::move(req), done).accepted());
      ++submitted;
    }
    // ...and one merge large enough for parallel pulls, which run on the
    // same recovering executor: its answer is exactly std::merge.
    std::vector<std::int32_t> merged;
    bool merge_answered = false;
    {
      Request req;
      req.kind = RequestKind::kMerge;
      req.keys32.resize(40000);
      req.other32.resize(40000);
      for (auto& v : req.keys32) v = static_cast<std::int32_t>(rng());
      for (auto& v : req.other32) v = static_cast<std::int32_t>(rng());
      std::sort(req.keys32.begin(), req.keys32.end());
      std::sort(req.other32.begin(), req.other32.end());
      std::merge(req.keys32.begin(), req.keys32.end(), req.other32.begin(),
                 req.other32.end(), std::back_inserter(merged));
      const auto merge_done = [&](Response&& r) {
        merge_answered = true;
        EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(r.keys32, merged);
        degraded_merges += r.degraded;
        done(std::move(r));
      };
      ASSERT_TRUE(server.submit(std::move(req), merge_done).accepted());
      ++submitted;
    }

    server.pump();
    // The conservation law under total fault pressure: nothing dropped.
    ASSERT_EQ(answered, submitted);
    ASSERT_EQ(correct, submitted);
    ASSERT_TRUE(merge_answered);
    injected_runs += plan.stats().injected > 0 ? 1 : 0;
  }
  // Rate 1.0 injects on every pool job; across the sweep the retry
  // budget must have been exhausted somewhere (delay-only schedules
  // can survive a single batch, not the whole sweep).
  EXPECT_EQ(injected_runs, kSweepSeeds);
  EXPECT_GT(degraded_responses, 0u);
  EXPECT_GT(degraded_merges, 0u);
}

}  // namespace
}  // namespace mp
