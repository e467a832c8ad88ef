#pragma once
/// \file serve.hpp
/// Merge-as-a-service: an async batching sort/merge server.
///
/// The paper's thesis is that Merge Path makes parallel merging cheap
/// enough to be a drop-in primitive; this layer tests that claim at
/// service scale. The expensive part of serving many *small* requests is
/// not the merging — it is the fork-join control plane: PR 2 measured
/// ~44 ns of barrier cost per pool job plus ~50-60 ns of checkout, and a
/// 4 Ki-element sort simply cannot amortise a whole job by itself under
/// heavy traffic. The server therefore practices what the Gamma-style
/// merge-forest literature preaches for k-way hardware: *cross-request
/// batching*. Many small sort requests are coalesced into one segmented
/// job — each pool lane sequentially sorts a contiguous run of whole
/// request payloads — so one barrier is paid per batch instead of per
/// request, while large requests keep their individual parallel treatment
/// (a 1 Mi-element sort amortises the barrier fine on its own).
///
/// Architecture (one dispatcher, shared pool):
///
///   submit() ──admission──> bounded FIFO queue ──> dispatcher thread
///                               │                      │ assemble batch
///   typed rejection <───────────┘                      │ execute on
///   (kQueueFull, kBackpressure,                        │ ThreadPool via
///    kOversized, kMalformed,                           │ a recovering
///    kShutdown)                                        │ Executor
///                                                      │
///   completion callback <──────────────────────────────┘
///
/// Admission control and backpressure: the queue is bounded
/// (ServerConfig::queue_capacity, hard kQueueFull at the rim) and sheds
/// load with hysteresis before that ever happens — crossing the high
/// watermark enters shedding (new submits get kBackpressure) and only
/// draining below the low watermark exits it, so a server hovering at the
/// boundary does not flap between accept and reject on every request.
///
/// Ordering: the queue is strictly FIFO and batches are executed in
/// assembly order by a single dispatcher, so responses for any one
/// session (a single submitter) are delivered in submission order —
/// the property the load generator asserts.
///
/// Fault story: batched segments are disjoint per request, so the
/// Theorem 14 argument applies verbatim — an injected lane fault
/// mid-batch is retried/hedged by util/recovery.hpp and at worst degrades
/// *that batch* to the sequential caller fallback; the server never drops
/// a request and never dies. Merge requests stream through StreamMerger;
/// a lane fault in a large parallel pull degrades that one merger to
/// sequential pulls (StreamMerger::set_executor) and retries. Degraded
/// batches trip the flight recorder exactly like every other permanent
/// degrade in the tree (docs/OBSERVABILITY.md).
///
/// Observability: every batch runs under a "serve.batch" span; per
/// request the queue-wait / service-time split is folded into the span
/// percentile surface ("serve.request", "serve.queue_wait",
/// "serve.service") so --metrics-json reports serving p50/p95/p99
/// directly; admission decisions emit "serve.reject"/"serve.shed"
/// instants and serve.* counters.
///
/// Threading contract: submit()/cancel() are safe from any thread.
/// Execution happens on the dispatcher thread (or the caller of pump()
/// when ServerConfig::manual_pump is set — the deterministic mode tests
/// and the simulated-clock load generator use), which is the pool's
/// single fork-join caller. Completions are invoked on that thread,
/// outside the queue lock; they must not call back into submit() of the
/// same server from a completion if manual_pump is false and the queue is
/// full (it would be rejected, not deadlock — the lock is not held).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/recovery.hpp"
#include "util/threading.hpp"

namespace mp::serve {

/// What a request asks for: sort my payload, or merge my two sorted runs.
enum class RequestKind : std::uint8_t { kSort, kMerge };

/// Key width of the payload. Mixed-width requests never share a batch
/// (the segmented job is monomorphic over the key type).
enum class KeyWidth : std::uint8_t { k32, k64 };

/// How an accepted request ended.
enum class Outcome : std::uint8_t {
  kOk,         ///< payload processed, result delivered
  kCancelled,  ///< cancelled (or dropped by a non-draining shutdown)
  kFailed,     ///< a genuine exception escaped the execution path
};

/// Why a submit() was refused. Every reason is typed so callers can
/// distinguish "retry later" (kBackpressure, kQueueFull) from "fix your
/// request" (kOversized, kMalformed) from "give up" (kShutdown).
enum class RejectReason : std::uint8_t {
  kNone,          ///< not rejected (SubmitResult::accepted())
  kShutdown,      ///< server no longer accepts work
  kQueueFull,     ///< hard capacity rim reached
  kBackpressure,  ///< shedding between the watermarks (hysteresis)
  kOversized,     ///< payload exceeds max_request_elements
  kMalformed,     ///< merge inputs unsorted, or payload in the wrong lane
};

const char* to_string(Outcome outcome);
const char* to_string(RejectReason reason);

/// One sort/merge request. Exactly one key-width lane is used (keys32/
/// other32 for k32, keys64/other64 for k64); kSort uses only keys*,
/// kMerge treats keys* as sorted stream A and other* as sorted stream B.
/// session/sequence are caller-chosen labels echoed into the Response —
/// the load generator uses them to assert per-session FIFO delivery.
/// When a sink is set, merge results are streamed through it in
/// determined-prefix chunks (ServerConfig::stream_chunk) instead of being
/// returned in the Response payload.
struct Request {
  RequestKind kind = RequestKind::kSort;
  KeyWidth width = KeyWidth::k32;
  std::vector<std::int32_t> keys32;
  std::vector<std::int64_t> keys64;
  std::vector<std::int32_t> other32;
  std::vector<std::int64_t> other64;
  std::uint64_t session = 0;
  std::uint64_t sequence = 0;
  std::function<void(std::span<const std::int32_t>)> sink32;
  std::function<void(std::span<const std::int64_t>)> sink64;

  /// Total payload elements (both streams for kMerge).
  std::size_t elements() const {
    return keys32.size() + keys64.size() + other32.size() + other64.size();
  }
};

/// Delivered to the completion callback exactly once per accepted
/// request — also for cancellations and failures, so
/// accepted == responses always holds (the conservation law the load
/// generator asserts).
struct Response {
  std::uint64_t id = 0;        ///< the id submit() returned
  std::uint64_t session = 0;   ///< echoed from the request
  std::uint64_t sequence = 0;  ///< echoed from the request
  Outcome outcome = Outcome::kOk;
  bool batched = false;   ///< executed inside a coalesced segmented job
  bool degraded = false;  ///< recovery had to fall back to sequential
  std::uint64_t batch = 0;          ///< batch ordinal (execution order)
  std::uint64_t queue_wait_ns = 0;  ///< admission -> batch start
  std::uint64_t service_ns = 0;     ///< batch start -> completion
  std::vector<std::int32_t> keys32;  ///< result payload (k32, no sink)
  std::vector<std::int64_t> keys64;  ///< result payload (k64, no sink)
  std::uint64_t streamed = 0;        ///< elements delivered via sink
  std::string error;                 ///< kFailed: what() of the exception

  bool ok() const { return outcome == Outcome::kOk; }
};

/// What submit() hands back immediately.
struct SubmitResult {
  std::uint64_t id = 0;  ///< nonzero iff accepted
  RejectReason rejected = RejectReason::kNone;
  bool accepted() const { return rejected == RejectReason::kNone; }
};

/// Serving knobs. Watermarks of 0 derive defaults from the capacity
/// (high = 3/4, low = 1/4). solo_threshold is the batching cut: requests
/// at or above it amortise a pool job on their own and run solo through
/// parallel_merge_sort on a recovering executor; smaller sorts coalesce.
struct ServerConfig {
  std::size_t queue_capacity = 1024;
  std::size_t high_watermark = 0;  ///< 0: 3/4 of capacity
  std::size_t low_watermark = 0;   ///< 0: 1/4 of capacity
  std::size_t max_batch_requests = 64;
  std::size_t max_batch_elements = std::size_t{1} << 20;
  std::size_t solo_threshold = std::size_t{1} << 16;
  std::size_t max_request_elements = std::size_t{1} << 26;
  std::size_t stream_chunk = std::size_t{1} << 14;
  bool batching = true;     ///< false: every request dispatched solo
  bool manual_pump = false; ///< no dispatcher thread; caller drives pump()
  bool record_batch_sizes = false;  ///< keep per-batch sizes in stats()
  Executor exec{};                  ///< pool + lane count for execution
  RecoveryConfig recovery{};        ///< retry/hedge budget per batch
};

/// Monotonic serving counters (a consistent snapshot under the queue
/// lock). submitted == accepted + rejected; accepted == completed +
/// cancelled + failed once the server has drained.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_backpressure = 0;
  std::uint64_t rejected_oversized = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;  ///< ran inside a segmented batch
  std::uint64_t solo_requests = 0;     ///< ran as their own pool job
  std::uint64_t degraded_batches = 0;
  std::uint64_t shed_transitions = 0;  ///< accept->shed edges
  std::vector<std::size_t> batch_sizes;  ///< only when record_batch_sizes
};

class Server {
 public:
  using Completion = std::function<void(Response&&)>;

  explicit Server(ServerConfig cfg = {});
  ~Server();  ///< shutdown(/*drain=*/true)

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admission: validates, applies backpressure, enqueues. On acceptance
  /// the request is answered exactly once through `done` (from the
  /// dispatcher/pump thread). On rejection `done` is never invoked.
  SubmitResult submit(Request req, Completion done);

  /// Cancels a still-queued request: it completes immediately (on the
  /// calling thread) with Outcome::kCancelled. Returns false when the id
  /// is unknown or already executing/executed.
  bool cancel(std::uint64_t id);

  /// Manual-pump mode: assembles and executes up to max_batches batches
  /// on the calling thread; returns how many ran. MP_CHECKs that the
  /// server was built with manual_pump.
  std::size_t pump(std::size_t max_batches = static_cast<std::size_t>(-1));

  /// Stops admission. drain=true executes everything still queued;
  /// drain=false answers the queue with kCancelled. Idempotent; joins the
  /// dispatcher thread before returning.
  void shutdown(bool drain = true);

  ServerStats stats() const;
  std::size_t queue_depth() const;
  bool shedding() const;
  const ServerConfig& config() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mp::serve
