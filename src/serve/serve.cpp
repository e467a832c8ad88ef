/// \file serve.cpp
/// Server implementation: admission, batch assembly, execution, delivery.

#include "serve/serve.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <iterator>
#include <mutex>
#include <thread>
#include <utility>

#include "core/merge_sort.hpp"
#include "core/stream_merger.hpp"
#include "obs/metrics.hpp"
#include "obs/percentiles.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mp::serve {

const char* to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kCancelled: return "cancelled";
    case Outcome::kFailed: return "failed";
  }
  return "?";
}

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kShutdown: return "shutdown";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kBackpressure: return "backpressure";
    case RejectReason::kOversized: return "oversized";
    case RejectReason::kMalformed: return "malformed";
  }
  return "?";
}

namespace {

/// An accepted request waiting in (or popped from) the queue.
struct Pending {
  Request req;
  Server::Completion done;
  std::uint64_t id = 0;
  std::uint64_t enq_ns = 0;
  std::uint64_t streamed = 0;  ///< filled by the merge executor
};

/// A unit of execution: either one solo request or a coalesced run of
/// small same-width sorts.
struct Batch {
  std::vector<Pending> reqs;
  bool coalesced = false;
  std::uint64_t index = 0;
};

// Width-monomorphic accessors into a Request's payload lanes, so the
// execution paths can be written once over T in {int32_t, int64_t}.
template <typename T>
std::vector<T>& keys_of(Request& req);
template <>
std::vector<std::int32_t>& keys_of<std::int32_t>(Request& req) {
  return req.keys32;
}
template <>
std::vector<std::int64_t>& keys_of<std::int64_t>(Request& req) {
  return req.keys64;
}

template <typename T>
std::vector<T>& other_of(Request& req);
template <>
std::vector<std::int32_t>& other_of<std::int32_t>(Request& req) {
  return req.other32;
}
template <>
std::vector<std::int64_t>& other_of<std::int64_t>(Request& req) {
  return req.other64;
}

template <typename T>
std::function<void(std::span<const T>)>& sink_of(Request& req);
template <>
std::function<void(std::span<const std::int32_t>)>& sink_of<std::int32_t>(
    Request& req) {
  return req.sink32;
}
template <>
std::function<void(std::span<const std::int64_t>)>& sink_of<std::int64_t>(
    Request& req) {
  return req.sink64;
}

std::size_t high_watermark(const ServerConfig& cfg) {
  if (cfg.high_watermark != 0) return cfg.high_watermark;
  return std::max<std::size_t>(1, cfg.queue_capacity * 3 / 4);
}

std::size_t low_watermark(const ServerConfig& cfg) {
  const std::size_t hi = high_watermark(cfg);
  const std::size_t lo =
      cfg.low_watermark != 0 ? cfg.low_watermark : cfg.queue_capacity / 4;
  // Hysteresis needs lo < hi to mean anything; clamp misconfiguration.
  return hi > 0 ? std::min(lo, hi - 1) : 0;
}

/// Admission-time structural validation (no lock needed; the request is
/// still caller-owned). Merge inputs are checked for sortedness here so a
/// malformed request is refused with a typed reason instead of tripping
/// StreamMerger's MP_ASSERT deep inside a batch.
RejectReason validate(const Request& req, const ServerConfig& cfg) {
  if (req.elements() > cfg.max_request_elements)
    return RejectReason::kOversized;
  const bool w32 = req.width == KeyWidth::k32;
  if (w32 && (!req.keys64.empty() || !req.other64.empty()))
    return RejectReason::kMalformed;
  if (!w32 && (!req.keys32.empty() || !req.other32.empty()))
    return RejectReason::kMalformed;
  if (req.kind == RequestKind::kSort) {
    if (!req.other32.empty() || !req.other64.empty())
      return RejectReason::kMalformed;
  } else {
    if (w32) {
      if (!std::is_sorted(req.keys32.begin(), req.keys32.end()) ||
          !std::is_sorted(req.other32.begin(), req.other32.end()))
        return RejectReason::kMalformed;
    } else {
      if (!std::is_sorted(req.keys64.begin(), req.keys64.end()) ||
          !std::is_sorted(req.other64.begin(), req.other64.end()))
        return RejectReason::kMalformed;
    }
  }
  return RejectReason::kNone;
}

}  // namespace

struct Server::Impl {
  ServerConfig cfg;
  mutable std::mutex mu;
  std::condition_variable cv_work;
  std::deque<Pending> queue;
  bool accepting = true;
  bool stop = false;
  bool drain_on_stop = true;
  bool shedding = false;
  std::uint64_t next_id = 1;
  std::uint64_t next_batch = 0;
  ServerStats stats;
  std::mutex shutdown_mu;  ///< serialises concurrent shutdown() callers
  std::thread dispatcher;

  // ---- batch assembly (mu held) --------------------------------------

  /// True when a small sort is eligible to share a segmented batch.
  bool coalescable(const Pending& p) const {
    return p.req.kind == RequestKind::kSort &&
           p.req.elements() < cfg.solo_threshold;
  }

  /// Pops the front request plus any coalescable same-width followers.
  /// Returns false on an empty queue.
  bool assemble_locked(Batch& out) {
    if (queue.empty()) return false;
    out.index = next_batch++;
    out.reqs.clear();
    out.reqs.push_back(std::move(queue.front()));
    queue.pop_front();
    // Copies, not references: growing out.reqs reallocates.
    const KeyWidth width = out.reqs.front().req.width;
    std::size_t total = out.reqs.front().req.elements();
    out.coalesced = cfg.batching && coalescable(out.reqs.front());
    if (out.coalesced) {
      const std::size_t max_reqs = std::max<std::size_t>(
          std::size_t{1}, cfg.max_batch_requests);
      while (!queue.empty() && out.reqs.size() < max_reqs) {
        const Pending& next = queue.front();
        if (!coalescable(next)) break;
        if (next.req.width != width) break;
        if (total + next.req.elements() > cfg.max_batch_elements) break;
        total += next.req.elements();
        out.reqs.push_back(std::move(queue.front()));
        queue.pop_front();
      }
    }
    // Exiting shedding happens only here — the drain side of the
    // hysteresis loop — never in submit().
    if (shedding && queue.size() <= low_watermark(cfg)) shedding = false;
    return true;
  }

  // ---- execution (mu NOT held) ---------------------------------------

  /// One pool job sorts every segment: lane k owns a contiguous run of
  /// whole request payloads, balanced by element count. Segments are
  /// disjoint and the sorts are in-place, so the Theorem 14 retry
  /// argument applies to the batch exactly as it does to merge slices.
  template <typename T>
  bool run_coalesced(Batch& batch) {
    std::vector<std::span<T>> segs;
    segs.reserve(batch.reqs.size());
    std::vector<std::size_t> prefix;
    prefix.reserve(batch.reqs.size() + 1);
    prefix.push_back(0);
    for (Pending& p : batch.reqs) {
      segs.emplace_back(keys_of<T>(p.req));
      prefix.push_back(prefix.back() + segs.back().size());
    }
    const std::size_t total = prefix.back();
    const unsigned want = cfg.exec.resolve_threads();
    const unsigned lanes = static_cast<unsigned>(std::max<std::size_t>(
        1, std::min<std::size_t>(want, segs.size())));

    // Contiguous cut points over the segment list, balanced by element
    // prefix: lane k sorts segs[cut[k], cut[k+1]).
    std::vector<std::size_t> cut(lanes + 1, segs.size());
    cut[0] = 0;
    for (unsigned k = 1; k < lanes; ++k) {
      const std::size_t target = k * total / lanes;
      const auto it =
          std::lower_bound(prefix.begin(), prefix.end(), target);
      cut[k] = std::clamp<std::size_t>(
          static_cast<std::size_t>(it - prefix.begin()), cut[k - 1],
          segs.size());
    }

    LaneRecovery recovery{cfg.recovery};
    const Executor exec{cfg.exec.pool, cfg.exec.threads, &recovery};
    exec.run_lanes(lanes, [&](unsigned lane) {
      for (std::size_t s = cut[lane]; s < cut[lane + 1]; ++s)
        sequential_merge_sort(segs[s]);
    });
    return recovery.report.degraded();
  }

  /// Streams A and B through a StreamMerger in stream_chunk slices,
  /// emitting each determined prefix as it appears. Large pulls fork on
  /// a recovering executor, so a lane fault is retried or run by the
  /// caller like any other lane, and the request still answers.
  template <typename T>
  bool run_merge(Pending& p) {
    std::vector<T>& a = keys_of<T>(p.req);
    std::vector<T>& b = other_of<T>(p.req);
    auto& sink = sink_of<T>(p.req);
    const bool streaming = static_cast<bool>(sink);
    LaneRecovery recovery{cfg.recovery};
    StreamMerger<T> sm({}, Executor{cfg.exec.pool, cfg.exec.threads,
                                    &recovery});
    std::vector<T> out;
    if (!streaming) out.reserve(a.size() + b.size());
    std::vector<T> pulled;
    const std::size_t chunk = std::max<std::size_t>(1, cfg.stream_chunk);

    auto pull_available = [&] {
      const std::size_t avail = sm.available();
      if (avail == 0) return;
      pulled.resize(avail);
      sm.pull(std::span<T>(pulled));
      if (streaming) {
        sink(std::span<const T>(pulled));
        p.streamed += pulled.size();
      } else {
        out.insert(out.end(), pulled.begin(), pulled.end());
      }
    };

    if (a.empty()) sm.close_a();
    if (b.empty()) sm.close_b();
    std::size_t ia = 0, ib = 0;
    while (ia < a.size() || ib < b.size()) {
      if (ia < a.size()) {
        const std::size_t n = std::min(chunk, a.size() - ia);
        sm.push_a(std::span<const T>(a.data() + ia, n));
        ia += n;
        if (ia == a.size()) sm.close_a();
      }
      if (ib < b.size()) {
        const std::size_t n = std::min(chunk, b.size() - ib);
        sm.push_b(std::span<const T>(b.data() + ib, n));
        ib += n;
        if (ib == b.size()) sm.close_b();
      }
      pull_available();
    }
    pull_available();  // both streams closed: drains the remainder
    MP_ASSERT(sm.finished());
    if (streaming) {
      a.clear();
      b.clear();
    } else {
      a = std::move(out);  // result rides back in the keys lane
      b.clear();
    }
    return recovery.report.degraded();
  }

  template <typename T>
  bool run_solo_sort(Pending& p) {
    std::vector<T>& data = keys_of<T>(p.req);
    LaneRecovery recovery{cfg.recovery};
    parallel_merge_sort(std::span<T>(data),
                        Executor{cfg.exec.pool, cfg.exec.threads, &recovery});
    return recovery.report.degraded();
  }

  bool run_solo(Pending& p) {
    const bool w32 = p.req.width == KeyWidth::k32;
    if (p.req.kind == RequestKind::kSort)
      return w32 ? run_solo_sort<std::int32_t>(p)
                 : run_solo_sort<std::int64_t>(p);
    return w32 ? run_merge<std::int32_t>(p) : run_merge<std::int64_t>(p);
  }

  /// Executes a batch and delivers every completion exactly once —
  /// including when a genuine exception escapes (Outcome::kFailed), so
  /// the conservation law survives bugs in comparators and sinks alike.
  void execute_batch(Batch& batch) {
    auto& reg = obs::MetricsRegistry::instance();
    const std::uint64_t start_ns = obs::monotonic_ns();
    bool degraded = false;
    bool failed = false;
    std::string error;
    {
      obs::Span span("serve.batch", "requests", batch.reqs.size());
      try {
        if (batch.coalesced) {
          degraded = batch.reqs.front().req.width == KeyWidth::k32
                         ? run_coalesced<std::int32_t>(batch)
                         : run_coalesced<std::int64_t>(batch);
        } else {
          degraded = run_solo(batch.reqs.front());
        }
      } catch (const std::exception& e) {
        failed = true;
        error = e.what();
      } catch (...) {
        failed = true;
        error = "unknown exception";
      }
    }
    const std::uint64_t end_ns = obs::monotonic_ns();

    const auto n = static_cast<std::uint64_t>(batch.reqs.size());
    {
      std::lock_guard lock(mu);
      ++stats.batches;
      if (cfg.record_batch_sizes)
        stats.batch_sizes.push_back(batch.reqs.size());
      if (batch.coalesced)
        stats.batched_requests += n;
      else
        stats.solo_requests += n;
      if (degraded) ++stats.degraded_batches;
      if (failed)
        stats.failed += n;
      else
        stats.completed += n;
    }
    reg.counter("serve.batches").add();
    reg.counter(batch.coalesced ? "serve.batched_requests"
                                : "serve.solo_requests")
        .add(n);
    if (degraded) reg.counter("serve.degraded_batches").add();
    reg.counter(failed ? "serve.failed" : "serve.completed").add(n);
    reg.gauge("serve.queue_depth")
        .set(static_cast<std::int64_t>(queue_depth_now()));

    for (Pending& p : batch.reqs) {
      Response r;
      r.id = p.id;
      r.session = p.req.session;
      r.sequence = p.req.sequence;
      r.outcome = failed ? Outcome::kFailed : Outcome::kOk;
      r.batched = batch.coalesced;
      r.degraded = degraded;
      r.batch = batch.index;
      r.queue_wait_ns = start_ns > p.enq_ns ? start_ns - p.enq_ns : 0;
      r.service_ns = end_ns - start_ns;
      r.streamed = p.streamed;
      r.error = error;
      if (!failed) {
        r.keys32 = std::move(p.req.keys32);
        r.keys64 = std::move(p.req.keys64);
      }
      obs::record_span_duration("serve.queue_wait", r.queue_wait_ns);
      obs::record_span_duration("serve.service", r.service_ns);
      obs::record_span_duration("serve.request",
                                r.service_ns + r.queue_wait_ns);
      p.done(std::move(r));
    }
  }

  std::size_t queue_depth_now() const {
    std::lock_guard lock(mu);
    return queue.size();
  }

  /// Answers a request that never executed (cancel / dropped by a
  /// non-draining shutdown).
  static void complete_cancelled(Pending& p) {
    Response r;
    r.id = p.id;
    r.session = p.req.session;
    r.sequence = p.req.sequence;
    r.outcome = Outcome::kCancelled;
    r.queue_wait_ns = obs::monotonic_ns() - p.enq_ns;
    p.done(std::move(r));
  }

  void dispatcher_loop() {
    for (;;) {
      Batch batch;
      std::vector<Pending> dropped;
      bool exiting = false;
      {
        std::unique_lock lock(mu);
        cv_work.wait(lock, [&] { return stop || !queue.empty(); });
        if (stop && !drain_on_stop) {
          // Non-draining shutdown: answer the queue with kCancelled.
          dropped.assign(std::make_move_iterator(queue.begin()),
                         std::make_move_iterator(queue.end()));
          queue.clear();
          stats.cancelled += dropped.size();
          shedding = false;
          exiting = true;
        } else if (queue.empty()) {
          exiting = true;  // stop && drain && drained
        } else {
          assemble_locked(batch);
        }
      }
      if (!dropped.empty()) {
        obs::MetricsRegistry::instance()
            .counter("serve.cancelled")
            .add(dropped.size());
        for (Pending& p : dropped) complete_cancelled(p);
      }
      if (exiting) break;
      execute_batch(batch);
    }
  }
};

Server::Server(ServerConfig cfg) : impl_(std::make_unique<Impl>()) {
  MP_CHECK(cfg.queue_capacity >= 1);
  impl_->cfg = std::move(cfg);
  if (!impl_->cfg.manual_pump)
    impl_->dispatcher = std::thread([this] { impl_->dispatcher_loop(); });
}

Server::~Server() { shutdown(/*drain=*/true); }

SubmitResult Server::submit(Request req, Completion done) {
  MP_CHECK(done != nullptr);
  Impl& im = *impl_;
  const RejectReason bad = validate(req, im.cfg);
  RejectReason reason = RejectReason::kNone;
  std::uint64_t id = 0;
  std::size_t depth = 0;
  bool shed_edge = false;
  {
    std::lock_guard lock(im.mu);
    ++im.stats.submitted;
    if (!im.accepting)
      reason = RejectReason::kShutdown;
    else if (bad != RejectReason::kNone)
      reason = bad;
    else if (im.queue.size() >= im.cfg.queue_capacity)
      reason = RejectReason::kQueueFull;
    else if (im.shedding)
      reason = RejectReason::kBackpressure;
    if (reason != RejectReason::kNone) {
      ++im.stats.rejected;
      switch (reason) {
        case RejectReason::kShutdown: ++im.stats.rejected_shutdown; break;
        case RejectReason::kQueueFull: ++im.stats.rejected_queue_full; break;
        case RejectReason::kBackpressure:
          ++im.stats.rejected_backpressure;
          break;
        case RejectReason::kOversized: ++im.stats.rejected_oversized; break;
        case RejectReason::kMalformed: ++im.stats.rejected_malformed; break;
        case RejectReason::kNone: break;
      }
    } else {
      id = im.next_id++;
      Pending p;
      p.req = std::move(req);
      p.done = std::move(done);
      p.id = id;
      p.enq_ns = obs::monotonic_ns();
      im.queue.push_back(std::move(p));
      ++im.stats.accepted;
      depth = im.queue.size();
      // Entering shedding happens only here — the fill side of the
      // hysteresis loop.
      if (!im.shedding && depth >= high_watermark(im.cfg)) {
        im.shedding = true;
        ++im.stats.shed_transitions;
        shed_edge = true;
      }
    }
  }
  auto& reg = obs::MetricsRegistry::instance();
  if (reason != RejectReason::kNone) {
    obs::Span::instant("serve.reject", "reason",
                       static_cast<std::uint64_t>(reason));
    reg.counter("serve.rejected").add();
    return SubmitResult{0, reason};
  }
  if (shed_edge) {
    obs::Span::instant("serve.shed", "depth",
                       static_cast<std::uint64_t>(depth));
    reg.counter("serve.shed_transitions").add();
  }
  reg.counter("serve.accepted").add();
  reg.gauge("serve.queue_depth").set(static_cast<std::int64_t>(depth));
  im.cv_work.notify_one();
  return SubmitResult{id, RejectReason::kNone};
}

bool Server::cancel(std::uint64_t id) {
  Impl& im = *impl_;
  Pending victim;
  bool found = false;
  {
    std::lock_guard lock(im.mu);
    for (auto it = im.queue.begin(); it != im.queue.end(); ++it) {
      if (it->id != id) continue;
      victim = std::move(*it);
      im.queue.erase(it);
      found = true;
      ++im.stats.cancelled;
      if (im.shedding && im.queue.size() <= low_watermark(im.cfg))
        im.shedding = false;
      break;
    }
  }
  if (!found) return false;
  obs::MetricsRegistry::instance().counter("serve.cancelled").add();
  Impl::complete_cancelled(victim);
  return true;
}

std::size_t Server::pump(std::size_t max_batches) {
  Impl& im = *impl_;
  MP_CHECK(im.cfg.manual_pump);
  std::size_t ran = 0;
  while (ran < max_batches) {
    Batch batch;
    {
      std::lock_guard lock(im.mu);
      if (!im.assemble_locked(batch)) break;
    }
    im.execute_batch(batch);
    ++ran;
  }
  return ran;
}

void Server::shutdown(bool drain) {
  Impl& im = *impl_;
  std::lock_guard shut(im.shutdown_mu);
  {
    std::lock_guard lock(im.mu);
    im.accepting = false;
    im.stop = true;
    im.drain_on_stop = drain;
  }
  im.cv_work.notify_all();
  if (im.dispatcher.joinable()) im.dispatcher.join();
  if (im.cfg.manual_pump) {
    if (drain) {
      pump();
    } else {
      std::vector<Pending> dropped;
      {
        std::lock_guard lock(im.mu);
        dropped.assign(std::make_move_iterator(im.queue.begin()),
                       std::make_move_iterator(im.queue.end()));
        im.queue.clear();
        im.stats.cancelled += dropped.size();
        im.shedding = false;
      }
      if (!dropped.empty())
        obs::MetricsRegistry::instance()
            .counter("serve.cancelled")
            .add(dropped.size());
      for (Pending& p : dropped) Impl::complete_cancelled(p);
    }
  }
}

ServerStats Server::stats() const {
  std::lock_guard lock(impl_->mu);
  return impl_->stats;
}

std::size_t Server::queue_depth() const {
  std::lock_guard lock(impl_->mu);
  return impl_->queue.size();
}

bool Server::shedding() const {
  std::lock_guard lock(impl_->mu);
  return impl_->shedding;
}

const ServerConfig& Server::config() const { return impl_->cfg; }

}  // namespace mp::serve
