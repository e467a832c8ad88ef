#include "serve_small.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "check.hpp"
#include "core/merge_sort.hpp"
#include "util/threading.hpp"

namespace pb {

namespace {

using mp::serve::KeyWidth;
using mp::serve::RequestKind;

constexpr int kSetups = 3;
/// Windows a 30-second run is designed to reach; fixes the `*_tail`
/// percentile.
constexpr std::size_t kTailSamples = 30;
constexpr std::size_t kSmallSortElems = std::size_t{1} << 14;
constexpr int kSmallSortReps = 200;
constexpr int kForkJoinReps = 2000;
/// Requests per second the sample storage is sized for up front.
constexpr double kReservedRps = 20000;
/// A run with no completion for this long has wedged the server.
constexpr double kStallSeconds = 60.0;
/// The server's CPU time per request and the peak RSS are taken over
/// windows this long.
constexpr double kWindowSeconds = 1.0;

template <typename T>
void fill(Rng& rng, std::vector<T>& v, std::size_t n) {
  v.resize(n);
  for (auto& x : v) x = static_cast<T>(rng.next() >> (64 - 8 * sizeof(T)));
}

template <typename T>
void make_payload(Rng& rng, RequestKind kind, std::size_t n, std::vector<T>& a,
                  std::vector<T>& b, std::uint64_t& hash) {
  if (kind == RequestKind::kSort) {
    fill(rng, a, n);
  } else {
    const std::size_t na = rng.below(static_cast<std::uint32_t>(n + 1));
    fill(rng, a, na);
    fill(rng, b, n - na);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
  }
  hash = multiset_hash(a.data(), a.size()) - a.size() +
         multiset_hash(b.data(), b.size()) - b.size() + n;
}

std::vector<std::size_t> permutation(Rng& rng, std::size_t n) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i)
    std::swap(p[i - 1], p[rng.below(static_cast<std::uint32_t>(i))]);
  return p;
}

template <typename T>
std::string check_keys(const std::vector<T>& keys, const RequestTemplate& want) {
  if (keys.size() != want.elements)
    return "response has " + std::to_string(keys.size()) + " elements, want " +
           std::to_string(want.elements);
  if (!std::is_sorted(keys.begin(), keys.end())) return "response not sorted";
  if (multiset_hash(keys.data(), keys.size()) != want.hash)
    return "response checksum differs from the request's";
  return {};
}

/// Everything one set-up builds. The pool outlives the server that uses it.
struct State {
  std::vector<std::vector<RequestTemplate>> streams;
  std::unique_ptr<mp::ThreadPool> pool;
  std::unique_ptr<mp::serve::Server> server;
  unsigned lanes = 1;
};

/// Submits `req` and waits for its response.
mp::serve::Response round_trip(mp::serve::Server& server,
                               mp::serve::Request req) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  mp::serve::Response out;
  const auto submitted = server.submit(std::move(req), [&](auto&& r) {
    std::lock_guard lock(mu);
    out = std::move(r);
    done = true;
    cv.notify_one();
  });
  if (!submitted.accepted()) {
    out.outcome = mp::serve::Outcome::kFailed;
    out.error = mp::serve::to_string(submitted.rejected);
    return out;
  }
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return done; });
  return out;
}

/// One set-up: the request streams, the pool and a started server, and one
/// untimed round trip per request class.
std::unique_ptr<State> set_up(std::uint64_t seed, unsigned host_cpus) {
  auto s = std::make_unique<State>();
  s->streams = make_request_streams(seed);
  s->lanes = host_cpus > 1 ? host_cpus - 1 : 1;
  s->pool = std::make_unique<mp::ThreadPool>(static_cast<int>(s->lanes) - 1);
  mp::serve::ServerConfig cfg;
  cfg.exec = mp::Executor{s->pool.get(), s->lanes};
  s->server = std::make_unique<mp::serve::Server>(cfg);
  bool seen[2][2][2] = {};
  for (const RequestTemplate& t : s->streams[0]) {
    bool& slot = seen[t.kind == RequestKind::kMerge][t.width == KeyWidth::k64]
                     [t.elements >= ServeMix::kBig];
    if (slot) continue;
    slot = true;
    round_trip(*s->server, t.request(ServeMix::kSessions, 0));
  }
  return s;
}

/// Latency samples and layer counters of one closed-loop run.
struct LoopOutcome {
  std::vector<double> latency_ms;  ///< +inf for refused or failed requests
  std::vector<double> submit_us, queue_wait_ms, service_ms;
  /// Per window: the server's CPU ms and its busiest thread's ms per
  /// completed request, and the peak RSS.
  std::vector<double> cpu_ms_per_req, busiest_ms_per_req, peak_rss_mib;
  std::vector<std::vector<double>> sent_at;  ///< [session][sequence]
  std::uint64_t completed = 0;
  double seconds = 0;
  unsigned max_threads = 0;

  /// Sample storage is allocated and touched during set-up, so that the
  /// benchmark's own bookkeeping does not grow during the timed phase.
  explicit LoopOutcome(double run_seconds) : sent_at(ServeMix::kSessions) {
    const auto cap = static_cast<std::size_t>(run_seconds * kReservedRps);
    for (auto* v : {&latency_ms, &submit_us, &queue_wait_ms, &service_ms})
      touch(*v, cap);
    for (auto& v : sent_at) touch(v, cap / ServeMix::kSessions);
  }

 private:
  static void touch(std::vector<double>& v, std::size_t n) {
    v.assign(n, 0.0);
    v.clear();
  }
};

/// The closed loop: each session keeps ServeMix::kWindow requests in
/// flight, submitting its next request when a response arrives, until
/// `seconds` have passed; then the in-flight requests drain.
void closed_loop(State& s, double seconds, LoopOutcome& out, Result& result) {
  constexpr std::size_t S = ServeMix::kSessions;
  struct Done {
    mp::serve::Response response;
    double at;
  };
  // The client polls its inbox instead of sleeping on a condition
  // variable: its CPU stays awake, so the time a hypervisor takes to wake
  // an idle virtual CPU does not enter the closed loop.
  std::mutex mu;
  std::vector<Done> inbox;
  std::atomic<bool> ready{false};
  const auto on_done = [&](mp::serve::Response&& r) {
    const double at = now_s();
    std::lock_guard lock(mu);
    inbox.push_back(Done{std::move(r), at});
    ready.store(true, std::memory_order_release);
  };

  SessionOrder order(S);
  auto& sent_at = out.sent_at;
  std::size_t in_flight = 0;
  const double inf = std::numeric_limits<double>::infinity();
  const auto submit_next = [&](std::size_t session) {
    const std::uint64_t seq = sent_at[session].size();
    const auto& stream = s.streams[session];
    mp::serve::Request req = stream[seq % stream.size()].request(session, seq);
    result.attempt();
    const double t = now_s();
    const mp::serve::SubmitResult r = s.server->submit(std::move(req), on_done);
    const double after = now_s();
    out.submit_us.push_back((after - t) * 1e6);
    if (!r.accepted()) {
      result.fail(std::string("submit refused: ") +
                  mp::serve::to_string(r.rejected));
      out.latency_ms.push_back(inf);
      return;
    }
    sent_at[session].push_back(t);
    ++in_flight;
  };

  // The server's CPU time is the process's less the client's (this thread).
  const auto server_cpu_s = [] { return cpu_s() - thread_cpu_s(); };
  const long client = thread_id();
  const double start = now_s();
  const double deadline = start + seconds;
  double window_start = start;
  double window_cpu = server_cpu_s();
  ThreadCpu window_threads;
  std::uint64_t window_done = 0;
  reset_peak_rss();
  for (std::size_t session = 0; session < S; ++session)
    for (std::size_t w = 0; w < ServeMix::kWindow; ++w) submit_next(session);
  out.max_threads = thread_count();

  std::vector<Done> batch;
  double last_progress = start;
  while (in_flight > 0) {
    double now = now_s();
    while (!ready.load(std::memory_order_acquire) &&
           now - last_progress < kStallSeconds) {
      std::this_thread::yield();
      now = now_s();
    }
    {
      std::lock_guard lock(mu);
      batch.swap(inbox);
      ready.store(false, std::memory_order_relaxed);
    }
    if (batch.empty()) {
      result.fail("server made no progress for 60 s");
      break;
    }
    last_progress = now;
    for (Done& d : batch) {
      const mp::serve::Response& r = d.response;
      --in_flight;
      std::string error = order.accept(r.session, r.sequence);
      const bool known =
          r.session < S && r.sequence < sent_at[r.session].size();
      if (error.empty() && known) {
        const auto& stream = s.streams[r.session];
        error = check_response(stream[r.sequence % stream.size()], r);
      }
      if (!error.empty()) result.fail(error);
      const double sent = known ? sent_at[r.session][r.sequence] : d.at;
      out.latency_ms.push_back(error.empty() ? (d.at - sent) * 1e3 : inf);
      out.queue_wait_ms.push_back(r.queue_wait_ns * 1e-6);
      out.service_ms.push_back(r.service_ns * 1e-6);
      if (error.empty()) ++out.completed;
      if (now < deadline && r.session < S) submit_next(r.session);
    }
    batch.clear();
    if (now < deadline && now - window_start >= kWindowSeconds) {
      const double cpu = server_cpu_s();
      const double busiest = window_threads.busiest_ms(client);
      out.peak_rss_mib.push_back(peak_rss_mib());
      if (out.completed > window_done) {
        const auto done = static_cast<double>(out.completed - window_done);
        out.cpu_ms_per_req.push_back((cpu - window_cpu) * 1e3 / done);
        out.busiest_ms_per_req.push_back(busiest / done);
      }
      window_start = now;
      window_cpu = cpu;
      window_threads = ThreadCpu();
      window_done = out.completed;
      reset_peak_rss();
    }
  }
  out.seconds = now_s() - start;
}

}  // namespace

mp::serve::Request RequestTemplate::request(std::uint64_t session,
                                            std::uint64_t sequence) const {
  mp::serve::Request req;
  req.kind = kind;
  req.width = width;
  req.keys32 = a32;
  req.other32 = b32;
  req.keys64 = a64;
  req.other64 = b64;
  req.session = session;
  req.sequence = sequence;
  return req;
}

std::vector<std::vector<RequestTemplate>> make_request_streams(
    std::uint64_t seed) {
  using M = ServeMix;
  static_assert(M::kPerSession % M::kBlock == 0);
  std::vector<std::vector<RequestTemplate>> streams(M::kSessions);
  for (std::size_t s = 0; s < M::kSessions; ++s) {
    Rng rng = stream(seed, 100 + s);
    auto& out = streams[s];
    out.resize(M::kPerSession);
    for (std::size_t base = 0; base < M::kPerSession; base += M::kBlock) {
      const std::vector<std::size_t> roles = permutation(rng, M::kBlock);
      const std::vector<std::size_t> widths = permutation(rng, M::kBlock);
      // Stratum k of the small sizes goes to the k-th non-big position.
      const std::vector<std::size_t> strata =
          permutation(rng, M::kBlock - M::kBigPerBlock);
      std::size_t next_stratum = 0;
      for (std::size_t i = 0; i < M::kBlock; ++i) {
        const std::size_t role = roles[i];
        RequestTemplate& t = out[base + i];
        t.width = widths[i] < M::kWidePerBlock ? KeyWidth::k64 : KeyWidth::k32;
        if (role < M::kBigPerBlock) {
          t.kind = RequestKind::kSort;
          t.elements = M::kBig;
        } else {
          t.kind = role < M::kBigPerBlock + M::kMergesPerBlock
                       ? RequestKind::kMerge
                       : RequestKind::kSort;
          const double u =
              (static_cast<double>(strata[next_stratum++]) + rng.unit()) /
              static_cast<double>(M::kBlock - M::kBigPerBlock);
          t.elements = std::clamp<std::size_t>(
              static_cast<std::size_t>(
                  std::exp2(u * std::log2(static_cast<double>(M::kMaxSmall)))),
              1, M::kMaxSmall);
        }
        if (t.width == KeyWidth::k32)
          make_payload(rng, t.kind, t.elements, t.a32, t.b32, t.hash);
        else
          make_payload(rng, t.kind, t.elements, t.a64, t.b64, t.hash);
      }
    }
  }
  return streams;
}

std::string check_response(const RequestTemplate& want,
                           const mp::serve::Response& got) {
  if (!got.ok())
    return std::string("request ") + mp::serve::to_string(got.outcome) +
           (got.error.empty() ? "" : ": " + got.error);
  return want.width == KeyWidth::k32 ? check_keys(got.keys32, want)
                                     : check_keys(got.keys64, want);
}

void run_serve_small(const Args& args, Result& result) {
  const unsigned cpus = nproc();
  EndToEnd e2e;
  std::unique_ptr<State> s;
  // A traced run reports no set-up time and sets up once.
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    s.reset();
    s = timed_setup(e2e, [&] { return set_up(args.seed, cpus); });
  }
  result.meta("lanes", s->lanes);
  LoopOutcome loop(args.seconds);

  const StealMeter steal;
  closed_loop(*s, args.seconds, loop, result);
  const mp::serve::ServerStats stats = s->server->stats();
  s->server->shutdown();
  result.meta("max_threads", loop.max_threads);
  result.meta("host_steal_frac", steal.steal_frac());
  result.meta("rps", static_cast<double>(loop.completed) / loop.seconds);

  if (!args.trace) {
    e2e.cpu_ms = loop.cpu_ms_per_req;
    e2e.busiest_ms = loop.busiest_ms_per_req;
    e2e.wall_ms = loop.latency_ms;
    e2e.peak_rss_mib = loop.peak_rss_mib;
    e2e.tail_samples = kTailSamples;
    report(result, e2e);
    return;
  }
  result.meta("samples", static_cast<double>(loop.latency_ms.size()));

  const double q = tail_quantile(loop.queue_wait_ms.size());
  result.metric("serve.submit_us_p50", median(loop.submit_us), "us");
  result.metric("serve.queue_wait_ms_p50", median(loop.queue_wait_ms), "ms");
  result.metric("serve.queue_wait_ms_tail", percentile(loop.queue_wait_ms, q),
                "ms");
  result.metric("serve.service_ms_p50", median(loop.service_ms), "ms");
  const double completed = static_cast<double>(std::max<std::uint64_t>(
      stats.completed, 1));
  result.metric("serve.reqs_per_batch",
                completed / static_cast<double>(std::max<std::uint64_t>(
                                stats.batches, 1)),
                "count");
  result.metric("serve.batched_frac",
                static_cast<double>(stats.batched_requests) / completed,
                "fraction");

  // The work of one batch lane: a 16 Ki int32 payload sorted sequentially.
  Rng rng = stream(args.seed, 200);
  std::vector<std::int32_t> payload, work(kSmallSortElems),
      scratch(kSmallSortElems);
  fill(rng, payload, kSmallSortElems);
  std::vector<double> ns;
  for (int r = 0; r < kSmallSortReps; ++r) {
    std::copy(payload.begin(), payload.end(), work.begin());
    const double t = now_s();
    mp::sequential_merge_sort(work.data(), scratch.data(), work.size());
    ns.push_back((now_s() - t) * 1e9 / kSmallSortElems);
    result.attempt();
    if (!std::is_sorted(work.begin(), work.end()))
      result.fail("small sort not sorted");
  }
  result.metric("core.small_sort_ns_per_elem", median(ns), "ns");

  // The server's pool is idle once it has shut down.
  const double t = now_s();
  for (int r = 0; r < kForkJoinReps; ++r)
    s->pool->parallel_for_lanes(s->lanes, [](unsigned) {});
  result.metric("threading.forkjoin_us", (now_s() - t) * 1e6 / kForkJoinReps,
                "us");
}

}  // namespace pb
