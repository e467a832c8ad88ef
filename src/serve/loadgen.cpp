/// \file loadgen.cpp
/// Closed-loop driver: seeded request synthesis + built-in verification.

#include "serve/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace mp::serve {

namespace {

/// What a response must conserve: the element count and the wraparound
/// sum of the submitted payload (sorting and merging permute, never
/// rewrite).
struct Expect {
  std::size_t count = 0;
  std::uint64_t sum = 0;
};

struct SessionState {
  std::size_t outstanding = 0;
  std::uint64_t next_seq = 0;      ///< next sequence to submit
  std::uint64_t deliver_seq = 0;   ///< next sequence expected back (FIFO)
};

template <typename T>
void fill_payload(Xoshiro256& rng, std::size_t n, std::vector<T>& out,
                  Expect& ex) {
  out.resize(n);
  for (T& v : out) {
    v = static_cast<T>(rng());
    ex.sum += static_cast<std::uint64_t>(
        static_cast<std::int64_t>(v));  // sign-extended, wraparound
  }
  ex.count += n;
}

template <typename T>
bool check_payload(const std::vector<T>& keys, const Expect& ex) {
  if (keys.size() != ex.count) return false;
  if (!std::is_sorted(keys.begin(), keys.end())) return false;
  std::uint64_t sum = 0;
  for (const T& v : keys)
    sum += static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
  return sum == ex.sum;
}

std::size_t draw_size(Xoshiro256& rng, const LoadMix& mix) {
  const std::size_t lo = std::max<std::size_t>(1, mix.min_elements);
  const std::size_t hi = std::max(lo, mix.max_elements);
  double u = rng.uniform01();
  if (mix.size_skew > 0.0) u = std::pow(u, 1.0 + mix.size_skew);
  return lo + static_cast<std::size_t>(u * static_cast<double>(hi - lo));
}

/// Pure function of the RNG stream: size, kind, width, payload — in that
/// order, so a given (seed, request index) always synthesises the same
/// request whatever the server did in between.
Request make_request(Xoshiro256& rng, const LoadMix& mix,
                     std::uint64_t session, std::uint64_t seq, Expect& ex) {
  Request req;
  req.session = session;
  req.sequence = seq;
  const std::size_t n = draw_size(rng, mix);
  const bool merge = rng.uniform01() < mix.merge_fraction;
  const bool wide = rng.uniform01() < mix.width64_fraction;
  req.kind = merge ? RequestKind::kMerge : RequestKind::kSort;
  req.width = wide ? KeyWidth::k64 : KeyWidth::k32;
  const auto fill = [&](auto& keys, auto& other) {
    if (merge) {
      fill_payload(rng, n / 2, keys, ex);
      fill_payload(rng, n - n / 2, other, ex);
      std::sort(keys.begin(), keys.end());
      std::sort(other.begin(), other.end());
    } else {
      fill_payload(rng, n, keys, ex);
    }
  };
  if (wide)
    fill(req.keys64, req.other64);
  else
    fill(req.keys32, req.other32);
  return req;
}

}  // namespace

std::uint64_t LoadGenReport::latency_ns(double q) const {
  if (latencies_ns.empty()) return 0;
  std::vector<std::uint64_t> sorted = latencies_ns;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      clamped * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

double LoadGenReport::throughput_rps() const {
  return wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0;
}

double LoadGenReport::throughput_elems_s() const {
  return wall_s > 0.0 ? static_cast<double>(elements) / wall_s : 0.0;
}

LoadGenReport run_closed_loop(Server& server, const LoadGenConfig& cfg) {
  MP_CHECK(cfg.sessions >= 1);
  MP_CHECK(cfg.window >= 1);
  const bool manual = server.config().manual_pump;

  LoadGenReport rep;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<SessionState> sess(cfg.sessions);
  std::map<std::pair<std::uint64_t, std::uint64_t>, Expect> expect;
  std::size_t outstanding_total = 0;
  bool ordering_ok = true;
  bool payload_ok = true;

  const auto on_done = [&](Response&& r) {
    std::lock_guard lock(mu);
    SessionState& s = sess[static_cast<std::size_t>(r.session)];
    if (r.sequence != s.deliver_seq) ordering_ok = false;
    s.deliver_seq = r.sequence + 1;
    --s.outstanding;
    --outstanding_total;
    switch (r.outcome) {
      case Outcome::kOk:
        ++rep.completed;
        rep.latencies_ns.push_back(r.queue_wait_ns + r.service_ns);
        if (r.degraded) ++rep.degraded;
        if (r.batched) ++rep.batched;
        break;
      case Outcome::kCancelled: ++rep.cancelled; break;
      case Outcome::kFailed: ++rep.failed; break;
    }
    if (cfg.verify) {
      const auto it = expect.find({r.session, r.sequence});
      if (it == expect.end()) {
        payload_ok = false;
      } else {
        if (r.outcome == Outcome::kOk) {
          const bool good = r.keys64.empty()
                                ? check_payload(r.keys32, it->second)
                                : check_payload(r.keys64, it->second);
          if (!good) payload_ok = false;
        }
        expect.erase(it);
      }
    }
    cv.notify_all();
  };

  Xoshiro256 rng(cfg.seed);
  const Timer wall;
  const std::size_t cap_total = cfg.sessions * cfg.window;
  std::size_t next_session = 0;

  for (std::size_t submitted = 0; submitted < cfg.requests;) {
    // Pick the next session (round-robin) with window headroom.
    std::size_t target = static_cast<std::size_t>(-1);
    {
      std::unique_lock lock(mu);
      if (!manual)
        cv.wait(lock, [&] { return outstanding_total < cap_total; });
      for (std::size_t i = 0; i < cfg.sessions; ++i) {
        const std::size_t s = (next_session + i) % cfg.sessions;
        if (sess[s].outstanding < cfg.window) {
          target = s;
          break;
        }
      }
    }
    if (target == static_cast<std::size_t>(-1)) {
      // Manual mode with every window full: the caller is the server's
      // engine, so make progress by pumping one batch.
      server.pump(1);
      continue;
    }
    next_session = (target + 1) % cfg.sessions;

    Expect ex;
    std::uint64_t seq = 0;
    {
      std::lock_guard lock(mu);
      seq = sess[target].next_seq;
    }
    Request req = make_request(rng, cfg.mix, target, seq, ex);
    const std::size_t elems = req.elements();
    {
      std::lock_guard lock(mu);
      expect[{target, seq}] = ex;
      ++sess[target].outstanding;
      ++outstanding_total;
    }
    const SubmitResult res = server.submit(std::move(req), on_done);
    ++submitted;
    ++rep.submitted;
    if (res.accepted()) {
      ++rep.accepted;
      rep.elements += elems;
      std::lock_guard lock(mu);
      ++sess[target].next_seq;
    } else {
      ++rep.rejected;
      std::lock_guard lock(mu);
      --sess[target].outstanding;
      --outstanding_total;
      expect.erase({target, seq});
      // The sequence was never admitted; the session reuses it so FIFO
      // delivery stays gap-free.
    }
  }

  // Drain: every accepted request must be answered.
  if (manual) {
    for (;;) {
      {
        std::lock_guard lock(mu);
        if (outstanding_total == 0) break;
      }
      server.pump(1);
    }
  } else {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return outstanding_total == 0; });
  }

  rep.wall_s = wall.seconds();
  {
    std::lock_guard lock(mu);
    rep.conservation_ok =
        rep.submitted == rep.accepted + rep.rejected &&
        rep.accepted == rep.completed + rep.cancelled + rep.failed &&
        (!cfg.verify || expect.empty());
    rep.ordering_ok = ordering_ok;
    rep.payload_ok = !cfg.verify || payload_ok;
  }
  return rep;
}

}  // namespace mp::serve
