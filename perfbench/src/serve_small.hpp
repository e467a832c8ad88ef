#pragma once
/// \file serve_small.hpp
/// Workload `serve-small`: a closed-loop client on the main thread drives
/// one serve::Server with a seeded stream of small sort and merge requests.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/serve.hpp"

namespace pb {

/// The request mix. Every block of kBlock consecutive requests of a
/// session holds exactly kBigPerBlock big sorts, kMergesPerBlock merges
/// and kWidePerBlock 64-bit requests, and its small sizes are stratified
/// over a log-uniform law on [1, kMaxSmall], so that the work per run
/// hardly depends on the seed.
struct ServeMix {
  static constexpr std::size_t kSessions = 4;
  static constexpr std::size_t kWindow = 4;  ///< requests in flight per session
  static constexpr std::size_t kPerSession = 256;  ///< stream length, cycled
  static constexpr std::size_t kBlock = 32;
  static constexpr std::size_t kBigPerBlock = 1;
  static constexpr std::size_t kMergesPerBlock = 8;
  static constexpr std::size_t kWidePerBlock = 8;
  static constexpr std::size_t kMaxSmall = std::size_t{1} << 16;
  static constexpr std::size_t kBig = std::size_t{1} << 18;
};

/// One request of the stream with its expected answer.
struct RequestTemplate {
  mp::serve::RequestKind kind = mp::serve::RequestKind::kSort;
  mp::serve::KeyWidth width = mp::serve::KeyWidth::k32;
  std::vector<std::int32_t> a32, b32;  ///< b* used by merges only
  std::vector<std::int64_t> a64, b64;
  std::size_t elements = 0;   ///< expected response length
  std::uint64_t hash = 0;     ///< multiset_hash of the expected response

  mp::serve::Request request(std::uint64_t session,
                             std::uint64_t sequence) const;
};

/// streams[s] is session s's request sequence; a pure function of `seed`.
std::vector<std::vector<RequestTemplate>> make_request_streams(
    std::uint64_t seed);

/// Checks one response against the request it answers: outcome, sorted
/// order, element count and multiset checksum.
std::string check_response(const RequestTemplate& want,
                           const mp::serve::Response& got);

void run_serve_small(const Args& args, Result& result);

}  // namespace pb
