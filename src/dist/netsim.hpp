#pragma once
/// \file netsim.hpp
/// Message-passing network simulator (alpha-beta cost model).
///
/// The paper's abstract promises the algorithm "is easily adaptable to
/// additional architectures"; the distributed-memory adaptation is the
/// natural one for HPC clusters (the MPI programming model). This
/// substrate simulates p ranks with private memories connected by a
/// network priced with the standard alpha-beta model:
///
///   cost(message of m bytes) = alpha + m / beta
///
/// Ranks run round-synchronously: within a communication round every rank
/// serialises its own sends and receives (single NIC), rounds end at a
/// barrier, and the round's cost is the busiest rank's port time. This is
/// the textbook LogP-lite model the LLNL MPI material teaches, enough to
/// rank algorithms by communication volume and balance.
///
/// Failure model (src/fault): a RankNetwork can carry a fault::FaultPlan.
/// When attached, each send consults the plan and may be dropped,
/// duplicated, delivered out of order, or blackholed by a link partition.
/// send() reports the Delivery outcome; reliable_send() layers the
/// textbook recovery protocol on top — positive acks with bounded resends
/// for drops, sequence-number dedup for duplicates, reorder buffering —
/// and throws the typed NetError when a partition outlives the resend
/// budget. All recovery costs (wasted port time, extra alphas) are charged
/// to the model, so fault runs are honestly slower, never silently free.

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "util/assert.hpp"

namespace mp::dist {

struct NetConfig {
  double alpha_us = 2.0;        ///< per-message latency
  double beta_bytes_per_us = 10000.0;  ///< per-link bandwidth (~10 GB/s)
  /// Optional fault schedule (not owned; nullptr = perfect network).
  fault::FaultPlan* faults = nullptr;
  /// reliable_send gives up (NetError) after this many resends of one
  /// message — the "link is partitioned" detector.
  unsigned max_resend = 16;
  /// Cumulative-ack window of the reliable protocol: the receiver sends one
  /// ack per `ack_window` delivered messages on a flow (plus one closing a
  /// partial window at the round barrier), and each ack costs a real alpha
  /// on both ports. 1 models naive per-message acks; 0 disables ack
  /// accounting (the pre-windowed, acks-are-free model).
  unsigned ack_window = 16;
  /// Protocol-level retries of a whole Merge Path segment exchange after a
  /// NetError (distributed_merge; segments are disjoint so re-fetching one
  /// touches nothing else).
  unsigned segment_retries = 2;
};

struct NetStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t max_rank_recv_bytes = 0;  ///< congestion measure
  double modeled_time_us = 0.0;           ///< sum over rounds of max port time
  std::uint64_t rounds = 0;
  std::uint64_t faults_injected = 0;  ///< all injected network faults
  std::uint64_t drops = 0;            ///< messages lost in flight
  std::uint64_t duplicates = 0;       ///< messages delivered twice
  std::uint64_t reorders = 0;         ///< messages delivered late
  std::uint64_t resends = 0;          ///< retransmissions by reliable_send
  std::uint64_t dedup_discards = 0;   ///< duplicate copies discarded by seq no
  std::uint64_t acks = 0;             ///< window acks sent (not in `messages`)
};

/// What the network did with one send() attempt.
enum class Delivery : std::uint8_t {
  kOk,
  kDropped,     ///< lost; no ack will come
  kDuplicated,  ///< delivered, plus a spurious second copy
  kReordered,   ///< delivered late (after the round's other traffic)
};

const char* to_string(Delivery delivery);

/// Typed network failure: a message could not be delivered within the
/// resend budget (persistent partition). Catchable, never an abort.
class NetError : public fault::FaultError {
 public:
  NetError(unsigned src, unsigned dst, const std::string& what);

  unsigned src() const { return src_; }
  unsigned dst() const { return dst_; }

 private:
  unsigned src_;
  unsigned dst_;
};

/// Records traffic between `ranks` ranks. Self-sends are free (local).
class RankNetwork {
 public:
  RankNetwork(unsigned ranks, const NetConfig& config = {});

  unsigned ranks() const { return static_cast<unsigned>(port_send_.size()); }
  const NetConfig& config() const { return config_; }

  /// Attaches (or detaches, with nullptr) a fault schedule. Prefer the
  /// RAII fault::ScopedInjector over calling this directly.
  void set_fault_plan(fault::FaultPlan* plan) { faults_ = plan; }
  fault::FaultPlan* fault_plan() const { return faults_; }

  /// Records one message inside the current round and reports what the
  /// (possibly faulty) network did with it. Port time is charged even for
  /// drops — the sender's NIC did the work; only the payload goes missing.
  Delivery send(unsigned src, unsigned dst, std::uint64_t bytes);

  /// send() + the recovery protocol: resends dropped messages (ack
  /// timeout modeled as one extra alpha each), discards duplicate copies
  /// by sequence number, and absorbs reordering (receiver-side buffering,
  /// one extra alpha). Throws NetError after config().max_resend resends
  /// of the same message — the persistent-partition case.
  ///
  /// Acks are windowed (config().ack_window): successful deliveries on a
  /// flow accumulate, and every full window costs one ack message (pure
  /// alpha, header-sized) charged to the receiver's send port and the
  /// sender's recv port. end_round() flushes partial windows, so a round's
  /// modeled time always includes the acks its traffic owes.
  void reliable_send(unsigned src, unsigned dst, std::uint64_t bytes);

  /// Ends the current communication round (a barrier): the round costs the
  /// busiest port's time.
  void end_round();

  /// Stats including the (auto-closed) final round.
  NetStats stats() const;

 private:
  NetConfig config_;
  NetStats stats_;
  fault::FaultPlan* faults_ = nullptr;
  std::vector<double> port_send_;  // per-rank accumulated port time, round
  std::vector<double> port_recv_;
  std::vector<std::uint64_t> recv_bytes_total_;
  /// Per-flow (src*ranks+dst) deliveries not yet covered by an ack.
  std::vector<unsigned> ack_pending_;
  bool round_open_ = false;

  /// Consults the plan for this attempt (kNone with no plan attached).
  fault::FaultKind inject(unsigned src, unsigned dst);

  /// Counts one reliable delivery on src->dst; charges a window ack when
  /// the window fills.
  void note_delivery(unsigned src, unsigned dst);
  /// One ack message dst->src: alpha on the receiver's send port and the
  /// sender's recv port.
  void charge_ack(unsigned src, unsigned dst);
  /// Acks every partially filled window (round barrier).
  void flush_acks();
};

}  // namespace mp::dist
