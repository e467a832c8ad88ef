#include "dist/netsim.hpp"

#include <algorithm>

namespace mp::dist {

const char* to_string(Delivery delivery) {
  switch (delivery) {
    case Delivery::kOk: return "ok";
    case Delivery::kDropped: return "dropped";
    case Delivery::kDuplicated: return "duplicated";
    case Delivery::kReordered: return "reordered";
  }
  return "?";
}

NetError::NetError(unsigned src, unsigned dst, const std::string& what)
    : fault::FaultError(fault::FaultKind::kPartition, what),
      src_(src),
      dst_(dst) {}

RankNetwork::RankNetwork(unsigned ranks, const NetConfig& config)
    : config_(config),
      faults_(config.faults),
      port_send_(ranks, 0.0),
      port_recv_(ranks, 0.0),
      recv_bytes_total_(ranks, 0),
      ack_pending_(static_cast<std::size_t>(ranks) * ranks, 0) {
  MP_CHECK(ranks >= 1);
}

void RankNetwork::charge_ack(unsigned src, unsigned dst) {
  // Header-sized: pure alpha, no payload term. The ack travels dst -> src.
  port_send_[dst] += config_.alpha_us;
  port_recv_[src] += config_.alpha_us;
  ++stats_.acks;
}

void RankNetwork::note_delivery(unsigned src, unsigned dst) {
  if (config_.ack_window == 0) return;  // acks-are-free legacy model
  if (src == dst) return;               // local moves need no ack
  unsigned& pending = ack_pending_[static_cast<std::size_t>(src) * ranks() +
                                   dst];
  if (++pending >= config_.ack_window) {
    pending = 0;
    charge_ack(src, dst);
  }
}

void RankNetwork::flush_acks() {
  if (config_.ack_window == 0) return;
  for (unsigned src = 0; src < ranks(); ++src) {
    for (unsigned dst = 0; dst < ranks(); ++dst) {
      unsigned& pending =
          ack_pending_[static_cast<std::size_t>(src) * ranks() + dst];
      if (pending == 0) continue;
      pending = 0;
      charge_ack(src, dst);
    }
  }
}

fault::FaultKind RankNetwork::inject(unsigned src, unsigned dst) {
  if (faults_ == nullptr) return fault::FaultKind::kNone;
  const fault::FaultKind kind = faults_->decide_send(src, dst);
  if (kind != fault::FaultKind::kNone) ++stats_.faults_injected;
  return kind;
}

Delivery RankNetwork::send(unsigned src, unsigned dst, std::uint64_t bytes) {
  MP_CHECK(src < ranks() && dst < ranks());
  if (src == dst) return Delivery::kOk;  // local move, no network cost
  round_open_ = true;
  const double cost =
      config_.alpha_us +
      static_cast<double>(bytes) / config_.beta_bytes_per_us;
  switch (inject(src, dst)) {
    case fault::FaultKind::kDrop:
    case fault::FaultKind::kPartition:
      // The sender's NIC pushed the bytes; they just never arrive.
      port_send_[src] += cost;
      ++stats_.drops;
      return Delivery::kDropped;
    case fault::FaultKind::kDuplicate:
      // Both copies traverse the link and land on the receiver.
      port_send_[src] += 2.0 * cost;
      port_recv_[dst] += 2.0 * cost;
      ++stats_.messages;
      stats_.bytes += bytes;
      recv_bytes_total_[dst] += bytes;
      ++stats_.duplicates;
      return Delivery::kDuplicated;
    case fault::FaultKind::kReorder:
      // Delivered, but late: the receiver buffers it past other traffic.
      port_send_[src] += cost;
      port_recv_[dst] += cost + config_.alpha_us;
      ++stats_.messages;
      stats_.bytes += bytes;
      recv_bytes_total_[dst] += bytes;
      ++stats_.reorders;
      return Delivery::kReordered;
    default:
      break;
  }
  port_send_[src] += cost;
  port_recv_[dst] += cost;
  ++stats_.messages;
  stats_.bytes += bytes;
  recv_bytes_total_[dst] += bytes;
  return Delivery::kOk;
}

void RankNetwork::reliable_send(unsigned src, unsigned dst,
                                std::uint64_t bytes) {
  unsigned resends = 0;
  for (;;) {
    switch (send(src, dst, bytes)) {
      case Delivery::kOk:
        note_delivery(src, dst);
        return;
      case Delivery::kDuplicated:
        // The receiver's sequence numbers identify the second copy; it is
        // discarded on arrival. The wasted port time is already charged.
        ++stats_.dedup_discards;
        note_delivery(src, dst);
        return;
      case Delivery::kReordered:
        // Receiver-side buffering reassembles order; charged in send().
        note_delivery(src, dst);
        return;
      case Delivery::kDropped:
        // No ack before the timeout: charge one alpha for the timeout on
        // the sender's port and retransmit.
        if (resends >= config_.max_resend)
          throw NetError(src, dst,
                         "rank " + std::to_string(src) + " -> rank " +
                             std::to_string(dst) + ": no ack after " +
                             std::to_string(resends) +
                             " resends (link partitioned?)");
        port_send_[src] += config_.alpha_us;
        ++stats_.resends;
        ++resends;
        break;
    }
  }
}

void RankNetwork::end_round() {
  if (!round_open_) return;
  // Close every partially filled ack window: the round's cost honestly
  // includes the acks its reliable traffic owes.
  flush_acks();
  double busiest = 0.0;
  for (unsigned r = 0; r < ranks(); ++r) {
    busiest = std::max(busiest, port_send_[r]);
    busiest = std::max(busiest, port_recv_[r]);
    port_send_[r] = 0.0;
    port_recv_[r] = 0.0;
  }
  stats_.modeled_time_us += busiest;
  ++stats_.rounds;
  round_open_ = false;
}

NetStats RankNetwork::stats() const {
  NetStats out = stats_;
  if (round_open_) {
    double busiest = 0.0;
    for (unsigned r = 0; r < ranks(); ++r) {
      busiest = std::max(busiest, port_send_[r]);
      busiest = std::max(busiest, port_recv_[r]);
    }
    out.modeled_time_us += busiest;
    ++out.rounds;
  }
  for (std::uint64_t b : recv_bytes_total_)
    out.max_rank_recv_bytes = std::max(out.max_rank_recv_bytes, b);
  return out;
}

}  // namespace mp::dist
