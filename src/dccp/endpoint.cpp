#include "dccp/endpoint.h"

#include <algorithm>

#include "util/logging.h"

namespace snake::dccp {

using packet::kDccpAck;
using packet::kDccpClose;
using packet::kDccpCloseReq;
using packet::kDccpData;
using packet::kDccpDataAck;
using packet::kDccpRequest;
using packet::kDccpReset;
using packet::kDccpResponse;
using packet::kDccpSync;
using packet::kDccpSyncAck;

namespace {
constexpr Duration kMaxRto = Duration::seconds(64.0);
constexpr int kMaxHandshakeRetries = 5;
/// Service code carried in Request/Response packets ("SNKE").
constexpr Seq48 kServiceCode = 0x534E4B45;
}  // namespace

const char* to_string(DccpState state) {
  switch (state) {
    case DccpState::kClosed: return "CLOSED";
    case DccpState::kListen: return "LISTEN";
    case DccpState::kRequest: return "REQUEST";
    case DccpState::kRespond: return "RESPOND";
    case DccpState::kPartOpen: return "PARTOPEN";
    case DccpState::kOpen: return "OPEN";
    case DccpState::kCloseReq: return "CLOSEREQ";
    case DccpState::kClosing: return "CLOSING";
    case DccpState::kTimeWait: return "TIMEWAIT";
  }
  return "?";
}

DccpEndpoint::DccpEndpoint(sim::Node& node, DccpEndpointConfig config, DccpCallbacks callbacks,
                           snake::Rng rng)
    : DccpEndpointState(config, rng),
      node_(node),
      config_(config),
      callbacks_(std::move(callbacks)) {}

DccpEndpoint::~DccpEndpoint() {
  rto_timer_.cancel();
  time_wait_timer_.cancel();
  handshake_timer_.cancel();
  pace_timer_.cancel();
  feedback_timer_.cancel();
  no_feedback_timer_.cancel();
  release_tx_queue();
}

// ----------------------------------------------------------------- app API

void DccpEndpoint::connect() {
  connect_time_ = node_.scheduler().now();
  iss_ = rng_.next_u64() & kSeqMask;
  gss_ = iss_;
  set_state(DccpState::kRequest);
  emit(kDccpRequest, gss_, kServiceCode);
  handshake_retries_ = 0;
  arm_handshake_timer();
}

void DccpEndpoint::arm_handshake_timer() {
  handshake_timer_ = node_.scheduler().schedule_in(rto_, [this] {
    if (released_) return;
    if (state_ == DccpState::kRequest) {
      // Retransmit the Request (with a fresh sequence number, per RFC).
      if (++handshake_retries_ > kMaxHandshakeRetries) {
        reset_connection(true, false);
        return;
      }
      emit(kDccpRequest, next_seq(), kServiceCode);
      arm_handshake_timer();
    } else if (state_ == DccpState::kPartOpen) {
      // RFC 4340 §8.1.5: PARTOPEN re-acknowledges until the feature
      // handshake completes (first packet from the server in OPEN).
      if (++handshake_retries_ > kMaxHandshakeRetries) {
        reset_connection(true, true);
        return;
      }
      emit(kDccpAck, next_seq(), gsr_);
      arm_handshake_timer();
    }
  });
}

void DccpEndpoint::accept(const DccpPacket& request) {
  isr_ = request.seq;
  gsr_ = request.seq;
  have_gsr_ = true;
  iss_ = rng_.next_u64() & kSeqMask;
  gss_ = iss_;
  set_state(DccpState::kRespond);
  emit(kDccpResponse, gss_, gsr_);
}

bool DccpEndpoint::send(std::span<const std::uint8_t> datagram) {
  if (released_ || close_pending_) return false;
  if (tx_queue_.size() >= config_.tx_queue_packets) {
    ++stats_.tx_queue_drops;
    return false;
  }
  Bytes copy = queue_pool().acquire();
  copy.assign(datagram.begin(), datagram.end());
  tx_queue_.push_back(std::move(copy));
  if (state_ == DccpState::kOpen || state_ == DccpState::kPartOpen) pump();
  return true;
}

void DccpEndpoint::close() {
  if (released_ || close_pending_) return;
  close_pending_ = true;
  if (state_ == DccpState::kRequest) {
    reset_connection(false, false);
    return;
  }
  maybe_send_close();
}

void DccpEndpoint::abort() {
  if (released_) return;
  reset_connection(false, true);
}

// -------------------------------------------------------------- wire input

void DccpEndpoint::on_packet(const DccpPacket& p) {
  if (released_) {
    if (p.type != kDccpReset) emit(kDccpReset, next_seq(), p.seq);
    return;
  }
  switch (state_) {
    case DccpState::kRequest:
      handle_request_state(p);
      return;
    case DccpState::kRespond:
      handle_respond_state(p);
      return;
    case DccpState::kPartOpen:
    case DccpState::kOpen:
    case DccpState::kCloseReq:
    case DccpState::kClosing:
    case DccpState::kTimeWait:
      handle_synchronized(p);
      return;
    case DccpState::kClosed:
    case DccpState::kListen:
      return;
  }
}

void DccpEndpoint::handle_request_state(const DccpPacket& p) {
  // RFC 4340 §8.5 processes the packet-type check for the REQUEST state
  // BEFORE the sequence-number checks — faithfully reproduced here, which is
  // exactly what makes the REQUEST Connection Termination attack work with
  // arbitrary sequence and acknowledgment numbers.
  if (p.type == kDccpResponse) {
    if (p.ack != iss_ && !seq48_between(p.ack, iss_, gss_)) {
      // Response to something we never sent; ignore.
      return;
    }
    isr_ = p.seq;
    gsr_ = p.seq;
    have_gsr_ = true;
    if (!srtt_.has_value()) {
      // Handshake RTT sample (used by the TFRC equation until data acks
      // refine it).
      srtt_ = node_.scheduler().now() - connect_time_;
      if (ccid3_tx_.has_value()) ccid3_tx_->set_rtt(*srtt_);
    }
    handshake_timer_.cancel();
    handshake_retries_ = 0;
    set_state(DccpState::kPartOpen);
    arm_handshake_timer();
    emit(kDccpAck, next_seq(), gsr_);
    if (callbacks_.on_established) callbacks_.on_established();
    pump();
    maybe_send_close();
    return;
  }
  if (p.type == kDccpReset) {
    ++stats_.resets_received;
    reset_connection(true, false);
    return;
  }
  // "The only valid packets in the REQUEST state are RESPONSE or RESET; any
  // other packet results in a reset" — with ANY sequence numbers.
  reset_connection(true, true);
}

void DccpEndpoint::handle_respond_state(const DccpPacket& p) {
  if (!sequence_valid(p)) {
    ++stats_.invalid_dropped;
    send_sync_for(p);
    return;
  }
  if (seq48_gt(p.seq, gsr_)) gsr_ = p.seq;
  switch (p.type) {
    case kDccpReset:
      ++stats_.resets_received;
      reset_connection(true, false);
      return;
    case kDccpRequest:
      emit(kDccpResponse, next_seq(), gsr_);  // retransmitted Request
      return;
    case kDccpAck:
    case kDccpDataAck:
      set_state(DccpState::kOpen);
      if (callbacks_.on_established) callbacks_.on_established();
      process_ack(p);
      if (p.type == kDccpDataAck && !p.payload.empty()) {
        stats_.bytes_delivered += p.payload.size();
        if (callbacks_.on_data) callbacks_.on_data(p.payload);
        emit(kDccpAck, next_seq(), gsr_);
      }
      pump();
      return;
    default:
      return;
  }
}

bool DccpEndpoint::sequence_valid(const DccpPacket& p) const {
  if (!have_gsr_) return true;
  std::int64_t w = static_cast<std::int64_t>(config_.seq_window);
  Seq48 swl = seq_add(gsr_, 1 - w / 4);
  Seq48 swh = seq_add(gsr_, 1 + (3 * w) / 4);
  bool seq_ok;
  if (p.type == kDccpSync || p.type == kDccpSyncAck) {
    // RFC 4340 §7.5.4: Sync/SyncAck get a relaxed upper bound so
    // resynchronization can escape a desynchronized window.
    seq_ok = seq48_geq(p.seq, swl);
  } else {
    seq_ok = seq48_between(p.seq, swl, swh);
  }
  if (!seq_ok) return false;
  if (p.has_ack) {
    Seq48 awl = seq_add(gss_, 1 - static_cast<std::int64_t>(config_.seq_window));
    Seq48 awh = gss_;
    if (!seq48_between(p.ack, awl, awh)) return false;
  }
  return true;
}

void DccpEndpoint::send_sync_for(const DccpPacket& p) {
  // Rate-limited, per RFC 4340 §7.5.4. Never Sync in response to a Reset or
  // another Sync/SyncAck (avoids sync storms).
  if (p.type == kDccpReset || p.type == kDccpSync || p.type == kDccpSyncAck) return;
  TimePoint now = node_.scheduler().now();
  if (now - last_sync_sent_ < config_.sync_rate_limit) return;
  last_sync_sent_ = now;
  ++stats_.syncs_sent;
  emit(kDccpSync, next_seq(), p.seq);
}

void DccpEndpoint::handle_synchronized(const DccpPacket& p) {
  if (!sequence_valid(p)) {
    ++stats_.invalid_dropped;
    send_sync_for(p);
    return;
  }
  if (seq48_gt(p.seq, gsr_)) gsr_ = p.seq;

  // Leaving PARTOPEN: any valid packet from the peer confirms it saw our Ack.
  if (state_ == DccpState::kPartOpen && p.type != kDccpResponse) {
    handshake_timer_.cancel();
    set_state(DccpState::kOpen);
  }

  switch (p.type) {
    case kDccpReset:
      ++stats_.resets_received;
      if (state_ == DccpState::kClosing) {
        enter_time_wait();
      } else {
        reset_connection(true, false);
      }
      return;
    case kDccpSync:
      ++stats_.syncs_received;
      emit(kDccpSyncAck, next_seq(), p.seq);
      return;
    case kDccpSyncAck:
      return;  // gsr_ update above is the whole effect
    case kDccpClose:
      // Passive close: confirm with Reset and release.
      emit(kDccpReset, next_seq(), gsr_);
      ++stats_.resets_sent;
      release();
      return;
    case kDccpCloseReq:
      if (state_ == DccpState::kOpen || state_ == DccpState::kPartOpen) {
        close_pending_ = true;
        maybe_send_close();
      }
      return;
    case kDccpData:
    case kDccpDataAck:
      if (p.type == kDccpDataAck) process_ack(p);
      if (!p.payload.empty()) {
        stats_.bytes_delivered += p.payload.size();
        if (callbacks_.on_data) callbacks_.on_data(p.payload);
      }
      if (ccid3_rx_.has_value()) {
        // TFRC: the receiver measures losses and rate; feedback rides the
        // periodic timer instead of per-packet acknowledgments.
        ccid3_rx_->on_data(p.seq, p.payload.size() + packet::kDccpHeaderBytes,
                           node_.scheduler().now());
        if (!feedback_timer_.pending()) on_ccid3_feedback_timer();
      } else {
        emit(kDccpAck, next_seq(), gsr_);
      }
      return;
    case kDccpAck:
      process_ack(p);
      return;
    case kDccpRequest:
    case kDccpResponse:
      return;  // stale handshake packets
  }
}

void DccpEndpoint::process_ack(const DccpPacket& p) {
  if (config_.ccid == 3) {
    if (auto feedback = Ccid3Feedback::decode(p.payload); feedback.has_value()) {
      if (srtt_.has_value()) ccid3_tx_->set_rtt(*srtt_);
      ccid3_tx_->on_feedback(*feedback, node_.scheduler().now());
      no_feedback_timer_.cancel();
      arm_no_feedback_timer();
    }
    pump();
    maybe_send_close();
    return;
  }
  int losses = cc_.on_ack(p.ack, node_.scheduler().now());
  if (losses > 0) {
    SNAKE_TRACE << node_.name() << " dccp " << losses << " losses inferred, cwnd now "
                << cc_.cwnd();
  }
  if (auto sample = cc_.take_rtt_sample(); sample.has_value()) update_rtt(*sample);
  arm_rto(/*restart=*/true);
  pump();
  maybe_send_close();
}

// ------------------------------------------------------------------ output

void DccpEndpoint::emit(DccpType type, Seq48 seq, Seq48 ack,
                        std::span<const std::uint8_t> payload) {
  DccpPacket p;
  p.src_port = config_.local_port;
  p.dst_port = config_.remote_port;
  p.type = type;
  p.seq = seq & kSeqMask;
  p.ack = ack & kSeqMask;
  p.has_ack = type_carries_ack(type);
  p.payload = Payload(payload);

  sim::Packet wire;
  wire.dst = config_.remote_addr;
  wire.protocol = sim::kProtoDccp;
  wire.bytes = node_.scheduler().buffer_pool().acquire();
  serialize_into(p, wire.bytes);
  ++stats_.packets_sent;
  if (p.is_data()) ++stats_.data_packets_sent;
  if (type == kDccpReset) ++stats_.resets_sent;
  SNAKE_TRACE << node_.name() << " dccp tx " << p.summary();
  node_.send_packet(std::move(wire));
}

void DccpEndpoint::pump() {
  if (state_ != DccpState::kOpen && state_ != DccpState::kPartOpen) return;
  if (config_.ccid == 3) {
    pump_ccid3();
    return;
  }
  while (!tx_queue_.empty() && cc_.can_send()) {
    Seq48 seq = next_seq();
    cc_.on_data_sent(seq, node_.scheduler().now());
    send_front(seq);
  }
  arm_rto(/*restart=*/false);
}

void DccpEndpoint::pump_ccid3() {
  // TFRC is rate-paced, not window-gated: one packet per send interval.
  if (tx_queue_.empty() || pace_timer_.pending()) return;
  send_front(next_seq());
  arm_no_feedback_timer();
  pace_timer_ = node_.scheduler().schedule_in(ccid3_tx_->send_interval(), [this] {
    if (released_) return;
    pump();
    maybe_send_close();
  });
}

void DccpEndpoint::on_ccid3_feedback_timer() {
  if (released_ || !ccid3_rx_.has_value()) return;
  if ((state_ == DccpState::kOpen || state_ == DccpState::kPartOpen) &&
      ccid3_rx_->has_new_data()) {
    Ccid3Feedback f = ccid3_rx_->make_feedback(node_.scheduler().now());
    emit(kDccpAck, next_seq(), gsr_, f.encode());
  }
  feedback_timer_ = node_.scheduler().schedule_in(Duration::millis(50),
                                                  [this] { on_ccid3_feedback_timer(); });
}

void DccpEndpoint::arm_no_feedback_timer() {
  if (!ccid3_tx_.has_value() || no_feedback_timer_.pending()) return;
  no_feedback_timer_ =
      node_.scheduler().schedule_in(ccid3_tx_->no_feedback_timeout(), [this] {
        if (released_) return;
        ccid3_tx_->on_no_feedback();
        SNAKE_TRACE << node_.name() << " ccid3 no-feedback: rate now "
                    << ccid3_tx_->rate_bps() << " B/s";
        pump();
        maybe_send_close();
        arm_no_feedback_timer();
      });
}

void DccpEndpoint::maybe_send_close() {
  // "DCCP will send all queued packets and then close the connection" — the
  // Close cannot leave before the transmit queue drains, which is what the
  // Acknowledgment Mung attack weaponizes.
  if (!close_pending_ || !tx_queue_.empty()) return;
  if (state_ != DccpState::kOpen && state_ != DccpState::kPartOpen) return;
  set_state(DccpState::kClosing);
  emit(kDccpClose, next_seq(), gsr_);
  arm_rto(/*restart=*/true);
}

// ------------------------------------------------------------------ timers

void DccpEndpoint::arm_rto(bool restart) {
  bool needed = cc_.has_outstanding() || state_ == DccpState::kClosing;
  if (!needed) {
    rto_timer_.cancel();
    return;
  }
  if (restart) rto_timer_.cancel();
  if (rto_timer_.pending()) return;
  rto_timer_ = node_.scheduler().schedule_in(rto_, [this] { on_rto_expired(); });
}

void DccpEndpoint::on_rto_expired() {
  if (released_) return;
  ++stats_.timeouts;
  if (state_ == DccpState::kClosing) {
    // Retransmit the Close.
    emit(kDccpClose, next_seq(), gsr_);
  } else {
    cc_.on_timeout();
  }
  rto_ = std::min(rto_ * 2, kMaxRto);
  pump();  // cwnd=1 slot opens: this is the "minimum rate" drip
  arm_rto(/*restart=*/true);  // single re-arm point; see TCP endpoint note
}

void DccpEndpoint::update_rtt(Duration sample) {
  if (!srtt_.has_value()) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    Duration diff = *srtt_ > sample ? *srtt_ - sample : sample - *srtt_;
    rttvar_ = (rttvar_ * 3 + diff) / 4;
    srtt_ = (*srtt_ * 7 + sample) / 8;
  }
  rto_ = std::clamp(*srtt_ + std::max(rttvar_ * 4, Duration::millis(10)), config_.min_rto,
                    kMaxRto);
}

void DccpEndpoint::enter_time_wait() {
  set_state(DccpState::kTimeWait);
  rto_timer_.cancel();
  // Lazy: expiry only releases the socket — no packet, nothing a detector
  // reads — so a deterministic early-exit may leave it unfired.
  time_wait_timer_ =
      node_.scheduler().schedule_lazy_in(config_.time_wait, [this] { release(); });
}

void DccpEndpoint::set_state(DccpState next) {
  if (state_ == next) return;
  SNAKE_TRACE << node_.name() << " dccp " << to_string(state_) << " -> " << to_string(next);
  state_ = next;
}

void DccpEndpoint::release() {
  if (released_) return;
  released_ = true;
  rto_timer_.cancel();
  time_wait_timer_.cancel();
  handshake_timer_.cancel();
  set_state(DccpState::kClosed);
  if (callbacks_.on_closed) callbacks_.on_closed();
}

void DccpEndpoint::reset_connection(bool notify, bool send_reset) {
  if (send_reset) emit(kDccpReset, next_seq(), have_gsr_ ? gsr_ : 0);
  rto_timer_.cancel();
  time_wait_timer_.cancel();
  handshake_timer_.cancel();
  set_state(DccpState::kClosed);
  if (notify && callbacks_.on_reset) callbacks_.on_reset();
  release();
}

void DccpEndpoint::send_front(Seq48 seq) {
  // Dequeue before sending: the send may re-enter this endpoint (a filter
  // injecting into this node), which must see the queue without it.
  Bytes datagram = std::move(tx_queue_.front());
  tx_queue_.pop_front();
  emit(kDccpDataAck, seq, gsr_, datagram);
  queue_pool().release(std::move(datagram));
}

void DccpEndpoint::release_tx_queue() {
  for (Bytes& datagram : tx_queue_) queue_pool().release(std::move(datagram));
  tx_queue_.clear();
}

void DccpEndpoint::snapshot_zombify() {
  release_tx_queue();
  State::operator=(State(config_, rng_));
  released_ = true;
}

}  // namespace snake::dccp
