#include "tcp/endpoint.h"

#include <algorithm>

#include "packet/tcp_format.h"
#include "util/logging.h"

namespace snake::tcp {

using packet::kTcpAck;
using packet::kTcpFin;
using packet::kTcpPsh;
using packet::kTcpRst;
using packet::kTcpSyn;
using packet::kTcpUrg;

namespace {
constexpr Duration kMaxRto = Duration::seconds(60.0);

/// Flag combinations that are meaningful arrivals on a connection. Anything
/// else is "nonsensical" in the paper's sense (e.g. SYN+FIN+ACK+RST).
bool flags_are_sensible(std::uint8_t flags) {
  switch (flags & 0x3F) {
    case kTcpSyn:
    case kTcpSyn | kTcpAck:
    case kTcpAck:
    case kTcpAck | kTcpPsh:
    case kTcpAck | kTcpUrg:
    case kTcpAck | kTcpPsh | kTcpUrg:
    case kTcpFin | kTcpAck:
    case kTcpFin | kTcpAck | kTcpPsh:
    case kTcpFin:
    case kTcpRst:
    case kTcpRst | kTcpAck:
      return true;
    default:
      return false;
  }
}
}  // namespace

const char* to_string(TcpState state) {
  switch (state) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynRcvd: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

TcpEndpoint::TcpEndpoint(sim::Node& node, const TcpProfile& profile, TcpEndpointConfig config,
                         TcpCallbacks callbacks, snake::Rng rng,
                         std::function<void()> on_released)
    : TcpEndpointState(profile, config, rng),
      node_(node),
      profile_(&profile),
      config_(config),
      callbacks_(std::move(callbacks)),
      on_released_(std::move(on_released)) {}

TcpEndpoint::~TcpEndpoint() {
  retransmit_timer_.cancel();
  time_wait_timer_.cancel();
  release_queues();
}

// ---------------------------------------------------------------- app API

void TcpEndpoint::connect() {
  iss_ = rng_.next_u32();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  snd_max_ = snd_nxt_;
  set_state(TcpState::kSynSent);
  emit(kTcpSyn, iss_);
  arm_retransmit();
}

void TcpEndpoint::accept(Seq remote_isn, bool peer_sack_permitted) {
  sack_enabled_ = profile_->sack && peer_sack_permitted;
  irs_ = remote_isn;
  rcv_nxt_ = remote_isn + 1;
  iss_ = rng_.next_u32();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  snd_max_ = snd_nxt_;
  set_state(TcpState::kSynRcvd);
  emit(kTcpSyn | kTcpAck, iss_);
  arm_retransmit();
}

void TcpEndpoint::send(std::span<const std::uint8_t> data) {
  if (!accepts_data()) return;
  send_buf_.append(data, queue_pool());
  queued_total_ += data.size();
  push_points_.push_back(queued_total_);  // PSH at the end of this write
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) try_send();
}

void TcpEndpoint::close() {
  if (released_ || fin_pending_ || fin_sent_) return;
  fin_pending_ = true;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    try_send();
    send_fin_if_ready();
  } else if (state_ == TcpState::kSynSent) {
    // Nothing exchanged yet; just go away.
    release();
  }
}

void TcpEndpoint::app_exit() {
  app_exited_ = true;
  close();
}

void TcpEndpoint::abort() {
  if (released_) return;
  if (state_ != TcpState::kSynSent && state_ != TcpState::kClosed) send_rst(snd_nxt_);
  reset_connection(false);
}

// ------------------------------------------------------------- wire input

void TcpEndpoint::on_segment(const Segment& s) {
  if (released_) {
    // A closed socket answers anything but RST with RST (RFC 793 p.36).
    if (!s.has(kTcpRst)) send_rst(s.has(kTcpAck) ? s.ack : 0, !s.has(kTcpAck));
    return;
  }
  switch (state_) {
    case TcpState::kSynSent:
      handle_syn_sent(s);
      return;
    case TcpState::kSynRcvd:
      handle_syn_rcvd(s);
      return;
    case TcpState::kEstablished:
    case TcpState::kFinWait1:
    case TcpState::kFinWait2:
    case TcpState::kCloseWait:
    case TcpState::kClosing:
    case TcpState::kLastAck:
    case TcpState::kTimeWait:
      handle_synchronized(s);
      return;
    case TcpState::kClosed:
    case TcpState::kListen:
      return;  // stack-level states; no segment processing here
  }
}

void TcpEndpoint::handle_syn_sent(const Segment& s) {
  if (s.has(kTcpAck) && s.ack != snd_nxt_) {
    // Unacceptable ACK: RST unless the segment itself is a RST.
    if (!s.has(kTcpRst)) send_rst(s.ack);
    return;
  }
  if (s.has(kTcpRst)) {
    if (s.has(kTcpAck)) {
      ++stats_.rsts_received;
      reset_connection(true);
    }
    return;
  }
  if (s.has(kTcpSyn) && s.has(kTcpAck)) {
    sack_enabled_ = profile_->sack && s.sack_permitted;
    irs_ = s.seq;
    rcv_nxt_ = s.seq + 1;
    snd_una_ = s.ack;
    snd_wnd_ = s.window;
    retransmit_timer_.cancel();
    retries_ = 0;
    set_state(TcpState::kEstablished);
    send_ack();
    if (callbacks_.on_established) callbacks_.on_established();
    try_send();
    send_fin_if_ready();
    return;
  }
  if (s.has(kTcpSyn)) {
    // Simultaneous open (also reachable via the proxy's reflect attack —
    // the TCP Simultaneous Open Attack of Guha & Mukherjee).
    sack_enabled_ = profile_->sack && s.sack_permitted;
    irs_ = s.seq;
    rcv_nxt_ = s.seq + 1;
    set_state(TcpState::kSynRcvd);
    emit(kTcpSyn | kTcpAck, iss_);
    arm_retransmit();
    return;
  }
}

void TcpEndpoint::handle_syn_rcvd(const Segment& s) {
  if (s.has(kTcpRst)) {
    ++stats_.rsts_received;
    reset_connection(true);
    return;
  }
  if (s.has(kTcpSyn) && !s.has(kTcpAck)) {
    // Duplicate SYN: retransmit our SYN+ACK.
    emit(kTcpSyn | kTcpAck, iss_);
    return;
  }
  if (!s.has(kTcpAck)) return;
  if (s.ack != snd_nxt_) {
    send_rst(s.ack);
    return;
  }
  snd_una_ = s.ack;
  snd_wnd_ = s.window;
  retransmit_timer_.cancel();
  retries_ = 0;
  set_state(TcpState::kEstablished);
  if (callbacks_.on_established) callbacks_.on_established();
  if (!s.payload.empty() || s.has(kTcpFin)) {
    handle_synchronized(s);
  } else {
    try_send();
    send_fin_if_ready();
  }
}

bool TcpEndpoint::handle_invalid_flags(const Segment& s) {
  if (flags_are_sensible(s.flags)) return false;
  ++stats_.invalid_flag_segments;
  switch (profile_->invalid_flags) {
    case InvalidFlagPolicy::kIgnore:
      return true;  // drop silently (Linux 3.13 / Windows 95)
    case InvalidFlagPolicy::kRstFirst:
      // Windows 8.1: RST wins regardless of the other flags.
      if (s.has(kTcpRst) && in_window(s.seq, rcv_nxt_, advertised_window())) {
        ++stats_.invalid_flag_responses;
        ++stats_.rsts_received;
        reset_connection(true);
      }
      return true;
    case InvalidFlagPolicy::kBestEffort:
      // Linux 3.0.0: interpret as best it can. A packet with no flags at
      // all gets answered with a duplicate acknowledgment — "a situation
      // that is never valid" — and combos like SYN+FIN are processed
      // bit-by-bit by the regular path below.
      ++stats_.invalid_flag_responses;
      if ((s.flags & 0x3F) == 0) {
        send_ack();
        return true;
      }
      return false;  // fall through to regular processing
  }
  return true;
}

void TcpEndpoint::handle_synchronized(const Segment& s) {
  if (handle_invalid_flags(s)) return;

  std::uint32_t rwnd = advertised_window();
  if (!segment_acceptable(s.seq, s.seq_len(), rcv_nxt_, rwnd)) {
    // Out-of-window segment: RSTs are ignored (this is what forces the
    // off-path Reset attack to sweep the window), everything else gets a
    // re-assertive ACK. A segment lying entirely *below* the window is a
    // duplicate the peer already delivered — that ACK carries the DSACK
    // indication (RFC 2883) so the sender can tell duplication from loss.
    if (!s.has(kTcpRst)) {
      bool entirely_old = s.seq_len() > 0 && seq_leq(s.seq + s.seq_len(), rcv_nxt_);
      SackBlock dup{s.seq, s.seq + s.seq_len()};
      bool with_block = entirely_old && sack_enabled_ && profile_->dsack_blocks;
      send_ack(/*dsack=*/entirely_old, with_block ? &dup : nullptr);
    }
    return;
  }

  if (s.has(kTcpRst)) {
    // In-window RST: connection reset (RFC 793; the "slipping in the
    // window" attack shows any in-window sequence suffices).
    ++stats_.rsts_received;
    reset_connection(true);
    return;
  }

  if (s.has(kTcpSyn)) {
    // In-window SYN on a synchronized connection: reset (the SYN-Reset
    // attack exploits exactly this clause).
    send_rst(snd_nxt_);
    reset_connection(true);
    return;
  }

  if (s.has(kTcpAck)) process_ack(s);
  if (released_) return;  // ack processing may have torn us down
  if (!s.payload.empty()) process_payload(s);
  if (released_) return;
  if (s.has(kTcpFin)) process_fin(s);
}

void TcpEndpoint::process_ack(const Segment& s) {
  std::size_t flight_before = flight_bytes();

  bool saw_dsack_block = false;
  bool sack_advanced = false;
  if (sack_enabled_ && !s.sack_blocks.empty()) absorb_sack(s, saw_dsack_block, sack_advanced);

  if (seq_gt(s.ack, snd_nxt_)) {
    if (seq_leq(s.ack, snd_max_)) {
      // A late ACK for data sent before an RTO rewind: that data did arrive
      // after all — fast-forward past it.
      snd_nxt_ = s.ack;
    } else {
      // Acks data we have never sent: re-assert our state.
      send_ack();
      return;
    }
  }

  if (seq_gt(s.ack, snd_una_)) {
    // New data acknowledged.
    std::uint32_t acked = s.ack - snd_una_;
    std::size_t data_acked = std::min<std::size_t>(acked, send_buf_.size());
    send_buf_.pop_front(data_acked, queue_pool());
    acked_total_ += data_acked;
    while (!push_points_.empty() && push_points_.front() <= acked_total_)
      push_points_.pop_front();
    snd_una_ = s.ack;
    // Scoreboard ranges at or below the new cumulative ACK are spent; one
    // straddling it is trimmed to start there.
    auto spent = std::find_if(sacked_.begin(), sacked_.end(),
                              [this](const SackBlock& r) { return seq_gt(r.end, snd_una_); });
    sacked_.erase(sacked_.begin(), spent);
    if (!sacked_.empty() && seq_lt(sacked_.front().start, snd_una_)) sacked_.front().start = snd_una_;
    snd_wnd_ = s.window;
    take_rtt_sample(s.ack);
    retries_ = 0;
    // Forward progress clears any exponential RTO backoff (RFC 6298 §5.7
    // behaviour of real stacks): recompute from the smoothed estimate.
    if (srtt_.has_value()) {
      rto_ = std::clamp(*srtt_ + std::max(rttvar_ * 4, Duration::millis(10)),
                        profile_->min_rto, kMaxRto);
    } else {
      rto_ = std::max(config_.initial_rto, profile_->min_rto);
    }

    if (cc_.in_recovery()) {
      if (seq_geq(s.ack, recover_)) {
        SNAKE_DEBUG << node_.scheduler().now().to_seconds() << "s " << node_.name() << " recovery complete ack=" << s.ack;
        cc_.on_full_ack();
      } else if (seq_geq(s.ack, last_retx_end_)) {
        // NewReno partial ack: plug the next hole — but only one
        // retransmission per hole. Receivers ack every segment, so partial
        // acks arrive for each pipelined segment; re-retransmitting on all
        // of them floods the path with duplicates.
        SNAKE_DEBUG << node_.scheduler().now().to_seconds() << "s " << node_.name()
                    << " partial ack=" << s.ack << " recover=" << recover_;
        cc_.on_partial_ack(acked);
        retransmit_one();
      }
    } else {
      cc_.on_new_ack(acked, flight_before);
    }

    // FIN accounting.
    if (fin_sent_ && seq_gt(snd_una_, fin_seq_)) {
      switch (state_) {
        case TcpState::kFinWait1:
          set_state(TcpState::kFinWait2);
          break;
        case TcpState::kClosing:
          enter_time_wait();
          break;
        case TcpState::kLastAck:
          release();
          return;
        default:
          break;
      }
    }
    arm_retransmit(/*restart=*/true);
    try_send();
    send_fin_if_ready();
    return;
  }

  // Not advancing: duplicate ACK if there is outstanding data (flight
  // includes an unacked FIN's sequence slot) and the segment carries
  // nothing else that explains it.
  snd_wnd_ = s.window;
  if (s.ack == snd_una_ && s.payload.empty() && !s.has(kTcpFin) && flight_before > 0) {
    ++stats_.dup_acks_received;
    // A DSACK indication arrives either as the coarse header bit or as a
    // leading duplicate SACK block (RFC 2883); both mean "duplicate segment,
    // not a hole" to the fast-retransmit counter.
    bool dsack_indicated = s.dsack || saw_dsack_block;
    if (dsack_indicated) ++stats_.dsack_acks_received;
    if (cc_.on_dup_ack(dsack_indicated, flight_before)) {
      recover_ = snd_max_;
      ++stats_.fast_retransmits;
      SNAKE_DEBUG << node_.scheduler().now().to_seconds() << "s " << node_.name() << " fast-retransmit una=" << snd_una_ << " nxt=" << snd_nxt_
                  << " cwnd=" << cc_.cwnd() << " ssthresh=" << cc_.ssthresh();
      retransmit_one();
    } else if (cc_.in_recovery() && sack_advanced) {
      // SACK-driven recovery: each dupack that teaches the scoreboard
      // something new plugs the next hole — this is also why forged SACK
      // blocks are such an effective amplifier (each one buys a
      // retransmission from an honest sender).
      retransmit_next_hole();
    }
    try_send();  // recovery inflation may open the window
  }
}

void TcpEndpoint::process_payload(const Segment& s) {
  // A client whose application already exited answers data with RST on
  // Linux-like profiles (see profile.rst_data_after_fin). If those RSTs are
  // blocked by an attacker, the sending server wedges in CLOSE_WAIT — the
  // paper's CLOSE_WAIT Resource Exhaustion attack.
  if (app_exited_ && profile_->rst_data_after_fin) {
    send_rst(snd_nxt_);
    reset_connection(false);
    return;
  }

  Seq seg_end = s.seq + static_cast<std::uint32_t>(s.payload.size());
  if (seq_leq(seg_end, rcv_nxt_)) {
    // Entirely duplicate data: acknowledge with a DSACK indication so the
    // sender can tell duplication from loss (RFC 2883). A dsack_blocks
    // profile additionally reports the duplicate range as the leading SACK
    // block.
    SackBlock dup{s.seq, seg_end};
    bool with_block = sack_enabled_ && profile_->dsack_blocks;
    send_ack(/*dsack=*/true, with_block ? &dup : nullptr);
    return;
  }
  if (seq_gt(s.seq, rcv_nxt_)) {
    // Out of order: buffer (bounded by the receive buffer) and send a
    // duplicate ACK pointing at the hole. A reneging profile makes room by
    // discarding already-buffered (and already-SACKed!) data furthest from
    // the hole — RFC 2018 permits this, and it is exactly what breaks a
    // sender that trusts its scoreboard unconditionally.
    if (profile_->sack_renege && s.payload.size() <= config_.recv_buffer) {
      while (!out_of_order_.empty() &&
             out_of_order_bytes_ + s.payload.size() > config_.recv_buffer) {
        out_of_order_bytes_ -= out_of_order_.back().data.size();
        ++stats_.sack_reneges;
        drop_ooo(out_of_order_.end() - 1, out_of_order_.end());
      }
    }
    auto at = std::lower_bound(
        out_of_order_.begin(), out_of_order_.end(), s.seq,
        [](const OutOfOrderSegment& held, Seq seq) { return seq_lt(held.seq, seq); });
    if (out_of_order_bytes_ + s.payload.size() <= config_.recv_buffer &&
        (at == out_of_order_.end() || at->seq != s.seq)) {
      out_of_order_bytes_ += s.payload.size();
      Bytes data = queue_pool().acquire();
      data.assign(s.payload.begin(), s.payload.end());
      out_of_order_.insert(at, OutOfOrderSegment{s.seq, std::move(data)});
      last_ooo_start_ = s.seq;
      ++stats_.ooo_buffered;
    } else {
      ++stats_.ooo_discarded;
    }
    send_ack();
    return;
  }

  // In order: deliver the payload in place, trimming any already-received
  // prefix.
  std::span<const std::uint8_t> fresh = s.payload.bytes().subspan(rcv_nxt_ - s.seq);
  rcv_nxt_ += static_cast<std::uint32_t>(fresh.size());
  stats_.bytes_delivered += fresh.size();
  if (callbacks_.on_data) callbacks_.on_data(fresh);

  // Drain now-contiguous buffered segments.
  auto it = out_of_order_.begin();
  for (; it != out_of_order_.end() && !seq_gt(it->seq, rcv_nxt_); ++it) {
    Seq end = it->seq + static_cast<std::uint32_t>(it->data.size());
    if (seq_gt(end, rcv_nxt_)) {
      std::span<const std::uint8_t> rest = std::span(it->data).subspan(rcv_nxt_ - it->seq);
      rcv_nxt_ = end;
      stats_.bytes_delivered += rest.size();
      if (callbacks_.on_data) callbacks_.on_data(rest);
    }
    out_of_order_bytes_ -= it->data.size();
  }
  drop_ooo(out_of_order_.begin(), it);
  if (out_of_order_.empty()) last_ooo_start_.reset();
  send_ack();
}

void TcpEndpoint::process_fin(const Segment& s) {
  Seq fin_at = s.seq + static_cast<std::uint32_t>(s.payload.size());
  if (fin_at != rcv_nxt_) {
    // FIN beyond a hole: the ACK we already sent covers it; wait for
    // retransmission.
    return;
  }
  if (remote_fin_seen_) {
    send_ack();  // retransmitted FIN
    return;
  }
  remote_fin_seen_ = true;
  rcv_nxt_ += 1;
  send_ack();
  switch (state_) {
    case TcpState::kEstablished:
      set_state(TcpState::kCloseWait);
      if (callbacks_.on_remote_close) callbacks_.on_remote_close();
      break;
    case TcpState::kFinWait1:
      // Our FIN not yet acked (else we would be in FIN_WAIT_2).
      set_state(TcpState::kClosing);
      break;
    case TcpState::kFinWait2:
      enter_time_wait();
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------- output

void TcpEndpoint::emit(std::uint8_t flags, Seq seq, std::span<const std::uint8_t> payload,
                       bool dsack, const SackBlock* dsack_block) {
  Segment s;
  s.src_port = config_.local_port;
  s.dst_port = config_.remote_port;
  s.seq = seq;
  s.flags = flags;
  s.dsack = dsack;
  if (flags & kTcpAck) s.ack = rcv_nxt_;
  if (flags & kTcpSyn) {
    s.sack_permitted = profile_->sack;  // RFC 2018 §2 negotiation
  } else if (sack_enabled_ && (flags & kTcpAck) && !(flags & kTcpRst)) {
    s.sack_blocks = receiver_sack_blocks(dsack_block);
    stats_.sack_blocks_sent += s.sack_blocks.size();
  }
  s.window = advertised_window();
  stats_.bytes_sent_wire += payload.size();
  s.payload = Payload(payload);

  sim::Packet p;
  p.dst = config_.remote_addr;
  p.protocol = sim::kProtoTcp;
  p.bytes = node_.scheduler().buffer_pool().acquire();
  serialize_into(s, p.bytes);
  ++stats_.segments_sent;
  SNAKE_TRACE << node_.name() << " tcp tx " << s.summary();
  node_.send_packet(std::move(p));
}

void TcpEndpoint::send_ack(bool dsack, const SackBlock* dsack_block) {
  if (dsack) ++stats_.dsack_acks_sent;
  emit(kTcpAck, snd_nxt_, {}, dsack, dsack_block);
}

void TcpEndpoint::emit_data(Seq seq, std::size_t offset, std::size_t len) {
  // PSH marks the end of an application write (real stacks do the same),
  // so bulk data is mostly plain ACK segments and PSH+ACK "occur[s] only
  // occasionally in the data stream" as the paper observes.
  const std::uint64_t start = acked_total_ + offset;
  const std::uint8_t flags = covers_push_point(start, start + len) ? (kTcpPsh | kTcpAck) : kTcpAck;
  emit(flags, seq, send_buf_.view(offset, len, straddle_scratch_));
}

template <typename F>
void TcpEndpoint::for_each_ooo_range(F&& f) const {
  std::optional<SackBlock> range;
  for (const OutOfOrderSegment& held : out_of_order_) {
    Seq end = held.seq + static_cast<std::uint32_t>(held.data.size());
    if (range.has_value() && seq_leq(held.seq, range->end)) {
      if (seq_gt(end, range->end)) range->end = end;
      continue;
    }
    if (range.has_value()) f(*range);
    range = SackBlock{held.seq, end};
  }
  if (range.has_value()) f(*range);
}

SackBlockList TcpEndpoint::receiver_sack_blocks(const SackBlock* dsack_block) const {
  SackBlockList blocks;
  if (dsack_block != nullptr) blocks.push_back(*dsack_block);
  // The range containing the most recent arrival goes first (RFC 2018 §4),
  // then the others in sequence order, up to the option's limit.
  std::optional<SackBlock> newest;
  if (last_ooo_start_.has_value()) {
    for_each_ooo_range([&](const SackBlock& r) {
      if (seq_leq(r.start, *last_ooo_start_) && seq_lt(*last_ooo_start_, r.end)) newest = r;
    });
  }
  if (newest.has_value()) blocks.push_back(*newest);
  for_each_ooo_range([&](const SackBlock& r) {
    if (blocks.size() < Segment::kMaxSackBlocks && !(newest.has_value() && r == *newest))
      blocks.push_back(r);
  });
  return blocks;
}

void TcpEndpoint::drop_ooo(std::vector<OutOfOrderSegment>::iterator first,
                           std::vector<OutOfOrderSegment>::iterator last) {
  for (auto it = first; it != last; ++it) queue_pool().release(std::move(it->data));
  out_of_order_.erase(first, last);
}

void TcpEndpoint::absorb_sack(const Segment& s, bool& saw_dsack, bool& advanced) {
  auto covered = [this] {
    std::uint64_t n = 0;
    for (const SackBlock& r : sacked_) n += static_cast<std::uint32_t>(r.end - r.start);
    return n;
  };
  std::uint64_t before = covered();
  std::uint32_t span = snd_max_ - snd_una_;
  for (const SackBlock& raw : s.sack_blocks) {
    ++stats_.sack_blocks_received;
    // A block at or below the cumulative ACK is a DSACK duplicate report.
    if (seq_leq(raw.end, s.ack)) {
      saw_dsack = true;
      continue;
    }
    Seq start = seq_lt(raw.start, snd_una_) ? snd_una_ : raw.start;
    std::uint32_t off_start = start - snd_una_;
    std::uint32_t off_end = raw.end - snd_una_;
    // Reject empty, inverted, or never-sent ranges: a receiver cannot have
    // seen data beyond snd_max_, so such blocks are forged (or stale) and
    // must not poison the scoreboard.
    if (off_end <= off_start || off_end > span) continue;
    Seq merge_start = start;
    Seq merge_end = raw.end;
    auto it = sacked_.begin();
    while (it != sacked_.end()) {
      if (seq_lt(it->end, merge_start)) {
        ++it;
        continue;
      }
      if (seq_gt(it->start, merge_end)) break;
      // Overlapping or adjacent: coalesce.
      if (seq_lt(it->start, merge_start)) merge_start = it->start;
      if (seq_gt(it->end, merge_end)) merge_end = it->end;
      it = sacked_.erase(it);
    }
    sacked_.insert(it, SackBlock{merge_start, merge_end});
  }
  advanced = covered() > before;
}

void TcpEndpoint::retransmit_next_hole() {
  if (send_buf_.empty()) return;
  Seq at = seq_lt(sack_retx_next_, snd_una_) ? snd_una_ : sack_retx_next_;
  Seq hole_end = snd_nxt_;
  for (const SackBlock& r : sacked_) {
    if (seq_leq(r.start, at) && seq_lt(at, r.end)) {
      at = r.end;  // inside a SACKed range: the hole starts after it
      hole_end = snd_nxt_;
      continue;
    }
    if (seq_gt(r.start, at)) {
      hole_end = r.start;
      break;
    }
  }
  if (seq_geq(at, snd_nxt_)) return;  // everything outstanding is SACKed
  std::uint32_t offset = at - snd_una_;
  if (offset >= send_buf_.size()) return;
  std::size_t len = std::min({config_.mss, static_cast<std::size_t>(hole_end - at),
                              send_buf_.size() - offset});
  if (len == 0) return;
  ++stats_.retransmissions;
  ++stats_.sack_retransmits;
  timed_seq_.reset();
  emit_data(at, offset, len);
  sack_retx_next_ = at + static_cast<std::uint32_t>(len);
}

void TcpEndpoint::send_rst(Seq seq, bool with_ack) {
  ++stats_.rsts_sent;
  emit(with_ack ? (kTcpRst | kTcpAck) : kTcpRst, seq);
}

bool TcpEndpoint::covers_push_point(std::uint64_t start_offset,
                                    std::uint64_t end_offset) const {
  for (std::uint64_t p : push_points_) {
    if (p > end_offset) break;  // sorted ascending
    if (p > start_offset) return true;
  }
  return false;
}

std::uint16_t TcpEndpoint::advertised_window() const {
  std::size_t free_bytes =
      config_.recv_buffer > out_of_order_bytes_ ? config_.recv_buffer - out_of_order_bytes_ : 0;
  return static_cast<std::uint16_t>(std::min<std::size_t>(free_bytes, 65535));
}

void TcpEndpoint::try_send() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1 && state_ != TcpState::kClosing)
    return;
  if (cc_.in_recovery()) return;  // conservative NewReno: retransmissions only
  std::size_t window = std::min<std::size_t>(cc_.cwnd(), snd_wnd_);
  while (unsent_bytes() > 0 && flight_bytes() < window) {
    std::size_t can_send = std::min({unsent_bytes(), config_.mss, window - flight_bytes()});
    if (can_send == 0) break;
    // Sender-side silly window avoidance (RFC 1122 §4.2.3.4 / Nagle): don't
    // shred the stream into tiny segments while data is outstanding — wait
    // for the window to open a full MSS or for everything to be acked.
    if (can_send < config_.mss && flight_bytes() > 0 && unsent_bytes() > can_send) break;
    start_rtt_sample(snd_nxt_ + static_cast<std::uint32_t>(can_send));
    emit_data(snd_nxt_, snd_nxt_ - snd_una_, can_send);
    snd_nxt_ += static_cast<std::uint32_t>(can_send);
    if (seq_gt(snd_nxt_, snd_max_)) snd_max_ = snd_nxt_;
  }
  arm_retransmit();
}

void TcpEndpoint::send_fin_if_ready() {
  if (!fin_pending_ || fin_sent_ || unsent_bytes() > 0) return;
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) return;
  fin_seq_ = snd_nxt_;
  emit(kTcpFin | kTcpAck, snd_nxt_);
  snd_nxt_ += 1;
  if (seq_gt(snd_nxt_, snd_max_)) snd_max_ = snd_nxt_;
  fin_sent_ = true;
  set_state(state_ == TcpState::kEstablished ? TcpState::kFinWait1 : TcpState::kLastAck);
  arm_retransmit();
}

// ------------------------------------------------------- timers & samples

void TcpEndpoint::arm_retransmit(bool restart) {
  bool outstanding = flight_bytes() > 0 || state_ == TcpState::kSynSent ||
                     state_ == TcpState::kSynRcvd ||
                     (unsent_bytes() > 0 && snd_wnd_ == 0);  // zero-window probe duty
  if (!outstanding) {
    retransmit_timer_.cancel();
    return;
  }
  TimePoint deadline = node_.scheduler().now() + rto_;
  if (retransmit_timer_.pending()) {
    if (!restart) return;
    // Lazy restart: pushing the deadline out just records it — the pending
    // event re-sleeps when it fires. Only an earlier deadline (an RTT sample
    // shrank rto_) forces a real cancel + reschedule.
    if (deadline >= rtx_fire_at_) {
      rtx_deadline_ = deadline;
      return;
    }
    retransmit_timer_.cancel();
  }
  rtx_deadline_ = deadline;
  rtx_fire_at_ = deadline;
  retransmit_timer_ = node_.scheduler().schedule_in(rto_, [this] { on_retransmit_timeout(); });
}

void TcpEndpoint::on_retransmit_timeout() {
  if (released_) return;
  TimePoint now = node_.scheduler().now();
  if (now < rtx_deadline_) {
    // The clock was lazily restarted since this event was scheduled: not a
    // timeout, just sleep the rest of the way to the logical deadline.
    rtx_fire_at_ = rtx_deadline_;
    retransmit_timer_ = node_.scheduler().schedule_in(rtx_deadline_ - now,
                                                      [this] { on_retransmit_timeout(); });
    return;
  }
  ++retries_;
  ++stats_.timeouts;
  rto_ = std::min(rto_ * 2, kMaxRto);  // backoff applies to everything below
  SNAKE_DEBUG << node_.scheduler().now().to_seconds() << "s " << node_.name() << " RTO #" << retries_ << " state=" << to_string(state_)
              << " una=" << snd_una_ << " nxt=" << snd_nxt_ << " rto=" << rto_.to_seconds();
  if (retries_ > profile_->max_retries) {
    // Give up — Linux's tcp_retries2 behaviour; this is what eventually
    // (after "13 to 30 minutes") releases a wedged CLOSE_WAIT socket.
    SNAKE_DEBUG << node_.name() << " tcp give-up after " << retries_ << " retries in state "
                << to_string(state_);
    reset_connection(true);
    return;
  }
  timed_seq_.reset();  // Karn: never sample a retransmitted segment
  switch (state_) {
    case TcpState::kSynSent:
      emit(kTcpSyn, iss_);
      break;
    case TcpState::kSynRcvd:
      emit(kTcpSyn | kTcpAck, iss_);
      break;
    default:
      if (flight_bytes() > 0 || (fin_sent_ && seq_leq(snd_una_, fin_seq_))) {
        // RFC 2018 §8: after an RTO the sender must assume the receiver
        // reneged — throw the scoreboard away and go-back-N.
        sacked_.clear();
        cc_.on_rto(flight_bytes());
        // Go-back-N: everything past snd_una is presumed lost; rewind and
        // let slow start resend it (what real stacks do by marking the
        // whole outstanding window lost on RTO).
        snd_nxt_ = snd_una_;
        if (fin_sent_) {
          fin_sent_ = false;
          fin_pending_ = true;
        }
        ++stats_.retransmissions;
        timed_seq_.reset();
        try_send();
        send_fin_if_ready();
      } else if (unsent_bytes() > 0 && snd_wnd_ == 0) {
        // Zero-window probe: one byte past the edge.
        const std::uint8_t probe = send_buf_[snd_nxt_ - snd_una_];
        emit(kTcpPsh | kTcpAck, snd_nxt_, std::span(&probe, 1));
        snd_nxt_ += 1;
        if (seq_gt(snd_nxt_, snd_max_)) snd_max_ = snd_nxt_;
      }
      break;
  }
  // Single re-arm point: the paths above may already have armed the timer
  // via try_send/send_fin_if_ready; restart so exactly one timer is live
  // (a second, orphaned handle could never be cancelled by later ACKs).
  arm_retransmit(/*restart=*/true);
}

void TcpEndpoint::retransmit_one() {
  std::size_t in_buf = send_buf_.size();
  if (in_buf > 0) {
    std::size_t len = std::min(config_.mss, in_buf);
    // With a scoreboard, the first hole ends where the first SACKed range
    // begins — no point retransmitting bytes the receiver already holds.
    if (sack_enabled_ && !sacked_.empty()) {
      std::uint32_t hole = sacked_.front().start - snd_una_;
      if (hole > 0) len = std::min<std::size_t>(len, hole);
    }
    ++stats_.retransmissions;
    timed_seq_.reset();
    last_retx_end_ = snd_una_ + static_cast<std::uint32_t>(len);
    if (sack_enabled_) sack_retx_next_ = last_retx_end_;
    emit_data(snd_una_, 0, len);
  } else if (fin_sent_ && seq_leq(snd_una_, fin_seq_)) {
    ++stats_.retransmissions;
    last_retx_end_ = fin_seq_ + 1;
    emit(kTcpFin | kTcpAck, fin_seq_);
  }
}

void TcpEndpoint::start_rtt_sample(Seq seq_end) {
  if (timed_seq_.has_value()) return;
  timed_seq_ = seq_end;
  timed_at_ = node_.scheduler().now();
}

void TcpEndpoint::take_rtt_sample(Seq acked_to) {
  if (!timed_seq_.has_value() || seq_lt(acked_to, *timed_seq_)) return;
  Duration sample = node_.scheduler().now() - timed_at_;
  timed_seq_.reset();
  if (!srtt_.has_value()) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    Duration diff = *srtt_ > sample ? *srtt_ - sample : sample - *srtt_;
    rttvar_ = (rttvar_ * 3 + diff) / 4;
    srtt_ = (*srtt_ * 7 + sample) / 8;
  }
  Duration candidate = *srtt_ + std::max(rttvar_ * 4, Duration::millis(10));
  rto_ = std::clamp(candidate, profile_->min_rto, kMaxRto);
}

void TcpEndpoint::enter_time_wait() {
  set_state(TcpState::kTimeWait);
  retransmit_timer_.cancel();
  // Lazy: expiry only releases the socket — no packet, nothing a detector
  // reads — so a deterministic early-exit may leave it unfired.
  time_wait_timer_ =
      node_.scheduler().schedule_lazy_in(config_.time_wait, [this] { release(); });
}

void TcpEndpoint::set_state(TcpState next) {
  if (state_ == next) return;
  SNAKE_TRACE << node_.name() << " tcp " << to_string(state_) << " -> " << to_string(next);
  state_ = next;
}

void TcpEndpoint::release() {
  if (released_) return;
  released_ = true;
  retransmit_timer_.cancel();
  time_wait_timer_.cancel();
  set_state(TcpState::kClosed);
  if (callbacks_.on_closed) callbacks_.on_closed();
  if (on_released_) on_released_();
}

void TcpEndpoint::reset_connection(bool notify) {
  retransmit_timer_.cancel();
  time_wait_timer_.cancel();
  set_state(TcpState::kClosed);
  if (notify && callbacks_.on_reset) callbacks_.on_reset();
  release();
}

void TcpEndpoint::release_queues() {
  send_buf_.release(queue_pool());
  drop_ooo(out_of_order_.begin(), out_of_order_.end());
}

void TcpEndpoint::snapshot_zombify() {
  release_queues();
  State::operator=(State(*profile_, config_, rng_));
  released_ = true;
}

}  // namespace snake::tcp
