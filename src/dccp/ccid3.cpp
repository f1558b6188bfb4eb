#include "dccp/ccid3.h"

#include <algorithm>
#include <cmath>

namespace snake::dccp {

Bytes Ccid3Feedback::encode() const {
  Bytes out;
  ByteWriter w(out);
  w.u32(inverse_p);
  w.u32(x_recv_bps);
  return out;
}

std::optional<Ccid3Feedback> Ccid3Feedback::decode(std::span<const std::uint8_t> payload) {
  if (payload.size() < 8) return std::nullopt;
  ByteReader r(payload.data(), payload.size());
  Ccid3Feedback f;
  f.inverse_p = r.u32();
  f.x_recv_bps = r.u32();
  return f;
}

// ---------------------------------------------------------------- receiver

void Ccid3Receiver::on_data(Seq48 seq, std::size_t bytes, TimePoint now) {
  bytes_since_feedback_ += bytes;
  if (!highest_seq_.has_value()) {
    highest_seq_ = seq;
    packets_since_loss_ = 1;
    return;
  }
  std::int64_t gap = seq_distance(seq, *highest_seq_);
  if (gap <= 0) return;  // duplicate or reordered; TFRC ignores
  if (gap > 1) record_loss_event(now);
  packets_since_loss_ += static_cast<std::uint64_t>(gap);
  highest_seq_ = seq;
}

void Ccid3Receiver::record_loss_event(TimePoint now) {
  // Losses within one RTT collapse into a single loss event (RFC 5348 §5.2).
  if (now - last_loss_event_ < loss_event_spacing_) return;
  last_loss_event_ = now;
  ++loss_events_;
  loss_intervals_.push_front(packets_since_loss_);
  if (loss_intervals_.size() > 8) loss_intervals_.pop_back();
  packets_since_loss_ = 0;
}

double Ccid3Receiver::loss_event_rate() const {
  if (loss_intervals_.empty()) return 0.0;
  // Weighted average of the last 8 loss intervals (RFC 5348 §5.4). The
  // average is computed both with and without the still-open interval
  // (packets received since the last loss) shifted in as the newest, and
  // the larger mean wins — without this, p can never decay once losses
  // stop and the rate stays pinned low forever.
  static constexpr double kWeights[8] = {1.0, 1.0, 1.0, 1.0, 0.8, 0.6, 0.4, 0.2};
  auto weighted_mean = [&](bool include_open) {
    double weighted = 0, total_weight = 0;
    std::size_t slot = 0;
    if (include_open) {
      weighted += kWeights[0] * static_cast<double>(packets_since_loss_);
      total_weight += kWeights[0];
      slot = 1;
    }
    for (std::size_t i = 0; i < loss_intervals_.size() && slot < 8; ++i, ++slot) {
      weighted += kWeights[slot] * static_cast<double>(loss_intervals_[i]);
      total_weight += kWeights[slot];
    }
    return weighted / total_weight;
  };
  double mean_interval = std::max(weighted_mean(false), weighted_mean(true));
  if (mean_interval < 1.0) mean_interval = 1.0;
  return 1.0 / mean_interval;
}

Ccid3Feedback Ccid3Receiver::make_feedback(TimePoint now) {
  Ccid3Feedback f;
  double p = loss_event_rate();
  f.inverse_p = p > 0 ? static_cast<std::uint32_t>(1.0 / p) : 0;
  double elapsed = (now - last_feedback_).to_seconds();
  if (elapsed > 1e-9) {
    f.x_recv_bps = static_cast<std::uint32_t>(
        std::min<double>(static_cast<double>(bytes_since_feedback_) / elapsed, 4e9));
  }
  last_feedback_ = now;
  bytes_since_feedback_ = 0;
  return f;
}

// ------------------------------------------------------------------ sender

Ccid3Sender::Ccid3Sender(std::size_t segment_bytes)
    : segment_bytes_(segment_bytes),
      // RFC 5348 initial rate: roughly 4 segments per (assumed) RTT.
      x_bps_(4.0 * static_cast<double>(segment_bytes) / 0.1) {}

Duration Ccid3Sender::send_interval() const {
  double interval = static_cast<double>(segment_bytes_) / std::max(x_bps_, kMinRateBps);
  return Duration::seconds(interval);
}

double Ccid3Sender::equation_bps(std::size_t segment_bytes, double rtt_seconds, double p) {
  // X = s / (R*sqrt(2bp/3) + t_RTO * (3*sqrt(3bp/8)) * p * (1 + 32 p^2)),
  // with b = 1 and t_RTO = 4R (RFC 5348 §3.1).
  double s = static_cast<double>(segment_bytes);
  double r = std::max(rtt_seconds, 1e-4);
  double root1 = std::sqrt(2.0 * p / 3.0);
  double root2 = std::sqrt(3.0 * p / 8.0);
  double denom = r * root1 + 4.0 * r * 3.0 * root2 * p * (1.0 + 32.0 * p * p);
  if (denom <= 0) return 1e12;
  return s / denom;
}

void Ccid3Sender::on_feedback(const Ccid3Feedback& feedback, TimePoint) {
  double x_recv = static_cast<double>(feedback.x_recv_bps);
  if (feedback.inverse_p == 0) {
    // No loss yet: slow-start-like doubling, bounded by twice the rate the
    // receiver actually absorbed.
    double cap = x_recv > 0 ? 2.0 * x_recv : x_bps_ * 2.0;
    x_bps_ = std::max(kMinRateBps, std::min(x_bps_ * 2.0, cap));
    return;
  }
  seen_loss_ = true;
  double p = 1.0 / static_cast<double>(feedback.inverse_p);
  double x_eq = equation_bps(segment_bytes_, rtt_.to_seconds(), p);
  // The receive-rate cap keeps at least one segment per RTT of headroom so
  // a sender parked at the floor can restart (RFC 5348's minimum-rate
  // provisions; without it X_recv ~ 0 traps the rate forever).
  double per_rtt = static_cast<double>(segment_bytes_) / std::max(rtt_.to_seconds(), 1e-3);
  double cap = std::max(2.0 * x_recv, per_rtt);
  x_bps_ = std::max(kMinRateBps, std::min(x_eq, cap));
}

void Ccid3Sender::on_no_feedback() {
  // Receiver gone quiet: halve the rate (down to the floor). Sustained
  // feedback starvation — e.g. the Acknowledgment Mung attack — walks the
  // sender down to its minimum rate.
  x_bps_ = std::max(kMinRateBps, x_bps_ / 2.0);
}

Duration Ccid3Sender::no_feedback_timeout() const {
  Duration four_rtt = rtt_ * 4;
  Duration two_packets = send_interval() * 2;
  return std::max(std::max(four_rtt, two_packets), Duration::millis(200));
}

}  // namespace snake::dccp
