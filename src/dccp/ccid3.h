// CCID 3: TCP-Friendly Rate Control for DCCP (RFC 4342 / RFC 5348).
//
// The paper notes both standardized CCIDs — "CCID 2, TCP-like Congestion
// Control, and CCID 3, TCP-Friendly Rate Control (TFRC). We focus on CCID 2
// in this work." — and tests only CCID 2. This implementation extends the
// substrate with CCID 3 so the same attack campaigns can be pointed at a
// rate-based congestion control (see bench_ablation_ccid).
//
// TFRC in brief: the *receiver* measures the loss-event rate p (loss events
// are seq gaps, at most one event per RTT, averaged over the last 8 loss
// intervals with decaying weights) and its receive rate X_recv, and feeds
// both back about once per RTT. The *sender* paces packets at rate
//   X = min( X_eq(p, R), 2 * X_recv )
// where X_eq is the TCP throughput equation; with no loss yet it doubles per
// feedback (slow start). A "no feedback" timer halves the rate when the
// receiver goes silent — which is exactly the lever the Acknowledgment Mung
// attack pulls.
//
// Simplifications (documented): feedback rides as an 8-byte payload on
// DCCP-Ack packets (real DCCP uses options); the receiver emits feedback on
// a fixed timer supplied by the endpoint rather than from a sender-echoed
// RTT estimate.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "dccp/seq48.h"
#include "util/bytes.h"
#include "util/time.h"

namespace snake::dccp {

/// Feedback report, wire-encoded into 8 bytes (inverse loss-event rate and
/// receive rate).
struct Ccid3Feedback {
  std::uint32_t inverse_p = 0;  ///< 1/p, 0 = no loss observed yet
  std::uint32_t x_recv_bps = 0;

  Bytes encode() const;
  static std::optional<Ccid3Feedback> decode(std::span<const std::uint8_t> payload);
};

/// Receiver half: loss-interval tracking and feedback generation.
class Ccid3Receiver {
 public:
  /// Records an in-order-or-not data packet arrival.
  void on_data(Seq48 seq, std::size_t bytes, TimePoint now);

  /// Builds the periodic feedback report (call on the feedback timer).
  Ccid3Feedback make_feedback(TimePoint now);

  /// True when data arrived since the last report — a receiver only sends
  /// feedback for intervals that actually carried data (zero-byte reports
  /// would collapse the sender's X_recv cap and trap it at the floor).
  bool has_new_data() const { return bytes_since_feedback_ > 0; }

  double loss_event_rate() const;
  std::uint64_t loss_events() const { return loss_events_; }

 private:
  void record_loss_event(TimePoint now);

  std::optional<Seq48> highest_seq_;
  std::uint64_t packets_since_loss_ = 0;
  std::deque<std::uint64_t> loss_intervals_;  ///< most recent first, max 8
  TimePoint last_loss_event_ = TimePoint::origin() - Duration::seconds(10.0);
  Duration loss_event_spacing_ = Duration::millis(50);  ///< ~1 RTT guard

  std::uint64_t bytes_since_feedback_ = 0;
  TimePoint last_feedback_ = TimePoint::origin();
  std::uint64_t loss_events_ = 0;
};

/// Sender half: the throughput equation and rate pacing.
class Ccid3Sender {
 public:
  explicit Ccid3Sender(std::size_t segment_bytes);

  /// Inter-packet gap at the current allowed rate.
  Duration send_interval() const;

  void on_feedback(const Ccid3Feedback& feedback, TimePoint now);

  /// No-feedback timer expiry: halve the rate (RFC 5348 §4.4).
  void on_no_feedback();

  /// Round-trip estimate used by the equation (endpoint-supplied).
  void set_rtt(Duration rtt) { rtt_ = rtt; }

  double rate_bps() const { return x_bps_; }
  Duration no_feedback_timeout() const;

  /// The TCP throughput equation X_eq in bytes/s (exposed for tests).
  static double equation_bps(std::size_t segment_bytes, double rtt_seconds, double p);

 private:
  std::size_t segment_bytes_;
  double x_bps_;
  Duration rtt_ = Duration::millis(100);
  bool seen_loss_ = false;
  static constexpr double kMinRateBps = 200.0;  ///< ~ one small packet / few s
};

}  // namespace snake::dccp
