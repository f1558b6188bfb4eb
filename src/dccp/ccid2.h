// CCID 2: TCP-like congestion control for DCCP (RFC 4341).
//
// The window is counted in packets. Real CCID 2 learns exactly which packets
// arrived from Ack Vector options; our flat header carries only the
// cumulative "greatest sequence received", so the sender reconstructs the
// equivalent information from its send records: a record is deemed lost once
// kDupThreshold later packets have been acknowledged past it (the same
// NUMDUPACK=3 spacing RFC 4341 §5 uses). This preserves the dynamics all
// three DCCP attacks rely on: halving on a lost window, retreat to one
// packet per (backed-off) RTO when acknowledgments stop arriving or are
// invalidated, and fair AIMD competition otherwise.
#pragma once

#include <cstdint>
#include <optional>

#include "dccp/seq48.h"
#include "util/fifo.h"
#include "util/time.h"

namespace snake::dccp {

class Ccid2 {
 public:
  explicit Ccid2(std::uint32_t initial_window_packets = 3);

  /// May another packet be sent now?
  bool can_send() const { return pipe_ < cwnd_; }

  /// Records a data packet emission.
  void on_data_sent(Seq48 seq, TimePoint now);

  /// Processes an acknowledgment with ackno = peer's greatest seq received.
  /// Returns the number of send records newly detected as lost.
  int on_ack(Seq48 ackno, TimePoint now);

  /// RTT sample from the most recent exactly-acknowledged record, if the
  /// last on_ack produced one.
  std::optional<Duration> take_rtt_sample();

  /// Retransmission-timeout analogue: everything outstanding is written off
  /// and the window collapses to one packet (RFC 4341 §5.1).
  void on_timeout();

  std::uint32_t cwnd() const { return cwnd_; }
  std::uint32_t ssthresh() const { return ssthresh_; }
  std::uint32_t pipe() const { return pipe_; }
  bool has_outstanding() const { return !outstanding_.empty(); }
  std::uint64_t total_losses() const { return total_losses_; }

  static constexpr int kDupThreshold = 3;

 private:
  void count_ack_growth();
  void on_loss(TimePoint now);

  struct Record {
    Seq48 seq;
    TimePoint sent_at;
    int acked_above = 0;  ///< acknowledgments seen for later packets
  };

  Fifo<Record> outstanding_;  ///< in send order
  std::uint32_t cwnd_;
  std::uint32_t ssthresh_;
  std::uint32_t pipe_ = 0;
  std::uint32_t acks_in_avoidance_ = 0;
  TimePoint last_cut_ = TimePoint::origin();
  Duration cut_spacing_ = Duration::millis(100);  ///< ~1 RTT guard per halving
  std::uint64_t total_losses_ = 0;
  std::optional<Duration> rtt_sample_;
};

}  // namespace snake::dccp
