#include "dccp/ccid2.h"

#include <algorithm>
#include <limits>

namespace snake::dccp {

Ccid2::Ccid2(std::uint32_t initial_window_packets)
    : cwnd_(initial_window_packets),
      ssthresh_(std::numeric_limits<std::uint32_t>::max() / 2) {}

void Ccid2::on_data_sent(Seq48 seq, TimePoint now) {
  outstanding_.push_back(Record{seq, now, 0});
  ++pipe_;
}

void Ccid2::count_ack_growth() {
  if (cwnd_ < ssthresh_) {
    ++cwnd_;  // slow start: one packet per acked packet
  } else {
    // Congestion avoidance: one packet per window of acks.
    if (++acks_in_avoidance_ >= cwnd_) {
      acks_in_avoidance_ = 0;
      ++cwnd_;
    }
  }
}

void Ccid2::on_loss(TimePoint now) {
  ++total_losses_;
  if (now - last_cut_ < cut_spacing_) return;  // at most one halving per RTT
  last_cut_ = now;
  cwnd_ = std::max<std::uint32_t>(cwnd_ / 2, 1);
  ssthresh_ = cwnd_;
}

int Ccid2::on_ack(Seq48 ackno, TimePoint now) {
  int losses = 0;
  outstanding_.erase_if([&](Record& r) {
    if (seq48_gt(r.seq, ackno)) return false;
    if (r.seq == ackno) {
      // Definitely received.
      if (pipe_ > 0) --pipe_;
      count_ack_growth();
      rtt_sample_ = now - r.sent_at;
      return true;
    }
    // Older than the cumulative ack: another packet overtook it.
    if (++r.acked_above >= kDupThreshold) {
      if (pipe_ > 0) --pipe_;
      on_loss(now);
      ++losses;
      return true;
    }
    return false;
  });
  return losses;
}

std::optional<Duration> Ccid2::take_rtt_sample() {
  std::optional<Duration> out = rtt_sample_;
  rtt_sample_.reset();
  return out;
}

void Ccid2::on_timeout() {
  total_losses_ += outstanding_.size();
  outstanding_.clear();
  ssthresh_ = std::max<std::uint32_t>(pipe_ / 2, 2);
  pipe_ = 0;
  cwnd_ = 1;
  acks_in_avoidance_ = 0;
}

}  // namespace snake::dccp
