// iperf-like measurement applications over DCCP — the paper's DCCP workload
// ("For DCCP testing, we used iperf to measure throughput ... we measured
// performance based on server goodput, or actual data received").
#pragma once

#include <cstdint>
#include <functional>

#include "dccp/stack.h"
#include "util/time.h"

namespace snake::apps {

/// Mutable DccpIperfSink state; its snapshot is a copy of this struct.
struct DccpIperfSinkState {
  std::uint64_t goodput_bytes_ = 0;
  std::uint64_t connections_accepted_ = 0;
};

/// Receives datagrams on `port` and counts goodput.
class DccpIperfSink : private DccpIperfSinkState {
 public:
  DccpIperfSink(dccp::DccpStack& stack, std::uint16_t port,
                dccp::DccpEndpointConfig accept_config = {});

  std::uint64_t goodput_bytes() const { return goodput_bytes_; }
  std::uint64_t connections_accepted() const { return connections_accepted_; }

  using State = DccpIperfSinkState;
  State capture() const { return *this; }
  void restore(const State& state) { State::operator=(state); }
};

/// Mutable DccpIperfSource state; its snapshot is a copy of this struct.
/// Options, stop time and the endpoint pointer are fixed at construction;
/// tick events live in the scheduler.
struct DccpIperfSourceState {
  bool established_ = false;
  bool reset_ = false;
  bool closed_ = false;
  std::uint64_t offered_ = 0;
};

/// Streams constant-rate datagrams for `duration`, then closes.
class DccpIperfSource : private DccpIperfSourceState {
 public:
  struct Options {
    double offer_rate_pps = 2000;
    std::size_t payload_bytes = 1000;
    Duration duration = Duration::seconds(20.0);
    std::size_t tx_queue_packets = 10;
    int ccid = 2;  ///< 2 = TCP-like, 3 = TFRC
  };

  DccpIperfSource(dccp::DccpStack& stack, sim::Address server, std::uint16_t port,
                  Options options);

  bool established() const { return established_; }
  bool reset() const { return reset_; }
  std::uint64_t datagrams_offered() const { return offered_; }
  dccp::DccpEndpoint& endpoint() { return *endpoint_; }

  using State = DccpIperfSourceState;
  State capture() const { return *this; }
  void restore(const State& state) { State::operator=(state); }

 private:
  void tick();

  dccp::DccpStack& stack_;
  Options options_;
  Bytes datagram_;  ///< every datagram's content: payload_bytes of 0x42
  dccp::DccpEndpoint* endpoint_ = nullptr;
  TimePoint stop_at_;
};

}  // namespace snake::apps
