#include "apps/iperf_dccp.h"

namespace snake::apps {

DccpIperfSink::DccpIperfSink(dccp::DccpStack& stack, std::uint16_t port,
                             dccp::DccpEndpointConfig accept_config) {
  stack.listen(
      port,
      [this](dccp::DccpEndpoint&) {
        ++connections_accepted_;
        dccp::DccpCallbacks cb;
        cb.on_data = [this](std::span<const std::uint8_t> d) { goodput_bytes_ += d.size(); };
        return cb;
      },
      accept_config);
}

DccpIperfSource::DccpIperfSource(dccp::DccpStack& stack, sim::Address server,
                                 std::uint16_t port, Options options)
    : stack_(stack), options_(options), datagram_(options_.payload_bytes, 0x42) {
  stop_at_ = stack.node().scheduler().now() + options_.duration;
  dccp::DccpCallbacks cb;
  cb.on_established = [this] { established_ = true; };
  cb.on_reset = [this] { reset_ = true; };
  dccp::DccpEndpointConfig config;
  config.tx_queue_packets = options_.tx_queue_packets;
  config.ccid = options_.ccid;
  config.ccid3_segment_bytes = options_.payload_bytes + 24;
  endpoint_ = &stack.connect(server, port, std::move(cb), config);
  tick();
}

void DccpIperfSource::tick() {
  if (endpoint_->released()) return;
  auto& sched = stack_.node().scheduler();
  if (sched.now() >= stop_at_) {
    if (!closed_) {
      closed_ = true;
      endpoint_->close();  // waits for the transmit queue to drain
    }
    return;
  }
  ++offered_;
  endpoint_->send(datagram_);
  sched.schedule_in(Duration::seconds(1.0 / options_.offer_rate_pps), [this] { tick(); });
}

}  // namespace snake::apps
