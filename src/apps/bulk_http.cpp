#include "apps/bulk_http.h"

#include <array>
#include <cstring>
#include <memory>

namespace snake::apps {

namespace {

// The response byte at absolute offset q is (q * 31) & 0xFF, which has
// period 256. A doubled table lets any 256-byte window starting at q % 256
// be copied in one memcpy instead of a byte-at-a-time multiply loop (this
// fill was ~20% of a campaign profile).
constexpr std::size_t kPatternPeriod = 256;

const std::uint8_t* pattern_table() {
  static const std::array<std::uint8_t, 2 * kPatternPeriod> table = [] {
    std::array<std::uint8_t, 2 * kPatternPeriod> t{};
    for (std::size_t k = 0; k < t.size(); ++k)
      t[k] = static_cast<std::uint8_t>(k * 31);
    return t;
  }();
  return table.data();
}

void fill_response_pattern(Bytes& chunk, std::uint64_t offset) {
  const std::uint8_t* table = pattern_table();
  std::size_t i = 0;
  while (i < chunk.size()) {
    std::size_t phase = static_cast<std::size_t>((offset + i) % kPatternPeriod);
    std::size_t run = std::min(chunk.size() - i, kPatternPeriod);
    std::memcpy(chunk.data() + i, table + phase, run);
    i += run;
  }
}

}  // namespace

BulkHttpServer::BulkHttpServer(tcp::TcpStack& stack, std::uint16_t port,
                               std::uint64_t response_bytes)
    : stack_(stack), response_bytes_(response_bytes) {
  stack_.listen(port, [this](tcp::TcpEndpoint& ep) {
    std::shared_ptr<PerConnection> state = conns_.add();
    tcp::TcpCallbacks cb;
    cb.on_established = [this, &ep, state] { pump(&ep, state); };
    cb.on_remote_close = [&ep] { ep.close(); };
    return cb;
  });
}

void BulkHttpServer::pump(tcp::TcpEndpoint* endpoint, std::shared_ptr<PerConnection> state) {
  if (state->closed || endpoint->released()) return;
  // Top the send buffer up to one chunk; stop once the full response has
  // been handed over, then close like an HTTP/1.0 server would.
  while (state->queued < response_bytes_ && endpoint->send_queue_bytes() < kChunk) {
    if (!endpoint->accepts_data()) {
      // Every further chunk would be dropped: count the response as handed
      // over without filling up to a gigabyte of pattern to get there.
      state->queued = response_bytes_;
      break;
    }
    std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, response_bytes_ - state->queued));
    chunk_scratch_.resize(n);
    fill_response_pattern(chunk_scratch_, state->queued);
    endpoint->send(chunk_scratch_);
    state->queued += n;
  }
  if (state->queued >= response_bytes_ && endpoint->send_queue_bytes() == 0) {
    state->closed = true;
    endpoint->close();
    return;
  }
  stack_.node().scheduler().schedule_in(kPumpInterval,
                                        [this, endpoint, state] { pump(endpoint, state); });
}

BulkHttpClient::BulkHttpClient(tcp::TcpStack& stack, sim::Address server, std::uint16_t port,
                               std::optional<Duration> exit_after) {
  tcp::TcpCallbacks cb;
  cb.on_established = [this] { established_ = true; };
  cb.on_data = [this](std::span<const std::uint8_t> chunk) { bytes_received_ += chunk.size(); };
  cb.on_reset = [this] { reset_ = true; };
  cb.on_remote_close = [this] {
    if (endpoint_ != nullptr) endpoint_->close();  // download complete
  };
  endpoint_ = &stack.connect(server, port, std::move(cb));
  if (exit_after.has_value()) {
    stack.node().scheduler().schedule_in(*exit_after, [this] {
      if (!endpoint_->released()) endpoint_->app_exit();
    });
  }
}

}  // namespace snake::apps
