#include "apps/trace_replay.h"

#include <algorithm>

namespace snake::apps {

namespace {

/// Writes stream bytes [offset, offset + n) as one application write, built
/// in `scratch`. Replay payload byte q is (q * 131 + 7) & 0xFF: a different
/// multiplier than the bulk-download pattern so a mixed-up stream shows up
/// in hexdumps.
void send_burst(tcp::TcpEndpoint& endpoint, Bytes& scratch, std::uint64_t offset,
                std::uint64_t n) {
  scratch.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < scratch.size(); ++i)
    scratch[i] = static_cast<std::uint8_t>((offset + i) * 131 + 7);
  endpoint.send(scratch);
}

/// Delay from now until trace instant `at_s` (clamped: bursts whose recorded
/// time already passed — e.g. a handshake delayed by an attack — fire
/// immediately, preserving the flow's total byte count).
Duration until(const sim::Scheduler& scheduler, TimePoint epoch, double at_s) {
  TimePoint target = epoch + Duration::seconds(at_s);
  TimePoint now = scheduler.now();
  return target > now ? target - now : Duration::zero();
}

}  // namespace

// --------------------------------------------------------- TraceReplayServer

TraceReplayServer::TraceReplayServer(tcp::TcpStack& stack, std::uint16_t port,
                                     std::shared_ptr<const trace::ReplayPlan> plan)
    : stack_(stack), plan_(std::move(plan)), epoch_(stack.node().scheduler().now()) {
  stack_.listen(port, [this](tcp::TcpEndpoint& ep) {
    const std::size_t index = conns_.size();
    std::shared_ptr<PerConnection> state = conns_.add();
    if (index < plan_->flows.size()) state->flow = &plan_->flows[index];
    tcp::TcpCallbacks cb;
    cb.on_established = [this, &ep, state] { play_flow(&ep, state); };
    cb.on_remote_close = [&ep] { ep.close(); };
    return cb;
  });
}

void TraceReplayServer::play_flow(tcp::TcpEndpoint* endpoint,
                                  std::shared_ptr<PerConnection> state) {
  if (state->flow == nullptr) return;
  sim::Scheduler& scheduler = stack_.node().scheduler();
  // One timer per burst, at the burst's absolute trace instant. Offsets are
  // prefix sums, fixed by the plan — no mutable per-burst state, so a
  // restored snapshot replays the identical bytes.
  std::uint64_t offset = 0;
  for (const trace::FlowTransfer& t : state->flow->transfers) {
    if (t.server_bytes == 0) continue;
    const std::uint64_t burst_offset = offset;
    const std::uint64_t n = t.server_bytes;
    scheduler.schedule_in(until(scheduler, epoch_, t.at_s), [this, endpoint, burst_offset, n] {
      if (endpoint->released()) return;
      send_burst(*endpoint, burst_scratch_, burst_offset, n);
    });
    offset += n;
  }
}

// --------------------------------------------------------- TraceReplayClient

TraceReplayClient::TraceReplayClient(tcp::TcpStack& stack, sim::Address server,
                                     std::uint16_t port,
                                     std::shared_ptr<const trace::ReplayPlan> plan,
                                     std::optional<Duration> exit_after)
    : stack_(stack),
      server_(server),
      port_(port),
      plan_(std::move(plan)),
      epoch_(stack.node().scheduler().now()) {
  sim::Scheduler& scheduler = stack_.node().scheduler();
  for (std::size_t i = 0; i < plan_->flows.size(); ++i) {
    flows_.add();
    scheduler.schedule_in(until(scheduler, epoch_, plan_->flows[i].open_at_s),
                          [this, i] { open_flow(i); });
  }
  if (exit_after.has_value()) {
    scheduler.schedule_in(*exit_after, [this] {
      exited_ = true;
      for (const auto& flow : flows_)
        if (flow->endpoint != nullptr && !flow->endpoint->released())
          flow->endpoint->app_exit();
    });
  }
}

void TraceReplayClient::open_flow(std::size_t index) {
  if (exited_) return;
  const trace::FlowSchedule& schedule = plan_->flows[index];
  std::shared_ptr<PerFlow> state = flows_[index];
  sim::Scheduler& scheduler = stack_.node().scheduler();

  tcp::TcpCallbacks cb;
  cb.on_established = [this, index, state] {
    state->established = true;
    sim::Scheduler& scheduler = stack_.node().scheduler();
    // Client bursts are scheduled at establish time so a delayed handshake
    // pushes them to "now" instead of silently dropping them.
    const trace::FlowSchedule& flow = plan_->flows[index];
    std::uint64_t offset = 0;
    for (const trace::FlowTransfer& t : flow.transfers) {
      if (t.client_bytes == 0) continue;
      const std::uint64_t burst_offset = offset;
      const std::uint64_t n = t.client_bytes;
      scheduler.schedule_in(until(scheduler, epoch_, t.at_s), [this, state, burst_offset, n] {
        if (exited_ || state->endpoint == nullptr || state->endpoint->released()) return;
        send_burst(*state->endpoint, burst_scratch_, burst_offset, n);
      });
      offset += n;
    }
  };
  cb.on_data = [state](std::span<const std::uint8_t> chunk) {
    state->bytes_received += chunk.size();
  };
  cb.on_reset = [state] { state->reset = true; };
  cb.on_remote_close = [state] {
    if (state->endpoint != nullptr && !state->endpoint->released()) state->endpoint->close();
  };
  state->endpoint = &stack_.connect(server_, port_, std::move(cb));
  state->opened = true;

  if (schedule.close_at_s.has_value()) {
    scheduler.schedule_in(until(scheduler, epoch_, *schedule.close_at_s), [this, state] {
      state->closed = true;
      if (exited_ || state->endpoint == nullptr || state->endpoint->released()) return;
      state->endpoint->close();
    });
  }
}

std::uint64_t TraceReplayClient::bytes_received() const {
  std::uint64_t total = 0;
  for (const auto& flow : flows_) total += flow->bytes_received;
  return total;
}

std::uint64_t TraceReplayClient::flows_opened() const {
  std::uint64_t n = 0;
  for (const auto& flow : flows_) n += flow->opened ? 1 : 0;
  return n;
}

std::uint64_t TraceReplayClient::flows_established() const {
  std::uint64_t n = 0;
  for (const auto& flow : flows_) n += flow->established ? 1 : 0;
  return n;
}

std::uint64_t TraceReplayClient::flows_reset() const {
  std::uint64_t n = 0;
  for (const auto& flow : flows_) n += flow->reset ? 1 : 0;
  return n;
}

}  // namespace snake::apps
