#include "sim/link.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace snake::sim {

const char* to_string(DropPolicy policy) {
  return policy == DropPolicy::kTail ? "tail" : "random";
}

Link::Link(Scheduler& scheduler, LinkConfig config, std::function<void(Packet)> sink)
    : LinkState(config.drop_rng_seed),
      scheduler_(scheduler),
      config_(std::move(config)),
      sink_(std::move(sink)) {}

void Link::send(Packet packet) {
  if (busy_) {
    if (queue_.size() >= config_.queue_limit_packets) {
      ++packets_dropped_;
      if (config_.drop_policy == DropPolicy::kRandom && !queue_.empty()) {
        // Evict a random victim among queued + arriving; if the victim is a
        // queued packet, the arrival takes its slot.
        std::size_t victim = static_cast<std::size_t>(drop_rng_.uniform(0, queue_.size()));
        if (victim < queue_.size()) {
          SNAKE_TRACE << config_.name << ": queue full, evicting queued packet id="
                      << queue_[victim].id;
          scheduler_.buffer_pool().release(std::move(queue_[victim].bytes));
          queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(victim));
          queue_.push_back(std::move(packet));
          return;
        }
      }
      SNAKE_TRACE << config_.name << ": queue full, dropping packet id=" << packet.id;
      scheduler_.buffer_pool().release(std::move(packet.bytes));
      return;
    }
    queue_.push_back(std::move(packet));
    queue_highwater_ = std::max(queue_highwater_, queue_depth());
    return;
  }
  start_transmission(std::move(packet));
}

void Link::start_transmission(Packet packet) {
  busy_ = true;
  queue_highwater_ = std::max(queue_highwater_, queue_depth());
  Duration tx = serialization_time(packet);
  ++packets_sent_;
  bytes_sent_ += packet.wire_size();
  // Arrival = serialization + propagation. Completion of serialization frees
  // the transmitter for the next queued packet.
  scheduler_.schedule_in(tx + config_.delay,
                         [this, p = std::move(packet)]() mutable { sink_(std::move(p)); });
  scheduler_.schedule_in(tx, [this] { transmission_complete(); });
}

void Link::transmission_complete() {
  busy_ = false;
  if (!queue_.empty()) {
    Packet next = std::move(queue_.front());
    queue_.pop_front();
    start_transmission(std::move(next));
  }
}

void Link::reset() {
  for (Packet& queued : queue_) scheduler_.buffer_pool().release(std::move(queued.bytes));
  State::operator=(State(config_.drop_rng_seed));
}

void Link::export_metrics(obs::MetricsRegistry& registry) const {
  const std::string prefix = "link." + config_.name + ".";
  registry.counter(prefix + "packets_forwarded") += packets_sent_;
  registry.counter(prefix + "packets_dropped") += packets_dropped_;
  registry.counter(prefix + "bytes_forwarded") += bytes_sent_;
  registry.gauge_max(prefix + "queue_highwater", static_cast<double>(queue_highwater_));
}

Duration Link::serialization_time(const Packet& packet) const {
  double bits = static_cast<double>(packet.wire_size()) * 8.0;
  return Duration::seconds(bits / config_.rate_bps);
}

}  // namespace snake::sim
