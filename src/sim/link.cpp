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
  const TimePoint now = scheduler_.now();
  count_started(now);
  const std::size_t waiting = line_.size() - started_;
  if (busy_until_ > now && waiting >= config_.queue_limit_packets) {
    ++packets_dropped_;
    if (config_.drop_policy == DropPolicy::kRandom && waiting > 0) {
      // Evict a random victim among queued + arriving; if the victim is a
      // queued packet, the arrival takes its slot. A queued packet is never
      // the front of the line (something is serializing ahead of it), so
      // the one scheduled arrival stays as it is.
      std::size_t victim = static_cast<std::size_t>(drop_rng_.uniform(0, waiting));
      if (victim < waiting) {
        SNAKE_TRACE << config_.name << ": queue full, evicting queued packet id="
                    << line_[started_ + victim].packet.id;
        evict(started_ + victim);
        append(std::move(packet), now);
        return;
      }
    }
    SNAKE_TRACE << config_.name << ": queue full, dropping packet id=" << packet.id;
    scheduler_.buffer_pool().release(std::move(packet.bytes));
    return;
  }
  // Depth after the append: the waiting packets, the new one and the one
  // serializing ahead of it — or, on an idle link, just the new one.
  const bool idle = busy_until_ <= now;
  append(std::move(packet), now);
  queue_highwater_ = std::max(queue_highwater_, idle ? std::size_t{1} : waiting + 2);
}

std::size_t Link::first_waiting(TimePoint now) const {
  std::size_t i = started_;
  while (i < line_.size() && line_[i].start <= now) ++i;
  return i;
}

void Link::count_started(TimePoint now) {
  for (const std::size_t end = first_waiting(now); started_ < end; ++started_) {
    ++packets_sent_;
    bytes_sent_ += line_[started_].packet.wire_size();
  }
}

void Link::append(Packet packet, TimePoint now) {
  const Duration tx = serialization_time(packet);
  const TimePoint start = std::max(now, busy_until_);
  busy_until_ = start + tx;
  line_.push_back(InFlight{std::move(packet), start, tx});
  if (line_.size() == 1) schedule_front();
}

void Link::evict(std::size_t index) {
  const Duration tx = line_[index].tx;
  for (std::size_t i = index + 1; i < line_.size(); ++i) line_[i].start = line_[i].start - tx;
  busy_until_ = busy_until_ - tx;
  scheduler_.buffer_pool().release(std::move(line_[index].packet.bytes));
  line_.erase(index);
}

void Link::schedule_front() {
  const InFlight& front = line_.front();
  scheduler_.schedule_at(front.start + front.tx + config_.delay, [this] { deliver_front(); });
}

void Link::deliver_front() {
  if (started_ == 0) count_started(scheduler_.now());  // counts the front, at least
  Packet packet = std::move(line_.front().packet);
  line_.pop_front();
  --started_;
  if (!line_.empty()) schedule_front();
  sink_(std::move(packet));
}

std::uint64_t Link::packets_sent() const {
  return packets_sent_ + (first_waiting(scheduler_.now()) - started_);
}

std::uint64_t Link::bytes_sent() const {
  std::uint64_t bytes = bytes_sent_;
  for (std::size_t i = started_, end = first_waiting(scheduler_.now()); i < end; ++i)
    bytes += line_[i].packet.wire_size();
  return bytes;
}

std::size_t Link::queue_depth() const {
  const TimePoint now = scheduler_.now();
  return (line_.size() - first_waiting(now)) + (busy_until_ > now ? 1 : 0);
}

void Link::reset() {
  for (InFlight& entry : line_) scheduler_.buffer_pool().release(std::move(entry.packet.bytes));
  line_.clear();
  State fresh(config_.drop_rng_seed);
  fresh.line_ = std::move(line_);
  State::operator=(std::move(fresh));
}

void Link::export_metrics(obs::MetricsRegistry& registry) const {
  const std::string prefix = "link." + config_.name + ".";
  registry.counter(prefix + "packets_forwarded") += packets_sent();
  registry.counter(prefix + "packets_dropped") += packets_dropped_;
  registry.counter(prefix + "bytes_forwarded") += bytes_sent();
  registry.gauge_max(prefix + "queue_highwater", static_cast<double>(queue_highwater_));
}

Duration Link::serialization_time(const Packet& packet) const {
  double bits = static_cast<double>(packet.wire_size()) * 8.0;
  return Duration::seconds(bits / config_.rate_bps);
}

}  // namespace snake::sim
