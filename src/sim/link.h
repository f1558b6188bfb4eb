// Point-to-point simulated link with bandwidth, propagation delay and a
// drop-tail queue — the building block of the dumbbell topology.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/time.h"

namespace snake::obs {
class MetricsRegistry;
}

namespace snake::sim {

class Node;

/// What to do when a packet arrives at a full queue.
enum class DropPolicy {
  kTail,    ///< drop the arriving packet (classic drop-tail)
  kRandom,  ///< drop a uniformly random packet among queued + arriving;
            ///< breaks the deterministic lockout/phase effects drop-tail
            ///< suffers in a jitter-free simulator (cf. RFC 2309 section 4)
};

const char* to_string(DropPolicy policy);

struct LinkConfig {
  double rate_bps = 100e6;                       ///< transmission rate
  Duration delay = Duration::millis(5);          ///< one-way propagation delay
  std::size_t queue_limit_packets = 100;         ///< queue capacity
  DropPolicy drop_policy = DropPolicy::kTail;
  std::uint64_t drop_rng_seed = 0x5eed;
  std::string name = "link";
};

/// Mutable per-run link state, copied whole by the snapshot layer and
/// replaced by a fresh one on reset(). The in-serialization packet is not
/// part of it: its bytes live inside the scheduler's transmission-complete
/// closure, which the scheduler snapshot clones.
struct LinkState {
  explicit LinkState(std::uint64_t drop_rng_seed) : drop_rng_(drop_rng_seed) {}

  snake::Rng drop_rng_;
  std::deque<Packet> queue_;
  bool busy_ = false;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::size_t queue_highwater_ = 0;
};

/// Unidirectional link. `send` enqueues the packet behind whatever is
/// currently serializing; a packet leaves the queue after its serialization
/// time and arrives at the sink after the propagation delay. Queue overflow
/// drops the packet (congestion signal for the transports under test).
class Link : private LinkState {
 public:
  Link(Scheduler& scheduler, LinkConfig config, std::function<void(Packet)> sink);

  void send(Packet packet);

  const LinkConfig& config() const { return config_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }
  /// Deepest the queue (including the packet in serialization) ever got.
  std::size_t queue_highwater() const { return queue_highwater_; }

  /// Dumps link counters into the registry as "link.<name>.*" (packets
  /// forwarded/dropped, bytes, queue high-watermark).
  void export_metrics(obs::MetricsRegistry& registry) const;

  /// Rewinds to a just-constructed state for scenario-arena reuse: queued
  /// buffers recycled, then a fresh State.
  void reset();

  using State = LinkState;
  State capture() const { return *this; }
  void restore(const State& state) { State::operator=(state); }

 private:
  void start_transmission(Packet packet);
  void transmission_complete();
  Duration serialization_time(const Packet& packet) const;

  Scheduler& scheduler_;
  LinkConfig config_;
  std::function<void(Packet)> sink_;
};

}  // namespace snake::sim
