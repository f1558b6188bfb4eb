// Point-to-point simulated link with bandwidth, propagation delay and a
// drop-tail queue — the building block of the dumbbell topology.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/fifo.h"
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
/// replaced by a fresh one on reset(). Every accepted, undelivered packet —
/// waiting, serializing or propagating — lives in `line_`, so a capture
/// holds the link's whole traffic; the scheduler only holds the front's
/// arrival event, whose closure captures the link alone. `line_` is a Fifo:
/// a packet's hop costs no allocation, and reset() and restore() reuse its
/// storage.
struct LinkState {
  /// An accepted packet with the virtual time it starts (or started)
  /// serializing and its serialization time.
  struct InFlight {
    Packet packet;
    TimePoint start;
    Duration tx;
  };

  explicit LinkState(std::uint64_t drop_rng_seed) : drop_rng_(drop_rng_seed) {}

  snake::Rng drop_rng_;
  Fifo<InFlight> line_;  ///< departure order; only the front's arrival is scheduled
  TimePoint busy_until_ = TimePoint::origin();  ///< when the transmitter frees up
  /// Leading entries of `line_` already counted in packets_sent_/bytes_sent_
  /// (a cursor: each packet passes it once, when it is seen to have started).
  std::size_t started_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::size_t queue_highwater_ = 0;
};

/// Unidirectional link. `send` computes a packet's departure at enqueue: it
/// starts serializing at max(now, busy_until) and arrives at the sink after
/// its serialization time plus the propagation delay, one event per packet.
/// A packet counts as queued while its start lies in the future; one whose
/// start equals now has left the queue. Queue overflow drops a packet
/// (congestion signal for the transports under test).
class Link : private LinkState {
 public:
  Link(Scheduler& scheduler, LinkConfig config, std::function<void(Packet)> sink);

  void send(Packet packet);

  const LinkConfig& config() const { return config_; }
  /// Packets (bytes) that have started serializing.
  std::uint64_t packets_sent() const;
  std::uint64_t packets_dropped() const { return packets_dropped_; }
  std::uint64_t bytes_sent() const;
  /// Queued packets plus the one serializing, if any.
  std::size_t queue_depth() const;
  /// Deepest the queue (including the packet in serialization) ever got.
  std::size_t queue_highwater() const { return queue_highwater_; }

  /// Dumps link counters into the registry as "link.<name>.*" (packets
  /// forwarded/dropped, bytes, queue high-watermark).
  void export_metrics(obs::MetricsRegistry& registry) const;

  /// Rewinds to a just-constructed state for scenario-arena reuse: buffers
  /// of undelivered packets recycled, then a fresh State that keeps the
  /// line's storage.
  void reset();

  using State = LinkState;
  State capture() const { return *this; }
  void restore(const State& state) { State::operator=(state); }

 private:
  /// Index of the first packet of `line_` still waiting at `now`.
  std::size_t first_waiting(TimePoint now) const;
  /// Moves the started_ cursor past every packet started by `now`,
  /// counting each one as sent.
  void count_started(TimePoint now);
  void append(Packet packet, TimePoint now);
  void evict(std::size_t index);
  void schedule_front();
  void deliver_front();
  Duration serialization_time(const Packet& packet) const;

  Scheduler& scheduler_;
  LinkConfig config_;
  std::function<void(Packet)> sink_;
};

}  // namespace snake::sim
