// The attack proxy: SNAKE's malicious-action engine.
//
// Attached as the PacketFilter of the proxied (malicious) client node, it
// sees every packet that node sends or receives — the reproduction of the
// paper's interception inside NS-3's tap-bridge. For each packet of the
// target protocol it:
//   1. classifies the packet type via the header-format codec,
//   2. feeds the state machine tracker to maintain both endpoints' inferred
//      protocol states,
//   3. applies the installed strategy's basic attack when the packet's type
//      and its sender's state match.
// Off-path strategies (inject / hitseqwindow) instead fire when the tracked
// endpoint enters the strategy's target state, forging packets into either
// the proxied connection or the competing connection (Figure 1(b)). Since
// the proxy cannot observe the competing connection, the proxied
// connection's state serves as the timing proxy — the two connections start
// simultaneously in every scenario, mirroring the paper's "guess the
// connection initiation time" requirement for off-path attackers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "packet/codec.h"
#include "sim/filter.h"
#include "sim/node.h"
#include "statemachine/tracker.h"
#include "strategy/strategy.h"
#include "util/rng.h"

namespace snake::obs {
class MetricsRegistry;
}

namespace snake::proxy {

/// Addresses and ports of the two connections in the test topology.
struct ProxyTargets {
  std::uint8_t protocol = 0;  ///< sim protocol number to intercept

  sim::Address client_addr = 0;  ///< the proxied (malicious) client
  sim::Address server_addr = 0;
  std::uint16_t server_port = 0;

  sim::Address competing_client_addr = 0;
  sim::Address competing_server_addr = 0;
  std::uint16_t competing_server_port = 0;
  /// The competing client's ephemeral port — an off-path attacker has to
  /// guess this; our stacks allocate deterministically, making the guess
  /// reliable (the paper's attacks assume the same).
  std::uint16_t competing_client_port_guess = 0;
};

struct ProxyStats {
  std::uint64_t intercepted = 0;  ///< target-protocol packets seen
  std::uint64_t matched = 0;      ///< packets a strategy applied to
  std::uint64_t dropped = 0;
  std::uint64_t duplicates_created = 0;
  std::uint64_t delayed = 0;
  std::uint64_t batched = 0;
  std::uint64_t reflected = 0;
  std::uint64_t modified = 0;
  std::uint64_t injected = 0;
};

/// The proxy's mutable per-run state, copied whole by the snapshot layer.
/// The strategy and batch machinery is not part of it: a snapshot is taken
/// on an unarmed proxy, and restore() detaches whatever the previous forked
/// run left armed.
struct AttackProxyState {
  AttackProxyState(snake::Rng rng, statemachine::ConnectionTracker tracker)
      : rng_(rng), tracker_(std::move(tracker)) {}

  snake::Rng rng_;
  statemachine::ConnectionTracker tracker_;
  /// Target-connection client port, learned from the first observed packet.
  std::optional<std::uint16_t> learned_client_port_;
  /// Per-direction ordinals of target-protocol packets, for the
  /// send-packet-based baseline matching mode.
  std::uint64_t egress_ordinal_ = 0;
  std::uint64_t ingress_ordinal_ = 0;
  ProxyStats stats_;
};

class AttackProxy : public sim::PacketFilter, private AttackProxyState {
 public:
  AttackProxy(sim::Node& attach_node, const packet::Codec& codec,
              const statemachine::StateMachine& machine, ProxyTargets targets, snake::Rng rng);

  /// Installs the strategy under test (one per run, as in the paper's
  /// executor). Also checks whether an off-path strategy triggers on the
  /// initial state (e.g. CLOSED) immediately.
  void set_strategy(strategy::Strategy s);

  /// Installs a *combined* strategy: several basic attacks active at once —
  /// the paper's future-work extension ("more complex attack strategies
  /// that combine the basic attacks ... into strategies consisting of
  /// sequences of actions"). Composition semantics: each packet is matched
  /// against every component in order; non-consuming actions (lie,
  /// duplicate) stack, and the first consuming action (drop, delay, batch,
  /// reflect) ends processing. Injection components fire independently.
  void set_strategies(std::vector<strategy::Strategy> set);

  void clear_strategy() { strategies_.clear(); }

  // sim::PacketFilter:
  sim::FilterVerdict on_packet(sim::Packet& packet, sim::FilterDirection direction,
                               sim::Injector& injector) override;

  const ProxyStats& stats() const { return stats_; }
  const statemachine::ConnectionTracker& tracker() const { return tracker_; }
  statemachine::ConnectionTracker& tracker() { return tracker_; }

  /// Restore rewinds to a capture and detaches any strategy/batch machinery
  /// left over from the previous forked run without cancelling — the timer
  /// handles it holds refer to the pre-restore slot table.
  using State = AttackProxyState;
  State capture() const { return *this; }
  void restore(const State& state);

  /// Dumps per-basic-attack action counts ("proxy.*") and state-tracker
  /// counters ("tracker.*") into the registry.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  struct Armed {
    strategy::Strategy strat;
    bool injection_fired = false;
    sim::Timer window_timer;
    /// Compiled packet-type match, resolved once at arm time: kMatchAnyType
    /// for "*", kMatchNever for names the format doesn't know, otherwise a
    /// packet_types() index (-1 matches unclassifiable packets).
    int match_type = kMatchNever;
    /// Compiled accessor for the lie target field; nullptr when the strategy
    /// is not a lie or names an unknown field.
    const packet::CompiledField* lie_field = nullptr;
    /// Invalidated when the strategy set is replaced, so injection events
    /// already in the scheduler become no-ops instead of dangling.
    std::shared_ptr<bool> alive = std::make_shared<bool>(true);
  };

  static constexpr int kMatchAnyType = -2;
  static constexpr int kMatchNever = -3;

  bool matches(const Armed& armed, int type_index, sim::FilterDirection direction,
               const std::string& sender_state, std::uint64_t ordinal) const;
  sim::FilterVerdict apply(Armed& armed, sim::Packet& packet, sim::FilterDirection direction);
  void apply_lie(const Armed& armed, sim::Packet& packet);
  void reflect(const sim::Packet& packet, sim::FilterDirection direction);
  void release_batch();
  void arm(Armed& armed);
  void maybe_fire_injections();
  void fire_injection(Armed& armed);
  void inject_one(const Armed& armed, std::uint64_t sweep_index);

  sim::Node& node_;
  const packet::Codec* codec_;
  ProxyTargets targets_;
  /// Port accessors resolved once at construction for the per-packet
  /// learn/reflect paths; nullptr when the format has no such field.
  const packet::CompiledField* src_port_field_ = nullptr;
  const packet::CompiledField* dst_port_field_ = nullptr;
  std::vector<std::unique_ptr<Armed>> strategies_;

  struct Held {
    sim::Packet packet;
    sim::FilterDirection direction;
  };
  std::vector<Held> batch_;
  sim::Timer batch_timer_;
};

}  // namespace snake::proxy
