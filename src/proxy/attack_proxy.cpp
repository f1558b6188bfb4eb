#include "proxy/attack_proxy.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/logging.h"

namespace snake::proxy {

using strategy::AttackAction;
using strategy::LieSpec;
using strategy::MatchMode;
using strategy::Strategy;
using strategy::TrafficDirection;

AttackProxy::AttackProxy(sim::Node& attach_node, const packet::Codec& codec,
                         const statemachine::StateMachine& machine, ProxyTargets targets,
                         snake::Rng rng)
    : AttackProxyState(rng, statemachine::ConnectionTracker(machine, targets.client_addr,
                                                           targets.server_addr,
                                                           attach_node.scheduler().now())),
      node_(attach_node),
      codec_(&codec),
      targets_(targets),
      src_port_field_(codec.format().compiled("src_port")),
      dst_port_field_(codec.format().compiled("dst_port")) {}

void AttackProxy::set_strategy(Strategy s) {
  std::vector<Strategy> one;
  one.push_back(std::move(s));
  set_strategies(std::move(one));
}

void AttackProxy::set_strategies(std::vector<Strategy> set) {
  for (auto& armed : strategies_) *armed->alive = false;
  strategies_.clear();
  for (Strategy& s : set) {
    strategies_.push_back(std::make_unique<Armed>());
    strategies_.back()->strat = std::move(s);
    arm(*strategies_.back());
  }
}

void AttackProxy::arm(Armed& armed) {
  const Strategy& s = armed.strat;
  // Resolve the per-packet match machinery once; on_packet then compares
  // integers and dereferences fixed offsets instead of comparing strings.
  if (s.packet_type == "*") {
    armed.match_type = kMatchAnyType;
  } else if (int ti = codec_->format().type_index(s.packet_type); ti >= 0) {
    armed.match_type = ti;
  } else if (s.packet_type == "unknown") {
    armed.match_type = -1;  // classify_index's unclassifiable result
  } else {
    armed.match_type = kMatchNever;
  }
  if (s.action == AttackAction::kLie && s.lie.has_value())
    armed.lie_field = codec_->format().compiled(s.lie->field);
  bool is_injection =
      s.action == AttackAction::kInject || s.action == AttackAction::kHitSeqWindow;
  if (is_injection && s.match_mode == MatchMode::kTimeWindow) {
    // Time-interval-based injections fire at their slot, not on a state.
    Duration delay = Duration::seconds(s.window_start_seconds) -
                     (node_.scheduler().now() - TimePoint::origin());
    if (delay < Duration::zero()) delay = Duration::zero();
    Armed* armed_ptr = &armed;  // stable: Armed lives in a unique_ptr
    armed.window_timer =
        node_.scheduler().schedule_in(delay, [this, armed_ptr, alive = armed.alive] {
          if (!*alive || armed_ptr->injection_fired) return;
          armed_ptr->injection_fired = true;
          fire_injection(*armed_ptr);
        });
    return;
  }
  maybe_fire_injections();  // target state may be an initial state (CLOSED/LISTEN)
}

sim::FilterVerdict AttackProxy::on_packet(sim::Packet& packet, sim::FilterDirection direction,
                                          sim::Injector&) {
  if (packet.protocol != targets_.protocol) return sim::FilterVerdict::kForward;
  ++stats_.intercepted;

  int type_index = codec_->classify_index(packet.bytes);
  const std::string& type = codec_->type_name(type_index);

  // Learn the proxied connection's client port from its first packet so
  // injections into the proxied connection can address it.
  if (!learned_client_port_.has_value() && direction == sim::FilterDirection::kEgress &&
      src_port_field_ != nullptr) {
    learned_client_port_ =
        static_cast<std::uint16_t>(codec_->get_fast(packet.bytes, *src_port_field_));
  }

  // The strategy targets the state the packet was sent *in*, so capture the
  // sender's inferred state before this packet's own transition is applied
  // (a reference would observe the post-transition value — must be a copy).
  std::uint64_t sender = direction == sim::FilterDirection::kEgress ? targets_.client_addr
                                                                    : targets_.server_addr;
  std::string sender_state = tracker_.state_of(sender);
  std::uint64_t ordinal = direction == sim::FilterDirection::kEgress ? egress_ordinal_++
                                                                     : ingress_ordinal_++;

  // Track state from the packets crossing the proxy (both endpoints).
  tracker_.observe_packet(packet.src, packet.dst, type, node_.scheduler().now());
  maybe_fire_injections();

  // Combined-strategy composition: every component gets a look, in order;
  // the first one that consumes the packet ends processing.
  bool any_matched = false;
  for (auto& armed : strategies_) {
    if (!matches(*armed, type_index, direction, sender_state, ordinal)) continue;
    if (!any_matched) {
      any_matched = true;
      ++stats_.matched;
    }
    if (apply(*armed, packet, direction) == sim::FilterVerdict::kConsume)
      return sim::FilterVerdict::kConsume;
  }
  return sim::FilterVerdict::kForward;
}

bool AttackProxy::matches(const Armed& armed, int type_index,
                          sim::FilterDirection direction, const std::string& sender_state,
                          std::uint64_t ordinal) const {
  const Strategy& s = armed.strat;
  switch (s.action) {
    case AttackAction::kInject:
    case AttackAction::kHitSeqWindow:
      return false;  // injections are fired by state entry / time, not per-packet
    default:
      break;
  }
  TrafficDirection want = s.direction;
  if (direction == sim::FilterDirection::kEgress &&
      want != TrafficDirection::kClientToServer)
    return false;
  if (direction == sim::FilterDirection::kIngress &&
      want != TrafficDirection::kServerToClient)
    return false;
  switch (s.match_mode) {
    case MatchMode::kStateBased:
      if (armed.match_type == kMatchNever) return false;
      if (armed.match_type != kMatchAnyType && armed.match_type != type_index) return false;
      return sender_state == s.target_state;
    case MatchMode::kPacketIndex:
      return ordinal == s.packet_index;
    case MatchMode::kTimeWindow: {
      double now = (node_.scheduler().now() - TimePoint::origin()).to_seconds();
      return now >= s.window_start_seconds &&
             now < s.window_start_seconds + s.window_length_seconds;
    }
  }
  return false;
}

sim::FilterVerdict AttackProxy::apply(Armed& armed, sim::Packet& packet,
                                      sim::FilterDirection direction) {
  const Strategy& s = armed.strat;
  switch (s.action) {
    case AttackAction::kDrop:
      if (rng_.chance(s.drop_probability / 100.0)) {
        ++stats_.dropped;
        return sim::FilterVerdict::kConsume;
      }
      return sim::FilterVerdict::kForward;

    case AttackAction::kDuplicate:
      for (int i = 0; i < s.duplicate_count; ++i) {
        sim::Packet copy = packet;
        copy.id = 0;  // re-stamped on injection
        node_.inject_packet(std::move(copy), direction);
        ++stats_.duplicates_created;
      }
      return sim::FilterVerdict::kForward;

    case AttackAction::kDelay: {
      ++stats_.delayed;
      sim::Packet held = std::move(packet);
      held.id = 0;
      node_.scheduler().schedule_in(
          Duration::seconds(s.delay_seconds),
          [this, held = std::move(held), direction]() mutable {
            node_.inject_packet(std::move(held), direction);
          });
      return sim::FilterVerdict::kConsume;
    }

    case AttackAction::kBatch: {
      ++stats_.batched;
      sim::Packet held = std::move(packet);
      held.id = 0;
      batch_.push_back(Held{std::move(held), direction});
      if (!batch_timer_.pending()) {
        batch_timer_ = node_.scheduler().schedule_in(Duration::seconds(s.delay_seconds),
                                                     [this] { release_batch(); });
      }
      return sim::FilterVerdict::kConsume;
    }

    case AttackAction::kReflect:
      ++stats_.reflected;
      reflect(packet, direction);
      return sim::FilterVerdict::kConsume;

    case AttackAction::kLie:
      apply_lie(armed, packet);
      return sim::FilterVerdict::kForward;

    case AttackAction::kInject:
    case AttackAction::kHitSeqWindow:
      return sim::FilterVerdict::kForward;  // unreachable; filtered in matches()
  }
  return sim::FilterVerdict::kForward;
}

void AttackProxy::apply_lie(const Armed& armed, sim::Packet& packet) {
  const LieSpec& lie = *armed.strat.lie;
  const packet::CompiledField* field = armed.lie_field;  // resolved at arm time
  if (field == nullptr) return;
  std::uint64_t current = codec_->get_fast(packet.bytes, *field);
  std::uint64_t next = current;
  switch (lie.mode) {
    case LieSpec::Mode::kSet: next = lie.operand; break;
    case LieSpec::Mode::kRandom: next = rng_.next_u64() & field->value_mask; break;
    case LieSpec::Mode::kAdd: next = current + lie.operand; break;
    case LieSpec::Mode::kSubtract: next = current - lie.operand; break;
    case LieSpec::Mode::kMultiply: next = current * lie.operand; break;
    case LieSpec::Mode::kDivide:
      next = lie.operand == 0 ? current : current / lie.operand;
      break;
  }
  codec_->set_fast(packet.bytes, *field, next);  // refreshes the checksum
  ++stats_.modified;
}

void AttackProxy::reflect(const sim::Packet& packet, sim::FilterDirection direction) {
  // Bounce the packet back at its originator, swapping addresses and ports
  // so it demuxes into the same connection — "sending an unexpected, but
  // potentially valid, packet" (the TCP Simultaneous Open attack shape).
  sim::Packet back;
  back.src = packet.dst;
  back.dst = packet.src;
  back.protocol = packet.protocol;
  back.bytes = packet.bytes;
  if (src_port_field_ != nullptr && dst_port_field_ != nullptr) {
    std::uint64_t sp = codec_->get_fast(back.bytes, *src_port_field_);
    std::uint64_t dp = codec_->get_fast(back.bytes, *dst_port_field_);
    codec_->set_fast(back.bytes, *src_port_field_, dp);
    codec_->set_fast(back.bytes, *dst_port_field_, sp);
  }
  // A packet reflected at the proxy heads back toward its sender: egress
  // packets return to the proxied client's stack, ingress ones to the wire.
  // The bounce goes through the scheduler with a small processing delay —
  // a zero-delay synchronous bounce can recurse without bound when the
  // victim answers every reflected packet (e.g. challenge-ACK ping-pong).
  sim::FilterDirection back_direction = direction == sim::FilterDirection::kEgress
                                            ? sim::FilterDirection::kIngress
                                            : sim::FilterDirection::kEgress;
  node_.scheduler().schedule_in(Duration::millis(1),
                                [this, back = std::move(back), back_direction]() mutable {
                                  node_.inject_packet(std::move(back), back_direction);
                                });
}

void AttackProxy::release_batch() {
  std::vector<Held> pending;
  pending.swap(batch_);
  for (Held& h : pending) node_.inject_packet(std::move(h.packet), h.direction);
}

void AttackProxy::maybe_fire_injections() {
  for (auto& armed : strategies_) {
    if (armed->injection_fired) continue;
    const Strategy& s = armed->strat;
    if (s.action != AttackAction::kInject && s.action != AttackAction::kHitSeqWindow)
      continue;
    if (!s.inject.has_value()) continue;
    if (s.match_mode != MatchMode::kStateBased) continue;  // time-window: timer-fired
    // The forged packet impersonates one endpoint toward the other; the
    // *receiving* endpoint's state is what the strategy targets.
    std::uint64_t watched = s.inject->spoof_toward_client ? targets_.client_addr
                                                          : targets_.server_addr;
    if (tracker_.state_of(watched) != s.target_state) continue;
    armed->injection_fired = true;
    fire_injection(*armed);
  }
}

void AttackProxy::fire_injection(Armed& armed) {
  const Strategy& s = armed.strat;
  const strategy::InjectSpec& spec = *s.inject;
  if (s.action == AttackAction::kInject) {
    inject_one(armed, 0);
    return;
  }
  // hitseqwindow: pace `count` forged packets sweeping the sequence space at
  // stride intervals.
  Duration spacing = Duration::seconds(1.0 / spec.pace_pps);
  Armed* armed_ptr = &armed;
  for (std::uint64_t i = 0; i < spec.count; ++i) {
    node_.scheduler().schedule_in(spacing * static_cast<std::int64_t>(i),
                                  [this, armed_ptr, i, alive = armed.alive] {
                                    if (*alive) inject_one(*armed_ptr, i);
                                  });
  }
}

void AttackProxy::inject_one(const Armed& armed, std::uint64_t sweep_index) {
  const strategy::InjectSpec& spec = *armed.strat.inject;
  std::map<std::string, std::uint64_t> fields = spec.fields;

  // Addressing: pick endpoints of the targeted connection.
  sim::Address src, dst;
  std::uint16_t src_port, dst_port;
  if (spec.target_competing) {
    if (spec.spoof_toward_client) {
      src = targets_.competing_server_addr;
      dst = targets_.competing_client_addr;
      src_port = targets_.competing_server_port;
      dst_port = targets_.competing_client_port_guess;
    } else {
      src = targets_.competing_client_addr;
      dst = targets_.competing_server_addr;
      src_port = targets_.competing_client_port_guess;
      dst_port = targets_.competing_server_port;
    }
  } else {
    std::uint16_t client_port = learned_client_port_.value_or(0);
    if (spec.spoof_toward_client) {
      src = targets_.server_addr;
      dst = targets_.client_addr;
      src_port = targets_.server_port;
      dst_port = client_port;
    } else {
      src = targets_.client_addr;
      dst = targets_.server_addr;
      src_port = client_port;
      dst_port = targets_.server_port;
    }
  }
  if (!fields.contains("src_port")) fields["src_port"] = src_port;
  if (!fields.contains("dst_port")) fields["dst_port"] = dst_port;
  if (armed.strat.action == AttackAction::kHitSeqWindow) {
    fields[spec.seq_field] = spec.seq_start + sweep_index * spec.seq_stride;
  }

  sim::Packet forged;
  forged.src = src;
  forged.dst = dst;
  forged.protocol = targets_.protocol;
  forged.bytes = codec_->build(spec.packet_type, fields);
  ++stats_.injected;
  // Forged server->client packets for the *proxied* connection go straight
  // up the local stack; everything else leaves toward the network.
  bool local_delivery = !spec.target_competing && spec.spoof_toward_client;
  node_.inject_packet(std::move(forged),
                      local_delivery ? sim::FilterDirection::kIngress
                                     : sim::FilterDirection::kEgress);
}

void AttackProxy::restore(const State& state) {
  State::operator=(state);
  // Leftovers from the previous forked run. Their timer handles refer to the
  // slot table being replaced, so detach rather than cancel (cancel could hit
  // a recycled slot that now names a live restored event).
  for (auto& armed : strategies_) *armed->alive = false;
  strategies_.clear();
  batch_.clear();
  batch_timer_ = sim::Timer();
}

void AttackProxy::export_metrics(obs::MetricsRegistry& registry) const {
  registry.counter("proxy.intercepted") += stats_.intercepted;
  registry.counter("proxy.matched") += stats_.matched;
  registry.counter("proxy.action.dropped") += stats_.dropped;
  registry.counter("proxy.action.duplicates_created") += stats_.duplicates_created;
  registry.counter("proxy.action.delayed") += stats_.delayed;
  registry.counter("proxy.action.batched") += stats_.batched;
  registry.counter("proxy.action.reflected") += stats_.reflected;
  registry.counter("proxy.action.modified") += stats_.modified;
  registry.counter("proxy.action.injected") += stats_.injected;
  registry.counter("tracker.client.transitions") += tracker_.client().transitions();
  registry.counter("tracker.client.unknown_packets") += tracker_.client().unknown_packets();
  registry.counter("tracker.server.transitions") += tracker_.server().transitions();
  registry.counter("tracker.server.unknown_packets") += tracker_.server().unknown_packets();
}

}  // namespace snake::proxy
