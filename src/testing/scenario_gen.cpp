#include "testing/scenario_gen.h"

#include <algorithm>

#include "testing/property.h"

#include "packet/dccp_format.h"
#include "packet/tcp_format.h"
#include "statemachine/protocol_specs.h"
#include "util/rng.h"
#include "util/strings.h"

namespace snake::testing {

namespace {

template <typename T>
const T& pick(snake::Rng& rng, const std::vector<T>& options) {
  return options[rng.uniform(0, options.size() - 1)];
}

/// Field names worth lying about / injecting into, with a value sampler that
/// covers the interesting boundaries of each width.
std::uint64_t sample_field_value(snake::Rng& rng, std::uint64_t max_value) {
  switch (rng.uniform(0, 4)) {
    case 0: return 0;
    case 1: return max_value;
    case 2: return max_value / 2;                  // the half-circle boundary
    case 3: return rng.uniform(0, max_value);      // anywhere
    default: return rng.uniform(0, std::min<std::uint64_t>(max_value, 1 << 16));
  }
}

strategy::Strategy random_attack(snake::Rng& rng, const packet::HeaderFormat& format,
                                 const statemachine::StateMachine& machine,
                                 std::uint64_t sequence_space) {
  using strategy::AttackAction;
  strategy::Strategy s;
  s.id = rng.next_u64();
  s.direction = rng.chance(0.5) ? strategy::TrafficDirection::kClientToServer
                                : strategy::TrafficDirection::kServerToClient;
  s.target_state = pick(rng, machine.states());
  if (rng.chance(0.3)) {
    s.packet_type.assign(1, '*');
  } else {
    std::vector<std::string> types;
    for (const auto& t : format.packet_types()) types.push_back(t.name);
    s.packet_type = pick(rng, types);
  }
  switch (rng.uniform(0, 6)) {
    case 0:
      s.action = AttackAction::kDrop;
      s.drop_probability = pick(rng, std::vector<double>{25.0, 50.0, 100.0});
      break;
    case 1:
      s.action = AttackAction::kDuplicate;
      s.duplicate_count = static_cast<int>(rng.uniform(1, 10));
      break;
    case 2:
      s.action = AttackAction::kDelay;
      s.delay_seconds = pick(rng, std::vector<double>{0.05, 0.2, 1.0});
      break;
    case 3:
      s.action = AttackAction::kBatch;
      s.delay_seconds = pick(rng, std::vector<double>{0.5, 2.0});
      break;
    case 4: {
      s.action = AttackAction::kLie;
      strategy::LieSpec lie;
      std::vector<std::string> fields;
      for (const auto& f : format.fields())
        if (f.kind != packet::FieldKind::kChecksum) fields.push_back(f.name);
      lie.field = pick(rng, fields);
      lie.mode = static_cast<strategy::LieSpec::Mode>(rng.uniform(0, 5));
      lie.operand = sample_field_value(rng, format.field_or_throw(lie.field).max_value());
      s.lie = lie;
      break;
    }
    case 5: {
      // Malformed / forged packet: random type, random (possibly nonsense)
      // field values — the codec must build it and the stacks must survive it.
      s.action = AttackAction::kInject;
      strategy::InjectSpec inject;
      std::vector<std::string> types;
      for (const auto& t : format.packet_types()) types.push_back(t.name);
      inject.packet_type = pick(rng, types);
      for (const auto& f : format.fields())
        if (rng.chance(0.3) && f.kind != packet::FieldKind::kChecksum)
          inject.fields[f.name] = sample_field_value(rng, f.max_value());
      inject.spoof_toward_client = rng.chance(0.5);
      inject.target_competing = rng.chance(0.5);
      s.inject = inject;
      break;
    }
    default: {
      s.action = AttackAction::kHitSeqWindow;
      strategy::InjectSpec inject;
      inject.packet_type = format.packet_types().front().name;
      inject.seq_start = rng.uniform(0, sequence_space - 1);
      inject.seq_stride = 65535;
      inject.count = rng.uniform(1, 64);  // bounded sweep: property runs are short
      inject.spoof_toward_client = rng.chance(0.5);
      inject.target_competing = rng.chance(0.5);
      s.inject = inject;
      break;
    }
  }
  return s;
}

}  // namespace

GeneratedScenario generate_scenario(std::uint64_t seed, core::Protocol protocol) {
  snake::Rng rng(seed);
  GeneratedScenario out;
  out.gen_seed = seed;
  core::ScenarioConfig& c = out.config;
  c.protocol = protocol;
  c.seed = rng.next_u64();

  // Topology: bottleneck rate/delay/queue from realistic spreads.
  c.topology.bottleneck_rate_bps = pick(rng, std::vector<double>{2e6, 5e6, 10e6, 20e6});
  c.topology.bottleneck_delay =
      Duration::millis(static_cast<std::int64_t>(rng.uniform(2, 25)));
  c.topology.bottleneck_queue_packets = rng.uniform(10, 80);

  // Workload: short runs (the property suite replays many of these), with
  // the app-exit knob swept so teardown states are reachable.
  c.test_duration = Duration::seconds(2.0 + 0.5 * static_cast<double>(rng.uniform(0, 6)));
  c.client1_exit_fraction = 0.3 + 0.1 * static_cast<double>(rng.uniform(0, 6));
  if (protocol == core::Protocol::kDccp) {
    c.dccp_ccid = rng.chance(0.5) ? 2 : 3;
    c.dccp_offer_rate_pps = static_cast<double>(rng.uniform(500, 3000));
    c.dccp_data_fraction = c.client1_exit_fraction;
  } else {
    c.tcp_profile = tcp::all_tcp_profiles()[rng.uniform(0, 3)];
  }

  // A pathological script must abort, not hang the suite.
  c.event_budget = 3'000'000;

  const packet::HeaderFormat& format = protocol == core::Protocol::kTcp
                                           ? packet::tcp_format()
                                           : packet::dccp_format();
  const statemachine::StateMachine& machine = protocol == core::Protocol::kTcp
                                                  ? statemachine::tcp_state_machine()
                                                  : statemachine::dccp_state_machine();
  std::uint64_t space = protocol == core::Protocol::kTcp ? (1ULL << 32) : (1ULL << 48);
  std::uint64_t steps = rng.uniform(0, 4);
  for (std::uint64_t i = 0; i < steps; ++i)
    out.attacks.push_back(random_attack(rng, format, machine, space));
  return out;
}

std::vector<strategy::Strategy> simplify_attack(const strategy::Strategy& attack) {
  using strategy::AttackAction;
  std::vector<strategy::Strategy> variants;
  auto with = [&](auto&& mutate) {
    strategy::Strategy v = attack;
    mutate(v);
    variants.push_back(std::move(v));
  };
  if (attack.packet_type != "*")
    with([](strategy::Strategy& v) { v.packet_type.assign(1, '*'); });
  switch (attack.action) {
    case AttackAction::kDuplicate:
      if (attack.duplicate_count > 1)
        with([&](strategy::Strategy& v) { v.duplicate_count = 1; });
      break;
    case AttackAction::kDrop:
      if (attack.drop_probability < 100.0)
        with([](strategy::Strategy& v) { v.drop_probability = 100.0; });
      break;
    case AttackAction::kDelay:
    case AttackAction::kBatch:
      if (attack.delay_seconds > 0.05)
        with([](strategy::Strategy& v) { v.delay_seconds = 0.05; });
      break;
    case AttackAction::kLie:
      if (attack.lie.has_value() && attack.lie->operand != 0 &&
          attack.lie->mode != strategy::LieSpec::Mode::kRandom)
        with([](strategy::Strategy& v) { v.lie->operand = 0; });
      break;
    case AttackAction::kInject:
      if (attack.inject.has_value() && !attack.inject->fields.empty())
        with([](strategy::Strategy& v) { v.inject->fields.clear(); });
      break;
    case AttackAction::kHitSeqWindow:
      if (attack.inject.has_value() && attack.inject->count > 1)
        with([](strategy::Strategy& v) { v.inject->count = 1; });
      break;
    default:
      break;
  }
  return variants;
}

GeneratedScenario shrink_scenario(
    const GeneratedScenario& failing,
    const std::function<bool(const GeneratedScenario&)>& still_fails) {
  GeneratedScenario best = failing;
  // Minimize the attack script first — it is usually where the bug lives.
  best.attacks = shrink_sequence(
      best.attacks,
      [&](const std::vector<strategy::Strategy>& candidate) {
        GeneratedScenario trial = best;
        trial.attacks = candidate;
        return still_fails(trial);
      },
      [](const strategy::Strategy& step) { return simplify_attack(step); });
  // Then walk the configuration back toward defaults, one knob at a time.
  auto try_config = [&](auto&& mutate) {
    GeneratedScenario trial = best;
    mutate(trial.config);
    if (still_fails(trial)) best = std::move(trial);
  };
  try_config([](core::ScenarioConfig& c) { c.topology = sim::DumbbellConfig{}; });
  try_config([](core::ScenarioConfig& c) { c.test_duration = Duration::seconds(2.0); });
  try_config([](core::ScenarioConfig& c) { c.client1_exit_fraction = 0.6; });
  return best;
}

std::string describe(const GeneratedScenario& scenario) {
  const core::ScenarioConfig& c = scenario.config;
  std::string out = "// ---- property-suite reproducer (paste into a test) ----\n";
  out += str_format("// generator seed %llu\n", (unsigned long long)scenario.gen_seed);
  out += "core::ScenarioConfig config;\n";
  out += str_format("config.protocol = core::Protocol::%s;\n",
                    c.protocol == core::Protocol::kTcp ? "kTcp" : "kDccp");
  if (c.protocol == core::Protocol::kTcp)
    out += str_format("config.tcp_profile = tcp::tcp_profile_by_name(\"%s\");\n",
                      c.tcp_profile.name.c_str());
  else
    out += str_format("config.dccp_ccid = %d;\n", c.dccp_ccid);
  out += str_format("config.seed = %lluULL;\n", (unsigned long long)c.seed);
  out += str_format("config.test_duration = Duration::seconds(%.3f);\n",
                    c.test_duration.to_seconds());
  out += str_format("config.client1_exit_fraction = %.3f;\n", c.client1_exit_fraction);
  out += str_format("config.topology.bottleneck_rate_bps = %.0f;\n",
                    c.topology.bottleneck_rate_bps);
  out += str_format("config.topology.bottleneck_delay = Duration::millis(%lld);\n",
                    (long long)(c.topology.bottleneck_delay.to_seconds() * 1000.0 + 0.5));
  out += str_format("config.topology.bottleneck_queue_packets = %zu;\n",
                    c.topology.bottleneck_queue_packets);
  out += str_format("config.event_budget = %llu;\n", (unsigned long long)c.event_budget);
  out += "std::vector<strategy::Strategy> attacks;\n";
  for (std::size_t i = 0; i < scenario.attacks.size(); ++i)
    out += str_format("// step %zu: %s\n", i, scenario.attacks[i].describe().c_str());
  out += str_format("// canonical keys preserve exact parameters:\n");
  for (const strategy::Strategy& s : scenario.attacks)
    out += str_format("//   %s\n", strategy::canonical_key(s).c_str());
  out += "// run: run_scenario(config, attacks) and re-check the violated oracle\n";
  return out;
}

}  // namespace snake::testing
