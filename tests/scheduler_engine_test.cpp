// Differential suite for the scheduler's timer-wheel ready queue and the
// links built on it.
//
// The wheel must shadow a reference model kept here in the test: a plain
// vector of pending events popped by linear scan for the smallest
// (time, seq). For any script of schedule / cancel / run operations both
// fire the same events in the same order with the same clock and counters
// (scheduler.h, "Event engine" in DESIGN.md), including after a snapshot
// restore. sim::Link, which schedules one event per packet per hop, must
// likewise shadow the two-event link it replaced, kept here as its
// reference. On top of these, whole campaigns must be byte-identical
// between snapshot-forked and from-zero trial execution, and the
// deterministic early-exit cut must never change what a trial measures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "sim/link.h"
#include "sim/scheduler.h"
#include "snake/arena.h"
#include "snake/controller.h"
#include "snake/trial_runner.h"
#include "strategy/generator.h"
#include "tcp/profile.h"
#include "testing/property.h"
#include "util/rng.h"

namespace snake {
namespace {

using sim::Scheduler;
using sim::Timer;

// ---------------------------------------------------------------------------
// Scheduler-level properties: random scripts replayed against the wheel and
// the reference model.

/// One scripted operation, interpreted identically by the wheel and the
/// reference model.
struct Op {
  enum Kind : std::uint8_t { kSchedule, kScheduleLazy, kCancel, kRunUntil, kRunEvents };
  Kind kind = kSchedule;
  std::int64_t delta_ns = 0;  ///< schedule offset (may be negative) / run horizon
  std::uint64_t pick = 0;     ///< cancel target selector / run_events count
};

std::vector<Op> make_script(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Op op;
    const std::uint64_t roll = rng.uniform(0, 99);
    if (roll < 40) {
      op.kind = Op::kSchedule;
      // Two magnitude bands so offsets land on every wheel level: same-tick
      // and L0 neighbours, then L1/L2 territory. Shifting down 2ms makes a
      // slice of them past-time (exercises the clamp into the ready run).
      const std::uint64_t mag =
          rng.uniform(0, 1) == 0 ? rng.uniform(0, 60'000) : rng.uniform(0, 80'000'000);
      op.delta_ns = static_cast<std::int64_t>(mag) - 2'000'000;
    } else if (roll < 50) {
      op.kind = Op::kScheduleLazy;
      op.delta_ns = static_cast<std::int64_t>(rng.uniform(0, 50'000'000));
    } else if (roll < 65) {
      op.kind = Op::kCancel;
      op.pick = rng.next_u64();
    } else if (roll < 90) {
      op.kind = Op::kRunUntil;
      op.delta_ns = static_cast<std::int64_t>(rng.uniform(0, 20'000'000));
    } else {
      op.kind = Op::kRunEvents;
      op.pick = rng.uniform(1, 6);
    }
    ops.push_back(op);
  }
  return ops;
}

/// The wheel's world: a scheduler plus the log its callbacks append to.
/// Callbacks capture `this`, so every Env lives behind a unique_ptr (stable
/// address) for its whole lifetime.
struct Env {
  Scheduler sched;
  std::vector<std::uint64_t> fired;
  std::vector<Timer> timers;
  std::uint64_t next_id = 1;

  void apply(const Op& op) {
    switch (op.kind) {
      case Op::kSchedule: {
        const std::uint64_t id = next_id++;
        timers.push_back(sched.schedule_at(
            TimePoint::from_ns(sched.now().ns() + op.delta_ns),
            [this, id] { fired.push_back(id); }));
        break;
      }
      case Op::kScheduleLazy: {
        // Bit 63 tags lazy ids so quiescence properties can filter the log.
        const std::uint64_t id = next_id++ | (std::uint64_t{1} << 63);
        timers.push_back(sched.schedule_lazy_in(Duration::nanos(op.delta_ns),
                                                [this, id] { fired.push_back(id); }));
        break;
      }
      case Op::kCancel:
        if (!timers.empty()) timers[op.pick % timers.size()].cancel();
        break;
      case Op::kRunUntil:
        sched.run_until(sched.now() + Duration::nanos(op.delta_ns));
        break;
      case Op::kRunEvents:
        sched.run_events(op.pick);
        break;
    }
  }

  std::string digest() const {
    std::ostringstream os;
    os << sched.now().ns() << '/' << sched.events_executed() << '/'
       << sched.events_cancelled() << '/' << sched.empty();
    return os.str();
  }
};

/// The reference the wheel must shadow: every pending event in one vector,
/// the earliest (at, seq) found by linear scan. Obviously correct and O(n)
/// per pop, which is plenty for scripts of a few hundred events. It mirrors
/// Scheduler's contract: past times clamp to now, cancelled events still pop
/// (counted, not fired), run_until advances the clock to its horizon unless
/// the horizon is TimePoint::max(), and run_events stops on the last popped
/// event's time. A value copy is a snapshot.
struct Reference {
  struct Event {
    std::int64_t at = 0;
    std::uint64_t seq = 0;
    std::uint64_t id = 0;
    bool cancelled = false;
  };
  std::vector<Event> pending;
  std::vector<std::uint64_t> fired;
  std::vector<std::uint64_t> timers;  ///< seq of each scheduled event, in schedule order
  std::int64_t now = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t next_id = 1;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;

  void schedule(std::int64_t at, std::uint64_t id) {
    timers.push_back(next_seq);
    pending.push_back(Event{std::max(at, now), next_seq++, id, false});
  }

  void cancel(std::uint64_t seq) {
    for (Event& e : pending)
      if (e.seq == seq) e.cancelled = true;
  }

  /// Pops the earliest event if it is due by `until`; false otherwise.
  bool pop(std::int64_t until) {
    if (pending.empty()) return false;
    auto first = std::min_element(pending.begin(), pending.end(),
                                  [](const Event& a, const Event& b) {
                                    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
                                  });
    if (first->at > until) return false;
    const Event e = *first;
    pending.erase(first);
    now = e.at;
    if (e.cancelled) {
      ++cancelled;
    } else {
      ++executed;
      fired.push_back(e.id);
    }
    return true;
  }

  void run_until(std::int64_t until) {
    while (pop(until)) {
    }
    if (now < until) now = until;
  }

  void run_all() {
    while (pop(std::numeric_limits<std::int64_t>::max())) {
    }
  }

  void apply(const Op& op) {
    switch (op.kind) {
      case Op::kSchedule:
        schedule(now + op.delta_ns, next_id++);
        break;
      case Op::kScheduleLazy:
        schedule(now + op.delta_ns, next_id++ | (std::uint64_t{1} << 63));
        break;
      case Op::kCancel:
        if (!timers.empty()) cancel(timers[op.pick % timers.size()]);
        break;
      case Op::kRunUntil:
        run_until(now + op.delta_ns);
        break;
      case Op::kRunEvents:
        for (std::uint64_t i = 0; i < op.pick && pop(std::numeric_limits<std::int64_t>::max());
             ++i) {
        }
        break;
    }
  }

  std::string digest() const {
    std::ostringstream os;
    os << now << '/' << executed << '/' << cancelled << '/' << pending.empty();
    return os.str();
  }
};

TEST(SchedulerEngines, IdenticalExecutionOnRandomScripts) {
  auto config = testing::PropertyConfig::from_env(/*default_iterations=*/30, /*seed=*/17);
  auto failure = testing::for_each_seed(config, [](std::uint64_t seed)
                                                    -> std::optional<std::string> {
    const std::vector<Op> script = make_script(seed, 250);
    auto wheel = std::make_unique<Env>();
    Reference reference;
    for (std::size_t i = 0; i < script.size(); ++i) {
      wheel->apply(script[i]);
      reference.apply(script[i]);
      if (wheel->fired != reference.fired)
        return "fired order diverged after op " + std::to_string(i);
      if (wheel->digest() != reference.digest())
        return "state diverged after op " + std::to_string(i) + ": wheel " +
               wheel->digest() + " vs reference " + reference.digest();
    }
    wheel->sched.run_all();
    reference.run_all();
    if (wheel->fired != reference.fired) return std::string("final drain order diverged");
    if (wheel->digest() != reference.digest())
      return "final state diverged: wheel " + wheel->digest() + " vs reference " +
             reference.digest();
    return std::nullopt;
  });
  ASSERT_FALSE(failure.has_value())
      << "seed " << failure->seed << ": " << failure->message;
}

TEST(SchedulerEngines, SnapshotsRestoreIdenticallyAcrossEngines) {
  auto config = testing::PropertyConfig::from_env(/*default_iterations=*/15, /*seed=*/41);
  auto failure = testing::for_each_seed(config, [](std::uint64_t seed)
                                                    -> std::optional<std::string> {
    const std::vector<Op> script = make_script(seed, 160);
    auto wheel = std::make_unique<Env>();
    Reference reference;
    const std::size_t half = script.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      wheel->apply(script[i]);
      reference.apply(script[i]);
    }
    Scheduler::Snapshot snap;
    if (!wheel->sched.capture(snap)) return std::string("wheel capture declined");
    const Reference at_capture = reference;

    // Live tails must agree first (sanity: the worlds were equal mid-script).
    for (std::size_t i = half; i < script.size(); ++i) {
      wheel->apply(script[i]);
      reference.apply(script[i]);
    }
    wheel->sched.run_all();
    reference.run_all();
    if (wheel->fired != reference.fired) return std::string("live tails diverged");

    // The reference drains its copy from the capture point; the wheel,
    // restored from the snapshot, must drain the same events with the same
    // clock and counters. Restoring twice checks that a restore into a
    // scheduler that already ran past the snapshot starts clean.
    Reference expected = at_capture;
    const std::size_t mark = expected.fired.size();
    expected.run_all();
    const std::vector<std::uint64_t> expected_tail(
        expected.fired.begin() + static_cast<std::ptrdiff_t>(mark), expected.fired.end());
    for (int round = 0; round < 2; ++round) {
      wheel->sched.restore(snap);
      const std::size_t from = wheel->fired.size();
      wheel->sched.run_all();
      const std::vector<std::uint64_t> tail(
          wheel->fired.begin() + static_cast<std::ptrdiff_t>(from), wheel->fired.end());
      if (tail != expected_tail)
        return "restored drain " + std::to_string(round) + " diverged from the reference";
      if (wheel->digest() != expected.digest())
        return "restored drain " + std::to_string(round) + " left wheel " + wheel->digest() +
               " vs reference " + expected.digest();
    }
    return std::nullopt;
  });
  ASSERT_FALSE(failure.has_value())
      << "seed " << failure->seed << ": " << failure->message;
}

TEST(SchedulerEngines, QuiescentRunMatchesPlainRunOnActiveEvents) {
  auto config = testing::PropertyConfig::from_env(/*default_iterations=*/20, /*seed=*/97);
  auto failure = testing::for_each_seed(config, [](std::uint64_t seed)
                                                    -> std::optional<std::string> {
    Rng rng(seed);
    const TimePoint horizon = TimePoint::from_ns(30'000'000);
    auto plain = std::make_unique<Env>();
    auto quick = std::make_unique<Env>();
    for (int i = 0; i < 120; ++i) {
      Op op;
      op.kind = rng.uniform(0, 3) == 0 ? Op::kScheduleLazy : Op::kSchedule;
      op.delta_ns = static_cast<std::int64_t>(rng.uniform(0, 40'000'000));
      plain->apply(op);
      quick->apply(op);
    }
    plain->sched.run_until(horizon);
    quick->sched.set_quiescence_horizon(horizon);
    quick->sched.run_until_quiescent(horizon);
    if (quick->sched.now() != horizon)
      return std::string("quiescent run did not advance the clock to the horizon");
    // Until the cut both runs pop the identical stream, and after the cut
    // only lazy events remain in-horizon: the quick log is a prefix of the
    // plain log and the active subsequences are exactly equal.
    if (quick->fired.size() > plain->fired.size() ||
        !std::equal(quick->fired.begin(), quick->fired.end(), plain->fired.begin()))
      return std::string("quiescent log is not a prefix of the plain log");
    auto actives = [](const std::vector<std::uint64_t>& v) {
      std::vector<std::uint64_t> out;
      for (std::uint64_t id : v)
        if ((id >> 63) == 0) out.push_back(id);
      return out;
    };
    if (actives(plain->fired) != actives(quick->fired))
      return std::string("active event sequences diverged");
    return std::nullopt;
  });
  ASSERT_FALSE(failure.has_value())
      << "seed " << failure->seed << ": " << failure->message;
}

// ---------------------------------------------------------------------------
// Link-level properties: sim::Link computes each departure at enqueue and
// keeps one pending event per link (the front packet's arrival). The
// reference is the two-event link it replaced: every packet schedules its
// arrival plus a transmission-complete event that starts the next queued
// packet. Both must deliver the same packets at the same times and count
// the same drops, forwards and queue high-water mark.

/// The two-event link. Its queue holds only waiting packets; the one
/// serializing and those propagating live inside scheduler closures.
class TwoEventLink {
 public:
  TwoEventLink(Scheduler& scheduler, sim::LinkConfig config,
               std::function<void(sim::Packet)> sink)
      : scheduler_(scheduler),
        config_(std::move(config)),
        sink_(std::move(sink)),
        drop_rng_(config_.drop_rng_seed) {}

  void send(sim::Packet packet) {
    if (busy_) {
      if (queue_.size() >= config_.queue_limit_packets) {
        ++packets_dropped_;
        if (config_.drop_policy == sim::DropPolicy::kRandom && !queue_.empty()) {
          auto victim = static_cast<std::size_t>(drop_rng_.uniform(0, queue_.size()));
          if (victim < queue_.size()) {
            queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(victim));
            queue_.push_back(std::move(packet));
          }
        }
        return;
      }
      queue_.push_back(std::move(packet));
      queue_highwater_ = std::max(queue_highwater_, queue_depth());
      return;
    }
    start_transmission(std::move(packet));
  }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }
  std::size_t queue_highwater() const { return queue_highwater_; }

  /// Times at which a transmission completed, in order.
  std::vector<std::int64_t> departures;

 private:
  void start_transmission(sim::Packet packet) {
    busy_ = true;
    queue_highwater_ = std::max(queue_highwater_, queue_depth());
    const Duration tx =
        Duration::seconds(static_cast<double>(packet.wire_size()) * 8.0 / config_.rate_bps);
    ++packets_sent_;
    bytes_sent_ += packet.wire_size();
    scheduler_.schedule_in(tx + config_.delay,
                           [this, p = std::move(packet)]() mutable { sink_(std::move(p)); });
    scheduler_.schedule_in(tx, [this] { transmission_complete(); });
  }

  void transmission_complete() {
    departures.push_back(scheduler_.now().ns());
    busy_ = false;
    if (!queue_.empty()) {
      sim::Packet next = std::move(queue_.front());
      queue_.pop_front();
      start_transmission(std::move(next));
    }
  }

  Scheduler& scheduler_;
  sim::LinkConfig config_;
  std::function<void(sim::Packet)> sink_;
  Rng drop_rng_;
  std::deque<sim::Packet> queue_;
  bool busy_ = false;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::size_t queue_highwater_ = 0;
};

/// One link scenario: a config, timed sends (payload sizes) and the times at
/// which both links' counters are compared mid-run.
struct LinkScript {
  sim::LinkConfig config;
  std::vector<std::pair<std::int64_t, std::size_t>> sends;  ///< (at ns, payload bytes)
  std::vector<std::int64_t> checkpoints;                    ///< ascending
};

LinkScript make_link_script(std::uint64_t seed) {
  Rng rng(seed);
  LinkScript script;
  script.config.rate_bps = 10e6;  // a 1500-byte packet serializes in 1.2 ms
  script.config.delay = Duration::nanos(static_cast<std::int64_t>(rng.uniform(0, 5'000'000)));
  script.config.queue_limit_packets = rng.uniform(1, 5);
  script.config.drop_policy = rng.uniform(0, 1) == 0 ? sim::DropPolicy::kTail
                                                     : sim::DropPolicy::kRandom;
  script.config.drop_rng_seed = rng.next_u64();
  // Offered load from light to many times the link rate; a fifth of the
  // sends land on the previous send's instant (bursts).
  const std::size_t n = rng.uniform(5, 80);
  const std::uint64_t span = rng.uniform(1'000'000, 40'000'000);
  std::int64_t at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform(0, 4) != 0)
      at += static_cast<std::int64_t>(rng.uniform(0, 2 * span / n));
    script.sends.emplace_back(at, rng.uniform(0, 1480));
  }
  for (int i = 0; i < 8; ++i)
    script.checkpoints.push_back(static_cast<std::int64_t>(rng.uniform(0, 2 * static_cast<std::uint64_t>(at) + 1)));
  std::sort(script.checkpoints.begin(), script.checkpoints.end());
  return script;
}

/// A scheduler, a link of type L and the (time, id) log of its deliveries.
/// Closures capture `this`: keep it behind a unique_ptr.
template <typename L>
struct LinkWorld {
  explicit LinkWorld(const LinkScript& script)
      : link(sched, script.config, [this](sim::Packet p) {
          delivered.emplace_back(sched.now().ns(), p.id);
        }) {
    for (std::size_t i = 0; i < script.sends.size(); ++i) {
      const auto [at, payload] = script.sends[i];
      sched.schedule_at(TimePoint::from_ns(at), [this, i, payload = payload] {
        sim::Packet p;
        p.id = i + 1;
        p.bytes.assign(payload, 0x5a);
        link.send(std::move(p));
      });
    }
  }

  std::string counters() const {
    std::ostringstream os;
    os << sched.now().ns() << " sent " << link.packets_sent() << '/' << link.bytes_sent()
       << " dropped " << link.packets_dropped() << " depth " << link.queue_depth()
       << " highwater " << link.queue_highwater();
    return os.str();
  }

  Scheduler sched;
  L link;
  std::vector<std::pair<std::int64_t, std::uint64_t>> delivered;
};

/// Moves every send that falls on a departure instant of the two-event link
/// one nanosecond later, until none does. There the two-event link's answer
/// depends on whether the send or the transmission-complete event was
/// scheduled first (see LinkEngines.SendAtDepartureInstantFindsTheSlotFree).
bool avoid_departure_instants(LinkScript& script) {
  for (int round = 0; round < 100; ++round) {
    auto reference = std::make_unique<LinkWorld<TwoEventLink>>(script);
    reference->sched.run_all();
    const std::vector<std::int64_t>& departures = reference->link.departures;
    bool moved = false;
    for (auto& send : script.sends) {
      if (std::binary_search(departures.begin(), departures.end(), send.first)) {
        ++send.first;
        moved = true;
      }
    }
    if (!moved) return true;
  }
  return false;
}

TEST(LinkEngines, IdenticalDeliveriesOnRandomScripts) {
  auto config = testing::PropertyConfig::from_env(/*default_iterations=*/60, /*seed=*/23);
  auto failure = testing::for_each_seed(config, [](std::uint64_t seed)
                                                    -> std::optional<std::string> {
    LinkScript script = make_link_script(seed);
    if (!avoid_departure_instants(script))
      return std::string("could not move the sends off the departure instants");
    auto link = std::make_unique<LinkWorld<sim::Link>>(script);
    auto reference = std::make_unique<LinkWorld<TwoEventLink>>(script);
    for (std::int64_t checkpoint : script.checkpoints) {
      link->sched.run_until(TimePoint::from_ns(checkpoint));
      reference->sched.run_until(TimePoint::from_ns(checkpoint));
      if (link->counters() != reference->counters())
        return "counters diverged at " + std::to_string(checkpoint) + ": link " +
               link->counters() + " vs reference " + reference->counters();
    }
    link->sched.run_all();
    reference->sched.run_all();
    if (link->delivered != reference->delivered) return std::string("deliveries diverged");
    if (link->counters() != reference->counters())
      return "final counters diverged: link " + link->counters() + " vs reference " +
             reference->counters();
    return std::nullopt;
  });
  ASSERT_FALSE(failure.has_value())
      << "seed " << failure->seed << ": " << failure->message;
}

TEST(LinkEngines, SendAtDepartureInstantFindsTheSlotFree) {
  // One-packet queue, 1 ms serialization. At t=0 packet 1 starts and 2
  // waits; packet 3 is sent at 1 ms, the instant 1 departs and 2 starts.
  sim::LinkConfig config;
  config.rate_bps = 8e6;
  config.delay = Duration::zero();
  config.queue_limit_packets = 1;
  auto send = [](auto& link, std::uint64_t id) {
    sim::Packet p;
    p.id = id;
    p.bytes.assign(980, 0);
    link.send(std::move(p));
  };
  const TimePoint departure = TimePoint::from_ns(1'000'000);

  // sim::Link: packet 2's start equals now, so it has left the queue and 3
  // takes the freed slot — whatever order the events were scheduled in.
  Scheduler sched;
  std::vector<std::pair<std::int64_t, std::uint64_t>> delivered;
  sim::Link link(sched, config, [&](sim::Packet p) {
    delivered.emplace_back(sched.now().ns(), p.id);
  });
  sched.schedule_at(departure, [&] {
    send(link, 3);
    EXPECT_EQ(link.queue_depth(), 2u);
    EXPECT_EQ(link.packets_sent(), 2u);
  });
  send(link, 1);
  send(link, 2);
  sched.run_all();
  const std::vector<std::pair<std::int64_t, std::uint64_t>> expected = {
      {1'000'000, 1}, {2'000'000, 2}, {3'000'000, 3}};
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(link.packets_dropped(), 0u);
  EXPECT_EQ(link.queue_highwater(), 2u);

  // The two-event link gives either answer. A send scheduled before packet
  // 1's transmission-complete event still sees the queue full and drops 3;
  // one scheduled after it finds the slot free, as sim::Link does.
  for (bool send_first : {true, false}) {
    SCOPED_TRACE(send_first);
    Scheduler ref_sched;
    std::size_t ref_delivered = 0;
    TwoEventLink reference(ref_sched, config, [&](sim::Packet) { ++ref_delivered; });
    if (send_first) ref_sched.schedule_at(departure, [&] { send(reference, 3); });
    send(reference, 1);
    send(reference, 2);
    if (!send_first) ref_sched.schedule_at(departure, [&] { send(reference, 3); });
    ref_sched.run_all();
    EXPECT_EQ(reference.packets_dropped(), send_first ? 1u : 0u);
    EXPECT_EQ(ref_delivered, send_first ? 2u : 3u);
  }
}

// ---------------------------------------------------------------------------
// Campaign-level: snapshot forks and the early-exit cut are invisible to
// what a campaign measures.

core::CampaignConfig small_campaign(core::Protocol protocol) {
  core::CampaignConfig config;
  config.scenario.protocol = protocol;
  config.scenario.test_duration = Duration::seconds(4.0);
  config.scenario.seed = 7;
  config.scenario.event_budget = 40'000'000;
  config.executors = 2;
  config.max_strategies = 20;
  return config;
}

/// Does nothing, but its presence makes every trial run from zero: snapshot
/// stores decline configs that carry an inspector.
class NoopInspector : public core::RunInspector {
 public:
  void on_run_complete(sim::Dumbbell&, proxy::AttackProxy&, const core::RunMetrics&) override {}
};

/// A campaign's report with its metrics dropped (wall-clock histograms never
/// repeat), plus the number of trials it served from snapshot forks.
struct CampaignRun {
  std::string json;
  std::uint64_t forked_runs = 0;
};

CampaignRun run_without_metrics(const core::CampaignConfig& config) {
  core::CampaignResult result = core::run_campaign(config);
  CampaignRun run;
  run.forked_runs = result.metrics.counter("snapshot.forked_runs");
  result.metrics = obs::MetricsRegistry();
  run.json = result.to_json();
  return run;
}

TEST(SchedulerEngines, CampaignResultsAreByteIdenticalAcrossEngines) {
  // The production path restores wheel snapshots into forked trials; the
  // twin builds every trial's world from zero. Same report, byte for byte.
  // SACK recovery and TFRC feedback put the densest timer traffic through
  // the wheel, and snapshot_test's campaign covers the default profiles.
  core::CampaignConfig sack = small_campaign(core::Protocol::kTcp);
  sack.scenario.tcp_profile = tcp::tcp_profile_by_name("sack-rfc2018");
  sack.generator = strategy::tcp_sack_generator_config();
  core::CampaignConfig tfrc = small_campaign(core::Protocol::kDccp);
  tfrc.scenario.dccp_ccid = 3;
  for (const core::CampaignConfig& config : {sack, tfrc}) {
    SCOPED_TRACE(core::to_string(config.scenario.protocol));
    NoopInspector noop;
    core::CampaignConfig from_zero = config;
    from_zero.scenario.inspector = &noop;
    const CampaignRun forked = run_without_metrics(config);
    const CampaignRun reference = run_without_metrics(from_zero);
    EXPECT_EQ(forked.json, reference.json);
    EXPECT_GT(forked.forked_runs, 0u) << "no trial was served from a snapshot";
    EXPECT_EQ(reference.forked_runs, 0u) << "the from-zero twin forked a trial";
  }
}

/// Forwards to the in-process executor pool and records every dispatched
/// strategy, so a test can re-run a campaign's exact trials by hand.
class RecordingBackend : public core::TrialBackend {
 public:
  explicit RecordingBackend(int executors) : pool_(executors) {}
  bool start(const core::CampaignConfig& config, const core::RunMetrics& baseline,
             const core::RunMetrics& retest_baseline) override {
    return pool_.start(config, baseline, retest_baseline);
  }
  std::size_t capacity() const override { return pool_.capacity(); }
  void submit(core::TrialTask task) override {
    strategies.push_back(task.strat);
    pool_.submit(std::move(task));
  }
  core::TrialOutcome wait_outcome() override { return pool_.wait_outcome(); }
  void finish(obs::MetricsRegistry* into) override { pool_.finish(into); }

  std::vector<strategy::Strategy> strategies;

 private:
  core::ThreadBackend pool_;
};

/// Everything a run reports except the servers' socket-state table: the cut
/// legitimately leaves TIME_WAIT sockets unreleased there, and nothing reads
/// that table for detection.
std::string measured(core::RunMetrics m) {
  m.server1_socket_states.clear();
  obs::JsonWriter w;
  core::write_json(w, m);
  return w.take();
}

TEST(EarlyExit, CampaignDetectionsAreIdenticalOnAndOff) {
  for (core::Protocol protocol : {core::Protocol::kTcp, core::Protocol::kDccp}) {
    SCOPED_TRACE(core::to_string(protocol));
    core::CampaignConfig config = small_campaign(protocol);
    RecordingBackend backend(config.executors);
    config.backend = &backend;
    const core::CampaignResult result = core::run_campaign(config);
    ASSERT_EQ(backend.strategies.size(), result.strategies_tried);
    ASSERT_GT(result.strategies_tried, 0u);

    // Every trial the campaign ran, plus the baseline, re-run with the cut
    // (as campaigns run them) and without it (the full-horizon reference).
    obs::MetricsRegistry cut_reg;
    obs::MetricsRegistry full_reg;
    core::ScenarioConfig cut = config.scenario;
    cut.early_exit = true;
    cut.metrics = &cut_reg;
    core::ScenarioConfig full = config.scenario;
    full.early_exit = false;
    full.metrics = &full_reg;
    core::ScenarioArena arena;
    const core::RunMetrics cut_baseline = core::run_scenario(arena, cut, std::nullopt);
    const core::RunMetrics full_baseline = core::run_scenario(arena, full, std::nullopt);
    EXPECT_EQ(measured(cut_baseline), measured(full_baseline));
    for (const strategy::Strategy& s : backend.strategies) {
      SCOPED_TRACE(strategy::canonical_key(s));
      const core::RunMetrics with_cut = core::run_scenario(arena, cut, s);
      const core::RunMetrics without = core::run_scenario(arena, full, s);
      EXPECT_EQ(measured(with_cut), measured(without));
      obs::JsonWriter a;
      core::write_json(a, core::detect(cut_baseline, with_cut, config.detect_threshold));
      obs::JsonWriter b;
      core::write_json(b, core::detect(full_baseline, without, config.detect_threshold));
      EXPECT_EQ(a.take(), b.take());
    }
    // The cut must actually engage in DCCP runs (both iperf sources close at
    // dccp_data_fraction of the run, after which only lazy TIME_WAIT
    // releases remain), otherwise this test is vacuous. TCP gets no such
    // guarantee: the competing wget's effectively-unbounded download keeps
    // an active pump timer armed until the very end by design.
    if (protocol == core::Protocol::kDccp) {
      EXPECT_GT(cut_reg.counter("scenario.early_exit_runs"), 0u);
    }
    // The counter must never tick on the full-horizon reference.
    EXPECT_EQ(full_reg.counter("scenario.early_exit_runs"), 0u);
  }
}

}  // namespace
}  // namespace snake
