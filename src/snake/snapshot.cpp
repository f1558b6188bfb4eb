#include "snake/snapshot.h"

#include <algorithm>
#include <limits>
#include <set>

#include "obs/metrics.h"
#include "statemachine/protocol_specs.h"

namespace snake::core {

using statemachine::Role;
using strategy::AttackAction;
using strategy::MatchMode;
using strategy::Strategy;

namespace {

constexpr std::uint64_t kNoCut = std::numeric_limits<std::uint64_t>::max();

/// Which endpoint's state trajectory gates this strategy's first action.
/// Per-packet actions match on the *sender's* state; injections fire on the
/// state of the endpoint the forged packet impersonates toward (the
/// receiver) — see AttackProxy::matches / maybe_fire_injections.
Role watched_role(const Strategy& s) {
  if (s.action == AttackAction::kInject || s.action == AttackAction::kHitSeqWindow)
    return s.inject.has_value() && s.inject->spoof_toward_client ? Role::kClient
                                                                 : Role::kServer;
  return s.direction == strategy::TrafficDirection::kClientToServer ? Role::kClient
                                                                    : Role::kServer;
}

using CutMap = std::map<std::pair<Role, std::string>, std::uint64_t>;
using StateSet = std::set<std::pair<Role, std::string>>;

/// Pass 1: one unarmed run with enter hooks on both trackers, recording the
/// heap-pop count at the *first* entry of every (role, state). The cut is
/// pops-at-hook minus one: the hook fires inside the event that causes the
/// entry (after the scheduler counted it), so run_events(cut) in pass 2
/// stops exactly *before* that event pops — at the checkpoint, the tracker
/// has not yet entered the state, and strategies armed there behave
/// identically to strategies armed at t=0.
///
/// Entries with zero pops happened *during world construction* (the client
/// applications push their first handshake packets through the proxy
/// synchronously — SYN_SENT / SYN_RCVD / REQUEST are entered before any
/// event fires). No between-events checkpoint can precede those entries, so
/// they land in `pre_run` and serve() declines strategies targeting them.
/// The hooks are installed via init's after_proxy callback, before the apps
/// exist, precisely so these entries are visible.
template <typename World>
bool discover_cuts(World& world, ScenarioArena& arena, const ScenarioConfig& config,
                   CutMap& cuts, StateSet& pre_run) {
  auto hook = [&cuts, &pre_run, &world](Role role, const std::string& state) {
    auto key = std::make_pair(role, state);
    if (cuts.find(key) != cuts.end() || pre_run.find(key) != pre_run.end()) return;
    const sim::Scheduler& sched = world.rig.net->scheduler();
    std::uint64_t pops = sched.events_executed() + sched.events_cancelled();
    if (pops == 0)
      pre_run.insert(std::move(key));
    else
      cuts.emplace(std::move(key), pops - 1);
  };
  world.init(arena, config, {}, [&hook](proxy::AttackProxy& p) {
    p.tracker().client().set_enter_hook(hook);
    p.tracker().server().set_enter_hook(hook);
  });
  world.rig.net->scheduler().run_until(world.end);
  world.proxy->tracker().client().set_enter_hook(nullptr);
  world.proxy->tracker().server().set_enter_hook(nullptr);
  return world.rig.net->scheduler().watchdog_trip() == sim::WatchdogTrip::kNone;
}

/// Pass 2: re-run the same deterministic prefix, stopping at every distinct
/// cut (ascending) to capture a checkpoint, plus one at pop 0 so a fork
/// source always exists. The world must not be re-initialised afterwards —
/// freeze() pins the canonical endpoint population.
template <typename World, typename SnapMap>
bool capture_cuts(World& world, ScenarioArena& arena, const ScenarioConfig& config,
                  const CutMap& cuts, SnapMap& snaps) {
  world.init(arena, config, {});
  sim::Scheduler& sched = world.rig.net->scheduler();
  std::vector<std::uint64_t> points;
  points.push_back(0);
  for (const auto& [key, cut] : cuts) points.push_back(cut);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  std::uint64_t pops = 0;
  for (std::uint64_t cut : points) {
    if (cut > pops) {
      pops += sched.run_events(cut - pops);
      if (pops != cut) return false;  // queue drained early or watchdog tripped
    }
    std::optional<typename World::Snapshot> snap = world.capture();
    if (!snap.has_value()) return false;
    snaps.emplace(cut, std::move(*snap));
  }
  world.freeze();
  return true;
}

template <typename World, typename SnapMap>
RunMetrics serve_world(World& world, const SnapMap& snaps, std::uint64_t cut,
                       const ScenarioConfig& config,
                       const std::vector<Strategy>& attacks) {
  auto it = cut == kNoCut ? std::prev(snaps.end()) : snaps.find(cut);
  if (it == snaps.end()) it = std::prev(snaps.end());
  {
    obs::ScopedTimer restore_timer(config.metrics, "snapshot.restore_seconds");
    world.restore(it->second);
  }
  world.proxy->set_strategies(attacks);
  // Same driver as run_scenario: a forked trial must take the identical
  // early-exit cut a from-zero trial would.
  detail::drive_to_end(world.rig.net->scheduler(), config, world.end);
  return world.finish(config, !attacks.empty());
}

}  // namespace

// ------------------------------------------------------------ SnapshotSession

struct SnapshotSession::Impl {
  ScenarioConfig config;  ///< session-owned copy; hooks nulled
  ScenarioArena arena;    ///< private: fallback trials never touch it
  CutMap cuts;
  StateSet pre_run;  ///< (role, state) entered during world init; no valid cut
  // Exactly one world (by config.protocol) is engaged. Members are ordered
  // so snapshots are destroyed before the world and the world before the
  // arena it references.
  std::optional<detail::TcpWorld> tcp;
  std::optional<detail::DccpWorld> dccp;
  std::map<std::uint64_t, detail::TcpWorld::Snapshot> tcp_snaps;
  std::map<std::uint64_t, detail::DccpWorld::Snapshot> dccp_snaps;

  ~Impl() {
    // Snapshot maps hold clones referencing world objects; drop them first,
    // then the world, then the arena (member order handles the rest).
    tcp_snaps.clear();
    dccp_snaps.clear();
  }
};

SnapshotSession::SnapshotSession(const ScenarioConfig& config) : impl_(new Impl) {
  impl_->config = config;
  impl_->config.metrics = nullptr;    // build passes are bookkeeping-silent
  impl_->config.faults = nullptr;     // gated by the store; re-nulled for
  impl_->config.inspector = nullptr;  // sessions built directly in tests
  bool ok = false;
  try {
    if (config.protocol == Protocol::kTcp) {
      impl_->tcp.emplace();
      ok = discover_cuts(*impl_->tcp, impl_->arena, impl_->config, impl_->cuts,
                         impl_->pre_run) &&
           capture_cuts(*impl_->tcp, impl_->arena, impl_->config, impl_->cuts,
                        impl_->tcp_snaps);
    } else {
      impl_->dccp.emplace();
      ok = discover_cuts(*impl_->dccp, impl_->arena, impl_->config, impl_->cuts,
                         impl_->pre_run) &&
           capture_cuts(*impl_->dccp, impl_->arena, impl_->config, impl_->cuts,
                        impl_->dccp_snaps);
    }
  } catch (...) {
    ok = false;
  }
  bad_ = !ok;
}

SnapshotSession::~SnapshotSession() = default;

std::size_t SnapshotSession::snapshot_count() const {
  return impl_->tcp_snaps.size() + impl_->dccp_snaps.size();
}

std::optional<RunMetrics> SnapshotSession::serve(
    const ScenarioConfig& config, const std::vector<Strategy>& attacks) {
  if (bad_) return std::nullopt;
  Impl& im = *impl_;
  if (config.seed != im.config.seed || config.protocol != im.config.protocol)
    return std::nullopt;

  // The fork point: the earliest first-entry of any component's watched
  // (role, state). A component whose target was never entered in the unarmed
  // run can never fire before the run diverges, so it doesn't constrain the
  // cut; if *no* component's target was ever entered, the whole trial equals
  // the unarmed run and forks from the latest checkpoint.
  std::uint64_t cut = kNoCut;
  for (const Strategy& s : attacks) {
    auto key = std::make_pair(watched_role(s), s.target_state);
    // States entered during world construction (the synchronous connect
    // handshake) have no between-events checkpoint preceding them, and a
    // from-zero run arms its strategies *before* the apps exist while a fork
    // arms them after — decline, the caller replays from zero.
    if (im.pre_run.find(key) != im.pre_run.end()) return std::nullopt;
    auto it = im.cuts.find(key);
    if (it != im.cuts.end()) cut = std::min(cut, it->second);
  }

  obs::ScopedTimer run_timer(config.metrics, "scenario.run_seconds");
  try {
    if (im.tcp.has_value())
      return serve_world(*im.tcp, im.tcp_snaps, cut, config, attacks);
    return serve_world(*im.dccp, im.dccp_snaps, cut, config, attacks);
  } catch (...) {
    // The world's integrity after a mid-run throw is unknown; poison the
    // session and let the caller replay from zero.
    bad_ = true;
    throw;
  }
}

// -------------------------------------------------------------- SnapshotStore

/// The sessions built for one seed. `sessions` owns them for the store's
/// lifetime; `idle` holds the ones not currently serving a trial; `building`
/// counts in-flight constructions (they reserve pool capacity before the
/// session exists so concurrent executors never overshoot the cap).
struct SnapshotStore::SeedPool {
  std::vector<std::unique_ptr<SnapshotSession>> sessions;
  std::vector<SnapshotSession*> idle;
  std::size_t building = 0;
};

SnapshotStore::SnapshotStore() = default;
SnapshotStore::~SnapshotStore() = default;

void SnapshotStore::set_max_sessions_per_seed(std::size_t cap) {
  max_sessions_per_seed_ = cap == 0 ? 1 : cap;
}

SnapshotSession* SnapshotStore::acquire(std::uint64_t seed, const ScenarioConfig& config) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<SeedPool>& pool = pools_[seed];
    if (pool == nullptr) pool = std::make_unique<SeedPool>();
    if (!pool->idle.empty()) {
      SnapshotSession* session = pool->idle.back();
      pool->idle.pop_back();
      return session;
    }
    if (pool->sessions.size() + pool->building >= max_sessions_per_seed_)
      return nullptr;  // every session busy, pool full: caller runs from zero
    ++pool->building;
  }
  // Build outside the lock: the two prefix passes cost as much as several
  // trials, and other executors must keep serving (or falling back)
  // meanwhile.
  std::unique_ptr<SnapshotSession> built;
  if (config.metrics != nullptr) ++config.metrics->counter("snapshot.sessions_built");
  {
    obs::ScopedTimer build_timer(config.metrics, "snapshot.session_build_seconds");
    try {
      built = std::make_unique<SnapshotSession>(config);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      --pools_[seed]->building;
      throw;
    }
  }
  SnapshotSession* session = built.get();
  std::lock_guard<std::mutex> lock(mutex_);
  SeedPool& pool = *pools_[seed];
  --pool.building;
  pool.sessions.push_back(std::move(built));
  return session;
}

void SnapshotStore::release(std::uint64_t seed, SnapshotSession* session) {
  std::lock_guard<std::mutex> lock(mutex_);
  pools_[seed]->idle.push_back(session);
}

bool SnapshotStore::eligible(const ScenarioConfig& config,
                             const std::vector<Strategy>& attacks) {
  if (config.faults != nullptr || config.inspector != nullptr) return false;
  if (attacks.empty()) return false;  // baselines run once; nothing to amortise
  const statemachine::StateMachine& machine = config.protocol == Protocol::kTcp
                                                  ? statemachine::tcp_state_machine()
                                                  : statemachine::dccp_state_machine();
  for (const Strategy& s : attacks) {
    if (s.match_mode != MatchMode::kStateBased) return false;
    // A strategy targeting the watched endpoint's initial state can act from
    // the very first event (the proxy even fires such injections at arm
    // time); enter hooks never see the initial entry, so there is no valid
    // cut for it.
    if (s.target_state == machine.initial_state(watched_role(s))) return false;
  }
  return true;
}

std::optional<RunMetrics> SnapshotStore::run_trial(
    const ScenarioConfig& config, const std::vector<Strategy>& attacks) {
  obs::MetricsRegistry* reg = config.metrics;
  if (!eligible(config, attacks)) {
    if (reg != nullptr) ++reg->counter("snapshot.ineligible_runs");
    return std::nullopt;
  }
  SnapshotSession* session = acquire(config.seed, config);
  if (session == nullptr) {
    // Pool contention, not ineligibility: a from-zero run is bit-identical,
    // so the fallback only costs wall-clock.
    if (reg != nullptr) {
      ++reg->counter("snapshot.pool_exhausted");
      ++reg->counter("snapshot.fallback_runs");
    }
    return std::nullopt;
  }
  std::optional<RunMetrics> forked;
  try {
    forked = session->serve(config, attacks);
  } catch (...) {
    release(config.seed, session);  // serve marked it bad; it declines from now on
    throw;
  }
  release(config.seed, session);
  if (!forked.has_value()) {
    if (reg != nullptr) ++reg->counter("snapshot.fallback_runs");
    return std::nullopt;
  }
  if (reg != nullptr) ++reg->counter("snapshot.forked_runs");
  return forked;
}

}  // namespace snake::core
