#include "dist/worker.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/wire.h"
#include "obs/metrics.h"
#include "snake/arena.h"
#include "snake/snapshot.h"
#include "snake/trial_runner.h"

namespace snake::dist {

namespace {

/// Serializes frame writes: the trial loop and the heartbeat thread share
/// one channel (the worker process was exec'd fresh, so spawning a thread
/// here is safe even under TSan's fork rules).
class LockedSender {
 public:
  explicit LockedSender(Channel& ch) : ch_(&ch) {}
  bool send(const std::string& payload) {
    std::lock_guard<std::mutex> lock(mutex_);
    return ch_->send_frame(payload);
  }
  /// Chaos-exempt send for the time-driven heartbeat (see send_frame_plain).
  bool send_plain(const std::string& payload) {
    std::lock_guard<std::mutex> lock(mutex_);
    return ch_->send_frame_plain(payload);
  }

 private:
  Channel* ch_;
  std::mutex mutex_;
};

void prune_observations(std::vector<core::JournalObservation>& obs,
                        const std::set<std::pair<std::string, std::string>>& covered) {
  std::erase_if(obs, [&](const core::JournalObservation& o) {
    return covered.count({o.state, o.packet_type}) > 0;
  });
}

}  // namespace

int run_worker(int fd, const WorkerHooks& hooks) {
  Channel ch(fd);
  LockedSender sender(ch);
  if (!sender.send(encode_hello())) return 1;

  // Campaign assignment (generous timeout: the coordinator may be spawning
  // and handshaking a whole fleet before it gets to us).
  auto campaign_frame = ch.recv_frame(/*timeout_ms=*/60000);
  if (!campaign_frame.has_value()) return 1;
  auto campaign_msg = parse_message(*campaign_frame);
  if (!campaign_msg.has_value() || campaign_msg->type != MsgType::kCampaign) return 1;
  WorkerCampaign wc = std::move(campaign_msg->campaign);

  std::unique_ptr<core::RunInspector> inspector;
  if (wc.selfcheck && hooks.make_inspector) inspector = hooks.make_inspector(wc.campaign.scenario);
  wc.campaign.scenario.inspector = inspector.get();

  // The worker's own non-attack baselines, from the recipe the coordinator
  // ran its pair with, in a fresh arena. Shipping their rendering back lets
  // the coordinator verify byte-for-byte that this process simulates
  // identically. They record no metrics: the campaign's baselines are the
  // coordinator's.
  const core::RunTemplates base = core::baseline_templates(wc.campaign);
  core::ScenarioArena arena;
  core::RunMetrics baseline = core::run_scenario(arena, base.run, std::nullopt);
  core::RunMetrics retest_baseline = core::run_scenario(arena, base.retest, std::nullopt);
  if (!sender.send(encode_ready(baseline, retest_baseline))) return 1;

  // The trial context, with a per-worker snapshot store like a
  // ThreadBackend's. Selfcheck campaigns carry an inspector, which the store
  // declines per-trial, so the oracle always sees a from-zero run.
  core::TrialContext ctx =
      core::make_trial_context(wc.campaign, std::move(baseline), std::move(retest_baseline));
  ctx.snapshots = std::make_unique<core::SnapshotStore>();

  // Wire chaos attaches strictly *after* the ready handshake: the supervisor
  // must always be able to respawn a slot into a working fleet, so the spawn
  // path stays fault-free and chaos only torments steady-state traffic.
  std::optional<core::WireFaultPlan> chaos;
  if (wc.wire_fault_mask != 0 && wc.wire_fault_period != 0) {
    chaos.emplace(wc.wire_fault_seed, wc.wire_fault_mask, wc.wire_fault_period);
    ch.set_fault_plan(&*chaos);
  }

  std::deque<WireTrial> queue;
  std::mutex queue_mutex;  // heartbeat thread reads the depth
  // Set while a trial executes. The heartbeat reports work *remaining*
  // (queued + in flight), not queued-waiting: a worker mid-trial must never
  // report 0, or a trial slower than the heartbeat timeout would match the
  // coordinator's dispatch-starvation signature (assigned work, empty queue,
  // no progress) and get a healthy worker killed.
  std::atomic<std::uint64_t> in_flight{0};
  std::set<std::pair<std::string, std::string>> covered;
  std::uint64_t results_sent = 0;
  bool shutdown = false;
  int exit_code = 0;

  // Liveness heartbeats from a dedicated thread, so a multi-second trial
  // does not read as a wedged worker to the coordinator.
  std::atomic<bool> stop_heartbeat{false};
  std::thread heartbeat([&] {
    const auto interval = std::chrono::milliseconds(std::max(10, wc.heartbeat_interval_ms));
    std::uint64_t beat = 0;
    while (!stop_heartbeat.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(interval);
      if (stop_heartbeat.load(std::memory_order_relaxed)) break;
      // Chaos: a stalled heartbeat is a *skipped* beat, not a delayed one —
      // enough consecutive skips and the coordinator declares us dead.
      if (chaos.has_value() &&
          chaos->should_fire(core::WireFault::kStallHeartbeat, beat++)) {
        continue;
      }
      std::uint64_t depth;
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        depth = queue.size() + in_flight.load(std::memory_order_relaxed);
      }
      // Chaos-exempt: heartbeats fire on wall-clock, so routing them through
      // the fault schedule would make the chaos rate build-speed-dependent
      // (a sanitized build would die per *second*, not per unit of work).
      sender.send_plain(encode_heartbeat(depth));
    }
  });

  auto handle_message = [&](Message&& m) {
    switch (m.type) {
      case MsgType::kTrials: {
        std::lock_guard<std::mutex> lock(queue_mutex);
        for (WireTrial& t : m.trials) queue.push_back(std::move(t));
        break;
      }
      case MsgType::kSteal: {
        // Hand back the *tail* — the shard's not-yet-started end — so local
        // execution order for what remains is untouched.
        std::vector<std::uint64_t> handed;
        std::lock_guard<std::mutex> lock(queue_mutex);
        while (handed.size() < m.steal_count && queue.size() > 1) {
          handed.push_back(queue.back().seq);
          queue.pop_back();
        }
        sender.send(encode_stolen(handed));
        break;
      }
      case MsgType::kFeedback:
        for (core::JournalObservation& p : m.pairs)
          covered.insert({std::move(p.state), std::move(p.packet_type)});
        break;
      case MsgType::kShutdown:
        shutdown = true;
        break;
      default:
        break;  // unexpected direction: ignore rather than die
    }
  };

  while (!shutdown) {
    // Drain everything the coordinator has sent, then run at most one trial
    // before looking again — steals and feedback stay responsive even while
    // a shard is queued. pop_frame() only parses buffered bytes, so pump
    // first: anything that arrived while the last trial ran (a steal
    // request, typically) must be seen *before* committing to the next
    // trial, or a loaded worker would starve the rebalance path exactly
    // when it matters.
    ch.pump();
    while (auto frame = ch.pop_frame()) {
      auto m = parse_message(*frame);
      if (!m.has_value()) {
        // A frame that frames correctly but does not parse means the stream
        // is corrupt (coordinator bug or injected chaos). The stream cannot
        // be resynchronised, so die and let the supervisor respawn the slot.
        shutdown = true;
        exit_code = 1;
        break;
      }
      handle_message(std::move(*m));
    }
    if (shutdown) break;
    if (!ch.alive()) {
      exit_code = 1;  // coordinator died; nothing useful left to do
      break;
    }

    bool have_trial = false;
    WireTrial trial;
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      if (!queue.empty()) {
        trial = std::move(queue.front());
        queue.pop_front();
        have_trial = true;
        in_flight.store(1, std::memory_order_relaxed);
      }
    }
    if (!have_trial) {
      // Idle: block for the next frame (or poll again on timeout).
      if (auto frame = ch.recv_frame(wc.heartbeat_interval_ms)) {
        auto m = parse_message(*frame);
        if (!m.has_value()) {
          exit_code = 1;  // corrupt stream, same as the drain loop above
          break;
        }
        handle_message(std::move(*m));
      }
      continue;
    }

    // A fresh registry per trial: it travels in the result frame and the
    // coordinator merges it only if it commits this result.
    obs::MetricsRegistry metrics;
    obs::MetricsRegistry* reg = wc.campaign.collect_metrics ? &metrics : nullptr;
    core::TrialRecord record = core::execute_trial(arena, ctx, trial.strat, reg);
    prune_observations(record.client_obs, covered);
    prune_observations(record.server_obs, covered);
    if (wc.corrupt_after_results != 0 && results_sent + 1 >= wc.corrupt_after_results) {
      // Test-only byzantine fault: lie about the verdict, and let
      // encode_result stamp a valid checksum over the lie — exactly what a
      // genuinely divergent worker would produce. Transport integrity cannot
      // catch this; only coordinator re-execution can.
      record.found = false;
      record.attempts += 1;
      record.errored_attempts += 1;
      record.failure_reason = "byzantine-lie";
    }
    sender.send(encode_result(trial.seq, record, reg));
    in_flight.store(0, std::memory_order_relaxed);
    ++results_sent;
    if (wc.exit_after_results != 0 && results_sent >= wc.exit_after_results) {
      // Test-only fault injection: die abruptly mid-campaign, exactly like a
      // crashed worker (no bye, no flush of the channel).
      std::_Exit(2);
    }
  }

  stop_heartbeat.store(true, std::memory_order_relaxed);
  heartbeat.join();

  if (exit_code == 0) {
    std::uint64_t violations = 0;
    if (inspector != nullptr && hooks.violations) violations = hooks.violations(*inspector);
    sender.send(encode_bye(violations));
  }
  return exit_code;
}

std::optional<int> maybe_run_worker(int argc, char** argv, const WorkerHooks& hooks) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--snake-worker-child") == 0) {
      int fd = std::atoi(argv[i + 1]);
      if (fd <= 2) return 1;  // refuse stdio / garbage
      return run_worker(fd, hooks);
    }
  }
  return std::nullopt;
}

}  // namespace snake::dist
