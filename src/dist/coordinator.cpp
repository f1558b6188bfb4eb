#include "dist/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <thread>

#include "dist/supervisor.h"
#include "dist/wire.h"
#include "obs/metrics.h"
#include "snake/arena.h"
#include "snake/snapshot.h"
#include "snake/trial_runner.h"

namespace snake::dist {

namespace {

using Clock = std::chrono::steady_clock;

/// Trials kept in flight per worker; also the shard size work-stealing aims
/// to level out.
constexpr std::size_t kPerWorkerDepth = 4;

/// What a worker's death means for its slot: a failure starts the
/// supervisor's backoff toward a respawn; byzantine divergence quarantines
/// the slot for good (no respawn budget, no backoff).
enum class SlotVerdict { kFailure, kQuarantine };

/// How a worker's ready handshake ended: baselines matched, no ready frame
/// arrived, or the baselines differ from the coordinator's.
enum class Ready { kReady, kSilent, kDiverged };

std::string render_record(const core::TrialRecord& r) {
  obs::JsonWriter w;
  core::write_json(w, r);
  return w.take();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

struct DistributedBackend::Impl {
  DistOptions options;

  struct Worker {
    pid_t pid = -1;
    std::unique_ptr<Channel> ch;
    std::deque<std::uint64_t> assigned;  // dispatch order; front runs first
    Clock::time_point last_heard;
    bool steal_pending = false;
    bool reaped = false;
    bool death_handled = false;  // retire ran for this life
    int slot = 0;
    int incarnation = 0;  // 0 = initial spawn; respawns count up
    // Starvation detector inputs: when this worker last made observable
    // progress (dispatch reached it / result or stolen came back), and the
    // queue depth its last heartbeat reported. A worker whose heartbeats say
    // "empty queue" while the coordinator has trials charged to it is not
    // slow — its shard frame was lost on the wire (torn mid-stream by
    // chaos), and heartbeats alone would keep the stall invisible forever.
    Clock::time_point last_progress;
    std::uint64_t reported_queue = ~0ull;
    // Coordinator-side chaos for this connection (worker-only faults
    // stripped). Owned per worker: channels hold a raw pointer into it.
    std::unique_ptr<core::WireFaultPlan> coord_plan;
  };
  std::vector<Worker> workers;

  // Fleet supervision (respawn scheduling + quarantine; see supervisor.h).
  Supervisor sup;
  // Everything needed to spawn a replacement worker mid-campaign.
  WorkerCampaign wc_template;
  std::string expected_baseline;
  std::string expected_retest;

  // Campaign context for the trials this process runs itself: byzantine
  // re-executions and the inline fallback once the fleet is lost for good.
  core::TrialContext ctx;
  bool collect_metrics = true;
  std::unique_ptr<core::ScenarioArena> inline_arena;
  // Re-executions that vindicated their worker: run here, never committed.
  obs::MetricsRegistry verify_registry;

  // Dispatch state.
  std::map<std::uint64_t, strategy::Strategy> strategies;  // in flight, by seq
  std::deque<core::TrialTask> unassigned;                  // awaiting a worker
  std::deque<core::TrialOutcome> outcomes;

  // Accounting.
  int spawned = 0;
  int lost = 0;
  std::uint64_t inline_ran = 0;
  std::uint64_t stolen = 0;
  std::uint64_t violations = 0;
  std::uint64_t frames_rejected_n = 0;
  std::uint64_t verified = 0;
  std::uint64_t divergent = 0;

  bool started = false;

  // ---- fleet management --------------------------------------------------

  bool spawn_worker(Worker& w) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
    // Parent end must not leak into this (or any later) worker's exec image.
    ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
    std::string fd_arg = std::to_string(sv[1]);
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      return false;
    }
    if (pid == 0) {
      const char* argv[] = {"/proc/self/exe", "--snake-worker-child", fd_arg.c_str(), nullptr};
      ::execv("/proc/self/exe", const_cast<char**>(argv));
      ::_exit(127);
    }
    ::close(sv[1]);
    w.pid = pid;
    w.ch = std::make_unique<Channel>(sv[0]);
    w.last_heard = Clock::now();
    return true;
  }

  void kill_worker(Worker& w) {
    if (w.ch != nullptr) w.ch->close();
    if (w.pid > 0 && !w.reaped) {
      ::kill(w.pid, SIGKILL);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      w.reaped = true;
    }
  }

  void requeue_shard(Worker& w) {
    // Requeue its whole in-flight shard, in seq order, to keep reassignment
    // reproducible to a reader of the logs (results stay deterministic
    // regardless — commits are ordered by the controller).
    std::vector<std::uint64_t> seqs(w.assigned.begin(), w.assigned.end());
    w.assigned.clear();
    std::sort(seqs.begin(), seqs.end());
    for (std::uint64_t seq : seqs) {
      auto it = strategies.find(seq);
      if (it != strategies.end()) unassigned.push_back(core::TrialTask{seq, it->second});
    }
  }

  /// Ends a worker's life: kill it, requeue its shard, and report the
  /// verdict to the supervisor. The report carries the reason.
  void retire(Worker& w, SlotVerdict verdict, std::string reason) {
    if (w.death_handled) return;  // pump_worker and its caller may both fire
    w.death_handled = true;
    kill_worker(w);
    ++lost;
    requeue_shard(w);
    if (verdict == SlotVerdict::kQuarantine)
      sup.record_quarantine(w.slot, std::move(reason));
    else
      sup.record_failure(w.slot, Clock::now(), std::move(reason));
  }

  /// The WorkerCampaign for a (slot, incarnation): test faults and chaos
  /// seed on top of the shared template. Test faults apply to the first
  /// incarnation only — the injected death/corruption is the experiment, the
  /// replacement must be healthy.
  WorkerCampaign campaign_for(int slot, int incarnation) const {
    WorkerCampaign wc = wc_template;
    if (incarnation == 0) {
      const auto i = static_cast<std::size_t>(slot);
      if (i < options.exit_after_results.size())
        wc.exit_after_results = options.exit_after_results[i];
      if (i < options.corrupt_after_results.size())
        wc.corrupt_after_results = options.corrupt_after_results[i];
    }
    // Each (slot, incarnation) gets its own chaos stream. Reusing the base
    // seed verbatim would make every replacement die at the same send index
    // as its predecessor — a deterministic crash loop with no forward
    // progress. Mixing slot and incarnation keeps the schedule reproducible
    // from the campaign seed while letting respawns outrun the chaos.
    if (wc.wire_fault_mask != 0 && wc.wire_fault_period != 0) {
      wc.wire_fault_seed = mix64(wc.wire_fault_seed ^ mix64(static_cast<std::uint64_t>(slot) + 1) ^
                                 (static_cast<std::uint64_t>(incarnation) << 32));
    }
    return wc;
  }

  /// Fork + hello + campaign for one slot. On success the worker is busy
  /// computing its baselines; await_ready() completes the handshake.
  bool spawn_and_greet(Worker& w, int slot, int incarnation) {
    w = Worker{};
    w.slot = slot;
    w.incarnation = incarnation;
    if (!spawn_worker(w)) return false;
    ++spawned;
    auto hello_frame = w.ch->recv_frame(30000);
    std::optional<Message> hello;
    if (hello_frame.has_value()) hello = parse_message(*hello_frame);
    if (!hello.has_value() || hello->type != MsgType::kHello || hello->version != kWireVersion) {
      kill_worker(w);
      return false;
    }
    if (!w.ch->send_frame(encode_campaign(campaign_for(slot, incarnation)))) {
      kill_worker(w);
      return false;
    }
    return true;
  }

  /// Ready half of the handshake: baseline byte-equality is the
  /// cross-process determinism guard — a worker that simulates differently
  /// must never contribute verdicts, initial spawn or respawn alike. A
  /// worker that fails it is killed; the caller decides what the failure
  /// costs the fleet.
  Ready await_ready(Worker& w) {
    auto ready_frame = w.ch->recv_frame(300000);
    std::optional<Message> ready;
    if (ready_frame.has_value()) ready = parse_message(*ready_frame);
    if (!ready.has_value() || ready->type != MsgType::kReady) {
      kill_worker(w);
      return Ready::kSilent;
    }
    if (ready->baseline != expected_baseline || ready->retest_baseline != expected_retest) {
      kill_worker(w);
      return Ready::kDiverged;
    }
    w.last_heard = Clock::now();
    w.last_progress = w.last_heard;
    // Chaos only after the handshake: the supervisor needs spawns to make
    // progress, and the worker applies its own plan after ready likewise.
    attach_coord_chaos(w);
    return Ready::kReady;
  }

  /// Coordinator-side chaos for one worker connection, worker-only faults
  /// stripped. Seeded per (slot, incarnation) like the worker's own plan —
  /// a schedule shared across incarnations would tear the same frame on
  /// every replacement's fresh channel, a crash loop by construction.
  void attach_coord_chaos(Worker& w) {
    if (options.wire_fault_mask == 0 || options.wire_fault_period == 0) return;
    const std::uint32_t mask = options.wire_fault_mask & ~core::kWorkerOnlyWireFaults;
    if (mask == 0) return;
    const std::uint64_t seed =
        mix64(options.wire_fault_seed ^ mix64(static_cast<std::uint64_t>(w.slot) + 0x5eed) ^
              (static_cast<std::uint64_t>(w.incarnation) << 32));
    w.coord_plan =
        std::make_unique<core::WireFaultPlan>(seed, mask, options.wire_fault_period);
    w.ch->set_fault_plan(w.coord_plan.get());
  }

  /// Respawns at most one due slot per call (the handshake blocks, so keep
  /// the pause bounded; the next poll tick picks up the next slot).
  void maybe_respawn() {
    if (!started) return;
    const auto now = Clock::now();
    for (Worker& w : workers) {
      if (worker_alive(w)) continue;
      if (!sup.respawn_due(w.slot, now)) continue;
      const int slot = w.slot;
      const int incarnation = w.incarnation + 1;
      if (!spawn_and_greet(w, slot, incarnation) || await_ready(w) != Ready::kReady) {
        sup.record_failure(slot, Clock::now(), "respawn handshake failed");
        continue;
      }
      sup.record_respawn(slot);
      dispatch_unassigned();
      return;
    }
  }

  bool worker_alive(const Worker& w) const { return w.ch != nullptr && w.ch->alive(); }

  std::size_t alive_count() const {
    std::size_t n = 0;
    for (const Worker& w : workers)
      if (worker_alive(w)) ++n;
    return n;
  }

  Worker* least_loaded_alive() {
    Worker* best = nullptr;
    for (Worker& w : workers) {
      if (!worker_alive(w)) continue;
      if (best == nullptr || w.assigned.size() < best->assigned.size()) best = &w;
    }
    return best;
  }

  // ---- message handling --------------------------------------------------

  /// The comparable surface of a record for byzantine verification: every
  /// outcome-bearing field, with the observation lists excluded. Workers
  /// legitimately prune already-covered observations from wire results (a
  /// bandwidth optimization keyed to *their* view of the covered set at send
  /// time), so obs can differ between an honest worker's frame and the
  /// coordinator's re-execution; comparing them would quarantine honest
  /// workers. The controller dedupes covered pairs itself, so obs cannot
  /// change committed verdicts either way.
  static std::string verdict_surface(core::TrialRecord record) {
    record.client_obs.clear();
    record.server_obs.clear();
    return render_record(record);
  }

  /// Byzantine verification for one result. Returns the outcome to commit:
  /// the worker's own when it checks out, the coordinator's re-execution
  /// (record and registry) when the worker lied, in which case the worker is
  /// already quarantined.
  core::TrialOutcome verify_result(Worker& w, const strategy::Strategy& strat,
                                   core::TrialOutcome reported) {
    const core::TrialRecord& record = reported.record;
    bool selected =
        options.verify_sample != 0 && mix64(reported.seq) % options.verify_sample == 0;
    if (!selected && options.verify_cache != nullptr) {
      // A cache conflict is exactly the "verdict conflicts with the
      // cross-campaign cache" trigger: either the cache line or the worker
      // is wrong, and re-execution is the tiebreaker.
      const core::TrialRecord* hit = options.verify_cache->lookup(record.key);
      if (hit != nullptr && verdict_surface(*hit) != verdict_surface(record)) selected = true;
    }
    if (!selected) return reported;
    ++verified;
    core::TrialOutcome truth = execute_outcome(reported.seq, strat);
    if (verdict_surface(truth.record) == verdict_surface(record)) {
      // Vindicated: the worker's run is the committed one; the re-execution
      // is extra work, tallied under dist.verify.* at finish().
      verify_registry.merge_from(truth.metrics);
      return reported;
    }
    ++divergent;
    retire(w, SlotVerdict::kQuarantine,
           "divergent result for seq " + std::to_string(reported.seq) + " (key " +
               truth.record.key + ")");
    // Commit the re-execution: bit-identical to single-process by
    // construction, so the campaign's determinism guarantee survives.
    return truth;
  }

  /// Returns false on a malformed frame — framing desync or failed result
  /// checksum — which costs the worker its connection (caller kills it).
  bool handle_frame(Worker& w, const std::string& frame) {
    auto m = parse_message(frame);
    if (!m.has_value()) return false;
    w.last_heard = Clock::now();
    switch (m->type) {
      case MsgType::kResult: {
        auto it = std::find(w.assigned.begin(), w.assigned.end(), m->seq);
        auto sit = strategies.find(m->seq);
        if (it == w.assigned.end() || sit == strategies.end())
          return true;  // duplicate or never-assigned seq: drop
        w.assigned.erase(it);
        // Retire the trial before verification: a quarantine inside
        // verify_result requeues the worker's remaining shard, and this seq
        // must not ride along (its outcome is committed right here).
        strategy::Strategy strat = std::move(sit->second);
        strategies.erase(sit);
        outcomes.push_back(verify_result(
            w, strat, core::TrialOutcome{m->seq, std::move(m->record), std::move(m->metrics)}));
        w.last_progress = Clock::now();
        break;
      }
      case MsgType::kStolen: {
        w.steal_pending = false;
        w.last_progress = Clock::now();
        for (std::uint64_t seq : m->seqs) {
          auto it = std::find(w.assigned.begin(), w.assigned.end(), seq);
          if (it == w.assigned.end()) continue;
          w.assigned.erase(it);
          auto sit = strategies.find(seq);
          if (sit != strategies.end()) {
            unassigned.push_back(core::TrialTask{seq, sit->second});
            ++stolen;
          }
        }
        break;
      }
      case MsgType::kHeartbeat:
        w.reported_queue = m->queued;  // starvation detector input
        break;                         // last_heard already refreshed
      case MsgType::kBye:
        violations += m->selfcheck_violations;
        break;
      default:
        break;
    }
    return true;
  }

  void pump_worker(Worker& w) {
    if (!worker_alive(w)) return;
    w.ch->pump();  // an EOF marks the channel broken, handled by the caller
    while (worker_alive(w)) {
      auto frame = w.ch->pop_frame();
      if (!frame.has_value()) break;
      if (!handle_frame(w, *frame)) {
        // Garbage on a byte stream means nothing after it can be trusted:
        // treat it like a worker death (kill + requeue + supervised respawn)
        // instead of guessing where the next frame starts.
        ++frames_rejected_n;
        retire(w, SlotVerdict::kFailure, "malformed frame");
        return;
      }
    }
  }

  // ---- dispatch ----------------------------------------------------------

  void dispatch_unassigned() {
    while (!unassigned.empty()) {
      Worker* w = least_loaded_alive();
      if (w == nullptr) return;
      if (w->assigned.size() >= kPerWorkerDepth) return;
      core::TrialTask task = std::move(unassigned.front());
      unassigned.pop_front();
      std::uint64_t seq = task.seq;
      if (!w->ch->send_frame(encode_trials({WireTrial{task.seq, std::move(task.strat)}}))) {
        retire(*w, SlotVerdict::kFailure, "send failed");
        auto it = strategies.find(seq);
        if (it != strategies.end()) unassigned.push_back(core::TrialTask{seq, it->second});
        continue;
      }
      w->assigned.push_back(seq);
      w->last_progress = Clock::now();
    }
  }

  void maybe_steal() {
    // Rebalance the campaign tail: an idle worker with nothing left to be
    // dispatched pulls the unstarted end of the most loaded worker's shard.
    if (!unassigned.empty()) return;
    Worker* idle = nullptr;
    Worker* loaded = nullptr;
    for (Worker& w : workers) {
      if (!worker_alive(w)) continue;
      if (w.assigned.empty() && idle == nullptr) idle = &w;
      if (w.assigned.size() >= 2 && (loaded == nullptr || w.assigned.size() > loaded->assigned.size()))
        loaded = &w;
    }
    if (idle == nullptr || loaded == nullptr || loaded->steal_pending) return;
    std::uint64_t count = loaded->assigned.size() / 2;
    if (count == 0) return;
    if (loaded->ch->send_frame(encode_steal(count)))
      loaded->steal_pending = true;
    else
      retire(*loaded, SlotVerdict::kFailure, "send failed");
  }

  /// One trial executed in this process — the shared body behind the
  /// fleet-gone inline fallback and byzantine re-execution. Same templates,
  /// same trial runner, so the record is bit-identical to any honest
  /// worker's, and its registry counts what a worker's would.
  core::TrialOutcome execute_outcome(std::uint64_t seq, const strategy::Strategy& strat) {
    if (inline_arena == nullptr) inline_arena = std::make_unique<core::ScenarioArena>();
    core::TrialOutcome out;
    out.seq = seq;
    out.record =
        core::execute_trial(*inline_arena, ctx, strat, collect_metrics ? &out.metrics : nullptr);
    return out;
  }

  core::TrialOutcome run_inline(core::TrialTask task) {
    // Whole fleet lost for good: the show goes on in-process.
    core::TrialOutcome out = execute_outcome(task.seq, task.strat);
    strategies.erase(task.seq);
    ++inline_ran;
    return out;
  }
};

DistributedBackend::DistributedBackend(DistOptions options) : impl_(new Impl) {
  impl_->options = std::move(options);
}

DistributedBackend::~DistributedBackend() {
  for (auto& w : impl_->workers) impl_->kill_worker(w);
}

bool DistributedBackend::start(const core::CampaignConfig& config,
                               const core::RunMetrics& baseline,
                               const core::RunMetrics& retest_baseline) {
  Impl& im = *impl_;
  // Pointer-carrying campaign features cannot cross a process boundary: a
  // fault plan or inspector would silently not run in workers, so refuse
  // distribution and let the controller fall back to the in-process pool
  // (bench selfcheck uses DistOptions::selfcheck + WorkerHooks instead).
  if (config.scenario.faults != nullptr || config.scenario.inspector != nullptr) return false;
  if (im.options.workers < 1) return false;

  // The trials this process runs itself fork from snapshots like any
  // executor's, so their registries count what a worker's would.
  im.ctx = core::make_trial_context(config, baseline, retest_baseline);
  im.ctx.snapshots = std::make_unique<core::SnapshotStore>();
  im.collect_metrics = config.collect_metrics;
  im.expected_baseline = render_baseline(baseline);
  im.expected_retest = render_baseline(retest_baseline);

  // Supervisor state: one slot per configured worker; respawn scheduling is
  // keyed by the campaign seed unless the caller picked its own.
  SupervisorOptions supervision = im.options.supervision;
  if (supervision.seed == 0) supervision.seed = config.scenario.seed;
  im.sup = Supervisor(im.options.workers, supervision);

  WorkerCampaign& wc = im.wc_template;
  wc.campaign = config;  // only the identity fields and collect_metrics travel
  wc.heartbeat_interval_ms = im.options.heartbeat_interval_ms;
  wc.selfcheck = im.options.selfcheck;
  wc.wire_fault_seed = im.options.wire_fault_seed;
  wc.wire_fault_mask = im.options.wire_fault_mask;
  wc.wire_fault_period = im.options.wire_fault_period;

  im.workers.resize(static_cast<std::size_t>(im.options.workers));
  for (int i = 0; i < im.options.workers; ++i) {
    Impl::Worker& w = im.workers[static_cast<std::size_t>(i)];
    if (!im.spawn_and_greet(w, i, 0))
      im.sup.record_failure(i, Clock::now(), "initial handshake failed");
  }

  // Collect readiness second, so workers compute their baselines in
  // parallel with each other instead of serially behind the handshake.
  bool determinism_ok = true;
  for (Impl::Worker& w : im.workers) {
    if (!im.worker_alive(w)) continue;
    const Ready ready = im.await_ready(w);
    if (ready == Ready::kDiverged) {
      // The worker simulates differently from the coordinator. That must
      // never happen; if it does, no worker verdict is trustworthy.
      determinism_ok = false;
      break;
    }
    if (ready == Ready::kSilent)
      im.sup.record_failure(w.slot, Clock::now(), "no ready before timeout");
  }
  if (!determinism_ok || im.alive_count() == 0) {
    for (auto& w : im.workers) im.kill_worker(w);
    im.workers.clear();
    return false;
  }
  im.started = true;
  return true;
}

std::size_t DistributedBackend::capacity() const {
  std::size_t alive = impl_->alive_count();
  return std::max<std::size_t>(1, alive * kPerWorkerDepth);
}

void DistributedBackend::submit(core::TrialTask task) {
  Impl& im = *impl_;
  im.strategies.emplace(task.seq, task.strat);
  im.unassigned.push_back(std::move(task));
  im.dispatch_unassigned();
}

core::TrialOutcome DistributedBackend::wait_outcome() {
  Impl& im = *impl_;
  while (true) {
    if (!im.outcomes.empty()) {
      core::TrialOutcome out = std::move(im.outcomes.front());
      im.outcomes.pop_front();
      return out;
    }
    im.maybe_respawn();
    im.dispatch_unassigned();
    if (im.alive_count() == 0) {
      if (im.sup.any_respawnable()) {
        // Workers are dead but the supervisor still has budget: wait out the
        // backoff instead of degrading to inline execution — the campaign
        // finishes at fleet parallelism through repeated kills.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      // Respawn exhausted (every slot quarantined or spent): the show goes
      // on in-process with the oldest outstanding trial.
      core::TrialTask task;
      if (!im.unassigned.empty()) {
        task = std::move(im.unassigned.front());
        im.unassigned.pop_front();
      } else {
        auto it = im.strategies.begin();
        task = core::TrialTask{it->first, it->second};
      }
      return im.run_inline(std::move(task));
    }
    im.maybe_steal();

    std::vector<struct pollfd> fds;
    std::vector<Impl::Worker*> by_fd;
    for (Impl::Worker& w : im.workers) {
      if (!im.worker_alive(w)) continue;
      fds.push_back({w.ch->fd(), POLLIN, 0});
      by_fd.push_back(&w);
    }
    int rc = ::poll(fds.data(), fds.size(), 100);
    if (rc < 0 && errno != EINTR) continue;
    const auto now = Clock::now();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Impl::Worker& w = *by_fd[i];
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) im.pump_worker(w);
      if (!im.worker_alive(w)) {
        im.retire(w, SlotVerdict::kFailure,
                  w.ch != nullptr && w.ch->eof() ? "worker eof" : "wire error");
        continue;
      }
      const auto silence =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - w.last_heard).count();
      if (silence > im.options.heartbeat_timeout_ms) {
        im.retire(w, SlotVerdict::kFailure, "heartbeat timeout");
        continue;
      }
      // Dispatch starvation: the worker heartbeats an *empty* queue while
      // trials stand charged to it and nothing has moved for a full liveness
      // window — its shard frame was eaten by the wire (torn or swallowed
      // as garbage payload). Heartbeats keep the ordinary timeout from ever
      // firing, so without this check the stall would be permanent. A false
      // positive (one very slow trial) merely requeues work, never corrupts
      // results.
      const auto stalled =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - w.last_progress).count();
      if (!w.assigned.empty() && w.reported_queue == 0 &&
          stalled > im.options.heartbeat_timeout_ms) {
        im.retire(w, SlotVerdict::kFailure, "dispatch starvation");
      }
    }
  }
}

void DistributedBackend::on_feedback(const std::vector<core::JournalObservation>& pairs) {
  if (pairs.empty()) return;
  const std::string frame = encode_feedback(pairs);
  // A worker can exit between sending its last result and this broadcast.
  // The failed send breaks its channel, which drops it from the poll set, so
  // its death must be handled here: otherwise its shard is never requeued
  // and the campaign waits forever for those trials.
  for (Impl::Worker& w : impl_->workers)
    if (impl_->worker_alive(w) && !w.ch->send_frame(frame))
      impl_->retire(w, SlotVerdict::kFailure, "send failed");
}

void DistributedBackend::finish(obs::MetricsRegistry* into) {
  Impl& im = *impl_;
  // Orderly shutdown: every worker gets shutdown, answers bye (selfcheck
  // tally), and exits; stragglers are killed.
  for (Impl::Worker& w : im.workers) {
    if (!im.worker_alive(w)) continue;
    w.ch->send_frame(encode_shutdown());
  }
  for (Impl::Worker& w : im.workers) {
    if (!im.worker_alive(w)) continue;
    const auto deadline = Clock::now() + std::chrono::milliseconds(im.options.heartbeat_timeout_ms);
    while (im.worker_alive(w) && Clock::now() < deadline) {
      auto frame = w.ch->recv_frame(200);
      if (!frame.has_value()) continue;
      auto m = parse_message(*frame);
      if (!m.has_value()) continue;
      const bool was_bye = m->type == MsgType::kBye;
      im.handle_frame(w, *frame);
      if (was_bye) break;
    }
    im.kill_worker(w);
  }
  for (Impl::Worker& w : im.workers) im.kill_worker(w);

  if (into != nullptr) {
    // Trial metrics arrived with the committed outcomes. What lands here is
    // the fleet's own work: supervision tallies, so quarantines and respawns
    // show in the campaign report's metrics block, and the counters of
    // verification re-executions that committed nothing.
    for (const auto& [name, v] : im.verify_registry.counters())
      into->counter("dist.verify." + name) += v;
    into->counter("dist.workers_spawned") += static_cast<std::uint64_t>(im.spawned);
    into->counter("dist.workers_lost") += static_cast<std::uint64_t>(im.lost);
    into->counter("dist.inline_trials") += im.inline_ran;
    into->counter("dist.workers_respawned") += static_cast<std::uint64_t>(im.sup.total_respawns());
    into->counter("dist.slots_quarantined") +=
        static_cast<std::uint64_t>(im.sup.quarantined_slots());
    into->counter("dist.frames_rejected") += im.frames_rejected_n;
    into->counter("dist.trials_verified") += im.verified;
    into->counter("dist.results_divergent") += im.divergent;
  }
  im.started = false;
}

std::uint64_t DistributedBackend::selfcheck_violations() const { return impl_->violations; }
int DistributedBackend::workers_spawned() const { return impl_->spawned; }
int DistributedBackend::workers_lost() const { return impl_->lost; }
std::uint64_t DistributedBackend::inline_trials() const { return impl_->inline_ran; }
std::uint64_t DistributedBackend::trials_stolen() const { return impl_->stolen; }
int DistributedBackend::workers_respawned() const { return impl_->sup.total_respawns(); }
int DistributedBackend::slots_quarantined() const { return impl_->sup.quarantined_slots(); }
std::uint64_t DistributedBackend::frames_rejected() const { return impl_->frames_rejected_n; }
std::uint64_t DistributedBackend::trials_verified() const { return impl_->verified; }
std::uint64_t DistributedBackend::results_divergent() const { return impl_->divergent; }
std::string DistributedBackend::fleet_report() const { return impl_->sup.report(); }

}  // namespace snake::dist
