#include "snake/trial_runner.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "snake/arena.h"
#include "snake/controller.h"
#include "snake/detector.h"
#include "snake/snapshot.h"

namespace snake::core {

namespace {

/// One scenario run, snapshot-forked when the context allows it. Only first
/// attempts qualify: retries carry perturbed seeds that would each cost a
/// fresh two-pass session build for (usually) a single run.
RunMetrics run_one(ScenarioArena& arena, const TrialContext& ctx,
                   const ScenarioConfig& config, const strategy::Strategy& strat,
                   std::uint32_t attempt) {
  if (ctx.snapshots != nullptr && attempt == 0) {
    std::vector<strategy::Strategy> attacks;
    attacks.push_back(strat);
    std::optional<RunMetrics> forked = ctx.snapshots->run_trial(config, attacks);
    if (forked.has_value()) return *forked;
  }
  return run_scenario(arena, config, strat);
}

/// The one derivation of a campaign's scenario templates (the trial and
/// baseline templates differ only in `faults`).
RunTemplates derive_templates(const CampaignConfig& config, const FaultPlan* faults) {
  RunTemplates t{config.scenario, {}};
  t.run.metrics = nullptr;
  t.run.faults = faults;
  // Trials and baselines take the same cut: the detector compares their
  // byte counts, so both sides must be measured under one run driver.
  t.run.early_exit = config.early_exit;
  t.retest = t.run;
  t.retest.seed += config.retest_seed_offset;
  return t;
}

}  // namespace

RunTemplates baseline_templates(const CampaignConfig& config) {
  return derive_templates(config, nullptr);
}

TrialContext make_trial_context(const CampaignConfig& config, RunMetrics baseline,
                                RunMetrics retest_baseline) {
  TrialContext ctx;
  ctx.templates = derive_templates(config, config.scenario.faults);
  ctx.baseline = std::move(baseline);
  ctx.retest_baseline = std::move(retest_baseline);
  ctx.format = &format_for_protocol(config.scenario.protocol);
  ctx.threshold = config.detect_threshold;
  ctx.max_attempts = std::max<std::uint32_t>(1, config.trial_attempts);
  ctx.retry_seed_offset = config.retry_seed_offset;
  return ctx;
}

std::vector<JournalObservation> journal_observations(
    const std::vector<statemachine::EndpointTracker::Observation>& obs) {
  std::vector<JournalObservation> out;
  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& o : obs) {
    if (o.direction != statemachine::TriggerKind::kSend) continue;
    if (!seen.emplace(o.state, o.packet_type).second) continue;
    out.push_back(JournalObservation{o.state, o.packet_type});
  }
  return out;
}

TrialRecord execute_trial(ScenarioArena& arena, const TrialContext& ctx,
                          const strategy::Strategy& strat, obs::MetricsRegistry* reg) {
  TrialRecord record;
  record.key = strategy::canonical_key(strat);

  // Live trial, guarded: a watchdog abort or an exception fails the attempt
  // instead of wedging or killing the executor; failed attempts retry (once
  // by default) under a perturbed seed.
  obs::ScopedTimer strategy_timer(reg, "campaign.strategy_seconds");
  RunMetrics run;
  bool trial_completed = false;
  TrialVerdict fail_verdict = TrialVerdict::kErrored;
  std::uint32_t attempts_used = 0;
  for (std::uint32_t attempt = 0; attempt < ctx.max_attempts && !trial_completed; ++attempt) {
    attempts_used = attempt + 1;
    if (attempt > 0 && reg != nullptr) ++reg->counter("campaign.trials_retried");
    // The retry seed is a pure function of the retry index so results stay
    // reproducible; the fault key/attempt let seed-driven fault rules target
    // specific strategies and model transient failures.
    ScenarioConfig attempt_config = ctx.templates.run;
    ScenarioConfig attempt_retest = ctx.templates.retest;
    for (ScenarioConfig* c : {&attempt_config, &attempt_retest}) {
      c->seed += attempt * ctx.retry_seed_offset;
      c->fault_key = strat.id;
      c->fault_attempt = attempt;
      c->metrics = reg;
    }
    try {
      run = run_one(arena, ctx, attempt_config, strat, attempt);
      if (run.aborted) {
        fail_verdict = TrialVerdict::kAborted;
        record.failure_reason = run.abort_reason;
        ++record.aborted_attempts;
        if (reg != nullptr) ++reg->counter("campaign.trials_aborted");
        continue;
      }
      Detection first = detect(ctx.baseline, run, ctx.threshold);
      count_detection_reasons(reg, first, ctx.threshold);
      if (first.is_attack) {
        if (reg != nullptr) ++reg->counter("campaign.detected_first_pass");
        // Repeatability check under a different seed.
        obs::ScopedTimer retest_timer(reg, "campaign.retest_seconds");
        RunMetrics again = run_one(arena, ctx, attempt_retest, strat, attempt);
        if (again.aborted) {
          fail_verdict = TrialVerdict::kAborted;
          record.failure_reason = again.abort_reason;
          ++record.aborted_attempts;
          if (reg != nullptr) ++reg->counter("campaign.trials_aborted");
          continue;
        }
        Detection second = detect(ctx.retest_baseline, again, ctx.threshold);
        if (second.is_attack) {
          if (reg != nullptr) ++reg->counter("campaign.retest_confirmed");
          record.found = true;
          record.detection = first;
          record.cls = classify(strat, *ctx.format, first, run);
          record.signature = attack_signature(strat, *ctx.format, first, run, ctx.threshold);
        } else if (reg != nullptr) {
          ++reg->counter("campaign.retest_rejected");
        }
      }
      trial_completed = true;
    } catch (const std::exception& e) {
      fail_verdict = TrialVerdict::kErrored;
      record.failure_reason = e.what();
      ++record.errored_attempts;
      if (reg != nullptr) ++reg->counter("campaign.trials_errored");
    } catch (...) {
      fail_verdict = TrialVerdict::kErrored;
      record.failure_reason = "unknown exception";
      ++record.errored_attempts;
      if (reg != nullptr) ++reg->counter("campaign.trials_errored");
    }
  }
  record.attempts = attempts_used;
  if (trial_completed) {
    record.verdict = TrialVerdict::kCompleted;
    record.client_obs = journal_observations(run.client_observations);
    record.server_obs = journal_observations(run.server_observations);
  } else {
    // Every attempt failed: the caller quarantines. Partial observations
    // from an aborted run would poison the deterministic feedback loop, so
    // a failed trial contributes none.
    record.verdict = fail_verdict;
    if (reg != nullptr) ++reg->counter("campaign.strategies_quarantined");
  }
  return record;
}

// ---------------------------------------------------------------- ThreadBackend

struct ThreadBackend::Impl {
  int executors = 1;

  /// Campaign context, fixed at start(). Its snapshot store is shared by
  /// every executor (see SnapshotStore): sessions are built once per seed
  /// instead of once per executor thread, which drops both duplicate prefix
  /// runs and N-1 resident frozen worlds.
  TrialContext ctx;

  std::mutex mutex;
  std::condition_variable inbox_cv;
  std::condition_variable outbox_cv;
  std::deque<TrialTask> inbox;
  std::deque<TrialOutcome> outbox;
  bool stopping = false;

  bool collect_metrics = true;
  std::vector<std::thread> threads;

  void executor_main() {
    // The executor's arena: network and stacks built once, reset between
    // trials.
    ScenarioArena arena;
    while (true) {
      TrialTask task;
      {
        std::unique_lock<std::mutex> lock(mutex);
        inbox_cv.wait(lock, [&] { return stopping || !inbox.empty(); });
        if (inbox.empty()) return;  // stopping and drained
        task = std::move(inbox.front());
        inbox.pop_front();
      }
      TrialOutcome out;
      out.seq = task.seq;
      out.record = execute_trial(arena, ctx, task.strat, collect_metrics ? &out.metrics : nullptr);
      {
        std::lock_guard<std::mutex> lock(mutex);
        outbox.push_back(std::move(out));
      }
      outbox_cv.notify_one();
    }
  }
};

ThreadBackend::ThreadBackend(int executors) : impl_(new Impl) {
  impl_->executors = std::max(1, executors);
}

ThreadBackend::~ThreadBackend() {
  finish(nullptr);
  delete impl_;
}

bool ThreadBackend::start(const CampaignConfig& config, const RunMetrics& baseline,
                          const RunMetrics& retest_baseline) {
  Impl& im = *impl_;
  im.ctx = make_trial_context(config, baseline, retest_baseline);
  // A fresh campaign-scoped store (sessions key by seed) with one session per
  // executor: the pool's whole point is that every executor can fork trials
  // concurrently; capping below the thread count turns the overflow into
  // fallback full runs (snapshot.pool_exhausted counts them).
  im.ctx.snapshots = std::make_unique<SnapshotStore>();
  im.ctx.snapshots->set_max_sessions_per_seed(static_cast<std::size_t>(im.executors));

  im.collect_metrics = config.collect_metrics;
  im.stopping = false;
  im.threads.reserve(static_cast<std::size_t>(im.executors));
  for (int i = 0; i < im.executors; ++i) im.threads.emplace_back([&im] { im.executor_main(); });
  return true;
}

std::size_t ThreadBackend::capacity() const {
  // Dispatch ahead 2x the pool so a committing coordinator never leaves an
  // executor idle; the in-order commit buffer absorbs the reordering.
  return static_cast<std::size_t>(impl_->executors) * 2;
}

void ThreadBackend::submit(TrialTask task) {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->inbox.push_back(std::move(task));
  }
  impl_->inbox_cv.notify_one();
}

TrialOutcome ThreadBackend::wait_outcome() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->outbox_cv.wait(lock, [&] { return !impl_->outbox.empty(); });
  TrialOutcome out = std::move(impl_->outbox.front());
  impl_->outbox.pop_front();
  return out;
}

void ThreadBackend::finish(obs::MetricsRegistry* /*into*/) {
  Impl& im = *impl_;
  if (!im.threads.empty()) {
    {
      std::lock_guard<std::mutex> lock(im.mutex);
      im.stopping = true;
    }
    im.inbox_cv.notify_all();
    for (auto& t : im.threads) t.join();
    im.threads.clear();
  }
}

}  // namespace snake::core
