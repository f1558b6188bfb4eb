// Worker-process side of the distributed campaign (see DESIGN.md,
// "Distribution architecture").
//
// A worker is the same executable as the coordinator, re-entered through
// maybe_run_worker(): the coordinator forks and execs /proc/self/exe with
// `--snake-worker-child <fd>`, where <fd> is the worker end of a
// socketpair. The worker speaks the wire protocol (wire.h), runs its own
// non-attack baselines as a cross-process determinism guard, then executes
// trial shards through the exact execute_trial() body the in-process pool
// uses — which is why a distributed campaign's result is bit-identical to
// the single-process one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "snake/scenario.h"

namespace snake::dist {

/// Capabilities only the embedding executable can provide. snake_dist must
/// not link the testing/bench layers, but `bench_table1 --selfcheck
/// --workers N` still wants its invariant oracles active inside every worker
/// process — so the executable's main() passes a factory down.
struct WorkerHooks {
  /// Called once per worker when the campaign has selfcheck=true; the
  /// returned inspector is attached to every trial run. Receives the
  /// campaign's scenario so the factory can build protocol-appropriate
  /// oracles. May be empty (the worker then runs without oracles and
  /// reports zero violations).
  std::function<std::unique_ptr<core::RunInspector>(const core::ScenarioConfig&)>
      make_inspector;

  /// Reads the violation tally out of the inspector created above (called
  /// at shutdown, before the bye message). May be empty.
  std::function<std::uint64_t(core::RunInspector&)> violations;
};

/// Runs the worker loop on an already-connected channel fd. Returns the
/// process exit code (0 = clean shutdown handshake).
int run_worker(int fd, const WorkerHooks& hooks);

/// Checks argv for the `--snake-worker-child <fd>` marker; when present,
/// runs the worker loop and returns its exit code (the caller must exit with
/// it, before initializing anything else — test frameworks included).
/// Returns nullopt in a normal (coordinator / standalone) invocation.
std::optional<int> maybe_run_worker(int argc, char** argv, const WorkerHooks& hooks = {});

}  // namespace snake::dist
