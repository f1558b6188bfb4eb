// Feedback-guided greybox strategy search.
//
// The paper's controller enumerates the (packet type × protocol state ×
// basic attack) grid exhaustively; that stops scaling the moment the
// strategy space is enriched. This library adds the coverage-guided
// alternative from the greybox-fuzzing literature (SNPSFuzzer, the protocol
// fuzzing survey): a seeded pool of promising strategies scored by a fitness
// built from tracker state-coverage and detector margin, mutated and
// recombined under a power-schedule-style energy budget.
//
// Determinism contract
// --------------------
// The engine is driven exclusively from the controller's *commit path*,
// which processes trials strictly in dispatch order whatever backend runs
// them. All engine decisions — universe ordering, pool updates, child
// generation — happen inside offer()/on_result() calls made in commit order,
// and next_round() is only invoked at a full drain barrier (no trial in
// flight, nothing pending). Every random draw comes from an Rng keyed by
// (campaign seed, mutation counter), never from global state. Together that
// makes a greybox campaign a pure function of its seed: bit-identical across
// executor counts, worker processes, snapshot-forked vs from-zero trials and
// warm/cold result caches — the same guarantee the grid mode has, enforced
// in tests/search_test.cpp.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "packet/header_format.h"
#include "statemachine/state_machine.h"
#include "strategy/strategy.h"

namespace snake::search {

/// How the campaign walks its strategy space.
enum class SearchMode {
  kGrid,     ///< exhaustive enumeration in generator order (the paper)
  kGreybox,  ///< fitness-guided pool search over the same universe
};

const char* to_string(SearchMode mode);
/// Parses "grid" / "greybox"; nullopt on anything else.
std::optional<SearchMode> search_mode_from_string(std::string_view name);

struct SearchConfig {
  /// Strategies emitted per next_round() call. Rounds are the search's
  /// synchronization unit: the controller drains every trial of a round
  /// before asking for the next, so selection always sees complete feedback.
  std::size_t round_size = 32;
  /// Pool capacity; the lowest-fitness entry is evicted first (ties broken
  /// by canonical key, so eviction is deterministic).
  std::size_t pool_capacity = 64;
  /// Power schedule: energy (number of mutation children a pool entry may
  /// spawn) is energy_min + floor(fitness * energy_scale), clamped to
  /// [energy_min, energy_max]. Bounds are enforced for every finite fitness
  /// (property-tested in search_test.cpp).
  std::uint32_t energy_min = 1;
  std::uint32_t energy_max = 6;
  double energy_scale = 4.0;
  /// Mutation lineage depth cap: children of generation >= max_generation
  /// spawn no further children, bounding the search even when every child
  /// looks promising.
  std::uint32_t max_generation = 6;
  /// Global child budget; with the generation cap this guarantees
  /// termination of an uncapped (max_strategies = 0) greybox campaign.
  std::uint64_t max_mutations = 4096;
  /// Attempts per child to mutate into a canonical key not seen before;
  /// after this many collisions the energy point is forfeited.
  std::uint32_t mutation_attempts = 8;
  /// Weight of the state-coverage term against the detector-margin term in
  /// the fitness (see fitness_score).
  double coverage_weight = 0.5;
};

/// What the controller feeds back for one committed trial. Everything is
/// derived from the committed TrialRecord and the controller's monotone
/// covered-pair set, so a replayed trial (journal resume, warm cache) yields
/// exactly the feedback the live run did.
struct TrialFeedback {
  bool completed = false;  ///< verdict == kCompleted (quarantines score 0)
  bool found = false;      ///< detected + retest-confirmed
  /// Detector margin: impact_score(detection) when found, else 0 (the
  /// record only carries a detection payload for found strategies).
  double margin = 0.0;
  /// (state, packet type) send-pairs this trial covered for the first time
  /// in the campaign.
  std::vector<std::pair<std::string, std::string>> fresh_pairs;
};

/// Fitness of one trial: margin + coverage_weight * min(1, fresh/8).
/// Monotone in both the margin and the fresh-pair count (property-tested).
double fitness_score(const TrialFeedback& feedback, const SearchConfig& config);

/// Power-schedule energy for a fitness value. Returns 0 for fitness <= 0
/// (uninteresting trials spawn nothing); otherwise a value in
/// [energy_min, energy_max], monotone non-decreasing in fitness.
std::uint32_t energy_for(double fitness, const SearchConfig& config);

/// The greybox engine. Single-threaded by design: only the controller's
/// coordinating thread calls it, at deterministic points (see file header).
class SearchEngine {
 public:
  SearchEngine(SearchConfig config, std::uint64_t campaign_seed,
               const packet::HeaderFormat& format,
               const statemachine::StateMachine& machine);

  /// Adds generator output to the unexplored universe, deduplicated by
  /// canonical key. Generator order is kept: selection is priority-driven,
  /// and offer order is only the final tie-break.
  void offer(std::vector<strategy::Strategy> batch);

  /// Commits one trial's feedback: updates coverage maps, scores the
  /// strategy, and admits it to the pool when its fitness is positive.
  void on_result(const strategy::Strategy& strat, const TrialFeedback& feedback);

  /// Emits the next round of strategies: mutation children of energized pool
  /// entries first (fitness-ranked round-robin), then unexplored universe
  /// candidates ordered by coverage priority — strategies targeting states
  /// and packet types the campaign has actually observed come before those
  /// targeting never-reached corners. Empty when the search is exhausted.
  std::vector<strategy::Strategy> next_round();

  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t mutations_spawned() const { return mutations_spawned_; }

 private:
  struct PoolEntry {
    strategy::Strategy strat;
    std::string key;
    double fitness = 0.0;
    std::uint32_t energy_left = 0;
    std::uint32_t generation = 0;
  };

  /// One mutation attempt cycle for `parent`; nullopt when every attempt
  /// collided with an already-seen canonical key.
  std::optional<strategy::Strategy> mutate(const PoolEntry& parent);

  // Mutation operators. Each edits `child` in place; returns false when the
  // operator does not apply to the strategy shape (the caller falls through
  // to the next operator).
  bool refine_parameters(strategy::Strategy& child, std::mt19937_64& rng);
  bool mutate_field_value(strategy::Strategy& child, std::mt19937_64& rng);
  bool move_neighbourhood(strategy::Strategy& child, std::mt19937_64& rng);
  bool splice_coordinates(strategy::Strategy& child, std::mt19937_64& rng);

  std::vector<const PoolEntry*> ranked_pool() const;
  /// Selection score for an unexplored universe strategy: coverage dominates
  /// (strategies aimed at observed states/types before never-reached
  /// corners), an aggressiveness heuristic breaks ties (drop 100% before
  /// drop 12.5%, delivery attacks before speculative injections). A pure
  /// function of the strategy and the engine's covered sets — no randomness,
  /// so ordering stays bit-identical across backends.
  double universe_priority(const strategy::Strategy& s) const;

  SearchConfig config_;
  std::uint64_t seed_ = 0;
  const packet::HeaderFormat* format_;
  const statemachine::StateMachine* machine_;

  std::deque<strategy::Strategy> universe_;
  std::vector<PoolEntry> pool_;
  std::set<std::string> seen_keys_;
  std::map<std::string, std::uint32_t> generation_of_;  ///< children only (else 0)

  /// Coverage maps from feedback: states / packet types the campaign has
  /// observed real traffic in. Drives universe prioritization.
  std::set<std::string> covered_states_;
  std::set<std::string> covered_types_;

  /// Distinct (packet type, direction) pairs per target state among offered
  /// *delivery* attacks (drop/duplicate/delay/...), which the generator only
  /// emits for observed send-pairs — a dwell-time proxy: ESTABLISHED carries
  /// many packet types in both directions, CLOSED only teardown leftovers one
  /// way. Off-path injections are excluded: they are forged against every
  /// machine state and would saturate the signal. Ranks universe picks toward
  /// busy states, where a state-scoped attack touches the most traffic.
  std::map<std::string, int> state_activity_;
  std::set<std::pair<std::string, std::string>> activity_coords_;
  /// Coordinate donors for the splice operator, collected from every offered
  /// strategy in offer order.
  std::vector<std::pair<std::string, std::string>> known_coords_;
  std::set<std::pair<std::string, std::string>> known_coords_seen_;

  std::uint64_t mutation_counter_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t mutations_spawned_ = 0;
};

}  // namespace snake::search
