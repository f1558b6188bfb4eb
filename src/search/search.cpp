#include "search/search.h"

#include <algorithm>

namespace snake::search {

const char* to_string(SearchMode mode) {
  switch (mode) {
    case SearchMode::kGrid:
      return "grid";
    case SearchMode::kGreybox:
      return "greybox";
  }
  return "grid";
}

std::optional<SearchMode> search_mode_from_string(std::string_view name) {
  if (name == "grid") return SearchMode::kGrid;
  if (name == "greybox") return SearchMode::kGreybox;
  return std::nullopt;
}

double fitness_score(const TrialFeedback& feedback, const SearchConfig& config) {
  if (!feedback.completed) return 0.0;
  const double coverage =
      std::min(1.0, static_cast<double>(feedback.fresh_pairs.size()) / 8.0);
  const double margin = std::max(0.0, feedback.margin);
  return margin + config.coverage_weight * coverage;
}

std::uint32_t energy_for(double fitness, const SearchConfig& config) {
  if (!(fitness > 0.0)) return 0;  // also catches NaN
  const std::uint32_t lo = std::min(config.energy_min, config.energy_max);
  const std::uint32_t hi = std::max(config.energy_min, config.energy_max);
  const double scaled = fitness * std::max(0.0, config.energy_scale);
  // Saturate before the float->int conversion: a huge fitness must clamp,
  // not overflow into UB.
  if (scaled >= static_cast<double>(hi)) return hi;
  const std::uint32_t energy = lo + static_cast<std::uint32_t>(scaled);
  return std::min(hi, std::max(lo, energy));
}

// ---------------------------------------------------------------- engine

namespace {

/// splitmix64 — decorrelates (seed, counter) into an mt19937_64 seed so each
/// mutation draws from an independent, serializable-by-counter stream.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Child ids live far above the generator's sequential range so reports make
/// the provenance of a strategy obvious. Identity never depends on the id
/// (canonical_key excludes it).
constexpr std::uint64_t kChildIdBase = 1ULL << 40;

std::uint64_t pick_index(std::mt19937_64& rng, std::size_t size) {
  return size == 0 ? 0 : rng() % size;
}

template <typename T>
T pick_one(std::mt19937_64& rng, const std::vector<T>& ladder) {
  return ladder[pick_index(rng, ladder.size())];
}

}  // namespace

SearchEngine::SearchEngine(SearchConfig config, std::uint64_t campaign_seed,
                           const packet::HeaderFormat& format,
                           const statemachine::StateMachine& machine)
    : config_(std::move(config)),
      seed_(campaign_seed),
      format_(&format),
      machine_(&machine) {
  if (config_.round_size == 0) config_.round_size = 1;
  if (config_.mutation_attempts == 0) config_.mutation_attempts = 1;
}

// Offered batches keep their generator order: selection is entirely
// priority-driven (next_round), so shuffling here would only randomize the
// tie-break between equal-priority strategies — trading the aggressiveness
// ordering's head start for grid-style luck.
void SearchEngine::offer(std::vector<strategy::Strategy> batch) {
  for (strategy::Strategy& s : batch) {
    std::string key = strategy::canonical_key(s);
    if (!seen_keys_.insert(std::move(key)).second) continue;
    auto coords = std::make_pair(s.target_state, s.packet_type);
    if (known_coords_seen_.insert(coords).second) known_coords_.push_back(coords);
    const bool delivery = s.action != strategy::AttackAction::kInject &&
                          s.action != strategy::AttackAction::kHitSeqWindow;
    const char* dir =
        s.direction == strategy::TrafficDirection::kClientToServer ? ">" : "<";
    if (delivery &&
        activity_coords_.emplace(s.target_state, s.packet_type + dir).second)
      ++state_activity_[coords.first];
    universe_.push_back(std::move(s));
  }
}

void SearchEngine::on_result(const strategy::Strategy& strat,
                             const TrialFeedback& feedback) {
  for (const auto& [state, type] : feedback.fresh_pairs) {
    covered_states_.insert(state);
    covered_types_.insert(type);
  }

  const double fitness = fitness_score(feedback, config_);
  const std::uint32_t energy = energy_for(fitness, config_);
  if (energy == 0) return;
  const std::string key = strategy::canonical_key(strat);
  auto gen_it = generation_of_.find(key);
  const std::uint32_t generation = gen_it == generation_of_.end() ? 0 : gen_it->second;
  if (generation >= config_.max_generation) return;

  for (PoolEntry& e : pool_) {
    if (e.key == key) {
      // Re-seen key (defensive; the engine emits each key once). Keep the
      // better score, top up the energy.
      if (fitness > e.fitness) e.fitness = fitness;
      e.energy_left = std::max(e.energy_left, energy);
      return;
    }
  }
  PoolEntry entry;
  entry.strat = strat;
  entry.key = key;
  entry.fitness = fitness;
  entry.energy_left = energy;
  entry.generation = generation;
  pool_.push_back(std::move(entry));
  if (pool_.size() > std::max<std::size_t>(config_.pool_capacity, 1)) {
    auto weakest = std::min_element(pool_.begin(), pool_.end(),
                                    [](const PoolEntry& a, const PoolEntry& b) {
                                      if (a.fitness != b.fitness) return a.fitness < b.fitness;
                                      return a.key < b.key;
                                    });
    pool_.erase(weakest);
  }
}

std::vector<const SearchEngine::PoolEntry*> SearchEngine::ranked_pool() const {
  std::vector<const PoolEntry*> ranked;
  ranked.reserve(pool_.size());
  for (const PoolEntry& e : pool_) ranked.push_back(&e);
  std::sort(ranked.begin(), ranked.end(), [](const PoolEntry* a, const PoolEntry* b) {
    if (a->fitness != b->fitness) return a->fitness > b->fitness;
    return a->key < b->key;
  });
  return ranked;
}

double SearchEngine::universe_priority(const strategy::Strategy& s) const {
  double priority = 0.0;
  if (covered_states_.contains(s.target_state)) priority += 2000.0;
  if (s.packet_type == "*" || covered_types_.contains(s.packet_type)) priority += 1000.0;
  // Busy states next: a state the traffic dwells in (many distinct packet
  // types offered against it) gives a state-scoped attack far more packets
  // to act on than a transient one — dropping 100% of SYNs "in CLOSED"
  // catches exactly one packet before the state moves on, then
  // retransmission repairs the damage.
  auto activity = state_activity_.find(s.target_state);
  if (activity != state_activity_.end())
    priority += 200.0 * std::min(activity->second, 4);
  // Aggressiveness tie-break, scaled well below one coverage step: the most
  // disruptive parameters first (a 100% drop starves the connection outright;
  // a 12.5% drop mostly rides out on retransmissions), delivery attacks on
  // real traffic before speculative off-path injections. This is what the
  // grid's blind shuffle cannot do and where most of the trials-to-first-
  // attack gap comes from.
  switch (s.action) {
    case strategy::AttackAction::kDrop:
      priority += std::clamp(s.drop_probability, 0.0, 100.0);
      break;
    case strategy::AttackAction::kDuplicate:
      priority += 80.0 * std::min<double>(s.duplicate_count, 64) / 64.0;
      break;
    case strategy::AttackAction::kDelay:
      priority += 70.0 * std::min(s.delay_seconds, 5.0) / 5.0;
      break;
    case strategy::AttackAction::kBatch:
      priority += 60.0 * std::min(s.delay_seconds, 5.0) / 5.0;
      break;
    case strategy::AttackAction::kReflect:
      priority += 50.0;
      break;
    case strategy::AttackAction::kLie:
      priority += 40.0;
      break;
    case strategy::AttackAction::kInject:
      priority += 30.0;
      break;
    case strategy::AttackAction::kHitSeqWindow:
      priority += 20.0;
      break;
  }
  return priority;
}

std::vector<strategy::Strategy> SearchEngine::next_round() {
  std::vector<strategy::Strategy> out;
  ++rounds_;

  // Phase 1: mutation children, fitness-ranked round-robin so the strongest
  // entries spend energy first but no single entry monopolizes a round.
  std::vector<PoolEntry*> ranked;
  ranked.reserve(pool_.size());
  for (PoolEntry& e : pool_) ranked.push_back(&e);
  std::sort(ranked.begin(), ranked.end(), [](const PoolEntry* a, const PoolEntry* b) {
    if (a->fitness != b->fitness) return a->fitness > b->fitness;
    return a->key < b->key;
  });
  bool spent = true;
  while (spent && out.size() < config_.round_size &&
         mutations_spawned_ < config_.max_mutations) {
    spent = false;
    for (PoolEntry* e : ranked) {
      if (out.size() >= config_.round_size) break;
      if (mutations_spawned_ >= config_.max_mutations) break;
      if (e->energy_left == 0 || e->generation >= config_.max_generation) continue;
      --e->energy_left;
      spent = true;
      std::optional<strategy::Strategy> child = mutate(*e);
      if (child.has_value()) {
        ++mutations_spawned_;
        out.push_back(std::move(*child));
      }
    }
  }

  // Phase 2: unexplored universe, covered-coordinates first. A strategy
  // aimed at a (state, packet type) the campaign has actually observed is
  // far likelier to perturb real traffic than one aimed at a never-reached
  // corner; the grid mode's blind shuffle treats both alike.
  if (out.size() < config_.round_size && !universe_.empty()) {
    const std::size_t want = config_.round_size - out.size();
    std::vector<std::pair<double, std::size_t>> order;  // (-priority, index)
    order.reserve(universe_.size());
    for (std::size_t i = 0; i < universe_.size(); ++i)
      order.emplace_back(-universe_priority(universe_[i]), i);
    std::stable_sort(order.begin(), order.end());
    const std::size_t take = std::min(want, order.size());
    std::set<std::size_t> taken;
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(std::move(universe_[order[i].second]));
      taken.insert(order[i].second);
    }
    std::deque<strategy::Strategy> rest;
    for (std::size_t i = 0; i < universe_.size(); ++i)
      if (!taken.contains(i)) rest.push_back(std::move(universe_[i]));
    universe_ = std::move(rest);
  }
  return out;
}

std::optional<strategy::Strategy> SearchEngine::mutate(const PoolEntry& parent) {
  std::mt19937_64 rng(mix64(seed_ ^ mix64(mutation_counter_++)));
  for (std::uint32_t attempt = 0; attempt < config_.mutation_attempts; ++attempt) {
    strategy::Strategy child = parent.strat;
    child.id = kChildIdBase + mutation_counter_;
    // Operator choice, with a fixed fallback order when the drawn operator
    // does not apply to this strategy shape.
    const std::uint64_t op = rng() % 4;
    bool changed = false;
    for (std::uint64_t i = 0; i < 4 && !changed; ++i) {
      switch ((op + i) % 4) {
        case 0:
          changed = refine_parameters(child, rng);
          break;
        case 1:
          changed = mutate_field_value(child, rng);
          break;
        case 2:
          changed = move_neighbourhood(child, rng);
          break;
        case 3:
          changed = splice_coordinates(child, rng);
          break;
      }
    }
    if (!changed) return std::nullopt;  // no operator applies; nothing will
    std::string key = strategy::canonical_key(child);
    if (key == parent.key || !seen_keys_.insert(key).second) continue;
    generation_of_[key] = parent.generation + 1;
    return child;
  }
  return std::nullopt;
}

bool SearchEngine::refine_parameters(strategy::Strategy& child, std::mt19937_64& rng) {
  using strategy::AttackAction;
  static const std::vector<double> kDropLadder = {100.0, 87.5, 75.0, 62.5,
                                                  50.0,  37.5, 25.0, 12.5};
  static const std::vector<int> kDupLadder = {1, 2, 3, 5, 8, 10, 16, 32};
  static const std::vector<double> kDelayLadder = {0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0};
  static const std::vector<double> kBatchLadder = {0.5, 1.0, 2.0, 4.0};
  switch (child.action) {
    case AttackAction::kDrop:
      child.drop_probability = pick_one(rng, kDropLadder);
      return true;
    case AttackAction::kDuplicate:
      child.duplicate_count = pick_one(rng, kDupLadder);
      return true;
    case AttackAction::kDelay:
      child.delay_seconds = pick_one(rng, kDelayLadder);
      return true;
    case AttackAction::kBatch:
      child.delay_seconds = pick_one(rng, kBatchLadder);
      return true;
    case AttackAction::kInject: {
      if (!child.inject.has_value()) return false;
      strategy::InjectSpec& spec = *child.inject;
      const packet::FieldSpec* f = format_->field(spec.seq_field);
      const std::uint64_t max = f != nullptr ? f->max_value() : (1ULL << 32) - 1;
      const std::vector<std::uint64_t> ladder = {
          0, 1, max / 4, max / 2, max / 4 * 3, max, rng() % (max == ~0ULL ? max : max + 1)};
      spec.fields[spec.seq_field] = pick_one(rng, ladder);
      return true;
    }
    case AttackAction::kHitSeqWindow: {
      if (!child.inject.has_value()) return false;
      strategy::InjectSpec& spec = *child.inject;
      switch (rng() % 5) {
        case 0:
          spec.seq_stride = std::max<std::uint64_t>(1, spec.seq_stride * 2);
          break;
        case 1:
          spec.seq_stride = std::max<std::uint64_t>(1, spec.seq_stride / 2);
          break;
        case 2:
          spec.seq_start += std::max<std::uint64_t>(1, spec.seq_stride / 2);
          break;
        case 3:
          spec.count = std::max<std::uint64_t>(1, spec.count / 2);
          break;
        case 4:
          spec.pace_pps = std::max(1.0, spec.pace_pps * (rng() % 2 == 0 ? 2.0 : 0.5));
          break;
      }
      return true;
    }
    case AttackAction::kReflect:
    case AttackAction::kLie:
      return false;
  }
  return false;
}

bool SearchEngine::mutate_field_value(strategy::Strategy& child, std::mt19937_64& rng) {
  using strategy::AttackAction;
  // Non-checksum fields are the mutable surface; checksums are refreshed by
  // the codec after any modification, so lying about them is a no-op.
  std::vector<const packet::FieldSpec*> fields;
  for (const packet::FieldSpec& f : format_->fields())
    if (f.kind != packet::FieldKind::kChecksum) fields.push_back(&f);
  if (fields.empty()) return false;

  if (child.action == AttackAction::kLie && child.lie.has_value()) {
    strategy::LieSpec& lie = *child.lie;
    switch (rng() % 3) {
      case 0: {  // new mode; kRandom ignores the operand, keep it canonical
        lie.mode = static_cast<strategy::LieSpec::Mode>(rng() % 6);
        if (lie.mode == strategy::LieSpec::Mode::kRandom) lie.operand = 0;
        break;
      }
      case 1: {  // new operand drawn from the interesting-value ladder
        const packet::FieldSpec* f = format_->field(lie.field);
        const std::uint64_t max = f != nullptr ? f->max_value() : (1ULL << 32) - 1;
        const std::vector<std::uint64_t> ladder = {0, 1, 2, max, rng() % 65536,
                                                   rng() % (max == ~0ULL ? max : max + 1)};
        lie.operand = pick_one(rng, ladder);
        if (lie.mode == strategy::LieSpec::Mode::kRandom) lie.operand = 0;
        break;
      }
      case 2:  // retarget another header field
        lie.field = fields[pick_index(rng, fields.size())]->name;
        break;
    }
    return true;
  }

  if ((child.action == AttackAction::kInject ||
       child.action == AttackAction::kHitSeqWindow) &&
      child.inject.has_value()) {
    strategy::InjectSpec& spec = *child.inject;
    switch (rng() % 3) {
      case 0: {  // perturb one forged-header field
        const packet::FieldSpec* f = fields[pick_index(rng, fields.size())];
        const std::vector<std::uint64_t> ladder = {
            0, f->max_value(), rng() % (f->max_value() == ~0ULL ? ~0ULL : f->max_value() + 1)};
        spec.fields[f->name] = pick_one(rng, ladder);
        break;
      }
      case 1:  // flip which connection the forgery lands in
        spec.target_competing = !spec.target_competing;
        break;
      case 2:  // flip the spoofed direction (and the match direction with it)
        spec.spoof_toward_client = !spec.spoof_toward_client;
        child.direction = spec.spoof_toward_client
                              ? strategy::TrafficDirection::kServerToClient
                              : strategy::TrafficDirection::kClientToServer;
        break;
    }
    return true;
  }
  return false;
}

bool SearchEngine::move_neighbourhood(strategy::Strategy& child, std::mt19937_64& rng) {
  const bool move_state = known_coords_.empty() || rng() % 2 == 0;
  if (move_state) {
    // Prefer a state one transition away — behaviourally adjacent targets —
    // falling back to a uniform draw over the machine.
    std::vector<const statemachine::Transition*> out =
        machine_->transitions_from(child.target_state);
    std::string next;
    if (!out.empty()) next = out[pick_index(rng, out.size())]->to;
    if (next.empty() || next == child.target_state) {
      const std::vector<std::string>& states = machine_->states();
      if (states.empty()) return false;
      next = states[pick_index(rng, states.size())];
    }
    if (next == child.target_state) return false;
    child.target_state = next;
    return true;
  }
  const auto& [state, type] = known_coords_[pick_index(rng, known_coords_.size())];
  (void)state;
  if (type == child.packet_type) return false;
  child.packet_type = type;
  if (child.inject.has_value()) child.inject->packet_type = type;
  return true;
}

bool SearchEngine::splice_coordinates(strategy::Strategy& child, std::mt19937_64& rng) {
  // Composition operator: this strategy's attack (action + parameters)
  // grafted onto another known strategy's injection point. Trials execute
  // one strategy at a time, so composition means splicing coordinates, not
  // running two attacks back to back.
  std::pair<std::string, std::string> coords;
  if (pool_.size() > 1) {
    const std::vector<const PoolEntry*> ranked = ranked_pool();
    const PoolEntry* donor = ranked[pick_index(rng, ranked.size())];
    coords = {donor->strat.target_state, donor->strat.packet_type};
  } else if (!known_coords_.empty()) {
    coords = known_coords_[pick_index(rng, known_coords_.size())];
  } else {
    return false;
  }
  if (coords.first == child.target_state && coords.second == child.packet_type)
    return false;
  child.target_state = coords.first;
  child.packet_type = coords.second;
  if (child.inject.has_value()) child.inject->packet_type = coords.second;
  return true;
}

}  // namespace snake::search
