// Checkpoint/resume for campaigns: a JSONL trial journal.
//
// Executors append one line per *finished* strategy (completed or
// quarantined) through a shared, mutex-guarded sink. Because each line is a
// self-contained JSON document flushed at once, a killed campaign leaves a
// journal whose every complete line is valid — the loader simply ignores a
// truncated tail. A resumed campaign skips journaled strategies, replaying
// their recorded outcome *and* their recorded state-machine observations
// (the controller's feedback loop input), so the resumed run walks exactly
// the strategy sequence the uninterrupted run would have and reproduces its
// CampaignResult for equal seeds.
//
// This is the SNPSFuzzer idea — cheap mid-campaign state capture — realized
// without process snapshots: the journal *is* the campaign state, because
// every other input (topology, stacks, RNG streams) is derived
// deterministically from the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "snake/detector.h"

namespace snake::core {

struct CampaignConfig;

/// Terminal state of one strategy's trial (after any retries).
enum class TrialVerdict : std::uint8_t {
  kCompleted,    ///< ran to a detection verdict (found or not)
  kAborted,      ///< final attempt cut off by the trial watchdog
  kErrored,      ///< final attempt threw; converted to an errored outcome
  kQuarantined,  ///< failed every attempt; excluded from results
};

const char* to_string(TrialVerdict verdict);

/// A deduplicated (state, packet type) send-observation — the part of a
/// run's tracker feedback the strategy generator consumes.
struct JournalObservation {
  std::string state;
  std::string packet_type;
  auto operator<=>(const JournalObservation&) const = default;
};

/// Everything the controller needs to treat a journaled strategy as done.
struct TrialRecord {
  std::string key;  ///< strategy::canonical_key of the trial's strategy
  TrialVerdict verdict = TrialVerdict::kCompleted;
  std::uint32_t attempts = 1;
  std::uint32_t aborted_attempts = 0;
  std::uint32_t errored_attempts = 0;
  std::string failure_reason;  ///< last abort/error reason ("" when clean)

  /// Detection payload, present when the strategy was found (detected and
  /// retest-confirmed).
  bool found = false;
  Detection detection;
  AttackClass cls = AttackClass::kTrueAttack;
  std::string signature;

  /// Send-observations from the successful attempt's run, replayed into the
  /// generator on resume so incremental strategy generation continues
  /// identically.
  std::vector<JournalObservation> client_obs;
  std::vector<JournalObservation> server_obs;
};

/// Thread-safe JSONL appender. The sink receives one complete line
/// (newline-terminated) per call — an fwrite to an append-mode FILE gives a
/// crash-tolerant checkpoint.
class TrialJournal {
 public:
  using Sink = std::function<void(std::string_view line)>;

  explicit TrialJournal(Sink sink) : sink_(std::move(sink)) {}

  /// Writes the header line identifying the campaign this journal belongs
  /// to: campaign_identity_hash(config), plus the protocol, implementation
  /// and seed for a human reader. Call once on a fresh journal; resumed
  /// journals already carry one.
  void write_header(const CampaignConfig& config);
  /// Same, with the identity hash given. A worker process writes the hash
  /// the coordinator computed, so its journal merges under the campaign's
  /// identity even if its reconstructed config hashed differently.
  void write_header(const CampaignConfig& config, std::uint64_t identity_hash);

  /// Appends one finished trial. Thread-safe; may throw if the sink throws
  /// (the controller converts that into a journal_errors counter and keeps
  /// the campaign running — checkpointing is best-effort, results are not).
  void append(const TrialRecord& record);

  /// Appends one pre-rendered auxiliary JSON object as its own line (no
  /// validation, no trailing newline expected). The greybox controller
  /// checkpoints its search-pool state this way; the loader recognizes such
  /// lines by their schema tag and keeps the last one (see
  /// JournalSnapshot::search_pool_json) instead of counting them skipped.
  void append_raw(std::string_view json_object_line);

 private:
  std::mutex mutex_;
  Sink sink_;
};

/// Parsed journal: the campaign identity from the header plus every complete
/// trial line, keyed by canonical strategy key.
struct JournalSnapshot {
  /// campaign_identity_hash of the recording campaign; 0 when the header
  /// carries none, which matches no campaign.
  std::uint64_t identity_hash = 0;
  std::map<std::string, TrialRecord> trials;
  /// Raw text of the journal's last search-pool checkpoint line (schema
  /// "snake-search-pool/v1"), empty when the campaign wrote none. Kept
  /// opaque here — the search library owns the format and its (strict,
  /// fuzz-hardened) validation; resume correctness never depends on it
  /// because a resumed greybox campaign reconstructs the pool by
  /// deterministic replay.
  std::string search_pool_json;

  /// Whether this journal was recorded by a campaign with the same
  /// campaign_identity_hash — resuming across configs that can change a
  /// verdict would silently mix incompatible outcomes.
  bool compatible_with(const CampaignConfig& config) const;
};

/// Parses a JSONL journal. Lines that fail to parse — including a truncated
/// final line from a killed run — are skipped; a missing/invalid header
/// yields nullopt. `skipped_lines`, when given, receives the ignored count.
std::optional<JournalSnapshot> load_journal(std::string_view text,
                                            std::size_t* skipped_lines = nullptr);

/// Writes one trial record as a JSON object — the journal line encoding,
/// also used verbatim by the dist wire protocol and the result cache so a
/// record survives any of the three round trips unchanged.
void write_json(obs::JsonWriter& w, const TrialRecord& record);

/// Parses write_json's encoding. nullopt on a line that is not a valid
/// record (missing key/verdict, or a found-record without its detection
/// payload).
std::optional<TrialRecord> trial_record_from_json(const obs::JsonValue& v);

/// Merges per-worker journals into one snapshot (coordinator side of the
/// crash-atomic multi-writer scheme: every worker appends to a private file,
/// nobody interleaves). Parts must agree on the header's identity hash — a
/// mismatched part is rejected (nullopt) rather than silently mixed.
/// Truncated tails and corrupt lines are skipped per part, summed into
/// `skipped_lines`; duplicate keys keep the first occurrence.
std::optional<JournalSnapshot> merge_journals(const std::vector<std::string_view>& parts,
                                              std::size_t* skipped_lines = nullptr);

/// Content-addressed campaign identity: a 64-bit FNV-1a over every config
/// field that can change a trial's outcome for a given canonical strategy
/// key — protocol, implementation profile, seed, durations, workload and
/// topology shape, detection threshold, retry/retest plumbing. Strategies
/// are *not* part of it (the cache keys trials by canonical_key under this
/// hash); neither is anything that only changes which strategies get tried
/// (generator config, max_strategies, executors, backend). Campaigns with a
/// fault plan get a distinct identity: injected faults perturb verdicts, and
/// memoizing them would poison real campaigns.
std::uint64_t campaign_identity_hash(const CampaignConfig& config);

}  // namespace snake::core
