// Checkpoint/resume and result memoization for campaigns: one JSONL
// trial-record log.
//
// The controller appends one line per committed strategy (completed or
// quarantined) through a mutex-guarded sink. Each line is a
// self-contained JSON document flushed at once and checksummed under the
// campaign identity it belongs to, so a killed campaign leaves a log whose
// every complete line is valid — the loader rejects a torn tail. A resumed
// campaign skips logged strategies, replaying their recorded outcome *and*
// their recorded state-machine observations (the controller's feedback loop
// input), so the resumed run walks exactly the strategy sequence the
// uninterrupted run would have and reproduces its CampaignResult for equal
// seeds. A result cache is the same log read across identities: any
// campaign whose identity matches replays the lines instead of simulating.
//
// This is the SNPSFuzzer idea — cheap mid-campaign state capture — realized
// without process snapshots: the log *is* the campaign state, because every
// other input (topology, stacks, RNG streams) is derived deterministically
// from the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
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

/// FNV-1a over hex16(scope) + "|" + text. The scope is bound to the text,
/// so neither can be edited, nor the text re-homed under another scope,
/// without the checksum changing.
std::uint64_t scoped_checksum(std::uint64_t scope, std::string_view text);

/// The checksum construction every trial-log line and every wire result
/// frame is validated with: scoped_checksum over the *canonical*
/// re-rendering of the record (write_json round-trips exactly, which makes
/// that sound). Log lines use scope = campaign identity; the dist wire uses
/// scope = result seq, so a result can neither be corrupted in flight nor
/// replayed under another trial's seq without detection.
std::uint64_t scoped_record_checksum(std::uint64_t scope, const TrialRecord& record);

/// Renders one trial-log line (newline-terminated): the record's write_json
/// object with two leading keys, "identity" (hex16 of the campaign identity)
/// and "check" (hex16 of scoped_record_checksum(identity, record)). The line
/// stays a plain record document — trial_record_from_json reads it as one —
/// so a journal, a result cache and a concatenation of both are the same
/// file format.
std::string encode_trial_line(std::uint64_t identity, const TrialRecord& record);

/// Thread-safe JSONL appender (the write side of TrialLog). The sink
/// receives one complete line (newline-terminated) per call — an fwrite to
/// an append-mode FILE gives a crash-tolerant checkpoint. Every line carries
/// the campaign identity it belongs to.
class TrialJournal {
 public:
  using Sink = std::function<void(std::string_view line)>;

  explicit TrialJournal(Sink sink) : sink_(std::move(sink)) {}

  /// Appends one finished trial as encode_trial_line(identity, record).
  /// Thread-safe; may throw if the sink throws (the controller converts that
  /// into a journal_errors counter and keeps the campaign running —
  /// checkpointing is best-effort, results are not).
  void append(std::uint64_t identity, const TrialRecord& record);

 private:
  std::mutex mutex_;
  Sink sink_;
};

/// Memoized trial verdicts, pre-bound to one campaign identity (see
/// campaign_identity_hash). A hit replays exactly like a journal resume —
/// recorded outcome plus recorded generator feedback — so cached and
/// uncached campaigns produce equal results (enforced in dist_test.cpp).
class TrialCache {
 public:
  virtual ~TrialCache() = default;

  /// Returns the cached record for a canonical strategy key, or nullptr.
  /// The pointer must stay valid until the next store() call.
  virtual const TrialRecord* lookup(const std::string& key) = 0;

  /// Remembers a freshly computed trial record. Called in commit order.
  virtual void store(const TrialRecord& record) = 0;
};

/// The one trial-record store: resume log and cross-campaign result cache. A trial is a pure function of (campaign
/// identity, canonical strategy key), so the store is a map over that pair,
/// read from any number of encode_trial_line files — one campaign's journal,
/// a cache spanning many campaigns, or several of either concatenated.
///
/// Loading has a single rule: a line counts only once its newline is
/// written and its checksum matches the canonical re-rendering of its
/// record under its identity. Anything else — a torn tail, garbage, an
/// edited verdict, a line re-homed under another identity — is skipped and
/// counted in rejected(). The first copy of an (identity, key) wins, so a
/// cache that two campaigns appended the same trial to keeps one record.
/// Lines of any other shape, such as the "snake-search-pool/v1" checkpoints
/// earlier builds wrote into journals, are rejected like garbage.
class TrialLog {
 public:
  /// In-memory log (tests, resume snapshots, intra-run caches).
  TrialLog() = default;

  /// File-backed log: load() reads `path` if it exists, and every fresh
  /// store() appends one line to it (crash-atomic: a torn final line is
  /// rejected on the next load).
  explicit TrialLog(std::string path) : path_(std::move(path)) {}

  /// Loads the backing file. Missing file = empty log, returns true;
  /// unreadable file returns false.
  bool load() { return path_.empty() || ingest_file(path_); }
  /// Ingests one file (a missing file is empty). Returns false when the
  /// file exists but cannot be read.
  bool ingest_file(const std::string& path);
  /// Ingests log text; call once per file so one file's torn tail never
  /// glues onto the next file's first line.
  void ingest(std::string_view text);

  /// The record for (identity, key), or nullptr.
  const TrialRecord* find(std::uint64_t identity, const std::string& key) const;
  /// Remembers a record under `identity` (first copy wins) and appends its
  /// line to the backing file when it is new. Appending is best-effort.
  void store(std::uint64_t identity, const TrialRecord& record);

  /// Whether any record belongs to `identity`.
  bool holds(std::uint64_t identity) const;
  /// Records stored under `identity`.
  std::size_t count(std::uint64_t identity) const;

  /// Records that survived validation, across every identity.
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Lines rejected by the loading rule.
  std::uint64_t rejected() const { return rejected_; }

  using Entries = std::map<std::pair<std::uint64_t, std::string>, TrialRecord>;
  const Entries& entries() const { return entries_; }

  /// Crash-safe rewrite of the backing file: re-validates every line, drops
  /// rejected and duplicate ones, writes the survivors canonically (records
  /// first-wins) to `path + ".tmp"`
  /// and renames it over the original — a crash at any point leaves either
  /// the old file or the new one, never a mix. Call before load(); does not
  /// touch in-memory entries. No-op (ok=true) for memory-only logs and
  /// missing files.
  struct CompactStats {
    bool ok = false;
    std::size_t kept = 0;
    std::uint64_t dropped_invalid = 0;    ///< lines the loading rule rejects
    std::uint64_t dropped_duplicate = 0;  ///< later copies of an (identity, key)
  };
  CompactStats compact();

  /// The TrialCache the controller plugs in: lookups and stores scoped to
  /// one campaign identity. The view borrows the log; one view at a time
  /// per log (the controller is single-threaded about it).
  class View : public TrialCache {
   public:
    View(TrialLog& log, std::uint64_t identity) : log_(&log), identity_(identity) {}
    const TrialRecord* lookup(const std::string& key) override {
      return log_->find(identity_, key);
    }
    void store(const TrialRecord& record) override { log_->store(identity_, record); }

   private:
    TrialLog* log_;
    std::uint64_t identity_;
  };
  View view(std::uint64_t identity) { return View(*this, identity); }

 private:
  std::string path_;  ///< "" = memory-only
  Entries entries_;
  std::uint64_t rejected_ = 0;
};

/// Writes one trial record as a JSON object — the body of a trial-log line,
/// also used verbatim by the dist wire protocol, so a record survives every
/// round trip unchanged.
void write_json(obs::JsonWriter& w, const TrialRecord& record);

/// Parses write_json's encoding (extra keys, such as a log line's
/// "identity" and "check", are ignored). nullopt on a document that is not a
/// valid record (missing key/verdict, or a found-record without its
/// detection payload).
std::optional<TrialRecord> trial_record_from_json(const obs::JsonValue& v);

/// The one list of config fields that decide a trial's outcome for a given
/// canonical strategy key, in identity-hash order. Strategies are not part
/// of it (the cache keys trials by canonical_key); neither is anything that
/// only changes which strategies run or where (generator, search mode, caps,
/// executors, backend). `config` is a CampaignConfig, const or not; the sink
/// `v` gets v(key, field) per outcome field and v.hash_only(term) for terms
/// only the identity folds in. Branches read fields already visited, so a
/// decoder that fills the config as it goes takes the encoder's path. The
/// identity hash and the dist wire's campaign encoder and decoder are its
/// three sinks.
template <class Config, class V>
void visit_identity_fields(Config& config, V& v) {
  auto& s = config.scenario;
  v("protocol", s.protocol);
  if (s.protocol == Protocol::kTcp) {
    // The profile by content: an edited profile that keeps its name is a
    // different implementation.
    auto& p = s.tcp_profile;
    v("tcp_profile", p.name);
    v("invalid_flags", p.invalid_flags);
    v("naive_cwnd_per_ack", p.naive_cwnd_per_ack);
    v("fast_retransmit", p.fast_retransmit);
    v("dsack_dupack_suppression", p.dsack_dupack_suppression);
    v("rst_data_after_fin", p.rst_data_after_fin);
    v("sack", p.sack);
    v("dsack_blocks", p.dsack_blocks);
    v("sack_renege", p.sack_renege);
    v("max_retries", p.max_retries);
    v("min_rto_ns", p.min_rto);
    v("initial_cwnd_segments", p.initial_cwnd_segments);
    v("initial_ssthresh", p.initial_ssthresh);
    v("max_cwnd", p.max_cwnd);
  } else {
    v.hash_only("linux-3.13");  // the one DCCP implementation modelled
  }
  v("seed", s.seed);
  v("test_duration_ns", s.test_duration);
  v("download_bytes", s.download_bytes);
  v("client1_exit_fraction", s.client1_exit_fraction);
  v("dccp_offer_rate_pps", s.dccp_offer_rate_pps);
  v("dccp_payload_bytes", s.dccp_payload_bytes);
  v("dccp_data_fraction", s.dccp_data_fraction);
  v("dccp_tx_queue_packets", s.dccp_tx_queue_packets);
  v("dccp_ccid", s.dccp_ccid);
  v("access_rate_bps", s.topology.access_rate_bps);
  v("access_delay_ns", s.topology.access_delay);
  v("access_queue_packets", s.topology.access_queue_packets);
  v("bottleneck_rate_bps", s.topology.bottleneck_rate_bps);
  v("bottleneck_delay_ns", s.topology.bottleneck_delay);
  v("bottleneck_queue_packets", s.topology.bottleneck_queue_packets);
  v("bottleneck_drop_policy", s.topology.bottleneck_drop_policy);
  v("event_budget", s.event_budget);
  v("wall_limit_seconds", s.wall_limit_seconds);
  // Injected faults perturb verdicts, so a campaign with a fault plan gets
  // its own identity. Plans never cross the wire: such campaigns refuse
  // distribution.
  v.hash_only(s.faults != nullptr);
  v("workload", s.workload);
  if (s.workload == Workload::kTrace) {
    v("trace_text", s.trace_text);
    v("trace_max_flows", s.trace_max_flows);
    v("trace_time_scale", s.trace_time_scale);
  }
  v("detect_threshold", config.detect_threshold);
  v("retest_seed_offset", config.retest_seed_offset);
  v("trial_attempts", config.trial_attempts);
  v("retry_seed_offset", config.retry_seed_offset);
}

/// Content-addressed campaign identity: a 64-bit FNV-1a over
/// visit_identity_fields. Protocol and workload fold in by name; the bulk
/// workload folds in nothing, so identities from before trace workloads
/// existed are unchanged.
std::uint64_t campaign_identity_hash(const CampaignConfig& config);

}  // namespace snake::core
