// Wire protocol for distributed campaigns (see DESIGN.md, "Distribution
// architecture").
//
// Coordinator and workers talk over a SOCK_STREAM socketpair in
// length-prefixed JSON frames: a 4-byte little-endian payload length
// followed by one JSON document. JSON keeps every payload shared with the
// journal / report / cache encodings (a TrialRecord travels the wire as the
// exact journal line object), which is what makes the distributed campaign
// bit-compatible with the single-process one; the length prefix makes
// framing trivial and torn frames detectable.
//
// Message flow, coordinator's view ("C" = coordinator, "W" = worker):
//   W->C hello      protocol version + pid (sent immediately after exec)
//   C->W campaign   the full campaign wire form (WorkerCampaign)
//   W->C ready      renderings of the worker's own baseline RunMetrics —
//                   "an executor first runs a non-attack test"; C compares
//                   them byte for byte with its own as a cross-process
//                   determinism guard
//   C->W trials     a shard of numbered trials (dynamic sizing)
//   W->C result     one finished TrialRecord, tagged with its seq, plus the
//                   metrics registry that trial recorded
//   C->W steal      give back up to N not-yet-started trials
//   W->C stolen     the seqs handed back (reassigned to an idle worker)
//   C->W feedback   newly covered (state, packet type) pairs, broadcast so
//                   workers can prune already-known observations from
//                   result payloads
//   W->C heartbeat  liveness + queue depth (timeout => worker declared dead)
//   C->W shutdown   campaign drained; worker answers bye and exits
//   W->C bye        selfcheck tally
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "snake/controller.h"
#include "snake/faultpoint.h"

namespace snake::dist {

/// Protocol version carried in hello; a mismatch aborts the handshake (the
/// coordinator falls back to in-process execution rather than guessing).
/// v2: result frames carry a mandatory per-result integrity checksum.
/// v3: campaign frames carry every outcome field (the TCP profile by
/// content, not by name) and are rejected unless they hash to their
/// identity_hash.
/// v4: ready frames carry the baselines as render_baseline strings, compared
/// byte for byte instead of parsed.
/// v5: result frames carry their trial's metrics registry under the
/// checksum; bye frames no longer carry a registry, and campaign frames no
/// journal path.
inline constexpr std::uint32_t kWireVersion = 5;

/// Frames larger than this are treated as a protocol violation (a corrupted
/// length prefix would otherwise ask for gigabytes).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

// ---------------------------------------------------------------- framing

/// One end of a coordinator<->worker stream. Owns the fd. Reads are
/// buffered so a frame arriving in pieces across poll() wakeups is
/// reassembled transparently; writes are blocking-complete (looping over
/// EINTR and partial syscalls). Works on sockets and — for tests that need
/// byte-at-a-time delivery — plain pipes (send()/recv() fall back to
/// write()/read() on ENOTSOCK; pipe users must ignore SIGPIPE themselves).
class Channel {
 public:
  explicit Channel(int fd) : fd_(fd) {}
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  int fd() const { return fd_; }
  bool alive() const { return fd_ >= 0 && !broken_; }
  /// After the channel broke: true when the peer closed cleanly (EOF), false
  /// when a hard error or protocol violation (oversized prefix) broke it.
  bool eof() const { return eof_; }

  /// Sends one frame (length prefix + payload). Returns false when the peer
  /// is gone (EPIPE/EBADF...); the channel is then marked broken. When a
  /// wire fault plan is attached, chaos (torn/garbage/dup/delayed frames,
  /// mid-write death) is applied here, keyed by the per-channel send index.
  bool send_frame(std::string_view payload);

  /// Like send_frame but never applies the chaos schedule (it still flushes
  /// any chaos-delayed holdback). Heartbeats use this: they are time-driven,
  /// so letting them advance the fault index would couple the chaos rate to
  /// wall-clock speed — a slow (sanitized) build would suffer more faults
  /// per unit of *work* than a fast one and exhaust respawn budgets that are
  /// ample on any machine when faults track protocol progress. Heartbeat
  /// disruption stays covered by the dedicated kStallHeartbeat fault.
  bool send_frame_plain(std::string_view payload);

  /// Non-blocking: pulls whatever bytes the stream has into the buffer.
  /// Returns false on EOF or a hard error (channel broken).
  bool pump();

  /// Pops the next complete frame from the buffer, if any. A frame whose
  /// declared length exceeds kMaxFrameBytes breaks the channel.
  std::optional<std::string> pop_frame();

  /// Blocking receive: polls + pumps until one frame is available or
  /// `timeout_ms` elapses (-1 = wait forever). nullopt on timeout or death.
  /// The timeout bounds the *total* wait across poll wakeups.
  std::optional<std::string> recv_frame(int timeout_ms);

  /// Attaches a chaos schedule to the send path (nullptr = off, the default;
  /// costs one pointer check per send). The plan must outlive the channel.
  void set_fault_plan(const core::WireFaultPlan* plan) { faults_ = plan; }

  /// Test hook: cap every read syscall at `n` bytes (0 = no cap) to force
  /// the short-read reassembly paths.
  void set_read_chunk_limit(std::size_t n) { read_chunk_limit_ = n; }

  void close();

 private:
  bool send_impl(std::string_view payload, bool allow_chaos);
  bool write_all(const char* data, std::size_t size);
  ssize_t raw_recv(char* buf, std::size_t cap);

  int fd_ = -1;
  bool broken_ = false;
  bool eof_ = false;
  bool socket_mode_ = true;  ///< flips on ENOTSOCK (pipe-backed tests)
  std::string rx_;
  const core::WireFaultPlan* faults_ = nullptr;
  std::uint64_t tx_ops_ = 0;  ///< send index keying the fault schedule
  std::string delayed_;       ///< kDelayFrame holdback, flushed on next send
  std::size_t read_chunk_limit_ = 0;
};

// --------------------------------------------------------------- messages

enum class MsgType {
  kHello,
  kCampaign,
  kReady,
  kTrials,
  kResult,
  kSteal,
  kStolen,
  kFeedback,
  kHeartbeat,
  kShutdown,
  kBye,
};

const char* to_string(MsgType type);

/// Everything a worker needs to run trials for one campaign, plus the
/// worker-specific options. Of `campaign`, the outcome fields travel as
/// core::visit_identity_fields lists them (the TCP profile by content), plus
/// collect_metrics; the frame carries campaign_identity_hash(campaign) and
/// the decoder re-checks it. The rest stays at its defaults on the worker: strategy selection happens
/// coordinator-side, and pointers never cross the wire (a campaign with a
/// fault plan or inspector refuses distribution, coordinator.cpp).
struct WorkerCampaign {
  core::CampaignConfig campaign;
  int heartbeat_interval_ms = 250;
  bool selfcheck = false;  ///< attach the caller's oracle inspector (hooks)
  /// Test-only fault: _exit(2) after this many results (0 = never). Drives
  /// the kill-a-worker-mid-campaign resilience test without OS-level help.
  std::uint64_t exit_after_results = 0;
  /// Wire chaos schedule for the worker's end of the socket (mask 0 = off).
  /// Applied after the ready handshake so chaos exercises steady-state
  /// traffic, not the spawn path the supervisor needs to make progress.
  /// Never part of the campaign identity: chaos changes delivery, the
  /// recovery machinery guarantees it cannot change results.
  std::uint64_t wire_fault_seed = 0;
  std::uint32_t wire_fault_mask = 0;
  std::uint32_t wire_fault_period = 0;
  /// Test-only byzantine fault: corrupt the Nth result and every later one
  /// before sending (0 = never) — with a *valid* checksum, the way a
  /// genuinely wrong worker would. Only re-execution can catch it.
  std::uint64_t corrupt_after_results = 0;
};

struct WireTrial {
  std::uint64_t seq = 0;
  strategy::Strategy strat;
};

/// A decoded message. Only the fields for its type are meaningful.
struct Message {
  MsgType type = MsgType::kHeartbeat;

  // hello
  std::uint32_t version = 0;
  std::int64_t pid = 0;

  // campaign
  WorkerCampaign campaign;

  // ready (render_baseline of each baseline)
  std::string baseline;
  std::string retest_baseline;

  // trials
  std::vector<WireTrial> trials;

  // result
  std::uint64_t seq = 0;
  core::TrialRecord record;
  obs::MetricsRegistry metrics;  ///< the trial's registry (empty when metrics off)

  // steal
  std::uint64_t steal_count = 0;

  // stolen
  std::vector<std::uint64_t> seqs;

  // feedback
  std::vector<core::JournalObservation> pairs;

  // heartbeat
  std::uint64_t queued = 0;

  // bye
  std::uint64_t selfcheck_violations = 0;
};

/// A baseline as the ready frame carries it: core::write_json's rendering.
/// The coordinator renders its own baselines the same way and compares bytes.
std::string render_baseline(const core::RunMetrics& m);

// Encoders: one per message type, returning the frame payload (not framed).
std::string encode_hello();
std::string encode_campaign(const WorkerCampaign& wc);
std::string encode_ready(const core::RunMetrics& baseline,
                         const core::RunMetrics& retest_baseline);
std::string encode_trials(const std::vector<WireTrial>& trials);
/// Result frames carry a mandatory integrity checksum (the trial-log
/// construction with scope = seq, see core::scoped_record_checksum). When
/// the frame carries the trial's registry (`metrics` non-null; null = metrics
/// off, no "metrics" member), it travels as its write_json rendering in a
/// string, like the ready frame's baselines, and the checksum is chained over
/// those exact bytes. parse_message rejects a result whose checksum is
/// missing or fails re-validation, or whose rendering is not a registry, so
/// transport corruption of the record or its metrics surfaces as a
/// malformed frame.
std::string encode_result(std::uint64_t seq, const core::TrialRecord& record,
                          const obs::MetricsRegistry* metrics = nullptr);
std::string encode_steal(std::uint64_t count);
std::string encode_stolen(const std::vector<std::uint64_t>& seqs);
std::string encode_feedback(const std::vector<core::JournalObservation>& pairs);
std::string encode_heartbeat(std::uint64_t queued);
std::string encode_shutdown();
std::string encode_bye(std::uint64_t violations);

/// Decodes one frame payload. nullopt on anything malformed — unknown type,
/// missing field, bad strategy/record encoding. Decoding is
/// hardened (fuzzed in tests/fuzz_test.cpp): no input may crash it.
std::optional<Message> parse_message(std::string_view payload);

}  // namespace snake::dist
