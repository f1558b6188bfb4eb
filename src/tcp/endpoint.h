// One TCP connection endpoint: the full RFC 793 connection machine with
// reliability (RTO + fast retransmit), New Reno congestion control, flow
// control, and teardown — including the profile-specific behaviours the
// paper's attacks exploit (see tcp/profile.h).
//
// Endpoints live inside a TcpStack (tcp/stack.h), which owns demux and the
// "netstat" view the resource-exhaustion detector queries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/node.h"
#include "tcp/congestion.h"
#include "tcp/profile.h"
#include "tcp/segment.h"
#include "tcp/seq.h"
#include "util/byte_queue.h"
#include "util/fifo.h"
#include "util/rng.h"
#include "util/time.h"

namespace snake::tcp {

enum class TcpState {
  kClosed,
  kListen,  // only used by the stack's listener bookkeeping
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

/// Names match the dot state machine in statemachine/protocol_specs.cpp.
const char* to_string(TcpState state);

/// Application-facing callbacks. All optional.
struct TcpCallbacks {
  std::function<void()> on_established;
  /// In-order bytes for the application. The span views the arriving
  /// packet's buffer (or the endpoint's out-of-order store) and is valid
  /// only during the call: copy what must outlive it.
  std::function<void(std::span<const std::uint8_t>)> on_data;
  std::function<void()> on_remote_close;  ///< peer FIN processed
  std::function<void()> on_reset;         ///< connection aborted (RST or give-up)
  std::function<void()> on_closed;        ///< socket fully released
};

/// Counters exposed for tests, detection, and the experiment reports.
struct TcpEndpointStats {
  std::uint64_t bytes_sent_wire = 0;        ///< payload bytes put on the wire
  std::uint64_t bytes_delivered = 0;        ///< in-order payload handed to the app
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t dup_acks_received = 0;
  std::uint64_t dsack_acks_received = 0;  ///< dupacks carrying a DSACK indication
  std::uint64_t dsack_acks_sent = 0;       ///< acks we sent flagged DSACK
  std::uint64_t rsts_sent = 0;
  std::uint64_t rsts_received = 0;
  std::uint64_t invalid_flag_segments = 0;  ///< nonsensical flag combos seen
  std::uint64_t invalid_flag_responses = 0; ///< ...that we answered (fingerprint!)
  std::uint64_t ooo_buffered = 0;           ///< out-of-order segments buffered
  std::uint64_t ooo_discarded = 0;          ///< out-of-order segments discarded (buffer full)
  std::uint64_t sack_blocks_sent = 0;       ///< SACK blocks emitted in ACK options
  std::uint64_t sack_blocks_received = 0;   ///< SACK blocks seen by the sender side
  std::uint64_t sack_retransmits = 0;       ///< hole retransmits driven by the scoreboard
  std::uint64_t sack_reneges = 0;           ///< SACKed ranges later discarded (renege profile)

  /// Calls `f(name, member)` for every counter: the one field list the
  /// per-run registry export ("tcp.endpoint.<name>") walks.
  template <typename F>
  static void for_each_field(F&& f) {
    f("bytes_sent_wire", &TcpEndpointStats::bytes_sent_wire);
    f("bytes_delivered", &TcpEndpointStats::bytes_delivered);
    f("segments_sent", &TcpEndpointStats::segments_sent);
    f("retransmissions", &TcpEndpointStats::retransmissions);
    f("fast_retransmits", &TcpEndpointStats::fast_retransmits);
    f("timeouts", &TcpEndpointStats::timeouts);
    f("dup_acks_received", &TcpEndpointStats::dup_acks_received);
    f("dsack_acks_received", &TcpEndpointStats::dsack_acks_received);
    f("dsack_acks_sent", &TcpEndpointStats::dsack_acks_sent);
    f("rsts_sent", &TcpEndpointStats::rsts_sent);
    f("rsts_received", &TcpEndpointStats::rsts_received);
    f("invalid_flag_segments", &TcpEndpointStats::invalid_flag_segments);
    f("invalid_flag_responses", &TcpEndpointStats::invalid_flag_responses);
    f("ooo_buffered", &TcpEndpointStats::ooo_buffered);
    f("ooo_discarded", &TcpEndpointStats::ooo_discarded);
    f("sack_blocks_sent", &TcpEndpointStats::sack_blocks_sent);
    f("sack_blocks_received", &TcpEndpointStats::sack_blocks_received);
    f("sack_retransmits", &TcpEndpointStats::sack_retransmits);
    f("sack_reneges", &TcpEndpointStats::sack_reneges);
  }
};

struct TcpEndpointConfig {
  sim::Address remote_addr = 0;
  std::uint16_t local_port = 0;
  std::uint16_t remote_port = 0;
  std::size_t mss = 1400;
  std::size_t recv_buffer = 65535;
  Duration time_wait = Duration::seconds(60.0);  // 2*MSL
  Duration initial_rto = Duration::seconds(1.0);
};

/// An out-of-order segment held until the hole below it fills: its bytes,
/// copied out of the packet into a buffer from the scenario's queue pool.
struct OutOfOrderSegment {
  Seq seq = 0;
  Bytes data;
};

/// Every mutable per-connection member of a TcpEndpoint. The endpoint
/// inherits it privately, so its methods use these members by name; a
/// snapshot is a copy of this struct. Its queues are flat — blocks, vectors
/// and Fifos, no tree or deque node per byte run or segment — and copy only
/// their live contents, so a snapshot costs what the connection holds.
/// Identity members (node, profile, config, callbacks) stay on TcpEndpoint:
/// a restore writes into the same endpoint object whose callbacks were
/// wired at creation. Timer handles are copied verbatim; they stay valid
/// because the scheduler snapshot preserves slot indices and generations.
struct TcpEndpointState {
  TcpEndpointState(const TcpProfile& profile, const TcpEndpointConfig& config, snake::Rng rng)
      : rng_(rng),
        cc_(config.mss, profile),
        rto_(std::max(config.initial_rto, profile.min_rto)) {}

  snake::Rng rng_;
  TcpState state_ = TcpState::kClosed;
  bool released_ = false;

  // Send sequence space.
  Seq iss_ = 0;
  Seq snd_una_ = 0;
  Seq snd_nxt_ = 0;
  Seq snd_max_ = 0;  ///< highest sequence ever sent (survives RTO rewind)
  std::uint32_t snd_wnd_ = 0;
  ByteQueue send_buf_;  ///< bytes [snd_una_, snd_una_+size), blocks from the queue pool
  // Stream-offset bookkeeping for PSH: real stacks set PSH on the final
  // segment of each application write, so bulk data carries PSH "only
  // occasionally". Offsets are cumulative byte counts since connect.
  std::uint64_t queued_total_ = 0;
  std::uint64_t acked_total_ = 0;
  Fifo<std::uint64_t> push_points_;
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  Seq fin_seq_ = 0;
  bool app_exited_ = false;

  // Receive sequence space.
  Seq irs_ = 0;
  Seq rcv_nxt_ = 0;
  /// Sorted by wrap-safe seq order, at most one segment per start seq.
  std::vector<OutOfOrderSegment> out_of_order_;
  std::size_t out_of_order_bytes_ = 0;
  bool remote_fin_seen_ = false;

  // SACK (RFC 2018/2883). Negotiated on the handshake; the sender scoreboard
  // holds disjoint SACKed ranges strictly above snd_una_, coalesced and
  // pruned as the cumulative ACK advances, cleared on RTO (reneging safety).
  bool sack_enabled_ = false;
  std::vector<SackBlock> sacked_;  ///< disjoint [start, end) ranges, wrap-safe order
  Seq sack_retx_next_ = 0;  ///< next hole candidate in the current recovery
  std::optional<Seq> last_ooo_start_;  ///< most recent out-of-order arrival

  // Congestion control & recovery.
  CongestionControl cc_;
  Seq recover_ = 0;
  Seq last_retx_end_ = 0;  ///< end of the most recent loss-recovery retransmit

  // RTT estimation (RFC 6298).
  std::optional<Duration> srtt_;
  Duration rttvar_ = Duration::zero();
  Duration rto_;
  std::optional<Seq> timed_seq_;
  TimePoint timed_at_;

  // Timers.
  sim::Timer retransmit_timer_;
  /// Lazy RTO restart: every ACK restarts the retransmit clock, but a
  /// cancel + reschedule per ACK is the largest single source of scheduler
  /// traffic in a bulk transfer. The physical event stays at `rtx_fire_at_`
  /// and `rtx_deadline_` records where the clock logically is; a fire before
  /// the deadline re-sleeps instead of timing out.
  TimePoint rtx_deadline_;
  TimePoint rtx_fire_at_;
  sim::Timer time_wait_timer_;
  int retries_ = 0;

  TcpEndpointStats stats_;
};

class TcpEndpoint : private TcpEndpointState {
 public:
  /// `on_released` lets the owning stack learn when the socket leaves the
  /// "netstat" table.
  TcpEndpoint(sim::Node& node, const TcpProfile& profile, TcpEndpointConfig config,
              TcpCallbacks callbacks, snake::Rng rng, std::function<void()> on_released);
  ~TcpEndpoint();
  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  // ---- Application API -----------------------------------------------
  /// Installs/replaces the application callbacks (used by the stack's
  /// accept path, which must construct the endpoint before the application
  /// can see it).
  void set_callbacks(TcpCallbacks callbacks) { callbacks_ = std::move(callbacks); }

  /// Active open (client). Sends SYN.
  void connect();

  /// Passive open (server side); called by the stack on an incoming SYN.
  /// `peer_sack_permitted` reflects the SYN's kind-4 option (RFC 2018 §2).
  void accept(Seq remote_isn, bool peer_sack_permitted = false);

  /// Queues application data for transmission (copied into the send
  /// queue; PSH marks the end of this write).
  void send(std::span<const std::uint8_t> data);

  /// Graceful close: FIN after queued data drains.
  void close();

  /// The application process exits abruptly mid-connection (e.g. the paper's
  /// wget client terminating during an HTTP download). Sends FIN like a
  /// normal close, but — on profiles with rst_data_after_fin — any data
  /// arriving afterwards is answered with RST instead of an ACK. Blocking
  /// those RSTs is the CLOSE_WAIT Resource Exhaustion attack.
  void app_exit();

  /// Hard abort: RST now, socket released.
  void abort();

  // ---- Wire input (from the stack demux) ------------------------------
  void on_segment(const Segment& segment);

  // ---- Snapshot support ------------------------------------------------
  using State = TcpEndpointState;
  State capture() const { return *this; }
  void restore(const State& state) { State::operator=(state); }

  /// Marks the endpoint dead without cancelling timers or firing callbacks.
  /// Used when restoring an earlier snapshot on a graph that has since grown:
  /// this endpoint was created after the capture point, so in the restored
  /// world it must not exist — but later snapshots still reference its
  /// address, so the object itself must stay allocated. It takes a fresh
  /// State marked released: its stale timer handles are detached (not
  /// cancelled: their slot/generation pairs may now name live events owned
  /// by others) and its stats count nothing.
  void snapshot_zombify();

  // ---- Introspection ---------------------------------------------------
  TcpState state() const { return state_; }
  bool released() const { return released_; }
  /// False once send() drops its data: after close(), a FIN or release.
  bool accepts_data() const { return !released_ && !fin_pending_ && !fin_sent_; }
  const TcpEndpointStats& stats() const { return stats_; }
  const TcpEndpointConfig& config() const { return config_; }
  const TcpProfile& profile() const { return *profile_; }
  std::size_t send_queue_bytes() const { return send_buf_.size(); }
  std::size_t cwnd() const { return cc_.cwnd(); }
  Seq snd_nxt() const { return snd_nxt_; }
  Seq rcv_nxt() const { return rcv_nxt_; }
  bool sack_enabled() const { return sack_enabled_; }
  std::size_t sack_scoreboard_ranges() const { return sacked_.size(); }

 private:
  // Segment processing, in RFC 793 "segment arrives" order.
  void handle_syn_sent(const Segment& s);
  void handle_syn_rcvd(const Segment& s);
  void handle_synchronized(const Segment& s);
  bool handle_invalid_flags(const Segment& s);
  void process_ack(const Segment& s);
  void process_payload(const Segment& s);
  void process_fin(const Segment& s);

  // SACK (RFC 2018/2883).
  /// Folds the ACK's SACK blocks into the sender scoreboard. `saw_dsack`
  /// reports a leading duplicate block at or below the cumulative ACK;
  /// `advanced` reports that the scoreboard now covers new sequence space.
  void absorb_sack(const Segment& s, bool& saw_dsack, bool& advanced);
  /// The SACK blocks the receiver side advertises right now: coalesced
  /// out-of-order ranges, most recently changed first, optional leading
  /// DSACK block, truncated to Segment::kMaxSackBlocks.
  SackBlockList receiver_sack_blocks(const SackBlock* dsack_block) const;
  /// Calls `f(range)` for each coalesced range of the out-of-order store,
  /// in sequence order.
  template <typename F>
  void for_each_ooo_range(F&& f) const;
  /// Erases out-of-order entries [first, last), returning their buffers to
  /// the queue pool.
  void drop_ooo(std::vector<OutOfOrderSegment>::iterator first,
                std::vector<OutOfOrderSegment>::iterator last);
  /// Retransmits the first scoreboard hole at or after sack_retx_next_.
  void retransmit_next_hole();

  // Output.
  /// Sends one segment. `payload` is a view — of the send queue for data
  /// segments — that serialize_into copies straight into the pooled wire
  /// buffer, so a data segment costs one copy of its bytes and no
  /// allocation.
  void emit(std::uint8_t flags, Seq seq, std::span<const std::uint8_t> payload = {},
            bool dsack = false, const SackBlock* dsack_block = nullptr);
  /// Sends send-queue bytes [offset, offset + len) from snd_una_ as one
  /// data segment at `seq`, PSH set when they end an application write.
  void emit_data(Seq seq, std::size_t offset, std::size_t len);
  void send_ack(bool dsack = false, const SackBlock* dsack_block = nullptr);
  void send_rst(Seq seq, bool with_ack = false);
  void try_send();
  void send_fin_if_ready();
  std::uint16_t advertised_window() const;
  bool covers_push_point(std::uint64_t start_offset, std::uint64_t end_offset) const;

  // Timers & reliability. `restart` forces the timer deadline to be
  // recomputed from now (RFC 6298: restart on each ACK of new data).
  void arm_retransmit(bool restart = false);
  void on_retransmit_timeout();
  void retransmit_one();
  void start_rtt_sample(Seq seq);
  void take_rtt_sample(Seq acked_to);
  void enter_time_wait();
  void set_state(TcpState next);
  void release();
  void reset_connection(bool notify);
  /// Returns the send queue's blocks and the out-of-order buffers to the
  /// scenario's queue pool, leaving both empty.
  void release_queues();
  BufferPool& queue_pool() { return node_.scheduler().queue_pool(); }

  std::size_t flight_bytes() const { return snd_nxt_ - snd_una_; }
  std::size_t unsent_bytes() const {
    return send_buf_.size() - std::min<std::size_t>(send_buf_.size(), snd_nxt_ - snd_una_);
  }

  sim::Node& node_;
  const TcpProfile* profile_;
  TcpEndpointConfig config_;
  TcpCallbacks callbacks_;
  std::function<void()> on_released_;
  /// Gathers a data segment that straddles two send-queue blocks (not
  /// state: its contents are dead once the segment is serialized).
  Bytes straddle_scratch_;
};

}  // namespace snake::tcp
