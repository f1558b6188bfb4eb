// One DCCP connection endpoint (RFC 4340) with CCID-2 congestion control.
//
// Behaviours the paper's three DCCP attacks depend on, all implemented per
// the RFC:
//  - every packet, including pure acknowledgments, consumes a sequence
//    number; sequence/acknowledgment validity windows gate acceptance;
//  - out-of-sync packets trigger a Sync/SyncAck resynchronization handshake
//    (the lever of the In-window Acknowledgment Sequence Number
//    Modification attack);
//  - a closing endpoint first drains its transmit queue, so a connection
//    pinned at minimum rate cannot close (Acknowledgment Mung Resource
//    Exhaustion);
//  - in the REQUEST state the packet-type check precedes the sequence
//    checks, so ANY non-Response/non-Reset packet — with arbitrary sequence
//    numbers — resets the connection (REQUEST Connection Termination).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "dccp/ccid2.h"
#include "dccp/ccid3.h"
#include "dccp/packet.h"
#include "dccp/seq48.h"
#include "sim/node.h"
#include "util/fifo.h"
#include "util/rng.h"
#include "util/time.h"

namespace snake::dccp {

enum class DccpState {
  kClosed,
  kListen,
  kRequest,
  kRespond,
  kPartOpen,
  kOpen,
  kCloseReq,
  kClosing,
  kTimeWait,
};

/// Names match the dot state machine in statemachine/protocol_specs.cpp.
const char* to_string(DccpState state);

struct DccpCallbacks {
  std::function<void()> on_established;
  /// The datagram's payload, a view of the arriving packet's buffer valid
  /// only during the call.
  std::function<void(std::span<const std::uint8_t>)> on_data;
  std::function<void()> on_reset;
  std::function<void()> on_closed;
};

struct DccpEndpointStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t data_packets_sent = 0;
  std::uint64_t bytes_delivered = 0;  ///< goodput at this endpoint
  std::uint64_t syncs_sent = 0;
  std::uint64_t syncs_received = 0;
  std::uint64_t resets_sent = 0;
  std::uint64_t resets_received = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t tx_queue_drops = 0;   ///< app sends rejected, queue full
  std::uint64_t invalid_dropped = 0;  ///< sequence/ack-invalid packets dropped

  /// Calls `f(name, member)` for every counter: the one field list the
  /// per-run registry export ("dccp.endpoint.<name>") walks.
  template <typename F>
  static void for_each_field(F&& f) {
    f("packets_sent", &DccpEndpointStats::packets_sent);
    f("data_packets_sent", &DccpEndpointStats::data_packets_sent);
    f("bytes_delivered", &DccpEndpointStats::bytes_delivered);
    f("syncs_sent", &DccpEndpointStats::syncs_sent);
    f("syncs_received", &DccpEndpointStats::syncs_received);
    f("resets_sent", &DccpEndpointStats::resets_sent);
    f("resets_received", &DccpEndpointStats::resets_received);
    f("timeouts", &DccpEndpointStats::timeouts);
    f("tx_queue_drops", &DccpEndpointStats::tx_queue_drops);
    f("invalid_dropped", &DccpEndpointStats::invalid_dropped);
  }
};

struct DccpEndpointConfig {
  sim::Address remote_addr = 0;
  std::uint16_t local_port = 0;
  std::uint16_t remote_port = 0;
  /// Congestion control: 2 = TCP-like (RFC 4341, the paper's focus),
  /// 3 = TFRC rate control (RFC 4342/5348, substrate extension).
  int ccid = 2;
  std::size_t ccid3_segment_bytes = 1024;  ///< nominal s for the TFRC equation
  std::size_t tx_queue_packets = 10;  ///< "defaults to 10 packets" (paper §VI.B.1)
  std::uint64_t seq_window = 100;     ///< W, RFC 4340 §7.5.2
  Duration initial_rto = Duration::seconds(1.0);
  Duration min_rto = Duration::millis(200);
  Duration time_wait = Duration::seconds(8.0);
  Duration sync_rate_limit = Duration::millis(10);
};

/// Every mutable per-connection member of a DccpEndpoint, inherited
/// privately so methods use the members by name; a snapshot is a copy of
/// this struct. Identity members (node, config, callbacks) stay on the
/// endpoint. Timer handles are copied verbatim — valid against the matching
/// Scheduler::Snapshot.
struct DccpEndpointState {
  DccpEndpointState(const DccpEndpointConfig& config, snake::Rng rng)
      : rng_(rng), rto_(config.initial_rto) {
    if (config.ccid == 3) {
      ccid3_tx_.emplace(config.ccid3_segment_bytes);
      ccid3_rx_.emplace();
    }
  }

  snake::Rng rng_;
  DccpState state_ = DccpState::kClosed;
  bool released_ = false;

  Seq48 iss_ = 0;
  Seq48 gss_ = 0;  ///< greatest sequence sent
  Seq48 isr_ = 0;
  Seq48 gsr_ = 0;  ///< greatest valid sequence received
  bool have_gsr_ = false;

  /// Queued datagrams, each in a buffer from the scenario's queue pool that
  /// goes back to it once the datagram is on the wire.
  Fifo<Bytes> tx_queue_;
  bool close_pending_ = false;

  Ccid2 cc_;
  std::optional<Ccid3Sender> ccid3_tx_;
  std::optional<Ccid3Receiver> ccid3_rx_;
  sim::Timer pace_timer_;
  sim::Timer feedback_timer_;
  sim::Timer no_feedback_timer_;
  std::optional<Duration> srtt_;
  TimePoint connect_time_;
  Duration rttvar_ = Duration::zero();
  Duration rto_;
  sim::Timer rto_timer_;
  sim::Timer time_wait_timer_;
  sim::Timer handshake_timer_;
  int handshake_retries_ = 0;
  TimePoint last_sync_sent_ = TimePoint::origin() - Duration::seconds(1.0);

  DccpEndpointStats stats_;
};

class DccpEndpoint : private DccpEndpointState {
 public:
  DccpEndpoint(sim::Node& node, DccpEndpointConfig config, DccpCallbacks callbacks,
               snake::Rng rng);
  ~DccpEndpoint();
  DccpEndpoint(const DccpEndpoint&) = delete;
  DccpEndpoint& operator=(const DccpEndpoint&) = delete;

  void set_callbacks(DccpCallbacks callbacks) { callbacks_ = std::move(callbacks); }

  // ---- Application API -------------------------------------------------
  void connect();                       ///< active open: send Request
  void accept(const DccpPacket& request);  ///< passive open: send Response

  /// Queues a copy of one datagram. Returns false (and counts a drop) when
  /// the transmit queue is full — DCCP applications see backpressure, not
  /// buffering without bound.
  bool send(std::span<const std::uint8_t> datagram);

  /// Graceful close; waits for the transmit queue to drain first.
  void close();

  /// Hard abort: Reset now.
  void abort();

  // ---- Wire input --------------------------------------------------------
  void on_packet(const DccpPacket& packet);

  // ---- Snapshot support --------------------------------------------------
  using State = DccpEndpointState;
  State capture() const { return *this; }
  void restore(const State& state) { State::operator=(state); }

  /// Marks the endpoint dead without cancelling timers or firing callbacks;
  /// see TcpEndpoint::snapshot_zombify for the rationale.
  void snapshot_zombify();

  // ---- Introspection -----------------------------------------------------
  DccpState state() const { return state_; }
  bool released() const { return released_; }
  int ccid() const { return config_.ccid; }
  const Ccid3Sender* ccid3_sender() const { return ccid3_tx_ ? &*ccid3_tx_ : nullptr; }
  const Ccid3Receiver* ccid3_receiver() const { return ccid3_rx_ ? &*ccid3_rx_ : nullptr; }
  const DccpEndpointStats& stats() const { return stats_; }
  const DccpEndpointConfig& config() const { return config_; }
  std::size_t tx_queue_depth() const { return tx_queue_.size(); }
  const Ccid2& ccid2() const { return cc_; }
  Seq48 gss() const { return gss_; }
  Seq48 gsr() const { return gsr_; }

 private:
  void handle_request_state(const DccpPacket& p);
  void handle_respond_state(const DccpPacket& p);
  void handle_synchronized(const DccpPacket& p);
  bool sequence_valid(const DccpPacket& p) const;
  void send_sync_for(const DccpPacket& p);
  void process_ack(const DccpPacket& p);

  Seq48 next_seq() { return gss_ = seq_add(gss_, 1); }
  void emit(DccpType type, Seq48 seq, Seq48 ack, std::span<const std::uint8_t> payload = {});
  /// Dequeues the front datagram, sends it as DataAck `seq` and returns its
  /// buffer to the queue pool.
  void send_front(Seq48 seq);
  /// Returns every queued datagram's buffer to the queue pool.
  void release_tx_queue();
  BufferPool& queue_pool() { return node_.scheduler().queue_pool(); }
  void pump();
  void maybe_send_close();
  void arm_handshake_timer();
  void arm_rto(bool restart);
  void on_rto_expired();
  void pump_ccid3();
  void on_ccid3_feedback_timer();
  void arm_no_feedback_timer();
  void update_rtt(Duration sample);
  void enter_time_wait();
  void set_state(DccpState next);
  void release();
  void reset_connection(bool notify, bool send_reset);

  sim::Node& node_;
  DccpEndpointConfig config_;
  DccpCallbacks callbacks_;
};

}  // namespace snake::dccp
