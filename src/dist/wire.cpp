#include "dist/wire.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <type_traits>

#include "util/strings.h"

namespace snake::dist {

// ---------------------------------------------------------------- framing

Channel::~Channel() { close(); }

void Channel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Channel::write_all(const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    ssize_t wrote;
    if (socket_mode_) {
      // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not a process-killing
      // SIGPIPE (worker death is an expected, handled event).
      wrote = ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
      if (wrote < 0 && errno == ENOTSOCK) {
        socket_mode_ = false;  // pipe-backed test channel
        continue;
      }
    } else {
      wrote = ::write(fd_, data + off, size - off);
    }
    if (wrote < 0) {
      if (errno == EINTR) continue;
      broken_ = true;
      return false;
    }
    off += static_cast<std::size_t>(wrote);
  }
  return true;
}

ssize_t Channel::raw_recv(char* buf, std::size_t cap) {
  if (socket_mode_) {
    ssize_t got = ::recv(fd_, buf, cap, MSG_DONTWAIT);
    if (got >= 0 || errno != ENOTSOCK) return got;
    // Pipe-backed test channel: read() has no per-call MSG_DONTWAIT, so make
    // the fd itself non-blocking once.
    socket_mode_ = false;
    int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  }
  return ::read(fd_, buf, cap);
}

bool Channel::send_frame(std::string_view payload) { return send_impl(payload, true); }

bool Channel::send_frame_plain(std::string_view payload) { return send_impl(payload, false); }

bool Channel::send_impl(std::string_view payload, bool allow_chaos) {
  if (!alive() || payload.size() > kMaxFrameBytes) return false;
  unsigned char prefix[4];
  std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  prefix[0] = static_cast<unsigned char>(n & 0xff);
  prefix[1] = static_cast<unsigned char>((n >> 8) & 0xff);
  prefix[2] = static_cast<unsigned char>((n >> 16) & 0xff);
  prefix[3] = static_cast<unsigned char>((n >> 24) & 0xff);
  std::string frame;
  frame.reserve(payload.size() + 4);
  frame.append(reinterpret_cast<const char*>(prefix), 4);
  frame.append(payload);

  if (allow_chaos && faults_ != nullptr && faults_->enabled()) {
    using core::WireFault;
    const std::uint64_t op = tx_ops_++;
    if (faults_->should_fire(WireFault::kDieMidWrite, op)) {
      // The cruellest failure a worker can inflict: half a frame, then gone.
      (void)write_all(frame.data(), frame.size() / 2);
      std::_Exit(3);
    }
    if (faults_->should_fire(WireFault::kTornFrame, op)) {
      // The peer reads this frame's declared length out of the *next*
      // frame's bytes, desyncs, and must kill the connection.
      frame.resize(frame.size() / 2);
    }
    if (faults_->should_fire(WireFault::kGarbageBytes, op)) {
      // A bogus length prefix (0x6b bytes) followed by junk: the peer
      // swallows real frame bytes as payload and fails the JSON parse.
      frame.insert(0, "\x6b\x00\x00\x00garbage", 11);
    }
    if (faults_->should_fire(WireFault::kDuplicateFrame, op)) frame += frame;
    if (faults_->should_fire(WireFault::kDelayFrame, op)) {
      delayed_ += frame;
      return true;  // held back; flushed ahead of the next send
    }
  }
  if (!delayed_.empty()) {
    frame.insert(0, delayed_);
    delayed_.clear();
  }
  return write_all(frame.data(), frame.size());
}

bool Channel::pump() {
  if (!alive()) return false;
  if (!delayed_.empty()) {
    // Flush any chaos-delayed frame here as well as on the next send: the
    // coordinator->worker direction can go quiet for a whole campaign, and a
    // shard held back forever would stall the fleet, not just reorder it.
    std::string out;
    out.swap(delayed_);
    if (!write_all(out.data(), out.size())) return false;
  }
  char buf[64 * 1024];
  while (true) {
    const std::size_t cap =
        read_chunk_limit_ != 0 ? std::min(read_chunk_limit_, sizeof buf) : sizeof buf;
    ssize_t got = raw_recv(buf, cap);
    if (got > 0) {
      rx_.append(buf, static_cast<std::size_t>(got));
      if (static_cast<std::size_t>(got) < cap) return true;
      continue;
    }
    if (got == 0) {
      broken_ = true;  // orderly EOF: peer exited
      eof_ = true;
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    broken_ = true;
    return false;
  }
}

std::optional<std::string> Channel::pop_frame() {
  if (rx_.size() < 4) return std::nullopt;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(rx_.data());
  std::uint32_t n = static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
                    (static_cast<std::uint32_t>(p[2]) << 16) |
                    (static_cast<std::uint32_t>(p[3]) << 24);
  if (n > kMaxFrameBytes) {
    broken_ = true;  // corrupted prefix; nothing downstream is trustworthy
    return std::nullopt;
  }
  if (rx_.size() < 4 + static_cast<std::size_t>(n)) return std::nullopt;
  std::string payload = rx_.substr(4, n);
  rx_.erase(0, 4 + static_cast<std::size_t>(n));
  return payload;
}

std::optional<std::string> Channel::recv_frame(int timeout_ms) {
  // Deadline-based so EINTR wakeups and partial deliveries cannot stretch
  // the total wait beyond timeout_ms (each poll gets only the remainder).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    if (auto frame = pop_frame(); frame.has_value()) return frame;
    if (!alive()) return std::nullopt;
    int wait_ms = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) return std::nullopt;  // timeout
      wait_ms = static_cast<int>(left);
    }
    struct pollfd pfd{fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      broken_ = true;
      return std::nullopt;
    }
    if (rc == 0) return std::nullopt;  // timeout
    if (!pump() && rx_.size() < 4) return std::nullopt;
  }
}

// --------------------------------------------------------------- messages

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kCampaign: return "campaign";
    case MsgType::kReady: return "ready";
    case MsgType::kTrials: return "trials";
    case MsgType::kResult: return "result";
    case MsgType::kSteal: return "steal";
    case MsgType::kStolen: return "stolen";
    case MsgType::kFeedback: return "feedback";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kBye: return "bye";
  }
  return "?";
}

namespace {

std::optional<MsgType> type_from_string(const std::string& s) {
  if (s == "hello") return MsgType::kHello;
  if (s == "campaign") return MsgType::kCampaign;
  if (s == "ready") return MsgType::kReady;
  if (s == "trials") return MsgType::kTrials;
  if (s == "result") return MsgType::kResult;
  if (s == "steal") return MsgType::kSteal;
  if (s == "stolen") return MsgType::kStolen;
  if (s == "feedback") return MsgType::kFeedback;
  if (s == "heartbeat") return MsgType::kHeartbeat;
  if (s == "shutdown") return MsgType::kShutdown;
  if (s == "bye") return MsgType::kBye;
  return std::nullopt;
}

/// encode_campaign's sink over core::visit_identity_fields: one member per
/// field, enums by name, durations as integer nanoseconds.
struct ConfigWriter {
  obs::JsonWriter& w;
  template <class T>
  void hash_only(const T&) {}
  void operator()(const char* key, Duration v) { w.key(key).value(v.ns()); }
  void operator()(const char* key, const trace::TraceText& v) { w.key(key).value(v.text()); }
  template <class T>
  void operator()(const char* key, const T& v) {
    if constexpr (std::is_enum_v<T>)
      w.key(key).value(to_string(v));
    else
      w.key(key).value(v);
  }
};

/// parse_message's sink over core::visit_identity_fields. The lenient field
/// readers keep a field's default when its member is missing, mistyped or an
/// unknown name; that is safe because the decoded config must hash back to
/// the frame's identity_hash, so a field that did not survive the trip gets
/// the frame rejected.
struct ConfigReader {
  const obs::JsonValue& obj;
  template <class T>
  void hash_only(const T&) {}
  void operator()(const char* key, std::string& v) { v = str_field(obj, key); }
  /// Parses the trace here, once per handshake; every world the worker
  /// builds shares that parse.
  void operator()(const char* key, trace::TraceText& v) { v = str_field(obj, key); }
  void operator()(const char* key, bool& v) { v = bool_field(obj, key, v); }
  void operator()(const char* key, double& v) { v = num_field(obj, key, v); }
  void operator()(const char* key, Duration& v) {
    v = Duration::nanos(i64_field(obj, key, v.ns()));
  }
  void operator()(const char* key, core::Protocol& v) {
    pick(key, v, {core::Protocol::kTcp, core::Protocol::kDccp});
  }
  void operator()(const char* key, core::Workload& v) {
    pick(key, v, {core::Workload::kBulk, core::Workload::kTrace});
  }
  void operator()(const char* key, tcp::InvalidFlagPolicy& v) {
    using P = tcp::InvalidFlagPolicy;
    pick(key, v, {P::kIgnore, P::kBestEffort, P::kRstFirst});
  }
  void operator()(const char* key, sim::DropPolicy& v) {
    pick(key, v, {sim::DropPolicy::kTail, sim::DropPolicy::kRandom});
  }
  template <class T>  // integers
  void operator()(const char* key, T& v) {
    if constexpr (std::is_signed_v<T>)
      v = static_cast<T>(i64_field(obj, key, v));
    else
      v = static_cast<T>(u64_field(obj, key, v));
  }
  template <class E>
  void pick(const char* key, E& v, std::initializer_list<E> values) {
    const std::string name = str_field(obj, key);
    for (E e : values)
      if (name == to_string(e)) v = e;
  }
};

std::string finish(obs::JsonWriter& w) { return w.take(); }

/// A result frame's checksum: the record's under scope = seq, chained over
/// the metrics rendering when the frame carries one ("" = none).
std::uint64_t result_checksum(std::uint64_t seq, const core::TrialRecord& record,
                              std::string_view metrics_json) {
  const std::uint64_t check = core::scoped_record_checksum(seq, record);
  return metrics_json.empty() ? check : core::scoped_checksum(check, metrics_json);
}

obs::JsonWriter& begin(obs::JsonWriter& w, MsgType type) {
  w.begin_object();
  w.key("type").value(to_string(type));
  return w;
}

}  // namespace

std::string encode_hello() {
  obs::JsonWriter w;
  begin(w, MsgType::kHello);
  w.key("version").value(kWireVersion);
  w.key("pid").value(static_cast<std::int64_t>(::getpid()));
  w.end_object();
  return finish(w);
}

std::string encode_campaign(const WorkerCampaign& wc) {
  obs::JsonWriter w;
  begin(w, MsgType::kCampaign);
  w.key("identity_hash").value(hex16(core::campaign_identity_hash(wc.campaign)));
  ConfigWriter fields{w};
  core::visit_identity_fields(wc.campaign, fields);
  w.key("collect_metrics").value(wc.campaign.collect_metrics);
  w.key("heartbeat_interval_ms").value(wc.heartbeat_interval_ms);
  w.key("selfcheck").value(wc.selfcheck);
  w.key("exit_after_results").value(wc.exit_after_results);
  w.key("wire_fault_seed").value(wc.wire_fault_seed);
  w.key("wire_fault_mask").value(static_cast<std::uint64_t>(wc.wire_fault_mask));
  w.key("wire_fault_period").value(static_cast<std::uint64_t>(wc.wire_fault_period));
  w.key("corrupt_after_results").value(wc.corrupt_after_results);
  w.end_object();
  return finish(w);
}

std::string render_baseline(const core::RunMetrics& m) {
  obs::JsonWriter w;
  core::write_json(w, m);
  return w.take();
}

std::string encode_ready(const core::RunMetrics& baseline,
                         const core::RunMetrics& retest_baseline) {
  obs::JsonWriter w;
  begin(w, MsgType::kReady);
  w.key("baseline").value(render_baseline(baseline));
  w.key("retest_baseline").value(render_baseline(retest_baseline));
  w.end_object();
  return finish(w);
}

std::string encode_trials(const std::vector<WireTrial>& trials) {
  obs::JsonWriter w;
  begin(w, MsgType::kTrials);
  w.key("trials").begin_array();
  for (const WireTrial& t : trials) {
    w.begin_object();
    w.key("seq").value(t.seq);
    w.key("strategy");
    strategy::write_json(w, t.strat);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return finish(w);
}

std::string encode_result(std::uint64_t seq, const core::TrialRecord& record,
                          const obs::MetricsRegistry* metrics) {
  const std::string metrics_json = metrics != nullptr ? metrics->to_json() : std::string();
  obs::JsonWriter w;
  begin(w, MsgType::kResult);
  w.key("seq").value(seq);
  w.key("check").value(hex16(result_checksum(seq, record, metrics_json)));
  w.key("record");
  core::write_json(w, record);
  if (metrics != nullptr) w.key("metrics").value(metrics_json);
  w.end_object();
  return finish(w);
}

std::string encode_steal(std::uint64_t count) {
  obs::JsonWriter w;
  begin(w, MsgType::kSteal);
  w.key("count").value(count);
  w.end_object();
  return finish(w);
}

std::string encode_stolen(const std::vector<std::uint64_t>& seqs) {
  obs::JsonWriter w;
  begin(w, MsgType::kStolen);
  w.key("seqs").begin_array();
  for (std::uint64_t s : seqs) w.value(s);
  w.end_array();
  w.end_object();
  return finish(w);
}

std::string encode_feedback(const std::vector<core::JournalObservation>& pairs) {
  obs::JsonWriter w;
  begin(w, MsgType::kFeedback);
  w.key("pairs").begin_array();
  for (const core::JournalObservation& p : pairs) {
    w.begin_array();
    w.value(p.state);
    w.value(p.packet_type);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  return finish(w);
}

std::string encode_heartbeat(std::uint64_t queued) {
  obs::JsonWriter w;
  begin(w, MsgType::kHeartbeat);
  w.key("queued").value(queued);
  w.end_object();
  return finish(w);
}

std::string encode_shutdown() {
  obs::JsonWriter w;
  begin(w, MsgType::kShutdown);
  w.end_object();
  return finish(w);
}

std::string encode_bye(std::uint64_t violations) {
  obs::JsonWriter w;
  begin(w, MsgType::kBye);
  w.key("selfcheck_violations").value(violations);
  w.end_object();
  return finish(w);
}

std::optional<Message> parse_message(std::string_view payload) {
  std::optional<obs::JsonValue> doc = obs::parse_json(payload);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;
  auto type = type_from_string(str_field(*doc, "type"));
  if (!type.has_value()) return std::nullopt;
  Message m;
  m.type = *type;
  switch (m.type) {
    case MsgType::kHello: {
      const obs::JsonValue* v = doc->find("version");
      if (v == nullptr) return std::nullopt;
      auto ver = u64_of(*v);
      if (!ver.has_value() || *ver > 0xffffffffull) return std::nullopt;
      m.version = static_cast<std::uint32_t>(*ver);
      m.pid = i64_field(*doc, "pid", 0);
      break;
    }
    case MsgType::kCampaign: {
      const std::optional<std::uint64_t> identity =
          parse_hex16(str_field(*doc, "identity_hash"));
      if (!identity.has_value()) return std::nullopt;
      core::CampaignConfig& config = m.campaign.campaign;
      ConfigReader fields{*doc};
      core::visit_identity_fields(config, fields);
      // Integrity gate, like a result frame's checksum: every outcome field
      // travels by content, so a config that does not hash back to the
      // coordinator's identity was corrupted or edited in flight.
      if (core::campaign_identity_hash(config) != *identity) return std::nullopt;
      config.collect_metrics = bool_field(*doc, "collect_metrics", true);
      m.campaign.heartbeat_interval_ms =
          static_cast<int>(i64_field(*doc, "heartbeat_interval_ms", 250));
      m.campaign.selfcheck = bool_field(*doc, "selfcheck", false);
      m.campaign.exit_after_results = u64_field(*doc, "exit_after_results", 0);
      m.campaign.wire_fault_seed = u64_field(*doc, "wire_fault_seed", 0);
      m.campaign.wire_fault_mask =
          static_cast<std::uint32_t>(u64_field(*doc, "wire_fault_mask", 0));
      m.campaign.wire_fault_period =
          static_cast<std::uint32_t>(u64_field(*doc, "wire_fault_period", 0));
      m.campaign.corrupt_after_results = u64_field(*doc, "corrupt_after_results", 0);
      break;
    }
    case MsgType::kReady: {
      const obs::JsonValue* baseline = doc->find("baseline");
      const obs::JsonValue* retest = doc->find("retest_baseline");
      if (baseline == nullptr || !baseline->is_string() || retest == nullptr ||
          !retest->is_string())
        return std::nullopt;
      m.baseline = baseline->str_v;
      m.retest_baseline = retest->str_v;
      break;
    }
    case MsgType::kTrials: {
      const obs::JsonValue* trials = doc->find("trials");
      if (trials == nullptr || !trials->is_array()) return std::nullopt;
      for (const obs::JsonValue& t : trials->array_v) {
        if (!t.is_object()) return std::nullopt;
        const obs::JsonValue* seq = t.find("seq");
        const obs::JsonValue* strat = t.find("strategy");
        if (seq == nullptr || strat == nullptr) return std::nullopt;
        auto seq_v = u64_of(*seq);
        auto strat_v = strategy::strategy_from_json(*strat);
        if (!seq_v.has_value() || !strat_v.has_value()) return std::nullopt;
        m.trials.push_back(WireTrial{*seq_v, std::move(*strat_v)});
      }
      break;
    }
    case MsgType::kResult: {
      const obs::JsonValue* seq = doc->find("seq");
      const obs::JsonValue* check = doc->find("check");
      const obs::JsonValue* record = doc->find("record");
      if (seq == nullptr || check == nullptr || !check->is_string() || record == nullptr)
        return std::nullopt;
      auto seq_v = u64_of(*seq);
      auto check_v = parse_hex16(check->str_v);
      auto rec = core::trial_record_from_json(*record);
      if (!seq_v.has_value() || !check_v.has_value() || !rec.has_value()) return std::nullopt;
      // The trial's registry is optional (absent when metrics are off); when
      // present it is a rendering, checksummed as the exact bytes sent.
      const obs::JsonValue* metrics = doc->find("metrics");
      if (metrics != nullptr && !metrics->is_string()) return std::nullopt;
      const std::string_view metrics_json =
          metrics != nullptr ? std::string_view(metrics->str_v) : std::string_view();
      // Integrity gate: recompute the checksum over the canonical
      // re-rendering of the parsed record (exact round-trip, journal.cpp)
      // and the metrics rendering. Any in-flight corruption — or a result
      // replayed under another seq — fails here and is handled like any
      // other malformed frame.
      if (result_checksum(*seq_v, *rec, metrics_json) != *check_v) return std::nullopt;
      if (metrics != nullptr) {
        const std::optional<obs::JsonValue> registry = obs::parse_json(metrics_json);
        if (!registry.has_value() || !m.metrics.merge_from_json(*registry)) return std::nullopt;
      }
      m.seq = *seq_v;
      m.record = std::move(*rec);
      break;
    }
    case MsgType::kSteal: {
      const obs::JsonValue* count = doc->find("count");
      if (count == nullptr) return std::nullopt;
      auto c = u64_of(*count);
      if (!c.has_value()) return std::nullopt;
      m.steal_count = *c;
      break;
    }
    case MsgType::kStolen: {
      const obs::JsonValue* seqs = doc->find("seqs");
      if (seqs == nullptr || !seqs->is_array()) return std::nullopt;
      for (const obs::JsonValue& s : seqs->array_v) {
        auto v = u64_of(s);
        if (!v.has_value()) return std::nullopt;
        m.seqs.push_back(*v);
      }
      break;
    }
    case MsgType::kFeedback: {
      const obs::JsonValue* pairs = doc->find("pairs");
      if (pairs == nullptr || !pairs->is_array()) return std::nullopt;
      for (const obs::JsonValue& p : pairs->array_v) {
        if (!p.is_array() || p.array_v.size() != 2 || !p.array_v[0].is_string() ||
            !p.array_v[1].is_string())
          return std::nullopt;
        m.pairs.push_back(core::JournalObservation{p.array_v[0].str_v, p.array_v[1].str_v});
      }
      break;
    }
    case MsgType::kHeartbeat:
      m.queued = u64_field(*doc, "queued", 0);
      break;
    case MsgType::kShutdown:
      break;
    case MsgType::kBye:
      m.selfcheck_violations = u64_field(*doc, "selfcheck_violations", 0);
      break;
  }
  return m;
}

}  // namespace snake::dist
