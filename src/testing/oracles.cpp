#include "testing/oracles.h"

#include <cstdint>
#include <map>
#include <tuple>

#include "packet/tcp_format.h"
#include "sim/dumbbell.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "tcp/segment.h"
#include "tcp/seq.h"
#include "util/strings.h"

namespace snake::testing {

std::string OracleReport::summary() const {
  std::string out;
  for (const std::string& v : violations) {
    if (!out.empty()) out += '\n';
    out += v;
  }
  return out;
}

void check_clock_monotonic(const sim::Trace& trace, OracleReport& report) {
  TimePoint last = TimePoint::origin();
  bool have_last = false;
  for (const sim::TraceEntry& e : trace.entries()) {
    if (e.kind == sim::TraceKind::kInject) continue;  // stamped at delivery time
    if (have_last && e.at < last) {
      report.add(str_format("clock: trace timestamp ran backwards at %s (%.9f < %.9f)",
                            e.where.c_str(), e.at.to_seconds(), last.to_seconds()));
      return;  // one report; later entries would cascade
    }
    last = e.at;
    have_last = true;
  }
}

namespace {

// TCP flag bits as laid out by the packet DSL's 6-bit flags field.
constexpr std::uint64_t kFin = 0x01;
constexpr std::uint64_t kSyn = 0x02;
constexpr std::uint64_t kRst = 0x04;
constexpr std::uint64_t kAck = 0x10;

struct FlowState {
  bool have_ack = false;
  tcp::Seq high_ack = 0;
  bool have_data = false;
  tcp::Seq send_next = 0;  ///< one past the highest contiguous byte sent
};

}  // namespace

void check_tcp_sequence_space(const sim::Trace& trace, OracleReport& report) {
  const packet::Codec& codec = packet::tcp_codec();
  const packet::HeaderFormat& format = codec.format();
  const std::size_t header = format.header_bytes();
  const packet::CompiledField& flags_field = *format.compiled("flags");
  const packet::CompiledField& src_port = *format.compiled("src_port");
  const packet::CompiledField& dst_port = *format.compiled("dst_port");
  const packet::CompiledField& seq_field = *format.compiled("seq");
  const packet::CompiledField& ack_field = *format.compiled("ack");
  const packet::CompiledField& data_offset = *format.compiled("data_offset");
  // Flow key: (src addr, dst addr, src port, dst port).
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, std::uint64_t>, FlowState>
      flows;
  for (const sim::TraceEntry& e : trace.entries()) {
    if (e.kind != sim::TraceKind::kSend) continue;
    if (e.packet.protocol != sim::kProtoTcp) continue;
    if (e.packet.bytes.size() < header) continue;
    const Bytes& raw = e.packet.bytes;
    std::uint64_t flags = codec.get_fast(raw, flags_field);
    if ((flags & kRst) != 0) continue;  // RST sequence semantics are their own world
    FlowState& flow = flows[{e.packet.src, e.packet.dst, codec.get_fast(raw, src_port),
                             codec.get_fast(raw, dst_port)}];
    // A SYN opens a new incarnation of the 4-tuple (say, after an attack
    // reset the old one) under a fresh ISN: its sequence space starts over.
    if ((flags & kSyn) != 0) flow = FlowState{};
    auto seq = static_cast<tcp::Seq>(codec.get_fast(raw, seq_field));
    // Cumulative ACKs never regress.
    if ((flags & kAck) != 0) {
      auto ack = static_cast<tcp::Seq>(codec.get_fast(raw, ack_field));
      if (flow.have_ack && tcp::seq_lt(ack, flow.high_ack)) {
        report.add(str_format("seq-space: %s %u->%u ACK regressed %u -> %u at t=%.6f",
                              e.where.c_str(), e.packet.src, e.packet.dst, flow.high_ack, ack,
                              e.at.to_seconds()));
        return;
      }
      flow.high_ack = ack;
      flow.have_ack = true;
    }
    // Data (and SYN/FIN, which occupy sequence space) must stay contiguous:
    // an honest sender never sends beyond the end of what it already sent.
    // Payload starts at data_offset*4, not at the fixed header end — SACK
    // option bytes are header, not sequence space.
    std::size_t header_len = static_cast<std::size_t>(codec.get_fast(raw, data_offset)) * 4;
    if (header_len < header || header_len > raw.size()) header_len = header;
    std::size_t payload = raw.size() - header_len;
    std::uint32_t advance = static_cast<std::uint32_t>(payload) +
                            ((flags & kSyn) != 0 ? 1u : 0u) + ((flags & kFin) != 0 ? 1u : 0u);
    if (advance == 0) continue;
    if (flow.have_data && tcp::seq_gt(seq, flow.send_next)) {
      report.add(str_format("seq-space: %s %u->%u sent seq %u past contiguous end %u at t=%.6f",
                            e.where.c_str(), e.packet.src, e.packet.dst, seq, flow.send_next,
                            e.at.to_seconds()));
      return;
    }
    tcp::Seq end = seq + advance;
    if (!flow.have_data || tcp::seq_gt(end, flow.send_next)) flow.send_next = end;
    flow.have_data = true;
  }
}

void check_tcp_sack_legality(const sim::Trace& trace, OracleReport& report) {
  const packet::Codec& codec = packet::tcp_codec();
  const std::size_t header = codec.format().header_bytes();
  const packet::CompiledField& sack_flag = *codec.format().compiled("sack_flag");
  // The stacks advertise un-scaled 16-bit windows, so no legal SACK block
  // can reach further than this past the cumulative ACK.
  constexpr std::uint32_t kMaxWindow = 65535;
  for (const sim::TraceEntry& e : trace.entries()) {
    if (e.kind != sim::TraceKind::kSend) continue;
    if (e.packet.protocol != sim::kProtoTcp) continue;
    if (e.packet.bytes.size() < header) continue;
    if (codec.get_fast(e.packet.bytes, sack_flag) == 0) continue;
    std::optional<tcp::Segment> seg = tcp::parse_segment(e.packet.bytes);
    if (!seg.has_value()) {
      report.add(str_format("sack: %s %u->%u flags a SACK segment that fails to parse at t=%.6f",
                            e.where.c_str(), e.packet.src, e.packet.dst, e.at.to_seconds()));
      return;
    }
    for (std::size_t i = 0; i < seg->sack_blocks.size(); ++i) {
      const tcp::SackBlock& b = seg->sack_blocks[i];
      std::uint32_t width = b.end - b.start;
      if (width == 0 || width > kMaxWindow) {
        report.add(str_format("sack: %s %u->%u block %zu [%u,%u) empty or wider than the "
                              "maximum window at t=%.6f",
                              e.where.c_str(), e.packet.src, e.packet.dst, i, b.start, b.end,
                              e.at.to_seconds()));
        return;
      }
      bool dsack_block = tcp::seq_leq(b.end, seg->ack);
      if (dsack_block) {
        // RFC 2883: a duplicate report at or below the cumulative ACK is
        // only legal as the first block.
        if (i != 0) {
          report.add(str_format("sack: %s %u->%u non-leading block %zu [%u,%u) below cumulative "
                                "ack %u at t=%.6f",
                                e.where.c_str(), e.packet.src, e.packet.dst, i, b.start, b.end,
                                seg->ack, e.at.to_seconds()));
          return;
        }
        continue;
      }
      if (tcp::seq_lt(b.start, seg->ack) || b.end - seg->ack > kMaxWindow) {
        report.add(str_format("sack: %s %u->%u block %zu [%u,%u) outside the receive window "
                              "above ack %u at t=%.6f",
                              e.where.c_str(), e.packet.src, e.packet.dst, i, b.start, b.end,
                              seg->ack, e.at.to_seconds()));
        return;
      }
    }
  }
}

void check_tracker_legality(const statemachine::StateMachine& machine,
                            const core::RunMetrics& metrics, OracleReport& report) {
  auto check_state = [&](const std::string& state, const char* origin) {
    if (!machine.has_state(state)) {
      report.add(str_format("tracker: %s reports state '%s' absent from machine '%s'", origin,
                            state.c_str(), machine.name().c_str()));
      return false;
    }
    return true;
  };
  for (const auto& o : metrics.client_observations)
    if (!check_state(o.state, "client observation")) return;
  for (const auto& o : metrics.server_observations)
    if (!check_state(o.state, "server observation")) return;
  for (const auto& [state, stats] : metrics.client_state_stats)
    if (!check_state(state, "client state stats")) return;
  for (const auto& [state, stats] : metrics.server_state_stats)
    if (!check_state(state, "server state stats")) return;
}

void check_pool_balance(sim::Scheduler& scheduler, OracleReport& report,
                        std::uint64_t foreign_buffers) {
  const BufferPool& pool = scheduler.buffer_pool();
  if (pool.reused() > pool.acquired())
    report.add(str_format("pool: buffer reuse count %llu exceeds acquisitions %llu",
                          (unsigned long long)pool.reused(), (unsigned long long)pool.acquired()));
  if (pool.released() > pool.acquired() + foreign_buffers)
    report.add(str_format("pool: buffer releases %llu exceed acquisitions %llu + %llu foreign",
                          (unsigned long long)pool.released(),
                          (unsigned long long)pool.acquired(),
                          (unsigned long long)foreign_buffers));
  if (scheduler.event_pool_free() > scheduler.event_pool_slots())
    report.add(str_format("pool: event free list %zu larger than slab %zu",
                          scheduler.event_pool_free(), scheduler.event_pool_slots()));
  // Once the queue drains every slot must be back on the free list: a
  // shortfall is a leaked slot, an excess is a double release.
  if (scheduler.empty() && scheduler.event_pool_free() != scheduler.event_pool_slots())
    report.add(str_format("pool: drained scheduler holds %zu of %zu event slots",
                          scheduler.event_pool_slots() - scheduler.event_pool_free(),
                          scheduler.event_pool_slots()));
}

void check_congestion_bounds(const tcp::CongestionControl& cc, const tcp::TcpProfile& profile,
                             std::size_t mss, OracleReport& report) {
  if (cc.cwnd() < mss)
    report.add(str_format("congestion[%s]: cwnd %zu below one segment (%zu)",
                          profile.name.c_str(), cc.cwnd(), mss));
  if (!cc.in_recovery() && cc.cwnd() > profile.max_cwnd)
    report.add(str_format("congestion[%s]: cwnd %zu above clamp %zu outside recovery",
                          profile.name.c_str(), cc.cwnd(), profile.max_cwnd));
  if (cc.ssthresh() < 2 * mss)
    report.add(str_format("congestion[%s]: ssthresh %zu below 2*mss floor",
                          profile.name.c_str(), cc.ssthresh()));
  if (cc.dup_acks() < 0 || cc.dup_acks() > tcp::CongestionControl::kDupAckThreshold)
    report.add(str_format("congestion[%s]: dup-ack counter %d out of range",
                          profile.name.c_str(), cc.dup_acks()));
}

ScenarioOracles::ScenarioOracles(const statemachine::StateMachine& machine, bool check_tcp)
    : machine_(machine), check_tcp_(check_tcp) {}

void ScenarioOracles::on_run_complete(sim::Dumbbell& net, proxy::AttackProxy& attack_proxy,
                                      const core::RunMetrics& metrics) {
  (void)attack_proxy;
  OracleReport local;
  check_clock_monotonic(net.network().trace(), local);
  if (check_tcp_) {
    check_tcp_sequence_space(net.network().trace(), local);
    check_tcp_sack_legality(net.network().trace(), local);
  }
  check_tracker_legality(machine_, metrics, local);
  const proxy::ProxyStats& stats = attack_proxy.stats();
  check_pool_balance(net.scheduler(), local,
                     stats.injected + stats.duplicates_created + stats.reflected);
  std::lock_guard<std::mutex> lock(mutex_);
  ++runs_checked_;
  for (std::string& v : local.violations) report_.add(std::move(v));
}

OracleReport ScenarioOracles::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return report_;
}

std::uint64_t ScenarioOracles::runs_checked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return runs_checked_;
}

}  // namespace snake::testing
