// Table II reproduction: every attack SNAKE discovered, executed end to end
// against the implementation profiles the paper lists, with the measured
// impact next to the paper's description.
//
//   bench_table2 [--json PATH] [--journal PATH] [--resume]
//
// --json records every row as a structured report ("snake-bench-table2/v1")
// so bench trajectories can be diffed across revisions.
//
// --journal checkpoints each finished row as one flushed JSONL line
// ("snake-bench-table2-row/v1"); --resume reads that file back and replays
// recorded rows instead of re-measuring them, so a killed run restarted with
// the same flags finishes only the missing attacks. Some rows take minutes —
// row granularity is the natural checkpoint unit here, mirroring the
// trial-granularity journals run_campaign uses for Table I.
//
// Unknown flags and missing values print the flag and exit with status 2
// (bench/cli.h).
//
// There is no --search flag here: this bench re-executes a fixed list of
// known attacks rather than searching a strategy space, so grid-vs-greybox
// (bench_table1 --search) does not apply.
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli.h"
#include "obs/json.h"
#include "packet/dccp_format.h"
#include "packet/tcp_format.h"
#include "sim/network.h"
#include "snake/detector.h"
#include "snake/scenario.h"
#include "tcp/segment.h"
#include "tcp/stack.h"
#include "util/rng.h"

using namespace snake;
using namespace snake::core;
using strategy::AttackAction;
using strategy::InjectSpec;
using strategy::LieSpec;
using strategy::Strategy;
using strategy::TrafficDirection;

namespace {

ScenarioConfig tcp_config(const tcp::TcpProfile& profile) {
  ScenarioConfig c;
  c.protocol = Protocol::kTcp;
  c.tcp_profile = profile;
  c.test_duration = Duration::seconds(20.0);
  c.seed = 5;
  return c;
}

ScenarioConfig dccp_config() {
  ScenarioConfig c;
  c.protocol = Protocol::kDccp;
  c.test_duration = Duration::seconds(20.0);
  c.seed = 5;
  return c;
}

// Streaming report writer: each row is appended to the --json file the
// moment it is measured (some rows take minutes; a killed run keeps the
// finished ones).
obs::JsonWriter* json_writer = nullptr;

// Row journal: one complete JSONL line per finished row, flushed before the
// next attack starts, so every line in a killed run's journal is replayable.
std::FILE* row_journal = nullptr;
bool replaying_row = false;

struct JournaledRow {
  std::string protocol, impact, known, measured;
};

void row(const char* protocol, const char* attack, const char* impact, const char* known,
         const std::string& result) {
  std::printf("%-5s %-38s %-22s %-9s %s\n", protocol, attack, impact, known, result.c_str());
  if (json_writer != nullptr) {
    json_writer->begin_object();
    json_writer->key("protocol").value(protocol);
    json_writer->key("attack").value(attack);
    json_writer->key("impact").value(impact);
    json_writer->key("known").value(known);
    json_writer->key("measured").value(result);
    json_writer->end_object();
    json_writer->flush();
  }
  if (row_journal != nullptr && !replaying_row) {
    std::string line;
    obs::JsonWriter w([&line](std::string_view chunk) { line.append(chunk); });
    w.begin_object();
    w.key("schema").value("snake-bench-table2-row/v1");
    w.key("protocol").value(protocol);
    w.key("attack").value(attack);
    w.key("impact").value(impact);
    w.key("known").value(known);
    w.key("measured").value(result);
    w.end_object();
    w.flush();
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), row_journal);
    std::fflush(row_journal);
  }
}

// Parses an existing row journal into attack-name → recorded row. Lines that
// fail to parse (the truncated tail of a killed run) are skipped.
std::map<std::string, JournaledRow> load_row_journal(const std::string& path) {
  std::map<std::string, JournaledRow> rows;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return rows;
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // incomplete tail line: not trustworthy
    std::string_view line(text.data() + pos, nl - pos);
    pos = nl + 1;
    auto parsed = obs::parse_json(line, nullptr);
    if (!parsed.has_value() || !parsed->is_object()) continue;
    const obs::JsonValue* schema = parsed->find("schema");
    const obs::JsonValue* attack = parsed->find("attack");
    if (schema == nullptr || schema->str_v != "snake-bench-table2-row/v1" ||
        attack == nullptr)
      continue;
    auto field = [&](const char* k) {
      const obs::JsonValue* v = parsed->find(k);
      return v != nullptr ? v->str_v : std::string();
    };
    rows[attack->str_v] =
        JournaledRow{field("protocol"), field("impact"), field("known"), field("measured")};
  }
  return rows;
}

std::string ratio_str(double r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2fx", r);
  return buf;
}

// --- Attack 1: CLOSE_WAIT Resource Exhaustion ------------------------------
void close_wait_exhaustion() {
  Strategy s;
  s.action = AttackAction::kDrop;
  s.packet_type = "RST";
  s.target_state = "FIN_WAIT_2";
  s.direction = TrafficDirection::kClientToServer;
  std::string result;
  for (const char* name : {"linux-3.0.0", "linux-3.13", "windows-8.1"}) {
    ScenarioConfig c = tcp_config(tcp::tcp_profile_by_name(name));
    RunMetrics base = run_scenario(c, std::nullopt);
    RunMetrics atk = run_scenario(c, s);
    bool stuck = atk.server1_stuck_sockets > base.server1_stuck_sockets;
    result += std::string(name) + (stuck ? ": server wedged in CLOSE_WAIT; " : ": clean; ");
  }
  row("TCP", "CLOSE_WAIT Resource Exhaustion", "Server DoS", "Partially", result);
}

// --- Attack 2: Packets with Invalid Flags (fingerprinting) -----------------
// Probes each implementation with nonsensical flag combinations on a live
// connection and reports the response signature — the fingerprint.
void invalid_flags_fingerprint() {
  std::string result;
  for (const tcp::TcpProfile& profile : tcp::all_tcp_profiles()) {
    sim::Network net;
    sim::Node& a = net.add_node(1, "probe");
    sim::Node& b = net.add_node(2, "victim");
    auto [ab, ba] = net.connect(a, b, sim::LinkConfig{});
    a.set_default_route(ab);
    b.set_default_route(ba);
    tcp::TcpStack probe(a, tcp::linux_3_13_profile(), Rng(1));
    tcp::TcpStack victim(b, profile, Rng(2));
    victim.listen(80, [](tcp::TcpEndpoint& ep) {
      tcp::TcpCallbacks cb;
      cb.on_established = [&ep] { ep.send(Bytes(100000, 0x55)); };
      return cb;
    });
    tcp::TcpEndpoint& conn = probe.connect(2, 80, tcp::TcpCallbacks{});
    net.scheduler().run_until(TimePoint::origin() + Duration::seconds(1.0));

    // Use the victim's actual window start so responses reflect policy, not
    // sequence checks.
    tcp::TcpEndpoint* vep = victim.endpoints().empty() ? nullptr : victim.endpoints()[0].get();
    if (vep == nullptr) continue;
    tcp::Segment seg;
    seg.src_port = conn.config().local_port;
    seg.dst_port = 80;
    seg.seq = vep->rcv_nxt();
    for (std::uint8_t flags : {std::uint8_t{0x00},
                               std::uint8_t(packet::kTcpSyn | packet::kTcpFin |
                                            packet::kTcpRst | packet::kTcpPsh)}) {
      seg.flags = flags;
      sim::Packet p;
      p.src = 1;
      p.dst = 2;
      p.protocol = sim::kProtoTcp;
      p.bytes = serialize(seg);
      a.send_packet(std::move(p));
      net.scheduler().run_until(net.scheduler().now() + Duration::seconds(0.2));
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s:{seen=%llu,answered=%llu,reset=%s} ",
                  profile.name.c_str(),
                  (unsigned long long)vep->stats().invalid_flag_segments,
                  (unsigned long long)vep->stats().invalid_flag_responses,
                  vep->released() ? "yes" : "no");
    result += buf;
  }
  row("TCP", "Packets with Invalid Flags", "Fingerprinting", "No", result);
}

// --- Attack 3: Duplicate ACK Spoofing --------------------------------------
void dupack_spoofing() {
  Strategy s;
  s.action = AttackAction::kDuplicate;
  s.packet_type = "ACK";
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kClientToServer;
  s.duplicate_count = 2;
  std::string result;
  for (const char* name : {"windows-95", "linux-3.13"}) {
    ScenarioConfig c = tcp_config(tcp::tcp_profile_by_name(name));
    RunMetrics base = run_scenario(c, std::nullopt);
    RunMetrics atk = run_scenario(c, s);
    Detection d = detect(base, atk);
    result += std::string(name) + ": " + ratio_str(d.target_ratio) + " throughput; ";
  }
  result += "(paper: ~5x gain on Windows 95 only)";
  row("TCP", "Duplicate Acknowledgment Spoofing", "Poor Fairness", "Yes", result);
}

// --- Attacks 4 & 5: Reset / SYN-Reset sweeps --------------------------------
void reset_sweeps(const char* type, const char* attack_name) {
  Strategy s;
  s.action = AttackAction::kHitSeqWindow;
  s.packet_type = type;
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kServerToClient;
  InjectSpec spec;
  spec.packet_type = type;
  spec.fields = {{"data_offset", 5}};
  spec.spoof_toward_client = true;
  spec.target_competing = true;
  spec.seq_field = "seq";
  spec.seq_start = 7777;
  spec.seq_stride = 65535;
  spec.count = (1ULL << 32) / 65535 + 2;
  spec.pace_pps = 20000;
  s.inject = spec;

  int vulnerable = 0;
  for (const tcp::TcpProfile& profile : tcp::all_tcp_profiles()) {
    ScenarioConfig c = tcp_config(profile);
    RunMetrics atk = run_scenario(c, s);
    if (atk.competing_reset) ++vulnerable;
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "%d/4 implementations reset (in-window %s kills the connection)",
                vulnerable, type);
  row("TCP", attack_name, "Client DoS", "Yes", buf);
}

// --- Attack 6: Duplicate ACK Rate Limiting ----------------------------------
void dupack_rate_limiting() {
  Strategy s;
  s.action = AttackAction::kDuplicate;
  s.packet_type = "PSH+ACK";
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kServerToClient;
  s.duplicate_count = 10;
  std::string result;
  for (const char* name : {"windows-8.1", "linux-3.13", "linux-3.0.0"}) {
    ScenarioConfig c = tcp_config(tcp::tcp_profile_by_name(name));
    RunMetrics base = run_scenario(c, std::nullopt);
    RunMetrics atk = run_scenario(c, s);
    Detection d = detect(base, atk);
    result += std::string(name) + ": " + ratio_str(d.target_ratio) + "; ";
  }
  result += "(paper: ~5x degradation, Windows 8.1 only)";
  row("TCP", "Duplicate Acknowledgment Rate Limiting", "Throughput Degr.", "No", result);
}

// --- Attack 7: DCCP Acknowledgment Mung -------------------------------------
void dccp_ack_mung() {
  Strategy s;
  s.action = AttackAction::kLie;
  s.packet_type = "DCCP-Ack";
  s.target_state = "OPEN";
  s.direction = TrafficDirection::kServerToClient;
  s.lie = LieSpec{"ack", LieSpec::Mode::kSet, 0x123456};
  ScenarioConfig c = dccp_config();
  RunMetrics base = run_scenario(c, std::nullopt);
  RunMetrics atk = run_scenario(c, s);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "server sockets stuck: %zu (baseline %zu); goodput %.2fx of baseline",
                atk.server1_stuck_sockets, base.server1_stuck_sockets,
                detect(base, atk).target_ratio);
  row("DCCP", "Acknowledgment Mung Resource Exhaustion", "Server DoS", "No", buf);
}

// --- Attack 8: In-window Acknowledgment Sequence Modification ---------------
void dccp_inwindow_ack_mod() {
  Strategy s;
  s.action = AttackAction::kLie;
  s.packet_type = "DCCP-Ack";
  s.target_state = "OPEN";
  s.direction = TrafficDirection::kServerToClient;
  s.lie = LieSpec{"seq", LieSpec::Mode::kAdd, 60};
  ScenarioConfig c = dccp_config();
  RunMetrics base = run_scenario(c, std::nullopt);
  RunMetrics atk = run_scenario(c, s);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "goodput %.2fx of baseline (forced SYNC resyncs)",
                detect(base, atk).target_ratio);
  row("DCCP", "In-window Ack Sequence Modification", "Throughput Degr.", "No", buf);
}

// --- Attack 9: REQUEST Connection Termination --------------------------------
void dccp_request_termination() {
  Strategy s;
  s.action = AttackAction::kInject;
  s.packet_type = "DCCP-Data";
  s.target_state = "REQUEST";
  s.direction = TrafficDirection::kServerToClient;
  InjectSpec spec;
  spec.packet_type = "DCCP-Data";
  spec.fields = {{"data_offset", 6}, {"x", 1}, {"seq", 424242}};
  spec.spoof_toward_client = true;
  spec.target_competing = false;
  s.inject = spec;
  ScenarioConfig c = dccp_config();
  RunMetrics atk = run_scenario(c, s);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "connection reset in REQUEST state: %s; bytes moved: %llu",
                atk.target_reset ? "yes" : "no", (unsigned long long)atk.target_bytes);
  row("DCCP", "REQUEST Connection Termination", "Client DoS", "No", buf);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  const char* journal_arg = nullptr;
  bool resume = false;
  bench::Cli cli("bench_table2");
  cli.text("--json", json_path).text("--journal", journal_arg).flag("--resume", resume);
  if (!cli.parse(argc, argv)) return 2;
  if (resume && journal_arg == nullptr) {
    std::fprintf(stderr, "--resume requires --journal PATH\n");
    return 1;
  }

  std::map<std::string, JournaledRow> done;
  if (resume) done = load_row_journal(journal_arg);
  if (journal_arg != nullptr) {
    // Append after replayable rows; truncate when starting fresh.
    row_journal = std::fopen(journal_arg, done.empty() ? "w" : "a");
    if (row_journal == nullptr) {
      std::fprintf(stderr, "cannot open journal %s\n", journal_arg);
      return 1;
    }
  }

  std::FILE* json_file = nullptr;
  std::unique_ptr<obs::JsonWriter> json;
  if (json_path != nullptr) {
    json_file = std::fopen(json_path, "w");
    if (json_file == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      return 1;
    }
    json = std::make_unique<obs::JsonWriter>(
        [json_file](std::string_view chunk) {
          std::fwrite(chunk.data(), 1, chunk.size(), json_file);
        });
    json->begin_object();
    json->key("schema").value("snake-bench-table2/v1");
    json->key("rows").begin_array();
    json->flush();
    json_writer = json.get();
  }

  std::printf("== Table II: attacks discovered by SNAKE, re-executed ==\n\n");
  std::printf("%-5s %-38s %-22s %-9s %s\n", "Proto", "Attack", "Impact", "Known",
              "Measured in this reproduction");
  std::printf("%s\n", std::string(140, '-').c_str());

  struct Step {
    const char* attack;  // must match the name the step passes to row()
    std::function<void()> run;
  };
  const std::vector<Step> steps = {
      {"CLOSE_WAIT Resource Exhaustion", close_wait_exhaustion},
      {"Packets with Invalid Flags", invalid_flags_fingerprint},
      {"Duplicate Acknowledgment Spoofing", dupack_spoofing},
      {"Reset Attack", [] { reset_sweeps("RST", "Reset Attack"); }},
      {"SYN-Reset Attack", [] { reset_sweeps("SYN", "SYN-Reset Attack"); }},
      {"Duplicate Acknowledgment Rate Limiting", dupack_rate_limiting},
      {"Acknowledgment Mung Resource Exhaustion", dccp_ack_mung},
      {"In-window Ack Sequence Modification", dccp_inwindow_ack_mod},
      {"REQUEST Connection Termination", dccp_request_termination},
  };
  std::size_t replayed = 0;
  for (const Step& step : steps) {
    auto it = done.find(step.attack);
    if (it != done.end()) {
      // Journaled row: replay the recorded measurement (prints and feeds the
      // --json report, but is not re-appended to the journal).
      replaying_row = true;
      row(it->second.protocol.c_str(), step.attack, it->second.impact.c_str(),
          it->second.known.c_str(), it->second.measured);
      replaying_row = false;
      ++replayed;
    } else {
      step.run();
    }
  }
  if (replayed > 0)
    std::printf("\n(%zu of %zu rows replayed from journal %s)\n", replayed, steps.size(),
                journal_arg);
  if (row_journal != nullptr) {
    std::fclose(row_journal);
    row_journal = nullptr;
  }

  if (json != nullptr) {
    json_writer = nullptr;
    json->end_array();
    json->end_object();
    json->flush();
    json.reset();
    std::fputc('\n', json_file);
    std::fclose(json_file);
    std::printf("\nwrote JSON report to %s\n", json_path);
  }
  return 0;
}
