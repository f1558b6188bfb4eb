// Microbenchmarks for the substrate (google-benchmark): event scheduler,
// packet codec, wire formats, protocol endpoints, and a whole scenario run.
// These quantify the cost model behind the campaign engine — one scenario
// run is the unit the paper spends "about two minutes" of wall clock on per
// strategy; here it is milliseconds of host time for 10 virtual seconds.
#include <benchmark/benchmark.h>

#include "packet/dccp_format.h"
#include "packet/tcp_format.h"
#include "sim/scheduler.h"
#include "snake/scenario.h"
#include "statemachine/dot_parser.h"
#include "statemachine/protocol_specs.h"
#include "tcp/segment.h"
#include "util/checksum.h"
#include "util/rng.h"

using namespace snake;

static void BM_SchedulerEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int fired = 0;
    std::function<void()> chain = [&] {
      if (++fired < 10000) sched.schedule_in(Duration::micros(1), chain);
    };
    sched.schedule_in(Duration::micros(1), chain);
    sched.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerEventChurn);

static void BM_InternetChecksum1500(benchmark::State& state) {
  Bytes data(1500, 0xA5);
  for (auto _ : state) benchmark::DoNotOptimize(internet_checksum(data));
  state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_InternetChecksum1500);

static void BM_TcpSegmentSerializeParse(benchmark::State& state) {
  tcp::Segment s;
  s.flags = packet::kTcpPsh | packet::kTcpAck;
  s.payload = Bytes(1400, 0x42);
  for (auto _ : state) {
    Bytes wire = tcp::serialize(s);
    auto parsed = tcp::parse_segment(wire);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() * 1420);
}
BENCHMARK(BM_TcpSegmentSerializeParse);

static void BM_CodecFieldAccess(benchmark::State& state) {
  const packet::Codec& codec = packet::tcp_codec();
  tcp::Segment s;
  s.flags = packet::kTcpAck;
  Bytes wire = tcp::serialize(s);
  const packet::CompiledField& seq = *codec.format().compiled("seq");
  std::uint64_t v = 0;
  for (auto _ : state) {
    codec.set_fast(wire, seq, ++v);
    benchmark::DoNotOptimize(codec.get_fast(wire, seq));
  }
}
BENCHMARK(BM_CodecFieldAccess);

static void BM_CodecClassify(benchmark::State& state) {
  const packet::Codec& codec = packet::tcp_codec();
  tcp::Segment s;
  s.flags = packet::kTcpPsh | packet::kTcpAck;
  Bytes wire = tcp::serialize(s);
  for (auto _ : state) benchmark::DoNotOptimize(codec.classify_index(wire));
}
BENCHMARK(BM_CodecClassify);

static void BM_DotParseTcpMachine(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(statemachine::parse_dot(statemachine::tcp_state_machine_dot()));
}
BENCHMARK(BM_DotParseTcpMachine);

static void BM_ScenarioTcp10s(benchmark::State& state) {
  core::ScenarioConfig config;
  config.protocol = core::Protocol::kTcp;
  config.test_duration = Duration::seconds(10.0);
  for (auto _ : state) {
    config.seed++;
    benchmark::DoNotOptimize(core::run_scenario(config, std::nullopt));
  }
}
BENCHMARK(BM_ScenarioTcp10s)->Unit(benchmark::kMillisecond);

static void BM_ScenarioDccp10s(benchmark::State& state) {
  core::ScenarioConfig config;
  config.protocol = core::Protocol::kDccp;
  config.test_duration = Duration::seconds(10.0);
  for (auto _ : state) {
    config.seed++;
    benchmark::DoNotOptimize(core::run_scenario(config, std::nullopt));
  }
}
BENCHMARK(BM_ScenarioDccp10s)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
