// Allocation gate for the per-packet data path.
//
// This binary replaces the global operator new/delete with counting
// versions. A warm baseline (arena reused, pools and slabs already grown by
// one earlier run) must then make exactly as many heap allocations over a
// 6 s test_duration as over 3 s: the packets of the extra three virtual
// seconds — sends, retransmits, out-of-order buffering, SACK blocks, link
// queueing, delivery — must cost the allocator nothing. Put an allocation
// back on any per-packet path and the two counts drift apart, on any
// toolchain and any machine.
//
// The applications run for the whole test (the proxied client never exits,
// the DCCP source never stops), so the 3 s run is an exact prefix of the
// 6 s one: both build the same world, visit the same states and grow the
// same per-connection queues to the same depths, and the only difference
// left is three more seconds of steady traffic.
//
// Three workloads cover the data paths: linux-3.13 bulk (TCP send queue,
// segment views, links), sack-rfc2018 replaying trace_test's canonical
// trace (scoreboard, receiver SACK blocks, trace apps, with the competing
// bulk flow still running) and DCCP CCID-2 (iperf source, datagram queue).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "snake/arena.h"
#include "snake/controller.h"
#include "snake/trial_runner.h"
#include "tcp/profile.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (n == 0 ? a : (n + a - 1) / a * a);
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace snake::core {
namespace {

/// The same canonical two-flow trace trace_test parses.
const char* kCanonicalTrace =
    "# snake-trace/v1\n"
    "# a comment, then two interleaved flows\n"
    "0.0 f1 open\n"
    "0.4 f2 open\n"
    "0.5 f1 recv 40000\n"
    "0.6 f2 send 2000\n"
    "1.0 f1 send 1000\n"
    "1.5 f2 recv 30000\n"
    "2.0 f1 close\n";

/// Heap allocations one baseline run of `config` makes at `seconds`, through
/// `arena`. The config is the campaign's baseline template, so this is the
/// run every campaign starts with (early-exit cut on, no registry).
std::uint64_t allocations_at(ScenarioArena& arena, const CampaignConfig& campaign,
                             double seconds) {
  CampaignConfig config = campaign;
  config.scenario.test_duration = Duration::seconds(seconds);
  // Fractions of the test duration: past 1, the event lies beyond the
  // horizon of either run.
  config.scenario.client1_exit_fraction = 2.0;
  config.scenario.dccp_data_fraction = 2.0;
  const ScenarioConfig run = baseline_templates(config).run;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  RunMetrics m = run_scenario(arena, run, std::nullopt);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(m.target_established);
  EXPECT_GT(m.target_bytes, 0u);
  return after - before;
}

/// Warms the arena with one 6 s run, then requires the 3 s and 6 s
/// baselines to allocate the same number of times.
void expect_flat_in_duration(const CampaignConfig& campaign) {
  ScenarioArena arena;
  allocations_at(arena, campaign, 6.0);
  const std::uint64_t at3 = allocations_at(arena, campaign, 3.0);
  const std::uint64_t at6 = allocations_at(arena, campaign, 6.0);
  EXPECT_GT(at3, 0u);  // the counter is live: a run builds its world
  EXPECT_EQ(at6, at3) << "a warm baseline allocates per packet: " << at3 << " allocations at 3 s, "
                      << at6 << " at 6 s";
}

CampaignConfig tcp_campaign(const tcp::TcpProfile& profile) {
  CampaignConfig config;
  config.scenario.protocol = Protocol::kTcp;
  config.scenario.tcp_profile = profile;
  config.scenario.seed = 5;
  return config;
}

TEST(AllocGate, LinuxBulkBaselineIsFlatInDuration) {
  expect_flat_in_duration(tcp_campaign(tcp::linux_3_13_profile()));
}

TEST(AllocGate, SackTraceBaselineIsFlatInDuration) {
  CampaignConfig config = tcp_campaign(tcp::sack_rfc2018_profile());
  config.scenario.workload = Workload::kTrace;
  config.scenario.trace_text = kCanonicalTrace;
  expect_flat_in_duration(config);
}

TEST(AllocGate, DccpCcid2BaselineIsFlatInDuration) {
  CampaignConfig config;
  config.scenario.protocol = Protocol::kDccp;
  config.scenario.dccp_ccid = 2;
  config.scenario.seed = 5;
  expect_flat_in_duration(config);
}

}  // namespace
}  // namespace snake::core
