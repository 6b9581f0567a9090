// Parameterized sweeps over the end-to-end testbed: every combination of
// placement, caching, volatility, PDU size and window must deliver all
// bytes, and the paper's ordering relations must hold throughout.
#include <gtest/gtest.h>

#include <tuple>

#include "src/topo/topo_config.h"

namespace fbufs {
namespace {

using SweepParam = std::tuple<StackPlacement, bool /*cached*/, bool /*volatile*/,
                              std::uint64_t /*pdu*/, std::uint32_t /*window*/>;

class TestbedSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TestbedSweep, DeliversEverythingAndStaysSane) {
  const auto [placement, cached, vol, pdu, window] = GetParam();
  TopologyConfig cfg;
  cfg.host.placement = placement;
  cfg.host.cached = cached;
  cfg.host.volatile_fbufs = vol;
  cfg.host.pdu_size = pdu;
  cfg.window = window;
  BuiltTopology b = BuildTopology(cfg);
  SimHost& rx = *b.topo->host(b.receiver_node);
  const std::uint64_t kMessages = 4;
  const std::uint64_t kBytes = 192 * 1024 + 77;  // unaligned on purpose
  const MultiResult r = b.runner->RunFlows({{kMessages, kBytes, /*warmup=*/1}});

  EXPECT_GT(r.flows[0].throughput_mbps, 0.0);
  EXPECT_LE(r.flows[0].throughput_mbps, 530.0);  // can never beat the wire
  EXPECT_EQ(rx.sink->received(), kMessages + 1);  // + warmup
  EXPECT_EQ(rx.sink->bytes_received(), (kMessages + 1) * kBytes);
  EXPECT_GE(r.receiver_cpu_load, 0.0);
  EXPECT_LE(r.receiver_cpu_load, 1.0 + 1e-9);
  EXPECT_LE(r.flows[0].sender_cpu_load, 1.0 + 1e-9);
  EXPECT_EQ(rx.ip->reassembly_backlog(), 0u);
  // No stranded references on either host.
  for (SimHost* h : {b.topo->host(b.sender_nodes[0]), &rx}) {
    for (FbufId id = 0;; ++id) {
      Fbuf* fb = h->fsys.Get(id);
      if (fb == nullptr) {
        break;
      }
      EXPECT_TRUE(fb->holders.empty()) << "leak, fbuf " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TestbedSweep,
    ::testing::Combine(::testing::Values(StackPlacement::kKernelOnly,
                                         StackPlacement::kUserKernel,
                                         StackPlacement::kUserNetserverKernel),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values<std::uint64_t>(4096, 16384, 32768),
                       ::testing::Values<std::uint32_t>(1, 8)));

// Ordering relations from the paper, asserted over the sweep axes.
TEST(TestbedOrdering, CachedNeverSlowerThanUncached) {
  for (const auto placement :
       {StackPlacement::kUserKernel, StackPlacement::kUserNetserverKernel}) {
    TopologyConfig c;
    c.host.placement = placement;
    c.host.cached = true;
    c.host.volatile_fbufs = true;
    TopologyConfig u = c;
    u.host.cached = false;
    u.host.volatile_fbufs = false;
    BuiltTopology tc = BuildTopology(c), tu = BuildTopology(u);
    const double cached = tc.runner->RunFlows({{6, 1 << 20, 1}}).flows[0].throughput_mbps;
    const double uncached = tu.runner->RunFlows({{6, 1 << 20, 1}}).flows[0].throughput_mbps;
    EXPECT_GE(cached, uncached) << static_cast<int>(placement);
  }
}

TEST(TestbedOrdering, MoreDomainsNeverFaster) {
  for (const std::uint64_t kb : {16ull, 64ull, 1024ull}) {
    double prev = 1e18;
    for (const auto placement : {StackPlacement::kKernelOnly, StackPlacement::kUserKernel,
                                 StackPlacement::kUserNetserverKernel}) {
      TopologyConfig cfg;
      cfg.host.placement = placement;
      BuiltTopology b = BuildTopology(cfg);
      const double mbps = b.runner->RunFlows({{6, kb * 1024, 1}}).flows[0].throughput_mbps;
      EXPECT_LE(mbps, prev * 1.02) << kb << " KB, placement " << static_cast<int>(placement);
      prev = mbps;
    }
  }
}

TEST(TestbedOrdering, BiggerPduLowersCpuLoad) {
  TopologyConfig a;
  a.host.pdu_size = 16 * 1024;
  TopologyConfig b;
  b.host.pdu_size = 32 * 1024;
  BuiltTopology ta = BuildTopology(a), tb = BuildTopology(b);
  const MultiResult ra = ta.runner->RunFlows({{6, 1 << 20, 1}});
  const MultiResult rb = tb.runner->RunFlows({{6, 1 << 20, 1}});
  EXPECT_LT(rb.receiver_cpu_load, ra.receiver_cpu_load);
}

}  // namespace
}  // namespace fbufs
