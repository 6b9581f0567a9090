// Tests for the topology fabric: declarative construction (star, fan-in
// switch, relay chain), trace-hash determinism of multi-host schedules,
// fbuf-to-fbuf relay forwarding (pointer identity, zero copies), bounded
// switch queues shedding load without hanging the run, deterministic
// per-link loss injection, and Topology::Carry's acquire-until-drop order.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/proto/ip.h"
#include "src/proto/udp.h"
#include "src/topo/topo_config.h"

namespace fbufs {
namespace {

TopologyConfig StarConfig(std::size_t senders) {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kStar;
  cfg.senders = senders;
  return cfg;
}

std::vector<FlowTraffic> UniformTraffic(std::size_t flows,
                                        std::uint64_t messages,
                                        std::uint64_t bytes,
                                        std::uint64_t warmup) {
  std::vector<FlowTraffic> traffic(flows);
  for (FlowTraffic& t : traffic) {
    t.messages = messages;
    t.bytes = bytes;
    t.warmup = warmup;
  }
  return traffic;
}

TEST(Topology, ThreeSenderStarIsTraceHashDeterministic) {
  const auto run = [] {
    BuiltTopology b = BuildTopology(StarConfig(3));
    const MultiResult mr =
        b.runner->RunFlows(UniformTraffic(3, 6, 32 * 1024, /*warmup=*/2));
    EXPECT_FALSE(mr.failed);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(b.runner->flow_sink(i).received(), 8u) << "flow " << i;
      EXPECT_GT(mr.flows[i].goodput_mbps, 0.0) << "flow " << i;
      EXPECT_EQ(mr.flows[i].pdus_dropped, 0u) << "flow " << i;
    }
    for (const ResourceUse& r : mr.resources) {
      EXPECT_GE(r.utilization, 0.0) << r.name;
      EXPECT_LE(r.utilization, 1.0) << r.name;
    }
    struct Out {
      std::uint64_t hash;
      double aggregate;
    };
    return Out{b.loop->trace_hash(), mr.aggregate_mbps};
  };
  const auto first = run();
  const auto second = run();
  // Two builds of the same scenario dispatch byte-identical schedules.
  EXPECT_EQ(first.hash, second.hash);
  EXPECT_EQ(first.aggregate, second.aggregate);
}

TEST(Topology, RelayForwardsTheSameFbufWithoutCopying) {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kRelayChain;
  cfg.relays = 1;
  BuiltTopology b = BuildTopology(cfg);
  SimHost& sender = *b.topo->host(b.sender_nodes[0]);
  SimHost& relay = *b.topo->host(b.relay_nodes[0]);

  // Stage one single-fragment datagram on the sender, then hand its PDU to
  // the relay's inbound board directly (no runner — this test watches the
  // relay's internals, not the schedule).
  constexpr std::uint64_t kBytes = 2048;
  ASSERT_EQ(sender.source->SendOne(kBytes), Status::kOk);
  ASSERT_EQ(sender.staged.size(), 1u);
  const std::vector<std::uint8_t> in_pdu = sender.staged.front().payload;
  sender.staged.clear();

  ASSERT_EQ(relay.driver->DeliverPdu(in_pdu, sender.vci,
                                     relay.config.volatile_fbufs),
            Status::kOk);

  // The datagram climbed the in-stack and came out staged on the out-board.
  EXPECT_EQ(relay.relay_proto->forwarded(), 1u);
  EXPECT_EQ(relay.relay_proto->bytes_forwarded(), kBytes);
  ASSERT_EQ(relay.staged.size(), 1u);
  const std::vector<std::uint8_t>& out_pdu = relay.staged.front().payload;

  // Payload preservation: past the rewritten IP/UDP headers the forwarded
  // PDU carries the original bytes untouched.
  constexpr std::uint64_t kHeaders =
      IpProtocol::kHeaderBytes + UdpProtocol::kHeaderBytes;
  ASSERT_EQ(out_pdu.size(), in_pdu.size());
  for (std::uint64_t i = kHeaders; i < in_pdu.size(); ++i) {
    ASSERT_EQ(out_pdu[i], in_pdu[i]) << "payload byte " << i;
  }

  // Zero-copy forwarding, literally: the fbuf the inbound DMA scattered into
  // is the same object the relay protocol saw and the same object the
  // outbound DMA gathered from — references moved, bytes did not.
  EXPECT_NE(relay.driver->last_rx_fbuf(), nullptr);
  EXPECT_EQ(relay.driver->last_rx_fbuf(), relay.relay_proto->first_extent_fbuf());
  EXPECT_EQ(relay.driver->last_rx_fbuf(), relay.driver_out->last_tx_fbuf());
  EXPECT_EQ(relay.machine.stats().bytes_copied, 0u);
}

TEST(Topology, RelayChainDeliversEndToEndWithZeroCopies) {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kRelayChain;
  cfg.relays = 1;
  BuiltTopology b = BuildTopology(cfg);
  const MultiResult mr =
      b.runner->RunFlows(UniformTraffic(1, 5, 16 * 1024, /*warmup=*/1));
  ASSERT_FALSE(mr.failed);
  SimHost& relay = *b.topo->host(b.relay_nodes[0]);
  EXPECT_EQ(b.runner->flow_sink(0).received(), 6u);
  EXPECT_EQ(b.runner->flow_sink(0).bytes_received(), 6u * 16 * 1024);
  EXPECT_EQ(relay.relay_proto->forwarded(), 6u);
  EXPECT_EQ(mr.flows[0].pdus_dropped, 0u);
  EXPECT_GT(mr.flows[0].goodput_mbps, 0.0);
  // The whole run forwarded every datagram without copying a byte on the
  // relay host.
  EXPECT_EQ(relay.machine.stats().bytes_copied, 0u);
}

TEST(Topology, SwitchQueueOverflowShedsPdusWithoutHanging) {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kFanInSwitch;
  cfg.senders = 4;
  cfg.switch_port.mbps = 50.0;  // slow output line behind 516 Mbps uplinks
  cfg.switch_port.queue_pdus = 2;
  BuiltTopology b = BuildTopology(cfg);
  // RunFlows returning at all is the no-hang assertion: dropped PDUs still
  // complete their message's flow-control accounting.
  const MultiResult mr =
      b.runner->RunFlows(UniformTraffic(4, 6, 32 * 1024, /*warmup=*/0));
  ASSERT_FALSE(mr.failed);

  SwitchNode* sw = b.topo->switch_at(b.switch_node);
  EXPECT_GT(sw->drops_total(), 0u);
  EXPECT_EQ(sw->unroutable(), 0u);
  std::uint64_t dropped = 0;
  std::uint64_t delivered = 0;
  for (const FlowResult& f : mr.flows) {
    dropped += f.pdus_dropped;
    delivered += f.delivered_bytes;
  }
  // Every drop the flows observed happened at the switch (links are
  // loss-free here), and lost PDUs show up as goodput < offered load.
  EXPECT_EQ(dropped, sw->drops_total());
  EXPECT_LT(delivered, 4u * 6 * 32 * 1024);
  for (const FlowResult& f : mr.flows) {
    EXPECT_LT(f.goodput_mbps, f.throughput_mbps);
  }
}

TEST(Topology, LinkLossIsDeterministicAndStaysOnItsLink) {
  const auto run = [] {
    BuiltTopology b = BuildTopology(StarConfig(2));
    b.topo->link(b.sender_links[0]).set_drop_percent(30);
    const MultiResult mr =
        b.runner->RunFlows(UniformTraffic(2, 12, 16 * 1024, /*warmup=*/0));
    EXPECT_FALSE(mr.failed);
    struct Out {
      std::uint64_t hash;
      std::uint64_t lossy_drops;
      std::uint64_t clean_drops;
      std::uint64_t flow0_dropped;
      std::uint64_t flow1_dropped;
    };
    return Out{b.loop->trace_hash(), b.topo->link(b.sender_links[0]).drops(),
               b.topo->link(b.sender_links[1]).drops(),
               mr.flows[0].pdus_dropped, mr.flows[1].pdus_dropped};
  };
  const auto first = run();
  const auto second = run();
  // Loss comes from the link's own seeded stream: replays are identical.
  EXPECT_EQ(first.hash, second.hash);
  EXPECT_EQ(first.lossy_drops, second.lossy_drops);
  EXPECT_GT(first.lossy_drops, 0u);
  // Only the lossy link sheds; its neighbour's stream never advances.
  EXPECT_EQ(first.clean_drops, 0u);
  EXPECT_EQ(first.flow0_dropped, first.lossy_drops);
  EXPECT_EQ(first.flow1_dropped, 0u);
}

// A one-sender fan-in: sender --uplink--> switch --trunk--> receiver, and
// the route a PDU takes across it.
struct FanIn {
  BuiltTopology b;
  Route route;
};

FanIn OneSenderFanIn() {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kFanInSwitch;
  cfg.senders = 1;
  FanIn f{BuildTopology(cfg), {}};
  f.route = Route{f.b.sender_nodes[0], f.b.receiver_node, cfg.base_vci,
                  {Hop{f.b.sender_links[0], f.b.switch_node},
                   Hop{f.b.trunk_link, kNoNode}}};
  return f;
}

TEST(Carry, LinkDropStopsBeforeTheSwitchAndRxDma) {
  FanIn f = OneSenderFanIn();
  Topology& topo = *f.b.topo;
  topo.link(f.b.sender_links[0]).set_drop_percent(100);
  const Crossing c = topo.Carry(f.route, 4800, 0);
  EXPECT_TRUE(c.dropped);
  EXPECT_TRUE(c.dropped_on_wire);
  // The bits were serialized up to the drop...
  EXPECT_GT(topo.host(f.b.sender_nodes[0])->adapter.tx_dma().busy_ns(), 0u);
  EXPECT_GT(topo.link(f.b.sender_links[0]).wire().busy_ns(), 0u);
  // ...and nothing past it was acquired.
  SwitchNode* sw = topo.switch_at(f.b.switch_node);
  EXPECT_EQ(sw->port_forwarded(0), 0u);
  EXPECT_EQ(sw->port_drops(0), 0u);
  EXPECT_EQ(sw->port_resource(0).busy_ns(), 0u);
  EXPECT_EQ(topo.link(f.b.trunk_link).wire().busy_ns(), 0u);
  EXPECT_EQ(topo.host(f.b.receiver_node)->adapter.rx_dma().busy_ns(), 0u);
}

TEST(Carry, FullSwitchQueueDropsWithoutTouchingRxDma) {
  FanIn f = OneSenderFanIn();
  Topology& topo = *f.b.topo;
  SwitchNode* sw = topo.switch_at(f.b.switch_node);
  sw->set_port_queue_limit(0, 0);  // every arrival is shed
  const Crossing c = topo.Carry(f.route, 4800, 0);
  EXPECT_TRUE(c.dropped);
  EXPECT_FALSE(c.dropped_on_wire);
  EXPECT_EQ(sw->port_drops(0), 1u);
  EXPECT_EQ(topo.link(f.b.trunk_link).wire().busy_ns(), 0u);
  Resource& rx_dma = topo.host(f.b.receiver_node)->adapter.rx_dma();
  EXPECT_EQ(rx_dma.busy_ns(), 0u);

  // With room in the queue the same route reaches RX DMA.
  sw->set_port_queue_limit(0, 1);
  const Crossing ok = topo.Carry(f.route, 4800, 0);
  EXPECT_FALSE(ok.dropped);
  EXPECT_GT(rx_dma.busy_ns(), 0u);
  EXPECT_EQ(ok.arrival, rx_dma.busy_until());
}

TEST(Carry, AdapterlessTwoSwitchRouteOrsEcnMarks) {
  // The incast shape: an ingress wire landing on a ToR, then the core
  // downlink. Whichever tier is slower builds a standing queue and marks
  // the second of two back-to-back PDUs.
  struct Case {
    double tor_mbps;
    double core_mbps;
    std::uint64_t tor_marks;
    std::uint64_t core_marks;
  };
  for (const Case& k : {Case{50, 155, 1, 0}, Case{155, 50, 0, 1}}) {
    const CostParams costs;
    Topology topo;
    SwitchPortConfig tor_port;
    tor_port.mbps = k.tor_mbps;
    SwitchPortConfig core_port;
    core_port.mbps = k.core_mbps;
    const NodeId tor = topo.AddSwitch("tor", {tor_port});
    const NodeId core = topo.AddSwitch("core", {core_port});
    const LinkId ingress = topo.AddLink(tor, tor, &costs, "ingress", 155);
    for (const NodeId sw : {tor, core}) {
      topo.switch_at(sw)->Route(7, 0);
      topo.switch_at(sw)->set_ecn_threshold(1);
    }
    const Route route{kNoNode, kNoNode, 7,
                      {Hop{ingress, tor}, Hop{kNoLink, core}}};

    const Crossing first = topo.Carry(route, 4800, 0);
    const Crossing second = topo.Carry(route, 4800, 0);
    EXPECT_FALSE(first.dropped);
    EXPECT_FALSE(second.dropped);
    EXPECT_FALSE(first.ecn_marked);
    EXPECT_TRUE(second.ecn_marked) << k.tor_mbps << "/" << k.core_mbps;
    EXPECT_EQ(topo.switch_at(tor)->port_ecn_marks(0), k.tor_marks);
    EXPECT_EQ(topo.switch_at(core)->port_ecn_marks(0), k.core_marks);
    EXPECT_EQ(second.arrival,
              topo.switch_at(core)->port_resource(0).busy_until());
  }
}

}  // namespace
}  // namespace fbufs
