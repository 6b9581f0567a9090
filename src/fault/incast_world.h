// IncastWorld: a rack-structured fan-in of reliable transport conversations
// converging on one receiver host, packaged for the congestion benches and
// the congestion_collapse fault campaign.
//
// R racks × S senders each run one conversation (a sender Transport, a
// receiver Transport, a sink) over a shared fabric: each sender's frames
// serialize onto its own ingress wire (a TopoLink — campaign loss faults
// address it), queue through the rack's ToR switch uplink, then through the
// core switch's downlink to the receiver — the classic incast bottleneck.
// Switch queues are bounded in PDUs; past the saturation knee they drop, and
// with ECN enabled they mark per-VCI queue standing above the threshold
// (Transport::MarkCongestionExperienced carries the mark out-of-band,
// because fbufs are immutable in flight). Acks ride an uncontended reverse
// path with a fixed latency: incast congestion is a data-direction disease.
//
// All domains live on one simulated machine (the SwpWorld simplification:
// one clock, one fbuf pool — which is exactly what makes receiver memory
// pressure couple to the network). Each sender pins its unacked frames in a
// RetransmitLedger registered with the world's PressureManager, so the
// sweep's pageout stage can write cold retransmit-held fbufs to backing
// store, and credit-mode receivers size their grants from the pool's
// headroom (PressureManager::CreditFor).
//
// The same world runs all three transports — fixed-window SWP, credit,
// AIMD/ECN — differing only in IncastWorldConfig::kind, so the incast bench
// compares congestion policies, not worlds.
#ifndef SRC_FAULT_INCAST_WORLD_H_
#define SRC_FAULT_INCAST_WORLD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/latency.h"
#include "src/pressure/backoff.h"
#include "src/pressure/pressure.h"
#include "src/pressure/retransmit_ledger.h"
#include "src/proto/swp.h"
#include "src/proto/test_protocols.h"
#include "src/proto/transport.h"
#include "src/sim/event_loop.h"
#include "src/topo/topology.h"
#include "src/vm/machine.h"

namespace fbufs {

enum class TransportKind { kFixedWindow, kCredit, kAimd };

const char* TransportKindName(TransportKind k);

struct IncastWorldConfig {
  TransportKind kind = TransportKind::kFixedWindow;
  std::uint32_t racks = 2;
  std::uint32_t senders_per_rack = 4;

  // Fixed-window size (kFixedWindow) and the AIMD max_cwnd.
  std::uint32_t window = 8;
  // Credit transport: sender's budget before the first grant arrives, and
  // the ceiling CreditFor may grant per flow. One credit per flow keeps the
  // worst-case aggregate in-flight (flows × credit) at or under the
  // bottleneck queue — loss-freedom is the whole point of the scheme.
  std::uint32_t initial_credits = 1;
  std::uint32_t max_credit = 1;
  // AIMD slow-start threshold.
  std::uint32_t ssthresh = 2;

  // RTO above the worst legitimate RTT (ingress serialization plus two
  // near-full switch queues ≈ 45 ms at the default line rate and queue
  // depth), so a timeout means a drop, not patience running out.
  SimTime rto = 80 * kMillisecond;
  // Reverse-path (ack) latency; acks are tiny and never contend.
  SimTime ack_delay_ns = 20 * kMicrosecond;
  // Producer re-try pace when the window/credits close. Much shorter than
  // the RTO: acks arrive at RTT timescales (queueing + ack_delay), and a
  // producer that napped a whole RTO would quantize every transport's
  // goodput to window-per-RTO bursts, hiding the congestion dynamics this
  // world exists to show. The cap is RTT-scale too, for the same reason.
  SimTime park_initial = 250 * kMicrosecond;
  SimTime park_cap = 4 * kMillisecond;

  // Per-VCI ECN marking threshold at both switch tiers; 0 disables (the
  // fixed-window and credit configurations run drop-only fabrics).
  std::size_t ecn_threshold_pdus = 0;
  std::size_t switch_queue_pdus = 32;
  // OC-3 line rates. The fabric must be the bottleneck for congestion to
  // exist: all domains share one host CPU (one clock), which can source
  // roughly one PDU per ~0.6 ms of protocol + crossing work, so the line
  // rate sits well below that packet rate at the 32 KB PDU the benches use.
  // (At the paper's 516 Mbps a 32 KB PDU serializes in 0.5 ms — the CPU,
  // not the wire, would saturate first, and no queue would ever build.)
  double uplink_mbps = 155.0;  // sender NIC wire and ToR uplink line rate
  double core_mbps = 155.0;    // core downlink to the receiver: the bottleneck

  std::uint32_t phys_frames = 16384;
  std::uint64_t seed = 0x1ca5;
  // Watchdog only: deep in the collapse a fixed-window flow legitimately
  // starves for whole seconds (consecutive RTOs while the bottleneck
  // services other flows' duplicates). True wedges still surface — the
  // loop quiesces and the bench's drain check fails.
  SimTime stall_horizon = 10000 * kMillisecond;
  PressureConfig pressure;
};

class IncastWorld {
 public:
  explicit IncastWorld(const IncastWorldConfig& cfg);

  IncastWorld(const IncastWorld&) = delete;
  IncastWorld& operator=(const IncastWorld&) = delete;

  // The one-way data fabric below one sender transport: ingress wire → ToR
  // uplink queue → core downlink queue, then an evented delivery to the
  // receiver transport (with the ECN mark, when a switch raised one).
  // Drops anywhere on the path eat the frame silently — recovering it is
  // the transport's job.
  class FabricChannel : public Protocol {
   public:
    FabricChannel(IncastWorld* world, std::size_t flow, Domain* domain)
        : Protocol("incast-fabric", domain, world->stack_ptr()),
          world_(world),
          flow_(flow) {}

    Status Push(Message m) override;
    Status Pop(Message) override { return Status::kInvalidArgument; }
    bool touches_body() const override { return false; }

    std::uint64_t forwarded() const { return forwarded_; }

   private:
    IncastWorld* world_;
    std::size_t flow_;
    std::uint64_t forwarded_ = 0;
  };

  // The uncontended reverse path: delivers each ack to the peer sender a
  // fixed latency later.
  class AckChannel : public Protocol {
   public:
    AckChannel(IncastWorld* world, std::size_t flow, Domain* domain)
        : Protocol("incast-ack", domain, world->stack_ptr()),
          world_(world),
          flow_(flow) {}

    Status Push(Message m) override;
    Status Pop(Message) override { return Status::kInvalidArgument; }
    bool touches_body() const override { return false; }

   private:
    IncastWorld* world_;
    std::size_t flow_;
  };

  struct Flow {
    std::size_t rack = 0;
    std::uint32_t vci = 0;
    LinkId ingress = 0;
    Route route;  // ingress wire via the rack's ToR, then the core downlink
    Domain* sender_domain = nullptr;
    PathId tx_hdr = 0;
    PathId rx_hdr = 0;
    PathId data = 0;
    std::unique_ptr<RetransmitLedger> ledger;
    std::unique_ptr<Transport> sender;
    std::unique_ptr<Transport> receiver;
    std::unique_ptr<SinkProtocol> sink;
    std::unique_ptr<FabricChannel> fwd;
    std::unique_ptr<AckChannel> rev;

    // Producer state (the SwpWorld producer, one per flow).
    int target = 0;
    std::uint64_t bytes = 0;
    int accepted = 0;
    FlowBackoff backoff;
    std::uint64_t parks = 0;
    bool failed = false;
    std::function<void()> produce;

    // Per-flow latency decomposition (EnableLatency): the sender transport
    // feeds wire/retransmit/pin_hold; the producer and the delivery event
    // feed queue_wait and dispatch.
    LatencyDecomposition lat;
    SimTime wait_start = 0;
    bool waiting = false;
  };

  // Turns on latency-decomposition sampling for every flow (the transports
  // get AttachLatency, the producers time their backpressure waits). Call
  // before StartProducers.
  void EnableLatency();
  bool latency_enabled() const { return latency_enabled_; }

  // Starts every flow's producer: each keeps its window full until
  // |messages| of |bytes| each were accepted, parking on backpressure
  // (window closed, credits spent, congestion, pool exhausted) with the
  // shared capped-exponential backoff. Run the loop to quiescence after.
  void StartProducers(int messages, std::uint64_t bytes);

  // Stops one flow's producer cleanly (before terminating its domain —
  // a producer that outlives its domain is a use-after-free of the flow's
  // allocation path, not an interesting fault).
  void StopProducer(std::size_t flow);

  std::size_t flow_count() const { return flows_.size(); }
  Flow& flow(std::size_t i) { return *flows_[i]; }
  ProtocolStack* stack_ptr() { return &stack; }

  std::uint64_t total_delivered() const;
  std::uint64_t total_retransmissions() const;
  std::uint64_t total_accepted() const;
  std::uint64_t total_parks() const;
  std::uint64_t switch_drops();
  std::uint64_t ecn_marks();
  bool any_producer_stalled() const;
  bool any_producer_failed() const;

  NodeId core_node() const { return core_node_; }
  NodeId tor_node(std::size_t rack) const { return tor_nodes_[rack]; }

  Machine machine;
  FbufSystem fsys;
  Rpc rpc;
  ProtocolStack stack;
  Topology topo;
  PressureManager pressure;
  Domain* receiver_domain;
  EventLoop loop;

 private:
  IncastWorldConfig cfg_;
  std::vector<NodeId> tor_nodes_;
  NodeId core_node_ = kNoNode;
  bool latency_enabled_ = false;
  std::vector<std::unique_ptr<Flow>> flows_;
};

}  // namespace fbufs

#endif  // SRC_FAULT_INCAST_WORLD_H_
