// One simulated host: a complete machine (own clock, VM, fbuf system, IPC,
// protocol stack, Osiris adapter) playing one of three roles in a topology.
//
//   * kSender   — test source -> UDP -> IP -> driver -> adapter (the paper's
//                 transmitting DecStation);
//   * kReceiver — adapter -> driver -> IP -> UDP -> sink (the receiving one);
//   * kRelay    — both at once on two adapters: PDUs arrive into fbufs on
//                 the in-board, climb to a relay protocol in an application
//                 domain, and are pushed straight back down a second stack
//                 onto the out-board. The forwarding is fbuf-to-fbuf: the
//                 relay only moves references (lazy transfer, bodies never
//                 mapped into the app domain), exercising the paper's cheap
//                 cross-domain forwarding claim for real.
//
// Arbitrary topologies (src/topo/topology.h) instantiate these hosts; the
// paper's two-host null modem is BuildTopology's kDirect shape.
#ifndef SRC_TOPO_SIM_HOST_H_
#define SRC_TOPO_SIM_HOST_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/ipc/dispatch.h"
#include "src/net/driver.h"
#include "src/net/osiris.h"
#include "src/proto/ip.h"
#include "src/proto/test_protocols.h"
#include "src/proto/udp.h"
#include "src/ring/ring_hub.h"
#include "src/sim/event_loop.h"

namespace fbufs {

// Where the stack's layers live (per host; both hosts are configured the
// same way, mirrored, as in the paper).
enum class StackPlacement {
  kKernelOnly,          // everything in the kernel (Fig 5 "kernel-kernel")
  kUserKernel,          // test protocol in a user domain ("user-user")
  kUserNetserverKernel  // UDP in a netserver domain ("user-netserver-user")
};

struct SimHostConfig {
  StackPlacement placement = StackPlacement::kUserKernel;
  std::uint64_t pdu_size = 16 * 1024;  // IP PDU (paper: 16 KB; 32 KB variant in §4)
  // Receiver-side reassembly buffers: cached per-VCI fbufs vs the uncached
  // fallback queue. Per the paper's footnote 5, uncached fbufs incur
  // additional cost only in the receiving host.
  bool cached = true;
  // Sender-side immutability: volatile vs secured-on-transfer. Non-volatile
  // fbufs cost only in the transmitting host (the receiver's originator is
  // the trusted kernel).
  bool volatile_fbufs = true;
  bool integrated = true;
  MachineConfig machine;  // cost model for all hosts
};

enum class HostRole { kSender, kReceiver, kRelay };

// How a relay host's outbound side is addressed.
struct RelayWiring {
  std::uint32_t out_vci = 0;   // VCI stamped on forwarded PDUs
  std::uint16_t out_port = 0;  // destination UDP port on the next host
};

// The relay's application-domain protocol: receives a reassembled datagram
// from the in-stack's UDP and pushes it unchanged down the out-stack. It
// never touches the body, so the proxy edges move fbuf references lazily —
// data pages are never mapped into the relay's app domain, let alone copied.
class RelayProtocol : public Protocol {
 public:
  RelayProtocol(Domain* domain, ProtocolStack* stack)
      : Protocol("relay", domain, stack) {}

  Status Push(Message) override { return Status::kInvalidArgument; }

  Status Pop(Message m) override {
    Machine& machine = *stack_->machine();
    LayerScope layer(machine.attribution(), CostDomain::kProto);
    ActorScope actor(machine.attribution(), domain()->id());
    machine.clock().Advance(machine.costs().proto_pdu_ns);
    m.ForEachExtent([this](const Extent& e) {
      if (e.fb != nullptr && first_extent_fbuf_ == nullptr) {
        first_extent_fbuf_ = e.fb;
      }
    });
    forwarded_++;
    bytes_forwarded_ += m.length();
    return SendDown(m);  // below() is the out-stack's UDP
  }

  bool touches_body() const override { return false; }

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t bytes_forwarded() const { return bytes_forwarded_; }
  // First data-bearing fbuf of the most recent forward (pointer-identity
  // checks against the drivers' last_rx/last_tx fbufs).
  const Fbuf* first_extent_fbuf() const { return first_extent_fbuf_; }
  void reset_first_extent_fbuf() { first_extent_fbuf_ = nullptr; }

 private:
  std::uint64_t forwarded_ = 0;
  std::uint64_t bytes_forwarded_ = 0;
  const Fbuf* first_extent_fbuf_ = nullptr;
};

class SimHost {
 public:
  SimHost(const SimHostConfig& config, HostRole role, std::uint32_t vci,
          std::uint16_t port, const std::string& name,
          const RelayWiring* relay = nullptr);

  Machine machine;
  FbufSystem fsys;
  Rpc rpc;
  OsirisAdapter adapter;  // sender TX / receiver + relay RX
  // CPU lane 0 of the machine — the host CPU of the single-core model. The
  // multicore runner addresses lanes through machine.cpu_lane(i) directly.
  Resource& cpu;
  // Evented dispatch (multicore runs only): created by the TopologyRunner
  // when the host has more than one CPU lane.
  std::unique_ptr<Dispatcher> dispatcher;
  // Transfer rings (opt-in): batched descriptor handoffs replace per-delivery
  // synchronous crossings on every (src, dst) pair the stack touches, and
  // dealloc notices ride the rings instead of the piggyback list.
  std::unique_ptr<RingHub> ring_hub;
  std::unique_ptr<ProtocolStack> stack;
  // Sender side uses source/udp/ip/driver; receiver driver/ip/udp/sink.
  std::unique_ptr<SourceProtocol> source;
  std::unique_ptr<UdpProtocol> udp;
  std::unique_ptr<IpProtocol> ip;
  std::unique_ptr<DriverProtocol> driver;
  std::unique_ptr<SinkProtocol> sink;
  std::uint32_t vci = 0;
  HostRole role = HostRole::kSender;
  SimHostConfig config;

  // Relay-only: the outbound board and its stack (relay -> udp_out ->
  // ip_out -> driver_out -> adapter_out).
  std::unique_ptr<OsirisAdapter> adapter_out;
  std::unique_ptr<RelayProtocol> relay_proto;
  std::unique_ptr<UdpProtocol> udp_out;
  std::unique_ptr<IpProtocol> ip_out;
  std::unique_ptr<DriverProtocol> driver_out;

  // PDUs handed to the adapter by the (outbound) driver, awaiting DMA
  // scheduling.
  struct StagedPdu {
    std::vector<std::uint8_t> payload;
    SimTime ready = 0;
  };
  std::deque<StagedPdu> staged;

  // Receiver-side endpoint for an additional flow: a sink of its own (in a
  // fresh application domain unless everything runs in the kernel), demuxed
  // by UDP port; the adapter demuxes the VCI into the flow's own cached data
  // path. |index| names the domain ("app-flow<index>").
  SinkProtocol* AddFlowEndpoint(std::uint32_t flow_vci, std::uint16_t flow_port,
                                std::size_t index);

  // Switches this host's cross-domain deliveries and dealloc notices onto
  // transfer rings draining through |loop|. Call after any dispatcher is
  // attached; idempotent per host (subsequent calls only update the config).
  void EnableRings(EventLoop* loop, const RingConfig& cfg = RingConfig{});

  // The adapter feeding a leg that leaves this host.
  OsirisAdapter& out_adapter() {
    return role == HostRole::kRelay ? *adapter_out : adapter;
  }

 private:
  // Installs the driver -> staged hand-off on the outbound driver.
  void WireTransmit(DriverProtocol* out_driver);

  std::vector<std::unique_ptr<SinkProtocol>> extra_sinks_;
};

}  // namespace fbufs

#endif  // SRC_TOPO_SIM_HOST_H_
