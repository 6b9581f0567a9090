// Topology fabric: a graph of nodes (hosts, ATM switches) and unidirectional
// links on the event engine.
//
// Every link's wire and every switch output port is a Resource with its own
// bandwidth and utilization accounting, so when flows converge the schedule
// itself shows where the bottleneck sits (wire vs switch port vs receiver
// DMA vs receiver CPU). Links support deterministic loss injection: each
// link draws from its own SplitMix64 stream (seeded from the topology seed
// and the link id), so traces replay byte-identically and toggling loss on
// one link never perturbs another's stream.
//
// Switches forward per-VCI to an output port with a bounded queue measured
// in PDUs: a PDU arriving at a full queue is dropped (counted, observable),
// never stalled — exactly how an output-queued ATM switch sheds load.
#ifndef SRC_TOPO_TOPOLOGY_H_
#define SRC_TOPO_TOPOLOGY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/link.h"
#include "src/sim/rng.h"
#include "src/obs/metrics.h"
#include "src/topo/sim_host.h"

namespace fbufs {

using NodeId = std::size_t;
using LinkId = std::size_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);
inline constexpr LinkId kNoLink = static_cast<LinkId>(-1);

// A unidirectional link: a NullModemLink wire plus loss injection.
class TopoLink {
 public:
  TopoLink(const CostParams* costs, std::string name, double mbps, NodeId from,
           NodeId to, std::uint64_t seed)
      : wire_(costs, std::move(name), mbps), from_(from), to_(to), rng_(seed) {}

  struct Outcome {
    SimTime arrival = 0;
    bool dropped = false;
  };

  // The PDU occupies the wire whether or not it is then lost (the bits were
  // serialized either way); a drop is decided at the far end. The Rng is
  // only consulted while loss is enabled, so a loss-free link's stream never
  // advances and enabling loss elsewhere cannot shift it.
  Outcome Transmit(std::uint64_t bytes, SimTime ready) {
    const SimTime arrival = wire_.Transmit(bytes, ready);
    if (drop_percent_ > 0 && rng_.Chance(drop_percent_, 100)) {
      drops_++;
      return {arrival, true};
    }
    return {arrival, false};
  }

  // Saturates at 100: a drop probability beyond certainty is a script bug,
  // not a heavier loss regime.
  void set_drop_percent(std::uint32_t p) { drop_percent_ = p > 100 ? 100 : p; }
  std::uint32_t drop_percent() const { return drop_percent_; }
  std::uint64_t drops() const { return drops_; }

  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  NullModemLink& wire_link() { return wire_; }
  Resource& wire() { return wire_.wire(); }
  SimTime busy_until() const { return wire_.busy_until(); }

 private:
  NullModemLink wire_;
  NodeId from_;
  NodeId to_;
  Rng rng_;
  std::uint32_t drop_percent_ = 0;
  std::uint64_t drops_ = 0;
};

struct SwitchPortConfig {
  double mbps = 516.0;          // output line rate
  std::size_t queue_pdus = 32;  // bounded output queue, in PDUs
};

// An output-queued ATM switch: per-VCI routing to an output port whose line
// is a serial Resource. Queue occupancy is tracked analytically as the
// completion times of PDUs not yet fully transmitted; arrival at a full
// queue drops the PDU.
class SwitchNode {
 public:
  SwitchNode(std::string name, std::vector<SwitchPortConfig> ports);

  void Route(std::uint32_t vci, std::size_t port);

  struct Outcome {
    SimTime done = 0;
    bool dropped = false;
    // ECN: this PDU saw its VCI's queue standing above the marking
    // threshold. Fbufs are immutable in flight, so the mark travels
    // out-of-band with the delivery — the receiving transport echoes it in
    // its next ack (Transport::MarkCongestionExperienced).
    bool ecn_marked = false;
  };

  // A PDU fully received at |arrival| leaves the switch at the returned
  // time, or is dropped (unroutable VCI or full output queue).
  Outcome Forward(std::uint32_t vci, std::uint64_t bytes, SimTime arrival);

  // ECN marking threshold, in PDUs of one VCI standing in one output queue.
  // Zero (the default) disables marking: the switch sheds by dropping only,
  // which is what the fixed-window incast collapse measures. The threshold
  // is deliberately per-VCI, not per-port: one incast victim flow must not
  // get every crossing flow marked.
  void set_ecn_threshold(std::size_t pdus) { ecn_threshold_pdus_ = pdus; }
  std::size_t ecn_threshold() const { return ecn_threshold_pdus_; }

  // Runtime queue knob (fault campaigns): PDUs already queued stay; new
  // arrivals see the new bound. Zero means every arrival is shed.
  void set_port_queue_limit(std::size_t port, std::size_t pdus) {
    ports_[port].cfg.queue_pdus = pdus;
  }
  std::size_t port_queue_limit(std::size_t port) const {
    return ports_[port].cfg.queue_pdus;
  }

  // Optional metrics sink: each Forward observes the output port's queue
  // depth (after enqueue) into "switch.<name>.queue_depth".
  void AttachMetrics(MetricsRegistry* m) { metrics_ = m; }

  const std::string& name() const { return name_; }
  std::size_t port_count() const { return ports_.size(); }
  Resource& port_resource(std::size_t i) { return ports_[i].line; }
  std::uint64_t port_drops(std::size_t i) const { return ports_[i].drops; }
  std::uint64_t port_forwarded(std::size_t i) const { return ports_[i].forwarded; }
  std::uint64_t port_ecn_marks(std::size_t i) const { return ports_[i].ecn_marks; }
  std::uint64_t unroutable() const { return unroutable_; }
  std::uint64_t drops_total() const;
  std::uint64_t ecn_marks_total() const;

 private:
  struct QueuedPdu {
    SimTime done = 0;        // completion time of this queued/in-service PDU
    std::uint32_t vci = 0;   // which flow it belongs to (per-VCI ECN depth)
  };

  struct Port {
    explicit Port(const SwitchPortConfig& c, const std::string& rname)
        : cfg(c), line(rname) {}
    SwitchPortConfig cfg;
    Resource line;
    std::deque<QueuedPdu> in_flight;  // queued + in-service PDUs, by completion
    std::map<std::uint32_t, std::size_t> vci_depth;  // standing PDUs per VCI
    std::uint64_t drops = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t ecn_marks = 0;
  };

  std::string name_;
  std::vector<Port> ports_;
  std::map<std::uint32_t, std::size_t> routes_;
  std::uint64_t unroutable_ = 0;
  std::size_t ecn_threshold_pdus_ = 0;
  MetricsRegistry* metrics_ = nullptr;
};

// One wire hop: a link, a switch, or a link that lands on a switch (which
// forwards onto the next hop).
struct Hop {
  LinkId link = kNoLink;
  NodeId via_switch = kNoNode;
};

// The way one PDU crosses the fabric: out of |tx|'s outbound DMA engine,
// over |hops| in order, into |rx|'s receive DMA engine. Either adapter end
// may be kNoNode (a fabric-only route). Switches forward by |vci|.
struct Route {
  NodeId tx = kNoNode;
  NodeId rx = kNoNode;
  std::uint32_t vci = 0;
  std::vector<Hop> hops;
};

// How one PDU fared on a Route.
struct Crossing {
  SimTime arrival = 0;            // RX DMA done, else the last hop's completion
  bool dropped = false;           // shed by a link or a switch
  bool dropped_on_wire = false;   // shed by a lossy link
  bool ecn_marked = false;        // some switch on the route marked it
};

// The graph. Nodes are added in a fixed order (construction order is part of
// a scenario's deterministic identity); links reference nodes by id.
class Topology {
 public:
  explicit Topology(std::uint64_t seed = 0x5eed) : seed_(seed) {}

  NodeId AddHost(std::unique_ptr<SimHost> host);
  NodeId AddSwitch(const std::string& name, std::vector<SwitchPortConfig> ports);

  // A unidirectional link |from| -> |to|. |mbps| of 0 uses |costs|'s link
  // rate (516 Mbps, the paper's testbed).
  LinkId AddLink(NodeId from, NodeId to, const CostParams* costs,
                 std::string name, double mbps = 0.0);

  SimHost* host(NodeId id) { return hosts_[id].get(); }
  SwitchNode* switch_at(NodeId id) { return switches_[id].get(); }
  bool is_switch(NodeId id) const {
    return id < switches_.size() && switches_[id] != nullptr;
  }
  TopoLink& link(LinkId id) { return *links_[id]; }
  std::size_t node_count() const { return hosts_.size(); }
  std::size_t link_count() const { return links_.size(); }

  // Carries a PDU of |wire_bytes| staged at |ready| along |route|. Acquires
  // TX DMA, then each hop's link and switch port, then RX DMA, and stops at
  // the first drop: nothing past it is acquired. The only place the
  // fabric's serial resources are acquired.
  Crossing Carry(const Route& route, std::uint64_t wire_bytes, SimTime ready);

 private:
  std::uint64_t seed_;
  // Parallel arrays indexed by NodeId: exactly one of hosts_[i],
  // switches_[i] is non-null.
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::vector<std::unique_ptr<SwitchNode>> switches_;
  std::vector<std::unique_ptr<TopoLink>> links_;
};

}  // namespace fbufs

#endif  // SRC_TOPO_TOPOLOGY_H_
