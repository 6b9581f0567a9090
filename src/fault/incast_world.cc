#include "src/fault/incast_world.h"

#include <algorithm>

namespace fbufs {

namespace {

// OC-3 line rate of every fabric wire: the sender NIC wires, the ToR
// uplinks and the core downlink to the receiver (the bottleneck). The
// fabric must be the bottleneck for congestion to exist: all domains share
// one host CPU (one clock), which can source roughly one PDU per ~0.6 ms of
// protocol + crossing work, so the line rate sits well below that packet
// rate at the 32 KB PDU the benches use. (At the paper's 516 Mbps a 32 KB
// PDU serializes in 0.5 ms — the CPU, not the wire, would saturate first,
// and no queue would ever build.)
constexpr double kLineMbps = 155.0;
// Reverse-path (ack) latency; acks are tiny and never contend.
constexpr SimTime kAckDelayNs = 20 * kMicrosecond;
// Producer re-try pace when the window/credits close. Much shorter than the
// RTO: acks arrive at RTT timescales (queueing + ack delay), and a producer
// that napped a whole RTO would quantize every transport's goodput to
// window-per-RTO bursts, hiding the congestion dynamics this world exists
// to show. The cap is RTT-scale too, for the same reason.
constexpr SimTime kParkInitial = 250 * kMicrosecond;
constexpr SimTime kParkCap = 4 * kMillisecond;

MachineConfig MachineFor(const IncastWorldConfig& cfg) {
  MachineConfig m;
  m.phys_frames = cfg.phys_frames;
  return m;
}

// Sender and receiver run the same transport kind — the wire format (16 vs
// 24 byte header) must agree end to end.
std::unique_ptr<Transport> MakeTransport(const IncastWorldConfig& cfg,
                                         Domain* d, ProtocolStack* s,
                                         PathId hdr) {
  switch (cfg.kind) {
    case TransportKind::kFixedWindow:
      return std::make_unique<SwpProtocol>(d, s, hdr, cfg.window);
    case TransportKind::kCredit:
      return std::make_unique<CreditTransport>(d, s, hdr, cfg.initial_credits);
    case TransportKind::kAimd: {
      AimdPolicy::Config ac;
      ac.initial_cwnd = 1;
      ac.initial_ssthresh = cfg.ssthresh;
      ac.max_cwnd = cfg.window;
      return std::make_unique<AimdTransport>(d, s, hdr, ac);
    }
  }
  return nullptr;
}

}  // namespace

const char* TransportKindName(TransportKind k) {
  switch (k) {
    case TransportKind::kFixedWindow:
      return "swp";
    case TransportKind::kCredit:
      return "credit";
    case TransportKind::kAimd:
      return "aimd";
  }
  return "unknown";
}

IncastWorld::IncastWorld(const IncastWorldConfig& cfg)
    : machine(MachineFor(cfg)),
      fsys(&machine),
      rpc(&machine),
      stack(&machine, &fsys, &rpc),
      topo(cfg.seed),
      pressure(&fsys, PressureConfig{}),
      receiver_domain(machine.CreateDomain("receiver")),
      cfg_(cfg) {
  fsys.AttachRpc(&rpc);
  fsys.AttachEventLoop(&loop);
  pressure.AttachEventLoop(&loop);

  const std::uint32_t flows = cfg.racks * cfg.senders_per_rack;
  stack.set_domain_count(1 + flows);

  // Fabric: one ToR switch per rack (port 0 = the uplink toward the core),
  // one core switch (port 0 = the downlink to the receiver — the incast
  // bottleneck every flow crosses).
  for (std::uint32_t r = 0; r < cfg.racks; ++r) {
    SwitchPortConfig up;
    up.mbps = kLineMbps;
    up.queue_pdus = cfg.switch_queue_pdus;
    tor_nodes_.push_back(topo.AddSwitch("tor" + std::to_string(r), {up}));
    topo.switch_at(tor_nodes_.back())->set_ecn_threshold(cfg.ecn_threshold_pdus);
  }
  SwitchPortConfig down;
  down.mbps = kLineMbps;
  down.queue_pdus = cfg.switch_queue_pdus;
  core_node_ = topo.AddSwitch("core", {down});
  topo.switch_at(core_node_)->set_ecn_threshold(cfg.ecn_threshold_pdus);

  for (std::uint32_t i = 0; i < flows; ++i) {
    auto f = std::make_unique<Flow>();
    f->rack = i / cfg.senders_per_rack;
    f->vci = 100 + i;
    Domain* sd = machine.CreateDomain("sender" + std::to_string(i));
    f->sender_domain = sd;
    f->tx_hdr = fsys.paths().Register({sd->id(), receiver_domain->id()});
    f->rx_hdr = fsys.paths().Register({receiver_domain->id(), sd->id()});
    f->data = fsys.paths().Register({sd->id(), receiver_domain->id()});
    f->ledger = std::make_unique<RetransmitLedger>();
    f->sender = MakeTransport(cfg, sd, &stack, f->tx_hdr);
    f->receiver = MakeTransport(cfg, receiver_domain, &stack, f->rx_hdr);
    f->sink = std::make_unique<SinkProtocol>(receiver_domain, &stack);
    f->fwd = std::make_unique<FabricChannel>(this, i, sd);
    f->rev = std::make_unique<AckChannel>(this, i, receiver_domain);
    // The ingress wire has no host node (the sender "NIC" is the link
    // itself); both endpoints record the rack's ToR for the fault scripts.
    f->ingress = topo.AddLink(tor_nodes_[f->rack], tor_nodes_[f->rack],
                              &machine.costs(), "ingress/" + std::to_string(i),
                              kLineMbps);
    topo.switch_at(tor_nodes_[f->rack])->Route(f->vci, 0);
    topo.switch_at(core_node_)->Route(f->vci, 0);
    f->route.hops = {Hop{f->ingress, tor_nodes_[f->rack]},
                     Hop{kNoLink, core_node_}};
    f->route.vci = f->vci;

    f->sender->set_below(f->fwd.get());
    f->receiver->set_below(f->rev.get());
    f->receiver->set_above(f->sink.get());
    f->sender->AttachTimer(&loop, cfg.rto);
    f->sender->AttachLedger(f->ledger.get());
    f->sender->InstallAbortOnTermination();
    pressure.AttachRetransmitLedger(f->ledger.get());
    if (cfg.kind == TransportKind::kCredit) {
      // The grant rides on every ack: the receiver sizes each flow's
      // in-flight budget to the pool's current headroom. This is the
      // backward pressure path — a squeezed pool shrinks grants toward 1.
      const std::size_t idx = i;
      f->receiver->SetCreditSource([this, idx, flows] {
        const Flow& fl = *flows_[idx];
        const std::uint64_t pdu_pages = PagesFor(fl.bytes > 0 ? fl.bytes : kPageSize);
        return pressure.CreditFor(pdu_pages, flows, cfg_.max_credit);
      });
    }
    f->backoff.policy.initial = kParkInitial;
    f->backoff.policy.cap = kParkCap;
    f->backoff.stall_horizon = cfg.stall_horizon;
    flows_.push_back(std::move(f));
  }
}

Status IncastWorld::FabricChannel::Push(Message m) {
  // Serialize onto the sender's own wire, then queue through both switch
  // tiers analytically. A drop at any stage eats the frame (counted at the
  // dropping element); the bits upstream of the drop were still spent.
  const Crossing c = world_->topo.Carry(world_->flow(flow_).route, m.length(),
                                        stack_->machine()->clock().Now());
  if (c.dropped) {
    return Status::kOk;
  }
  // Hold references across the flight; the delivery event drops them.
  Status st = stack_->RetainMessage(m, *domain());
  if (!Ok(st)) {
    return st;
  }
  forwarded_++;
  world_->loop.Schedule(
      std::max(world_->loop.Now(), c.arrival), "incast-deliver",
      [this, m, arrival = c.arrival, marked = c.ecn_marked] {
        if (!domain()->alive()) {
          // The sender died mid-flight: §3.3 cleanup already dropped the
          // references this channel held, so the frame simply never lands.
          return;
        }
        stack_->machine()->clock().AdvanceToAtLeast(arrival);
        Flow& fl = world_->flow(flow_);
        if (world_->latency_enabled_) {
          // How late the event loop ran the delivery relative to the frame's
          // fabric arrival: receiver-side dispatch latency.
          const SimTime now = stack_->machine()->clock().Now();
          fl.lat.dispatch.push_back(now >= arrival ? now - arrival : 0);
        }
        if (marked) {
          // Out-of-band ECN: the mark arrives with the frame (fbufs are
          // immutable in flight — the header cannot be rewritten).
          fl.receiver->MarkCongestionExperienced();
        }
        // The actual crossing happens here, through the stack's proxy edge:
        // SendUpTo transfers the fbuf references into the receiver domain
        // (making it a holder — without that, receiver-side reads fault to
        // §3.2.4 absent-leaf zero pages), charges marshal + crossing, and
        // releases the receiver's references after the Pop unless the
        // transport retained (stashed out-of-order frames do).
        SendUpTo(fl.receiver.get(), m);
        stack_->FreeMessage(m, *domain());
      });
  return Status::kOk;
}

Status IncastWorld::AckChannel::Push(Message m) {
  // Receiver-domain references keep the ack header alive across the
  // reverse-path latency.
  Status st = stack_->RetainMessage(m, *domain());
  if (!Ok(st)) {
    return st;
  }
  Machine& mach = *stack_->machine();
  const SimTime arrival = mach.clock().Now() + kAckDelayNs;
  world_->loop.Schedule(
      std::max(world_->loop.Now(), arrival), "incast-ack",
      [this, m, arrival] {
        stack_->machine()->clock().AdvanceToAtLeast(arrival);
        Flow& fl = world_->flow(flow_);
        if (!fl.sender->aborted() && fl.sender_domain->alive()) {
          SendUpTo(fl.sender.get(), m);
        }
        stack_->FreeMessage(m, *domain());
      });
  return Status::kOk;
}

void IncastWorld::EnableLatency() {
  latency_enabled_ = true;
  for (auto& f : flows_) {
    f->sender->AttachLatency(&f->lat);
  }
}

void IncastWorld::StartProducers(int messages, std::uint64_t bytes) {
  for (auto& fp : flows_) {
    Flow* f = fp.get();
    f->target = messages;
    f->bytes = bytes;
    f->produce = [this, f] {
      while (f->accepted < f->target) {
        if (!f->sender_domain->alive()) {
          return;  // terminated mid-campaign: the flow ends, not fails
        }
        Fbuf* fb = nullptr;
        Status st = fsys.Allocate(*f->sender_domain, f->data, f->bytes,
                                  /*want_volatile=*/true, &fb);
        if (Ok(st)) {
          st = f->sender_domain->TouchRange(fb->base, f->bytes, Access::kWrite);
          if (Ok(st)) {
            st = f->sender->Push(Message::Whole(fb));
          }
          // The producer's reference always drops, push or no push.
          const Status free_st = fsys.Free(fb, *f->sender_domain);
          if (Ok(st) && !Ok(free_st)) {
            st = free_st;
          }
        }
        if (Ok(st)) {
          f->accepted++;
          if (latency_enabled_) {
            // Admission wait for this message: first refusal to acceptance.
            // Unparked accepts contribute a zero so count == accepted.
            const SimTime now = machine.clock().Now();
            f->lat.queue_wait.push_back(
                f->waiting && now >= f->wait_start ? now - f->wait_start : 0);
            f->waiting = false;
          }
          f->backoff.Progress(loop.Now());
          continue;
        }
        if (!IsBackpressure(st)) {
          f->failed = true;  // hard error: retrying cannot help
          return;
        }
        if (latency_enabled_ && !f->waiting) {
          f->waiting = true;
          f->wait_start = machine.clock().Now();
        }
        const auto delay = f->backoff.Park(loop.Now());
        if (!delay.has_value()) {
          return;  // watchdog: no progress inside the horizon — give up
        }
        f->parks++;
        loop.Schedule(std::max(loop.Now(), machine.clock().Now()) + *delay,
                      "incast-produce", f->produce);
        return;
      }
    };
    loop.Schedule(loop.Now(), "incast-produce", f->produce);
  }
}

void IncastWorld::StopProducer(std::size_t flow) {
  Flow& f = *flows_[flow];
  f.target = f.accepted;  // the pending produce event exits immediately
}

std::uint64_t IncastWorld::total_delivered() const {
  std::uint64_t n = 0;
  for (const auto& f : flows_) {
    n += f->sink->bytes_received();
  }
  return n;
}

std::uint64_t IncastWorld::total_retransmissions() const {
  std::uint64_t n = 0;
  for (const auto& f : flows_) {
    n += f->sender->retransmissions();
  }
  return n;
}

std::uint64_t IncastWorld::total_accepted() const {
  std::uint64_t n = 0;
  for (const auto& f : flows_) {
    n += static_cast<std::uint64_t>(f->accepted);
  }
  return n;
}

std::uint64_t IncastWorld::total_parks() const {
  std::uint64_t n = 0;
  for (const auto& f : flows_) {
    n += f->parks;
  }
  return n;
}

std::uint64_t IncastWorld::switch_drops() {
  std::uint64_t n = 0;
  for (std::size_t r = 0; r < tor_nodes_.size(); ++r) {
    n += topo.switch_at(tor_nodes_[r])->drops_total();
  }
  n += topo.switch_at(core_node_)->drops_total();
  return n;
}

std::uint64_t IncastWorld::ecn_marks() {
  std::uint64_t n = 0;
  for (std::size_t r = 0; r < tor_nodes_.size(); ++r) {
    n += topo.switch_at(tor_nodes_[r])->ecn_marks_total();
  }
  n += topo.switch_at(core_node_)->ecn_marks_total();
  return n;
}

bool IncastWorld::any_producer_stalled() const {
  for (const auto& f : flows_) {
    if (f->backoff.stalled) {
      return true;
    }
  }
  return false;
}

bool IncastWorld::any_producer_failed() const {
  for (const auto& f : flows_) {
    if (f->failed) {
      return true;
    }
  }
  return false;
}

}  // namespace fbufs
