#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>

#include "src/cache/file_cache.h"
#include "src/fault/auditor.h"
#include "src/fault/incast_world.h"
#include "src/net/atm.h"
#include "src/obs/latency.h"
#include "src/obs/metrics.h"
#include "src/serve/serve_world.h"
#include "src/sim/rng.h"
#include "src/topo/topo_config.h"

namespace perfbench {
namespace {

using fbufs::CostDomain;
using fbufs::Machine;
using fbufs::SimTime;

constexpr std::size_t kDomains = static_cast<std::size_t>(CostDomain::kCount);

// --- Helpers -----------------------------------------------------------------

// FNV-1a over 64-bit words: the simulated-statistics digest.
class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void Add(double v) { Add(static_cast<std::uint64_t>(std::llround(v * 1e6))); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

double Uniform(fbufs::Rng& rng) {
  return static_cast<double>(rng.Next() >> 11) * (1.0 / 9007199254740992.0);
}

// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::uint32_t n, double s) {
    double sum = 0;
    for (std::uint32_t k = 1; k <= n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  std::uint32_t Draw(fbufs::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), Uniform(rng));
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

// Bounded Pareto(alpha) on [lo, hi] by inverse CDF.
double BoundedPareto(fbufs::Rng& rng, double lo, double hi, double alpha) {
  const double u = Uniform(rng);
  const double ratio = std::pow(lo / hi, alpha);
  return lo / std::pow(1.0 - u * (1.0 - ratio), 1.0 / alpha);
}

double NsToMs(SimTime ns) { return static_cast<double>(ns) / 1e6; }

// Nearest-rank quantile of |samples| (sorted in place).
SimTime Quantile(std::vector<SimTime>& samples, double q) {
  std::sort(samples.begin(), samples.end());
  return fbufs::LatencyDecomposition::Quantile(samples, q);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-machine state at the start of the measured call, so every counter the
// benchmark reports covers the measured call only.
struct MachineBase {
  fbufs::SimStats stats;
  fbufs::Attribution::Snapshot attr;
};

struct Host {
  std::string name;
  Machine* machine = nullptr;
  fbufs::FbufSystem* fsys = nullptr;
};

std::vector<Machine*> MachinesOf(const std::vector<Host>& hosts) {
  std::vector<Machine*> out;
  for (const Host& h : hosts) {
    out.push_back(h.machine);
  }
  return out;
}

std::vector<MachineBase> TakeBase(const std::vector<Host>& hosts) {
  std::vector<MachineBase> base;
  for (const Host& h : hosts) {
    base.push_back({h.machine->stats(), h.machine->attribution().Take()});
  }
  return base;
}

// The checks every pass must pass, on every host: the §3.3 audit and
// per-lane time conservation to the nanosecond.
void GateHosts(const std::vector<Host>& hosts, PassResult* r) {
  for (const Host& h : hosts) {
    const fbufs::HostAuditResult a =
        fbufs::InvariantAuditor::AuditHost(h.name, *h.machine, *h.fsys);
    if (!a.passed) {
      r->gate_failures.push_back(
          "audit " + h.name + ": leaked=" + std::to_string(a.leaked_frames) +
          " rc-mismatch=" + std::to_string(a.refcount_mismatches) +
          " dangling=" + std::to_string(a.dangling_mappings) +
          " freelist=" + std::to_string(a.free_list_errors));
    }
    const fbufs::Attribution& attr = h.machine->attribution();
    SimTime lanes = 0;
    for (std::uint32_t c = 0; c < h.machine->num_cpus(); ++c) {
      const SimTime clock = h.machine->cpu_clock(c).Now();
      lanes += clock;
      if (attr.ByCpu(c) != clock) {
        r->gate_failures.push_back(
            "conservation " + h.name + " lane " + std::to_string(c) +
            ": attributed " + std::to_string(attr.ByCpu(c)) + " != clock " +
            std::to_string(clock));
      }
    }
    if (attr.total() != lanes) {
      r->gate_failures.push_back("conservation " + h.name + ": total " +
                                 std::to_string(attr.total()) +
                                 " != lanes " + std::to_string(lanes));
    }
  }
}

// Sums the measured call's SimStats and per-layer time over all hosts, fills
// the layer metrics every world shares, and digests the full machine state.
void CollectHosts(const std::vector<Host>& hosts,
                  const std::vector<MachineBase>& base, PassResult* r,
                  Digest* d) {
  fbufs::SimStats sum;
  r->sim_ns_by_domain.assign(kDomains, 0);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    Machine& m = *hosts[i].machine;
    const fbufs::SimStats delta = m.stats().Since(base[i].stats);
    const fbufs::Attribution::Snapshot attr =
        m.attribution().Take().Since(base[i].attr);
    for (std::size_t k = 0; k < kDomains; ++k) {
      r->sim_ns_by_domain[k] += attr.ByLayer(static_cast<CostDomain>(k));
    }
#define PERFBENCH_SUM(field) sum.field += delta.field;
    FBUFS_SIMSTATS_FIELDS(PERFBENCH_SUM)
#undef PERFBENCH_SUM
    m.stats().ForEach([d](const char*, std::uint64_t v) { d->Add(v); });
    for (const auto& [key, ns] : m.attribution().cells()) {
      d->Add(static_cast<std::uint64_t>(key.layer));
      d->Add(static_cast<std::uint64_t>(key.domain));
      d->Add(static_cast<std::uint64_t>(key.path));
      d->Add(static_cast<std::uint64_t>(key.cpu));
      d->Add(ns);
    }
  }
  auto ns = [r](CostDomain c) {
    return static_cast<double>(r->sim_ns_by_domain[static_cast<std::size_t>(c)]);
  };
  auto& L = r->layer;
  L["sim.wait_ns"] = ns(CostDomain::kWait);
  L["net.ns"] = ns(CostDomain::kNet);
  L["cache.ns"] = ns(CostDomain::kCache);
  L["fbuf.allocs"] = static_cast<double>(sum.fbuf_allocs);
  L["fbuf.freelist_hit_ratio"] = Ratio(static_cast<double>(sum.fbuf_cache_hits),
                                       static_cast<double>(sum.fbuf_allocs));
  L["fbuf.transfers"] = static_cast<double>(sum.fbuf_transfers);
  L["fbuf.ns"] = ns(CostDomain::kFbuf);
  L["vm.tlb_misses"] = static_cast<double>(sum.tlb_misses);
  L["vm.page_faults"] = static_cast<double>(sum.page_faults);
  L["vm.bytes_copied"] = static_cast<double>(sum.bytes_copied);
  L["vm.ns"] = ns(CostDomain::kVm);
  L["ipc.calls"] = static_cast<double>(sum.ipc_calls);
  L["ipc.ns"] = ns(CostDomain::kIpc) + ns(CostDomain::kDispatch);
  L["msg.ns"] = ns(CostDomain::kMsg);
  L["proto.ns"] = ns(CostDomain::kProto);
  L["pressure.sweeps"] = static_cast<double>(sum.pressure_sweeps);
  L["pressure.pages_swapped_out"] = static_cast<double>(sum.pages_swapped_out);
  // Layers a world does not exercise report zero, so every traced run
  // prints every per-layer metric.
  for (const char* k :
       {"net.pdus", "net.cells", "cache.hit_ratio", "cache.misses",
        "cache.evictions", "ipc.dispatch_wait_ns", "proto.retransmissions",
        "proto.retransmit_ratio", "topo.switch_drops", "topo.bottleneck_util",
        "serve.bytes_copied", "serve.pin_hold_p99_ms",
        "serve.admission_wait_p99_ms", "pressure.parks"}) {
    L.emplace(k, 0.0);
  }
}

// ATM wire counters of a SimHost world: PDUs received by the hosts' drivers
// and bytes serialized over every link hop (whole 48-byte cells).
struct AtmTotals {
  std::uint64_t pdus = 0;
  std::uint64_t wire_bytes = 0;
};

AtmTotals Atm(fbufs::Topology& topo, const std::vector<fbufs::SimHost*>& hosts) {
  AtmTotals t;
  for (fbufs::SimHost* h : hosts) {
    t.pdus += h->driver->pdus_received();
  }
  for (fbufs::LinkId l = 0; l < topo.link_count(); ++l) {
    t.wire_bytes += topo.link(l).wire_link().bytes_carried();
  }
  return t;
}

// --- serve_zipf ----------------------------------------------------------------

// ServeWorld star, 16 clients, sync IPC. Closed loop: the whole schedule
// arrives at once, so the 64-request window stays full and each latency runs
// from issue to the last PDU.
class ServeZipf : public Workload {
 public:
  static constexpr std::uint64_t kBlockBytes = 8192;
  static constexpr std::uint32_t kFiles = 400;
  static constexpr std::uint32_t kMaxBlocks = 8;
  static constexpr std::size_t kClients = 16;
  // Schedules are sized in blocks, not requests, so every seed asks the
  // server for the same amount of work.
  static constexpr std::uint64_t kWarmBlocks = 1000;
  static constexpr std::uint64_t kBlocks = 5400;

  explicit ServeZipf(std::uint64_t seed) {
    fbufs::Rng rng(seed);
    const Zipf zipf(kFiles, 1.0);
    auto draw = [&](std::uint64_t blocks) {
      std::vector<fbufs::ServeRequestSpec> s;
      for (std::uint64_t left = blocks; left > 0;) {
        fbufs::ServeRequestSpec r;
        r.client = static_cast<std::uint32_t>(rng.Below(kClients));
        r.file = zipf.Draw(rng);
        const double size = std::ceil(BoundedPareto(rng, 1.0, kMaxBlocks, 4.0 / 3.0));
        r.blocks = static_cast<std::uint32_t>(
            std::min<double>({size, static_cast<double>(kMaxBlocks),
                              static_cast<double>(left)}));
        left -= r.blocks;
        s.push_back(r);
      }
      return s;
    };
    warm_ = draw(kWarmBlocks);
    schedule_ = draw(kBlocks);
    cfg_.clients = kClients;
    cfg_.max_inflight = 64;
    cfg_.cache.block_bytes = kBlockBytes;
    cfg_.cache.capacity_blocks = 128;
    // A disk array rather than one 1993 spindle (as bench/server): the
    // workload studies the serving path, not seek time.
    cfg_.cache.disk_access_ns = 1 * fbufs::kMillisecond;
    cfg_.cache.disk_mbps = 64;
  }

  void Setup(bool observe) override {
    world_.reset();  // one world's memory at a time
    world_ = std::make_unique<fbufs::ServeWorld>(cfg_);
    if (observe) {
      world_->EnableLatency();
    }
    world_->Run(AtNow(warm_));
    hosts_.clear();
    hosts_.push_back({"server", &world_->server().machine, &world_->server().fsys});
    for (std::size_t i = 0; i < world_->client_count(); ++i) {
      hosts_.push_back({"client" + std::to_string(i), &world_->client(i).machine,
                        &world_->client(i).fsys});
    }
    base_ = TakeBase(hosts_);
    events_base_ = world_->loop().events_dispatched();
    hits_base_ = world_->cache().hits();
    misses_base_ = world_->cache().misses();
    evictions_base_ = world_->cache().evictions();
    served_base_ = world_->file_server().bytes_served();
    atm_base_ = Atm(world_->topo(), Sinks());
  }

  void Measure() override { stats_ = world_->Run(AtNow(schedule_)); }

  PassResult Collect() override {
    PassResult r;
    Digest d;
    fbufs::ServeWorld& w = *world_;
    r.goodput_mbps = stats_.goodput_mbps;
    std::vector<SimTime> lat = stats_.latencies;
    r.latency_samples = lat.size();
    r.latency_p50_ms = NsToMs(Quantile(lat, 0.50));
    r.latency_p99_ms = NsToMs(Quantile(lat, 0.99));
    r.attempted = stats_.requests;
    r.failed = stats_.failed;

    GateHosts(hosts_, &r);
    std::uint64_t expected = 0;
    for (const fbufs::ServeRequestSpec& s : schedule_) {
      expected += s.blocks * kBlockBytes;
    }
    const std::uint64_t served = w.file_server().bytes_served() - served_base_;
    if (stats_.delivered_bytes != expected || served != expected) {
      r.gate_failures.push_back(
          "serve bytes: delivered " + std::to_string(stats_.delivered_bytes) +
          ", served " + std::to_string(served) + ", requested " +
          std::to_string(expected));
    }
    if (stats_.requests != schedule_.size() ||
        stats_.completed != schedule_.size() || stats_.truncated != 0) {
      r.gate_failures.push_back("serve requests: " + std::to_string(stats_.completed) +
                                " of " + std::to_string(schedule_.size()) +
                                " completed, " + std::to_string(stats_.truncated) +
                                " truncated");
    }
    if (w.file_server().inflight_requests() != 0 || w.cache().total_pins() != 0) {
      r.gate_failures.push_back(
          "serve drain: " + std::to_string(w.file_server().inflight_requests()) +
          " inflight, " + std::to_string(w.cache().total_pins()) + " pins");
    }
    const std::uint64_t copied = w.server().machine.stats().bytes_copied;
    if (copied != 0) {
      r.gate_failures.push_back("serve zero-copy: server copied " +
                                std::to_string(copied) + " bytes");
    }

    CollectHosts(hosts_, base_, &r, &d);
    auto& L = r.layer;
    L["sim.events"] = static_cast<double>(w.loop().events_dispatched() - events_base_);
    const AtmTotals atm = Atm(w.topo(), Sinks());
    pdus_ = atm.pdus - atm_base_.pdus;
    wire_bytes_ = atm.wire_bytes - atm_base_.wire_bytes;
    L["net.pdus"] = static_cast<double>(pdus_);
    L["net.cells"] = static_cast<double>(wire_bytes_ / fbufs::AtmCell::kPayloadBytes);
    const double hits = static_cast<double>(w.cache().hits() - hits_base_);
    const double misses = static_cast<double>(w.cache().misses() - misses_base_);
    L["cache.hit_ratio"] = Ratio(hits, hits + misses);
    L["cache.misses"] = misses;
    L["cache.evictions"] = static_cast<double>(w.cache().evictions() - evictions_base_);
    double util = 0;
    for (std::size_t i = 0; i < w.client_count(); ++i) {
      util = std::max(util, w.topo().link(w.client_link(i)).wire().Utilization(w.loop().Now()));
    }
    L["topo.bottleneck_util"] = util;
    L["serve.bytes_copied"] = static_cast<double>(copied);
    L["pressure.parks"] = static_cast<double>(stats_.parks);
    for (const auto& [k, v] : L) {
      d.Add(v);
    }
    // Latency-decomposition samples exist only on observed passes, so they
    // stay out of the digest.
    std::vector<SimTime> pin = w.latency().pin_hold;
    std::vector<SimTime> admit = w.latency().queue_wait;
    L["serve.pin_hold_p99_ms"] = NsToMs(Quantile(pin, 0.99));
    L["serve.admission_wait_p99_ms"] = NsToMs(Quantile(admit, 0.99));
    d.Add(w.loop().trace_hash());
    d.Add(w.cache().hits());
    d.Add(w.cache().misses());
    d.Add(w.cache().evictions());
    d.Add(w.cache().pin_blocked_evictions());
    d.Add(stats_.delivered_bytes);
    d.Add(static_cast<std::uint64_t>(stats_.elapsed_ns));
    for (SimTime t : stats_.latencies) {
      d.Add(static_cast<std::uint64_t>(t));
    }
    r.digest = d.value();
    return r;
  }

  ReplayInputs Replay() const override {
    ReplayInputs in;
    in.machine = cfg_.host.machine;
    in.machines = 1 + kClients;
    // Each PDU crosses one link as whole 48-byte cells; the last 8 bytes
    // are the AAL5 trailer, so this is the cell-padded payload.
    in.pdu_bytes = pdus_ > 0 ? wire_bytes_ / pdus_ - 8 : 0;
    in.fbuf_bytes = kBlockBytes;
    in.cache_block_bytes = kBlockBytes;
    in.cache_capacity_blocks = cfg_.cache.capacity_blocks;
    for (const fbufs::ServeRequestSpec& s : schedule_) {
      for (std::uint32_t b = 0; b < s.blocks; ++b) {
        in.cache_reads.emplace_back(s.file, b);
      }
    }
    return in;
  }

  std::vector<Machine*> Machines() override { return MachinesOf(hosts_); }

  double IdleLatencyP50Ms() override {
    // 200 requests at 8 ms spacing: far below saturation, so each request
    // should see the unloaded service time. ServeWorld::DeliverRequest never
    // advances the server clock to the arrival time, so this reads 0 today;
    // the metric keeps that defect visible.
    std::vector<fbufs::ServeRequestSpec> idle(schedule_.begin(),
                                              schedule_.begin() + 200);
    const SimTime t0 = world_->loop().Now();
    for (std::size_t i = 0; i < idle.size(); ++i) {
      idle[i].at = t0 + i * 8 * fbufs::kMillisecond;
    }
    std::vector<SimTime> lat = world_->Run(idle).latencies;
    return NsToMs(Quantile(lat, 0.50));
  }

 private:
  std::vector<fbufs::ServeRequestSpec> AtNow(
      std::vector<fbufs::ServeRequestSpec> s) const {
    for (fbufs::ServeRequestSpec& r : s) {
      r.at = world_->loop().Now();
    }
    return s;
  }
  std::vector<fbufs::SimHost*> Sinks() {
    std::vector<fbufs::SimHost*> out;
    for (std::size_t i = 0; i < world_->client_count(); ++i) {
      out.push_back(&world_->client(i));
    }
    return out;
  }

  fbufs::ServeWorldConfig cfg_;
  std::vector<fbufs::ServeRequestSpec> warm_;
  std::vector<fbufs::ServeRequestSpec> schedule_;
  std::unique_ptr<fbufs::ServeWorld> world_;
  std::vector<Host> hosts_;
  std::vector<MachineBase> base_;
  fbufs::ServeRunStats stats_;
  std::uint64_t events_base_ = 0;
  std::uint64_t hits_base_ = 0, misses_base_ = 0, evictions_base_ = 0;
  std::uint64_t served_base_ = 0;
  AtmTotals atm_base_;
  std::uint64_t pdus_ = 0, wire_bytes_ = 0;
};

// --- fanin_multicore -------------------------------------------------------------

// TopologyRunner fan-in: 8 senders of 2 KB PDUs through one switch into a
// receiver with 2 CPU lanes. Each flow keeps its sliding window full (closed
// loop, window 8). There is no request to time; the latency metrics report
// the receive-side dispatch wait (RX DMA done to lane pickup), the part of
// a PDU's latency the busy lanes add.
class FaninMulticore : public Workload {
 public:
  static constexpr std::uint64_t kPduBytes = 2 * 1024;
  static constexpr std::size_t kFlows = 8;
  static constexpr std::uint64_t kMessages = 1536;

  explicit FaninMulticore(std::uint64_t seed) {
    // The seed splits a fixed total of messages unevenly over the flows.
    fbufs::Rng rng(seed);
    traffic_.resize(kFlows);
    std::uint64_t left = kFlows * kMessages;
    for (std::size_t i = 0; i < kFlows; ++i) {
      fbufs::FlowTraffic& t = traffic_[i];
      t.messages = i + 1 < kFlows ? kMessages - kMessages / 16 + rng.Below(kMessages / 8)
                                  : left;
      left -= t.messages;
      t.bytes = kPduBytes;
      t.warmup = 4;
    }
    cfg_.shape = fbufs::TopologyShape::kFanInSwitch;
    cfg_.senders = kFlows;
    cfg_.host.pdu_size = kPduBytes;
    cfg_.host.machine.num_cpus = 2;
    cfg_.sender_link_mbps = 622.0;
    cfg_.switch_port.mbps = 2400.0;
    cfg_.switch_port.queue_pdus = 256;
    cfg_.trunk_mbps = 80.0;
  }

  void Setup(bool) override {
    // The old world dies while the registry it reports into still lives.
    built_ = fbufs::BuiltTopology{};
    metrics_ = std::make_unique<fbufs::MetricsRegistry>();
    built_ = fbufs::BuildTopology(cfg_);
    // The registry carries the dispatch-wait histograms behind the latency
    // metrics, so it rides every pass.
    rx()->machine.AttachMetrics(metrics_.get());
    hosts_.clear();
    for (fbufs::NodeId n = 0; n < built_.topo->node_count(); ++n) {
      if (!built_.topo->is_switch(n)) {
        fbufs::SimHost* h = built_.topo->host(n);
        hosts_.push_back({h->machine.name() + "/" + std::to_string(n), &h->machine,
                          &h->fsys});
      }
    }
    base_ = TakeBase(hosts_);
  }

  void Measure() override { result_ = built_.runner->RunFlows(traffic_); }

  PassResult Collect() override {
    PassResult r;
    Digest d;
    fbufs::SimHost& rxh = *rx();
    std::uint64_t delivered = 0, expected = 0, sink_expected = 0, parks = 0;
    for (std::size_t i = 0; i < result_.flows.size(); ++i) {
      const fbufs::FlowResult& f = result_.flows[i];
      const fbufs::FlowTraffic& t = traffic_[i];
      r.attempted += t.messages + t.warmup;
      r.failed += t.messages + t.warmup - std::min(f.completed_messages,
                                                    t.messages + t.warmup);
      delivered += f.delivered_bytes;
      expected += t.messages * t.bytes;
      sink_expected += (t.messages + t.warmup) * t.bytes;
      parks += f.backpressure_parks;
      d.Add(f.goodput_mbps);
      d.Add(f.delivered_bytes);
      d.Add(f.completed_messages);
      d.Add(static_cast<std::uint64_t>(f.elapsed_ns));
    }
    std::uint64_t sink_bytes = 0;
    for (std::size_t i = 0; i < built_.runner->flow_count(); ++i) {
      sink_bytes += built_.runner->flow_sink(i).bytes_received();
    }
    r.goodput_mbps = result_.elapsed_ns > 0
                         ? static_cast<double>(delivered) * 8.0 * 1000.0 /
                               static_cast<double>(result_.elapsed_ns)
                         : 0;
    GateHosts(hosts_, &r);
    if (delivered != expected || sink_bytes != sink_expected || result_.failed) {
      r.gate_failures.push_back(
          "fan-in bytes: delivered " + std::to_string(delivered) + " of " +
          std::to_string(expected) + " measured, sinks " +
          std::to_string(sink_bytes) + " of " + std::to_string(sink_expected));
    }

    // Dispatch wait over both lanes: merge the per-queue log2 histograms
    // and interpolate inside the bucket that holds the quantile.
    std::vector<std::uint64_t> buckets(fbufs::Histogram::kBuckets, 0);
    std::uint64_t count = 0;
    for (const auto& [name, h] : metrics_->histograms()) {
      if (name.rfind("dispatch.wait_ns/", 0) != 0) {
        continue;
      }
      for (int b = 0; b < fbufs::Histogram::kBuckets; ++b) {
        buckets[b] += h.bucket(b);
      }
      count += h.count();
    }
    r.latency_samples = count;
    r.latency_p50_ms = HistogramQuantile(buckets, count, 0.50) / 1e6;
    r.latency_p99_ms = HistogramQuantile(buckets, count, 0.99) / 1e6;

    CollectHosts(hosts_, base_, &r, &d);
    auto& L = r.layer;
    L["sim.events"] = static_cast<double>(built_.loop->events_dispatched());
    const AtmTotals atm = Atm(*built_.topo, {&rxh});
    pdus_ = atm.pdus;
    wire_bytes_ = atm.wire_bytes;
    L["net.pdus"] = static_cast<double>(pdus_);
    L["net.cells"] = static_cast<double>(wire_bytes_ / fbufs::AtmCell::kPayloadBytes);
    L["ipc.dispatch_wait_ns"] =
        rxh.dispatcher != nullptr ? static_cast<double>(rxh.dispatcher->TotalWaitNs()) : 0;
    double util = 0;
    for (const fbufs::ResourceUse& u : result_.resources) {
      util = std::max(util, u.utilization);
      d.Add(u.utilization);
    }
    L["topo.bottleneck_util"] = util;
    if (built_.switch_node != fbufs::kNoNode) {
      L["topo.switch_drops"] = static_cast<double>(
          built_.topo->switch_at(built_.switch_node)->drops_total());
    }
    L["pressure.parks"] = static_cast<double>(parks);

    for (const auto& [k, v] : L) {
      d.Add(v);
    }
    for (std::uint64_t b : buckets) {
      d.Add(b);
    }
    d.Add(built_.loop->trace_hash());
    r.digest = d.value();
    return r;
  }

  ReplayInputs Replay() const override {
    ReplayInputs in;
    in.machine = cfg_.host.machine;
    in.machines = kFlows + 1;
    // Each PDU crosses two links (sender uplink, then the trunk).
    in.pdu_bytes = pdus_ > 0 ? wire_bytes_ / (2 * pdus_) - 8 : 0;
    in.fbuf_bytes = kPduBytes;
    return in;
  }

  std::vector<Machine*> Machines() override { return MachinesOf(hosts_); }

 private:
  fbufs::SimHost* rx() { return built_.topo->host(built_.receiver_node); }

  static double HistogramQuantile(const std::vector<std::uint64_t>& buckets,
                                  std::uint64_t count, double q) {
    if (count == 0) {
      return 0;
    }
    const double target = q * static_cast<double>(count);
    double seen = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b] == 0) {
        continue;
      }
      const double next = seen + static_cast<double>(buckets[b]);
      if (next >= target) {
        // Bucket b holds [2^b, 2^(b+1)); bucket 0 holds {0, 1}.
        const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
        const double hi = std::ldexp(1.0, static_cast<int>(b) + 1);
        return lo + (hi - lo) * (target - seen) / static_cast<double>(buckets[b]);
      }
      seen = next;
    }
    return 0;
  }

  fbufs::TopologyConfig cfg_;
  std::vector<fbufs::FlowTraffic> traffic_;
  std::unique_ptr<fbufs::MetricsRegistry> metrics_;
  fbufs::BuiltTopology built_;  // after metrics_: destroyed first
  std::vector<Host> hosts_;
  std::vector<MachineBase> base_;
  fbufs::MultiResult result_;
  std::uint64_t pdus_ = 0, wire_bytes_ = 0;
};

// --- incast_collapse ---------------------------------------------------------------

// IncastWorld with fixed-window SWP, 2 racks x 8 senders, 32 KB PDUs: past
// the knee, where go-back-all retransmissions steal the bottleneck. Each
// producer keeps its window of 8 full (closed loop). Latency is per message,
// from the transport accepting it to its cumulative ack.
class IncastCollapse : public Workload {
 public:
  static constexpr std::uint64_t kPduBytes = 8 * fbufs::kPageSize;
  static constexpr int kMessages = 40;

  explicit IncastCollapse(std::uint64_t seed) {
    fbufs::Rng rng(seed);
    // Past the knee goodput swings by a third between nearby message
    // counts (55-83 Mbps over 40-104), so the seed moves the load by one
    // message per flow only. 40-41 messages give 640-656 latency samples:
    // about 6 lie beyond the p99.
    messages_ = kMessages + static_cast<int>(rng.Below(2));
    cfg_.kind = fbufs::TransportKind::kFixedWindow;
    cfg_.racks = 2;
    cfg_.senders_per_rack = 8;
    cfg_.window = 8;
    cfg_.switch_queue_pdus = 32;
  }

  void Setup(bool) override {
    world_.reset();  // one world's memory at a time
    world_ = std::make_unique<fbufs::IncastWorld>(cfg_);
    // Per-message latency comes from the transports' decomposition.
    world_->EnableLatency();
    hosts_ = {{"incast", &world_->machine, &world_->fsys}};
    base_ = TakeBase(hosts_);
  }

  void Measure() override {
    world_->StartProducers(messages_, kPduBytes);
    world_->loop.Run();
  }

  PassResult Collect() override {
    PassResult r;
    Digest d;
    fbufs::IncastWorld& w = *world_;
    const SimTime elapsed = w.loop.Now();
    const std::uint64_t delivered = w.total_delivered();
    const std::uint64_t accepted = w.total_accepted();
    r.attempted = static_cast<std::uint64_t>(messages_) * w.flow_count();
    r.failed = r.attempted - std::min(r.attempted, delivered / kPduBytes);
    r.goodput_mbps = elapsed > 0 ? static_cast<double>(delivered) * 8.0 * 1000.0 /
                                       static_cast<double>(elapsed)
                                 : 0;
    std::vector<SimTime> lat;
    std::uint64_t retrans = 0, in_order = 0;
    for (std::size_t i = 0; i < w.flow_count(); ++i) {
      fbufs::IncastWorld::Flow& f = w.flow(i);
      lat.insert(lat.end(), f.lat.pin_hold.begin(), f.lat.pin_hold.end());
      retrans += f.sender->retransmissions();
      in_order += f.receiver->delivered_in_order();
      d.Add(f.sender->retransmissions());
      d.Add(f.sender->timer_fires());
      d.Add(f.receiver->duplicates_dropped());
      d.Add(f.receiver->delivered_in_order());
      d.Add(f.bytes);
      const fbufs::SwpAuditResult a =
          fbufs::InvariantAuditor::AuditSwp(*f.sender, *f.receiver, w.machine);
      if (!a.passed) {
        r.gate_failures.push_back("transport audit flow " + std::to_string(i) +
                                  ": unacked=" + std::to_string(a.unacked) +
                                  " stashed=" + std::to_string(a.stashed));
      }
    }
    for (SimTime t : lat) {
      d.Add(static_cast<std::uint64_t>(t));
    }
    r.latency_samples = lat.size();
    r.latency_p50_ms = NsToMs(Quantile(lat, 0.50));
    r.latency_p99_ms = NsToMs(Quantile(lat, 0.99));

    GateHosts(hosts_, &r);
    if (accepted != r.attempted || delivered != accepted * kPduBytes ||
        w.any_producer_stalled() || w.any_producer_failed()) {
      r.gate_failures.push_back(
          "incast drain: accepted " + std::to_string(accepted) + " of " +
          std::to_string(r.attempted) + ", delivered " + std::to_string(delivered) +
          " bytes");
    }

    CollectHosts(hosts_, base_, &r, &d);
    auto& L = r.layer;
    L["sim.events"] = static_cast<double>(w.loop.events_dispatched());
    L["proto.retransmissions"] = static_cast<double>(retrans);
    L["proto.retransmit_ratio"] = Ratio(static_cast<double>(retrans),
                                        static_cast<double>(in_order));
    L["topo.switch_drops"] = static_cast<double>(w.switch_drops());
    L["topo.bottleneck_util"] =
        w.topo.switch_at(w.core_node())->port_resource(0).Utilization(elapsed);
    L["pressure.parks"] = static_cast<double>(w.total_parks());
    for (const auto& [k, v] : L) {
      d.Add(v);
    }
    d.Add(w.loop.trace_hash());
    d.Add(w.pressure.sweeps());
    d.Add(w.pressure.pages_paged_out());
    r.digest = d.value();
    return r;
  }

  ReplayInputs Replay() const override {
    ReplayInputs in;
    in.machine.phys_frames = cfg_.phys_frames;
    in.machines = 1;
    in.fbuf_bytes = kPduBytes;
    return in;
  }

  std::vector<Machine*> Machines() override { return MachinesOf(hosts_); }

 private:
  fbufs::IncastWorldConfig cfg_;
  int messages_ = 0;
  std::unique_ptr<fbufs::IncastWorld> world_;
  std::vector<Host> hosts_;
  std::vector<MachineBase> base_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names{"serve_zipf", "fanin_multicore",
                                              "incast_collapse"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "serve_zipf") {
    return std::make_unique<ServeZipf>(seed);
  }
  if (name == "fanin_multicore") {
    return std::make_unique<FaninMulticore>(seed);
  }
  if (name == "incast_collapse") {
    return std::make_unique<IncastCollapse>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
