// The repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics: it repeats passes (build and
// warm up a fresh world, then run the pinned workload through it) until
// --seconds have passed, and reports the fastest world call, the median
// set-up and the simulated results. Other tenants of a shared host only ever
// add time to a pass, so the fastest pass is the steady estimate of the
// program's own cost. --trace 1 measures the per-layer metrics: it alternates
// untraced and traced passes for --seconds, then replays the traced pass's
// inputs through the per-layer host probes, and prints the simulated and
// host share of every layer. Both check every pass with the correctness
// gate and end stdout with one JSON result line.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "perfbench/probes.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Gate bookkeeping across the passes of one run: a pass that fails a check
// counts all its attempts as failed, and every pass must reproduce the
// first pass's simulated digest.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  bool have_digest = false;
  std::uint64_t digest = 0;

  void Add(const PassResult& r) {
    attempted += r.attempted;
    failed += r.gate_failures.empty() ? r.failed : r.attempted;
    for (const std::string& f : r.gate_failures) {
      std::printf("GATE FAILED: %s\n", f.c_str());
      correct = false;
    }
    if (!have_digest) {
      have_digest = true;
      digest = r.digest;
    } else if (r.digest != digest) {
      std::printf("GATE FAILED: simulated digest %016" PRIx64
                  " differs from the first pass's %016" PRIx64 "\n",
                  r.digest, digest);
      correct = false;
    }
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(const Tally& t, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              t.correct ? "true" : "false", t.attempted, t.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

// One untraced pass; returns (setup seconds, world-call seconds).
std::pair<double, double> TimedPass(Workload& w, Tally* tally, PassResult* out) {
  const double t0 = HostSeconds();
  w.Setup(/*observe=*/false);
  const double t1 = HostSeconds();
  w.Measure();
  const double t2 = HostSeconds();
  *out = w.Collect();
  tally->Add(*out);
  return {t1 - t0, t2 - t1};
}

int RunEndToEnd(Workload& w, const Args& a) {
  const double deadline = HostSeconds() + a.seconds;
  Tally tally;
  std::vector<double> setup_s, wall_s;
  PassResult first;
  while (static_cast<int>(wall_s.size()) < kMinPasses || HostSeconds() < deadline) {
    PassResult r;
    const auto [setup, wall] = TimedPass(w, &tally, &r);
    if (wall_s.empty()) {
      first = r;
    }
    setup_s.push_back(setup);
    wall_s.push_back(wall);
  }
  std::printf("workload %s seed %" PRIu64 ": %zu passes, %" PRIu64
              " latency samples per pass\n",
              a.workload.c_str(), a.seed, wall_s.size(), first.latency_samples);
  std::printf("sim_digest %s %016" PRIx64 "\n", a.workload.c_str(), tally.digest);
  PrintResult(tally, {
                         {"host_wall_s", *std::min_element(wall_s.begin(), wall_s.end()), "s"},
                         {"setup_s", Median(setup_s), "s"},
                         {"peak_rss_mb", PeakRssMb(), "MB"},
                         {"sim_goodput_mbps", first.goodput_mbps, "Mbps"},
                         {"sim_latency_p50_ms", first.latency_p50_ms, "ms"},
                         {"sim_latency_p99_ms", first.latency_p99_ms, "ms"},
                     });
  return 0;
}

// Module layers, in BENCHMARK.json order, with the CostDomains whose
// simulated time and host samples they own. Layers that charge no
// simulated time under a scope of their own have none.
struct LayerMap {
  const char* layer;
  std::vector<fbufs::CostDomain> domains;
};

const std::vector<LayerMap>& Layers() {
  using fbufs::CostDomain;
  static const std::vector<LayerMap> layers{
      {"sim", {CostDomain::kWait}},
      {"net", {CostDomain::kNet}},
      {"cache", {CostDomain::kCache}},
      {"fbuf", {CostDomain::kFbuf}},
      {"vm", {CostDomain::kVm}},
      {"ipc", {CostDomain::kIpc, CostDomain::kDispatch}},
      {"msg", {CostDomain::kMsg}},
      {"proto", {CostDomain::kProto}},
      {"topo", {}},
      {"serve", {}},
      {"pressure", {}},
      {"obs", {}},
      {"ring", {CostDomain::kRing}},
      {"app", {CostDomain::kApp, CostDomain::kBaseline}},
      {"other", {CostDomain::kOther}},
  };
  return layers;
}

// Every per-layer metric with its unit, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> metrics{
      {"sim.events", "count"},
      {"sim.host_ns_per_event", "ns"},
      {"sim.host_machine_ctor_ms", "ms"},
      {"sim.wait_ns", "ns"},
      {"net.pdus", "count"},
      {"net.cells", "count"},
      {"net.ns", "ns"},
      {"net.host_ns_per_pdu", "ns"},
      {"cache.hit_ratio", "ratio"},
      {"cache.misses", "count"},
      {"cache.evictions", "count"},
      {"cache.ns", "ns"},
      {"cache.host_ns_per_read", "ns"},
      {"fbuf.allocs", "count"},
      {"fbuf.freelist_hit_ratio", "ratio"},
      {"fbuf.transfers", "count"},
      {"fbuf.ns", "ns"},
      {"fbuf.host_ns_per_cycle", "ns"},
      {"vm.tlb_misses", "count"},
      {"vm.page_faults", "count"},
      {"vm.bytes_copied", "bytes"},
      {"vm.ns", "ns"},
      {"ipc.calls", "count"},
      {"ipc.ns", "ns"},
      {"ipc.dispatch_wait_ns", "ns"},
      {"msg.ns", "ns"},
      {"proto.ns", "ns"},
      {"proto.retransmissions", "count"},
      {"proto.retransmit_ratio", "ratio"},
      {"topo.switch_drops", "count"},
      {"topo.bottleneck_util", "ratio"},
      {"serve.bytes_copied", "bytes"},
      {"serve.pin_hold_p99_ms", "ms"},
      {"serve.admission_wait_p99_ms", "ms"},
      {"serve.idle_latency_p50_ms", "ms"},
      {"pressure.parks", "count"},
      {"pressure.sweeps", "count"},
      {"pressure.pages_swapped_out", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"baseline.table1_max_err_pct", "%"},
  };
  return metrics;
}

template <typename T>
double Share(const std::vector<T>& by_domain, const std::vector<fbufs::CostDomain>& ds) {
  double part = 0, total = 0;
  for (const T& v : by_domain) {
    total += static_cast<double>(v);
  }
  for (fbufs::CostDomain d : ds) {
    part += static_cast<double>(by_domain[static_cast<std::size_t>(d)]);
  }
  return total > 0 ? 100.0 * part / total : 0;
}

int RunTraced(Workload& w, const Args& a) {
  const double deadline = HostSeconds() + a.seconds;
  Tally tally;
  SpanLog spans;
  std::vector<double> plain_s, traced_s;
  std::vector<std::uint64_t> samples(static_cast<std::size_t>(fbufs::CostDomain::kCount), 0);
  PassResult traced;
  while (traced_s.empty() || HostSeconds() < deadline) {
    PassResult r;
    plain_s.push_back(TimedPass(w, &tally, &r).second);
    {
      ScopedSpan setup(&spans, "setup");
      w.Setup(/*observe=*/true);
    }
    {
      const LayerSampler sampler(w.Machines());
      const int id = spans.Begin("world");
      w.Measure();
      spans.End(id);
      traced_s.push_back(spans.spans()[id].end_s - spans.spans()[id].start_s);
      const std::vector<std::uint64_t> c = sampler.Counts();
      for (std::size_t i = 0; i < c.size(); ++i) {
        samples[i] += c[i];
      }
    }
    traced = w.Collect();
    tally.Add(traced);
  }
  const double overhead_pct = 100.0 * (Median(traced_s) / Median(plain_s) - 1.0);

  // Probes replay the last traced pass's inputs, each inside its own span.
  const ReplayInputs in = w.Replay();
  std::map<std::string, double> L = traced.layer;
  auto probe = [&spans](const char* name, auto fn) {
    ScopedSpan s(&spans, name);
    return fn();
  };
  L["serve.idle_latency_p50_ms"] =
      probe("serve.idle", [&] { return w.IdleLatencyP50Ms(); });
  L["sim.host_ns_per_event"] =
      probe("sim.host_ns_per_event", [&] {
        return ProbeNsPerEvent(static_cast<std::uint64_t>(L["sim.events"]));
      });
  L["sim.host_machine_ctor_ms"] = probe(
      "sim.host_machine_ctor_ms", [&] { return ProbeMachineCtorMs(in.machine); });
  L["net.host_ns_per_pdu"] = probe(
      "net.host_ns_per_pdu", [&] {
        return ProbeNsPerPdu(static_cast<std::uint64_t>(L["net.pdus"]), in.pdu_bytes);
      });
  L["cache.host_ns_per_read"] =
      probe("cache.host_ns_per_read", [&] { return ProbeNsPerCacheRead(in); });
  L["fbuf.host_ns_per_cycle"] = probe("fbuf.host_ns_per_cycle", [&] {
    return ProbeNsPerFbufCycle(static_cast<std::uint64_t>(L["fbuf.allocs"]), in.fbuf_bytes);
  });
  L["baseline.table1_max_err_pct"] =
      probe("baseline.table1", [] { return Table1MaxErrPct(); });
  L["obs.trace_overhead_pct"] = overhead_pct;

  // Host share from the probes: operations of the measured call times the
  // probe's host cost per operation, over the traced world call's host time.
  const double world_ns = Median(traced_s) * 1e9;
  const double machine_ns = L["sim.host_machine_ctor_ms"] * 1e6;
  std::map<std::string, double> probe_pct{
      {"sim", 100.0 * L["sim.events"] * L["sim.host_ns_per_event"] / world_ns},
      {"net", 100.0 * L["net.pdus"] * L["net.host_ns_per_pdu"] / world_ns},
      {"cache", 100.0 * static_cast<double>(in.cache_reads.size()) *
                    L["cache.host_ns_per_read"] / world_ns},
      {"fbuf", 100.0 * L["fbuf.allocs"] * L["fbuf.host_ns_per_cycle"] / world_ns},
      {"obs", std::max(0.0, 100.0 * overhead_pct / (100.0 + overhead_pct))},
  };
  std::uint64_t sample_count = 0;
  for (std::uint64_t n : samples) {
    sample_count += n;
  }
  std::printf("workload %s seed %" PRIu64 ": %zu traced passes, world %.3f s "
              "traced / %.3f s untraced (median), %" PRIu64 " host samples\n",
              a.workload.c_str(), a.seed, traced_s.size(), Median(traced_s),
              Median(plain_s), sample_count);
  std::printf("set-up: %" PRIu64 " machines take %.1f ms of %.1f ms (probe)\n",
              in.machines, in.machines * machine_ns / 1e6,
              1e3 * spans.Total("setup") / static_cast<double>(traced_s.size()));
  for (const LayerMap& l : Layers()) {
    const auto p = probe_pct.find(l.layer);
    char by_probe[48] = "";
    if (p != probe_pct.end()) {
      std::snprintf(by_probe, sizeof(by_probe), ", %.1f%% by probe", p->second);
    }
    std::printf("%s: `%s` is %.1f%% of simulated and %.1f%% of sampled host time%s\n",
                a.workload.c_str(), l.layer, Share(traced.sim_ns_by_domain, l.domains),
                Share(samples, l.domains), by_probe);
  }
  for (const SpanLog::Span& s : spans.spans()) {
    if (s.name != "world" && s.name != "setup") {
      std::printf("span %-28s %9.3f ms\n", s.name.c_str(), (s.end_s - s.start_s) * 1e3);
    }
  }
  std::printf("span %-28s %9.3f ms total, %zu calls\n", "world",
              spans.Total("world") * 1e3, traced_s.size());
  std::printf("sim_digest %s %016" PRIx64 "\n", a.workload.c_str(), tally.digest);

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = L.find(name);
    if (it == L.end()) {
      std::fprintf(stderr, "perfbench: per-layer metric %s was not measured\n", name);
      return 1;
    }
    metrics.push_back({name, it->second, unit});
  }
  PrintResult(tally, metrics);
  return 0;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const std::unique_ptr<Workload> w = MakeWorkload(a.workload, a.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  return a.trace == 0 ? RunEndToEnd(*w, a) : RunTraced(*w, a);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
