// Reproduces the §4 CPU-load measurements: receiving-host CPU load during
// the reception of 1 MB messages, cached vs uncached fbufs, at 16 KB and
// 32 KB IP PDU sizes.
//
// Paper: at 16 KB PDUs the receiving CPU is 88% loaded with cached fbufs and
// saturated with uncached ones; at 32 KB PDUs (protocol overheads roughly
// halved) the load is 55% cached while uncached remains near saturation —
// i.e. cached fbufs buy up to a 45% CPU reduction or up to 2x throughput.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/topo/topo_config.h"

namespace fbufs {
namespace bench {
namespace {

// Streams 16 1 MB messages on the kDirect testbed. With |attr_json| set, it
// also receives the receiving host's conservation-checked time breakdown.
MultiResult Run(bool cached, std::uint64_t pdu, std::string* attr_json = nullptr) {
  TopologyConfig cfg;
  cfg.host.placement = StackPlacement::kUserKernel;
  cfg.host.pdu_size = pdu;
  cfg.host.cached = cached;
  cfg.host.volatile_fbufs = cached;
  BuiltTopology b = BuildTopology(cfg);
  MultiResult mr = b.runner->RunFlows({{16, 1 << 20, /*warmup=*/2}});
  if (mr.failed) {
    std::fprintf(stderr, "cpu_load: flow failed (%s, %llu KB PDUs)\n",
                 cached ? "cached" : "uncached",
                 static_cast<unsigned long long>(pdu / 1024));
    std::abort();
  }
  if (attr_json != nullptr) {
    *attr_json = KeyedSectionJson(
        {{"receiver", TimeAttributionJson(b.topo->host(b.receiver_node)->machine)}});
  }
  return mr;
}

int Main() {
  std::printf("\n=== CPU load on the receiving host, 1 MB messages (paper §4) ===\n");
  std::printf("%8s %10s %12s %12s %14s\n", "pdu", "fbufs", "rx-load", "paper", "Mbps");
  struct Case {
    std::uint64_t pdu;
    bool cached;
    const char* paper;
  };
  const Case cases[] = {{16 * 1024, true, "88%"},
                        {16 * 1024, false, "saturated"},
                        {32 * 1024, true, "55%"},
                        {32 * 1024, false, "~saturated"}};
  JsonReport report("cpu_load");
  for (const Case& c : cases) {
    const auto r = Run(c.cached, c.pdu);
    std::printf("%6lluKB %10s %11.0f%% %12s %14.1f\n",
                static_cast<unsigned long long>(c.pdu / 1024),
                c.cached ? "cached" : "uncached", r.receiver_cpu_load * 100.0, c.paper,
                r.flows[0].throughput_mbps);
    report.BeginRow()
        .Field("pdu_kb", static_cast<double>(c.pdu / 1024))
        .Field("fbufs", c.cached ? "cached" : "uncached")
        .Field("rx_cpu_load", r.receiver_cpu_load)
        .Field("throughput_mbps", r.flows[0].throughput_mbps);
  }
  // Per-layer time breakdown of the receiving host in the headline
  // configuration (cached, 16 KB PDUs); conservation-checked.
  std::string attr_json;
  Run(true, 16 * 1024, &attr_json);
  report.RawSection("time_attribution", attr_json);
  report.Write();
  // The paper's headline ("up to 45% CPU reduction or up to 2x throughput")
  // compares the saturated uncached receiver against the cached one once
  // protocol overheads are halved (32 KB PDUs).
  const auto u16 = Run(false, 16 * 1024);
  const auto c32 = Run(true, 32 * 1024);
  std::printf("\ncached fbufs (32K PDU) vs uncached (16K PDU): %.0f%% CPU reduction "
              "(paper: up to 45%%)\n",
              (u16.receiver_cpu_load - c32.receiver_cpu_load) * 100.0);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main() { return fbufs::bench::Main(); }
