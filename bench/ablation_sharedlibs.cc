// Ablation: the third-domain cache/TLB-pressure penalty (§4).
//
// The paper attributes the extra penalty of the user-netserver-user path to
// duplicated x-kernel program text thrashing the instruction cache and TLB
// ("Because our version of Mach/Unix does not support shared libraries...
// The use of shared libraries should help mitigate this effect"). The model
// exposes that as cache_pressure_ns; sweeping it to zero simulates perfect
// shared libraries and shows how much of the medium-size gap it explains.
#include <cstdio>
#include <cstdlib>

#include "src/topo/topo_config.h"

namespace fbufs {
namespace bench {
namespace {

double Run(StackPlacement p, SimTime pressure_ns, std::uint64_t bytes) {
  TopologyConfig cfg;
  cfg.host.placement = p;
  cfg.host.machine.costs.cache_pressure_ns = pressure_ns;
  BuiltTopology b = BuildTopology(cfg);
  const MultiResult mr = b.runner->RunFlows({{10, bytes, /*warmup=*/2}});
  if (mr.failed) {
    std::fprintf(stderr, "ablation_sharedlibs: flow failed at %llu-byte messages\n",
                 static_cast<unsigned long long>(bytes));
    std::abort();
  }
  return mr.flows[0].throughput_mbps;
}

int Main() {
  std::printf("\n=== Ablation: duplicated program text vs shared libraries (§4) ===\n");
  std::printf("(user-netserver-user throughput, Mbps, by per-PDU pressure charge)\n\n");
  std::printf("%10s %14s %14s %14s %16s\n", "size(KB)", "0us(shared)", "15us", "30us(dflt)",
              "user-user ref");
  for (const std::uint64_t kb : {8ull, 16ull, 64ull, 256ull}) {
    std::printf("%10llu %14.1f %14.1f %14.1f %16.1f\n", (unsigned long long)kb,
                Run(StackPlacement::kUserNetserverKernel, 0, kb * 1024),
                Run(StackPlacement::kUserNetserverKernel, 15000, kb * 1024),
                Run(StackPlacement::kUserNetserverKernel, 30000, kb * 1024),
                Run(StackPlacement::kUserKernel, 30000, kb * 1024));
  }
  std::printf(
      "\nreading: with the pressure term zeroed (perfect shared libraries) the\n"
      "netserver curve closes most of its gap to user-user at medium sizes — the\n"
      "remainder is genuine IPC latency. Matches the paper's diagnosis that the\n"
      "second crossing's outsized penalty is cache/TLB pressure, not latency.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main() { return fbufs::bench::Main(); }
