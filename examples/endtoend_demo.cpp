// Two simulated DecStations talking UDP/IP over the Osiris/ATM testbed —
// the paper's end-to-end configuration, runnable as a demo.
//
//   ./build/examples/endtoend_demo [message_kb]
#include <cstdio>
#include <cstdlib>

#include "src/topo/topo_config.h"

using namespace fbufs;

int main(int argc, char** argv) {
  const std::uint64_t msg_kb = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 512;
  const std::uint64_t msg_bytes = msg_kb * 1024;

  std::printf("== end-to-end UDP/IP over simulated Osiris ATM (622 Mbps link) ==\n");
  std::printf("message size: %llu KB, IP PDU 16 KB, sliding window\n\n",
              static_cast<unsigned long long>(msg_kb));
  std::printf("%-24s %12s %10s %10s %16s\n", "configuration", "Mbps", "tx-CPU", "rx-CPU",
              "crossings/host");

  struct Case {
    const char* name;
    StackPlacement placement;
    bool cached;
    const char* crossings;
  };
  const Case cases[] = {
      {"kernel-kernel", StackPlacement::kKernelOnly, true, "0"},
      {"user-user", StackPlacement::kUserKernel, true, "1"},
      {"user-netserver-user", StackPlacement::kUserNetserverKernel, true, "2"},
      {"user-user, uncached", StackPlacement::kUserKernel, false, "1"},
  };
  for (const Case& c : cases) {
    TopologyConfig cfg;
    cfg.host.placement = c.placement;
    cfg.host.cached = c.cached;
    cfg.host.volatile_fbufs = c.cached;
    BuiltTopology b = BuildTopology(cfg);
    const MultiResult r = b.runner->RunFlows({{/*messages=*/12, msg_bytes, /*warmup=*/2}});
    if (r.failed) {
      std::fprintf(stderr, "%s: flow failed\n", c.name);
      return 1;
    }
    std::printf("%-24s %12.1f %9.0f%% %9.0f%% %16s\n", c.name, r.flows[0].throughput_mbps,
                r.flows[0].sender_cpu_load * 100, r.receiver_cpu_load * 100, c.crossings);
  }

  std::printf("\nWith cached/volatile fbufs the protection-domain crossings cost almost\n"
              "nothing at this message size: throughput is pinned by the TurboChannel\n"
              "DMA ceiling (~285 Mbps), exactly as the paper reports.\n");
  return 0;
}
