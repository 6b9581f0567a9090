// Reproduces Figure 5: end-to-end UDP/IP throughput between two hosts over
// the simulated Osiris/ATM testbed, using cached/volatile fbufs, as a
// function of message size. Three placements: kernel-kernel, user-user,
// user-netserver-user. IP PDU = 16 KB, sliding-window flow control.
//
// Expected shape (paper): maximum ~285 Mbps, I/O (TurboChannel DMA) bound;
// domain crossings nearly free for >= 256 KB messages; medium sizes pay
// per-crossing IPC latency, with the third domain costing extra via
// cache/TLB pressure.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/topo/topo_config.h"

namespace fbufs {
namespace bench {
namespace {

// One kDirect testbed run at |size|-byte messages. With |attr_json| set, it
// also receives both hosts' conservation-checked time breakdown.
double Run(StackPlacement p, std::uint64_t size, std::string* attr_json = nullptr) {
  TopologyConfig cfg;
  cfg.host.placement = p;
  cfg.host.pdu_size = 16 * 1024;
  cfg.host.cached = true;
  cfg.host.volatile_fbufs = true;
  BuiltTopology b = BuildTopology(cfg);
  const std::uint64_t messages = std::max<std::uint64_t>(8, (16ull << 20) / size);
  const MultiResult mr = b.runner->RunFlows({{messages, size, /*warmup=*/2}});
  if (mr.failed) {
    std::fprintf(stderr, "fig5: flow failed at %llu-byte messages\n",
                 static_cast<unsigned long long>(size));
    std::abort();
  }
  if (attr_json != nullptr) {
    *attr_json = "{\n    \"sender\": " +
                 TimeAttributionJson(b.topo->host(b.sender_nodes[0])->machine) +
                 ",\n    \"receiver\": " +
                 TimeAttributionJson(b.topo->host(b.receiver_node)->machine) +
                 "\n  }";
  }
  return mr.flows[0].throughput_mbps;
}

int Main() {
  std::printf(
      "\n=== Figure 5: end-to-end UDP/IP throughput, cached/volatile fbufs (Mbps) ===\n");
  std::printf("%10s %15s %12s %22s\n", "size(KB)", "kernel-kernel", "user-user",
              "user-netserver-user");
  JsonReport report("fig5_endtoend_cached");
  const std::vector<std::uint64_t> kb = {4, 8, 16, 32, 64, 128, 256, 512, 1024};
  for (const std::uint64_t s : kb) {
    const double kk = Run(StackPlacement::kKernelOnly, s * 1024);
    const double uu = Run(StackPlacement::kUserKernel, s * 1024);
    const double unu = Run(StackPlacement::kUserNetserverKernel, s * 1024);
    std::printf("%10llu %15.1f %12.1f %22.1f\n", static_cast<unsigned long long>(s),
                kk, uu, unu);
    report.BeginRow()
        .Field("size_kb", static_cast<double>(s))
        .Field("kernel_kernel_mbps", kk)
        .Field("user_user_mbps", uu)
        .Field("user_netserver_user_mbps", unu);
  }
  // Per-layer time breakdown from one representative configuration
  // (user-user, 256 KB messages). TimeAttributionJson aborts if any host's
  // attributed time disagrees with its clock.
  std::string attr_json;
  Run(StackPlacement::kUserKernel, 256 * 1024, &attr_json);
  report.RawSection("time_attribution", attr_json);
  report.Write();
  std::printf(
      "\nshape checks: ceiling ~285 Mbps (paper: 285, I/O bound); crossings negligible at\n"
      ">= 256 KB; medium sizes penalized per crossing, third domain worst (cache/TLB).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main() { return fbufs::bench::Main(); }
