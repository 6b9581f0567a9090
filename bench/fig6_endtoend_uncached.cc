// Reproduces Figure 6: end-to-end UDP/IP throughput with uncached,
// non-volatile fbufs — the configuration "comparable to the best one can
// achieve with page remapping". Receiver reassembly buffers come from the
// driver's uncached fallback queue; sender buffers are secured on transfer.
//
// Expected shape (paper): user-user tops out ~252 Mbps (a 12% degradation
// from the 285 Mbps kernel-kernel baseline); user-netserver-user is only
// marginally lower, because UDP never touches the message body, so body
// pages are never mapped into the netserver domain.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/topo/topo_config.h"

namespace fbufs {
namespace bench {
namespace {

// One kDirect testbed run at |size|-byte messages. With |attr_json| set, it
// also receives both hosts' conservation-checked time breakdown.
double Run(StackPlacement p, std::uint64_t size, bool kernel_baseline,
           std::string* attr_json = nullptr) {
  TopologyConfig cfg;
  cfg.host.placement = p;
  cfg.host.pdu_size = 16 * 1024;
  cfg.host.cached = kernel_baseline;          // baseline keeps cached buffers
  cfg.host.volatile_fbufs = kernel_baseline;  // and volatile semantics
  BuiltTopology b = BuildTopology(cfg);
  const std::uint64_t messages = std::max<std::uint64_t>(8, (16ull << 20) / size);
  const MultiResult mr = b.runner->RunFlows({{messages, size, /*warmup=*/2}});
  if (mr.failed) {
    std::fprintf(stderr, "fig6: flow failed at %llu-byte messages\n",
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
      "\n=== Figure 6: end-to-end UDP/IP throughput, uncached/non-volatile fbufs (Mbps) "
      "===\n");
  std::printf("%10s %15s %12s %22s\n", "size(KB)", "kernel-kernel", "user-user",
              "user-netserver-user");
  JsonReport report("fig6_endtoend_uncached");
  const std::vector<std::uint64_t> kb = {4, 8, 16, 32, 64, 128, 256, 512, 1024};
  for (const std::uint64_t s : kb) {
    const double kk = Run(StackPlacement::kKernelOnly, s * 1024, /*kernel_baseline=*/true);
    const double uu = Run(StackPlacement::kUserKernel, s * 1024, false);
    const double unu = Run(StackPlacement::kUserNetserverKernel, s * 1024, false);
    std::printf("%10llu %15.1f %12.1f %22.1f\n", static_cast<unsigned long long>(s),
                kk, uu, unu);
    report.BeginRow()
        .Field("size_kb", static_cast<double>(s))
        .Field("kernel_kernel_mbps", kk)
        .Field("user_user_mbps", uu)
        .Field("user_netserver_user_mbps", unu);
  }
  // Per-layer time breakdown from one representative uncached configuration
  // (user-user, 256 KB messages); conservation-checked per host.
  std::string attr_json;
  Run(StackPlacement::kUserKernel, 256 * 1024, false, &attr_json);
  report.RawSection("time_attribution", attr_json);
  report.Write();
  std::printf(
      "\nshape checks: user-user ~12%% below the kernel-kernel baseline (paper: 252 vs 285\n"
      "Mbps); user-netserver-user only marginally lower (body pages never mapped there).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main() { return fbufs::bench::Main(); }
