// The benchmark's three pinned workloads.
//
// Each workload builds one simulated world from inputs generated off the run
// seed, drives it only through the world's public entry points, and reads
// layer state only through public accessors. One instance is one "pass":
// Setup() builds the world and warms it up, Measure() is the timed world
// call, Collect() runs the correctness gate and gathers every simulated
// number the benchmark reports. Simulated results are deterministic: every
// pass of one seed must produce the same digest.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/attribution.h"
#include "src/vm/machine.h"

namespace perfbench {

// What Collect() learned about one pass.
struct PassResult {
  // End-to-end, simulated.
  double goodput_mbps = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  std::uint64_t latency_samples = 0;
  // Requests (serve) or messages (fan-in, incast) attempted and failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Correctness gate: one line per failed check; empty means passed.
  std::vector<std::string> gate_failures;
  // Hash of every simulated statistic of the pass.
  std::uint64_t digest = 0;
  // Simulated per-layer metrics, by BENCHMARK.json name.
  std::map<std::string, double> layer;
  // Simulated nanoseconds per CostDomain, summed over the world's machines.
  std::vector<fbufs::SimTime> sim_ns_by_domain;
};

// Recorded inputs of the measured call that the host probes replay; the
// operation counts come from PassResult::layer.
struct ReplayInputs {
  fbufs::MachineConfig machine;  // one representative host of the world
  std::uint64_t machines = 0;    // hosts the world constructs
  std::uint64_t pdu_bytes = 0;   // average AAL5 payload per PDU (0: no ATM)
  std::uint64_t fbuf_bytes = 0;  // payload of one data fbuf
  // FileCache reads of the measured schedule: (file, block) per read.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> cache_reads;
  std::uint64_t cache_block_bytes = 0;
  std::uint64_t cache_capacity_blocks = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the world and warms it up. |observe| attaches the host-side
  // observers the per-layer metrics need (latency decomposition, metrics
  // registry); they never move a simulated timestamp.
  virtual void Setup(bool observe) = 0;
  // The timed world call.
  virtual void Measure() = 0;
  virtual PassResult Collect() = 0;
  virtual ReplayInputs Replay() const = 0;
  // Every machine of the world (for the host-share sampler).
  virtual std::vector<fbufs::Machine*> Machines() = 0;
  // Sub-saturation latency probe (serve only): runs a short schedule after
  // the measured call and returns its p50 in ms.
  virtual double IdleLatencyP50Ms() { return 0; }
};

// Names accepted by MakeWorkload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Generates the workload's inputs from |seed|; nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
