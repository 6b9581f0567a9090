// Host-side measurement for the traced run: spans recorded by the benchmark
// around its own calls into the simulator, per-layer host-cost probes that
// replay a workload's recorded inputs through one layer's public functions,
// a sampler of the innermost simulated layer, and the Table 1 accuracy check.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/vm/machine.h"

namespace perfbench {

// Seconds on the host's monotonic clock.
inline double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-memory span log: name, start, end and the enclosing span.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0;
    double end_s = 0;
  };

  int Begin(const std::string& name);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }
  // Total seconds of every span named |name|.
  double Total(const std::string& name) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log), id_(log->Begin(name)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// --- Host-cost probes (each returns host nanoseconds per operation) ----------

// EventLoop Schedule+Run of |events| events with world-style
// std::to_string labels and a small captured state.
double ProbeNsPerEvent(std::uint64_t events);
// Median milliseconds to construct one Machine (its PhysMem arena included).
double ProbeMachineCtorMs(const fbufs::MachineConfig& config);
// AtmSegmenter::Segment + AtmReassembler::Push of |pdus| PDUs of
// |payload_bytes|. Returns 0 when there is nothing to replay.
double ProbeNsPerPdu(std::uint64_t pdus, std::uint64_t payload_bytes);
// FileCache::Read/Pin/Unpin/Release over the recorded reads.
double ProbeNsPerCacheRead(const ReplayInputs& in);
// FbufSystem Allocate/Transfer/Free on a cached path.
double ProbeNsPerFbufCycle(std::uint64_t cycles, std::uint64_t bytes);

// Largest |simulated - paper| / paper over Table 1's six per-page costs, in
// percent, measured by the paper's slope method through TransferFacility.
double Table1MaxErrPct();

// --- Host-share sampler -----------------------------------------------------
//
// Samples, on a CPU-time timer, the innermost LayerScope of whichever
// registered machine has one open (Attribution::CurrentLayer). Samples taken
// outside every scope (event loop, world glue, wire segmentation) land in
// kOther. One sampler runs at a time; the machines must outlive it.
class LayerSampler {
 public:
  explicit LayerSampler(const std::vector<fbufs::Machine*>& machines);
  ~LayerSampler();
  LayerSampler(const LayerSampler&) = delete;
  LayerSampler& operator=(const LayerSampler&) = delete;

  // Samples per CostDomain, indexed by its value.
  std::vector<std::uint64_t> Counts() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
