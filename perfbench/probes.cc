#include "perfbench/probes.h"

#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baseline/copy_transfer.h"
#include "src/baseline/cow_transfer.h"
#include "src/baseline/fbuf_adapter.h"
#include "src/cache/file_cache.h"
#include "src/ipc/rpc.h"
#include "src/net/atm.h"
#include "src/sim/event_loop.h"

namespace perfbench {

// --- Spans -------------------------------------------------------------------

int SpanLog::Begin(const std::string& name) {
  spans_.push_back(Span{name, open_, HostSeconds(), 0});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void SpanLog::End(int id) {
  spans_[id].end_s = HostSeconds();
  open_ = spans_[id].parent;
}

double SpanLog::Total(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      t += s.end_s - s.start_s;
    }
  }
  return t;
}

// --- Probes --------------------------------------------------------------------

namespace {

// Caps keep every probe well under a second; the per-operation cost is
// stable long before the cap.
constexpr std::uint64_t kMaxEvents = 400000;
constexpr std::uint64_t kMaxPdus = 20000;
constexpr std::uint64_t kMaxReads = 20000;
constexpr std::uint64_t kMaxCycles = 50000;

double NsPer(double seconds, std::uint64_t ops) {
  return ops > 0 ? seconds * 1e9 / static_cast<double>(ops) : 0;
}

// One host with two domains and a path between them: machine, fbuf system
// and RPC, wired as the simulator's single-host benches wire them.
struct ProbeHost {
  explicit ProbeHost(const fbufs::FbufConfig& fcfg = fbufs::FbufConfig())
      : machine(fbufs::MachineConfig{}), fsys(&machine, fcfg), rpc(&machine) {
    fsys.AttachRpc(&rpc);
    src = machine.CreateDomain("src");
    dst = machine.CreateDomain("dst");
    path = fsys.paths().Register({src->id(), dst->id()});
  }
  fbufs::Machine machine;
  fbufs::FbufSystem fsys;
  fbufs::Rpc rpc;
  fbufs::Domain* src = nullptr;
  fbufs::Domain* dst = nullptr;
  fbufs::PathId path = fbufs::kNoPath;
};

}  // namespace

double ProbeNsPerEvent(std::uint64_t events) {
  events = std::min(events, kMaxEvents);
  if (events == 0) {
    return 0;
  }
  fbufs::EventLoop loop;
  std::uint64_t scheduled = 0;
  std::uint64_t sum = 0;
  // Keeps a world-sized queue (64 outstanding) with a labelled event per
  // step, each handler scheduling its successor.
  std::function<void(std::uint64_t)> step = [&](std::uint64_t id) {
    sum += id;
    if (scheduled < events) {
      const std::uint64_t next = scheduled++;
      loop.Schedule(loop.Now() + 1 + next % 7, "deliver/" + std::to_string(next),
                    [&step, next] { step(next); });
    }
  };
  const double t0 = HostSeconds();
  for (int i = 0; i < 64 && scheduled < events; ++i) {
    const std::uint64_t id = scheduled++;
    loop.Schedule(id, "arrive/" + std::to_string(id), [&step, id] { step(id); });
  }
  const std::uint64_t ran = loop.Run();
  const double t1 = HostSeconds();
  if (ran != events || sum != events * (events - 1) / 2) {
    std::abort();  // the probe itself is broken
  }
  return NsPer(t1 - t0, ran);
}

double ProbeMachineCtorMs(const fbufs::MachineConfig& config) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const double t0 = HostSeconds();
    auto m = std::make_unique<fbufs::Machine>(config);
    const double t1 = HostSeconds();
    ms.push_back((t1 - t0) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[1];
}

double ProbeNsPerPdu(std::uint64_t pdus, std::uint64_t payload_bytes) {
  pdus = std::min(pdus, kMaxPdus);
  if (pdus == 0 || payload_bytes == 0) {
    return 0;
  }
  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  fbufs::AtmReassembler rx;
  std::vector<std::uint8_t> out;
  std::uint64_t ok = 0;
  const double t0 = HostSeconds();
  for (std::uint64_t p = 0; p < pdus; ++p) {
    const std::vector<fbufs::AtmCell> cells = fbufs::AtmSegmenter::Segment(payload, 40);
    fbufs::Status st = fbufs::Status::kExhausted;
    for (const fbufs::AtmCell& c : cells) {
      st = rx.Push(c, &out);
    }
    ok += fbufs::Ok(st) ? 1 : 0;
  }
  const double t1 = HostSeconds();
  if (ok != pdus || out != payload) {
    std::abort();
  }
  return NsPer(t1 - t0, pdus);
}

double ProbeNsPerCacheRead(const ReplayInputs& in) {
  const std::uint64_t reads = std::min<std::uint64_t>(in.cache_reads.size(), kMaxReads);
  if (reads == 0) {
    return 0;
  }
  ProbeHost h;
  fbufs::FileCacheConfig cfg;
  cfg.block_bytes = in.cache_block_bytes;
  cfg.capacity_blocks = in.cache_capacity_blocks;
  fbufs::FileCache cache(&h.fsys, cfg);
  const double t0 = HostSeconds();
  for (std::uint64_t i = 0; i < reads; ++i) {
    const auto [file, block] = in.cache_reads[i];
    fbufs::Message m;
    if (!fbufs::Ok(cache.Read(file, block, *h.dst, &m)) ||
        !fbufs::Ok(cache.Pin(file, block)) ||
        !fbufs::Ok(cache.Unpin(file, block)) ||
        !fbufs::Ok(cache.Release(m, *h.dst))) {
      std::abort();
    }
  }
  const double t1 = HostSeconds();
  return NsPer(t1 - t0, reads);
}

double ProbeNsPerFbufCycle(std::uint64_t cycles, std::uint64_t bytes) {
  cycles = std::min(cycles, kMaxCycles);
  if (cycles == 0 || bytes == 0) {
    return 0;
  }
  ProbeHost h;
  const double t0 = HostSeconds();
  for (std::uint64_t i = 0; i < cycles; ++i) {
    fbufs::Fbuf* fb = nullptr;
    if (!fbufs::Ok(h.fsys.Allocate(*h.src, h.path, bytes, /*want_volatile=*/true, &fb)) ||
        !fbufs::Ok(h.fsys.Transfer(fb, *h.src, *h.dst)) ||
        !fbufs::Ok(h.fsys.Free(fb, *h.dst)) || !fbufs::Ok(h.fsys.Free(fb, *h.src))) {
      std::abort();
    }
  }
  const double t1 = HostSeconds();
  return NsPer(t1 - t0, cycles);
}

// --- Table 1 -------------------------------------------------------------------

namespace {

// The paper's cycle: allocate, write one word per page, transfer, read one
// word per page, free. |reuse| keeps one sender buffer (COW, copy).
fbufs::Status Cycle(ProbeHost& h, fbufs::TransferFacility& f, std::uint64_t bytes,
                    bool reuse, fbufs::BufferRef* ref) {
  using fbufs::Ok;
  fbufs::Status st = fbufs::Status::kOk;
  if (!reuse && !Ok(st = f.Alloc(*h.src, bytes, ref))) {
    return st;
  }
  if (!Ok(st = h.src->TouchRange(ref->sender_addr, ref->bytes, fbufs::Access::kWrite)) ||
      !Ok(st = f.Send(*ref, *h.src, *h.dst)) ||
      !Ok(st = h.dst->TouchRange(ref->receiver_addr, ref->bytes, fbufs::Access::kRead)) ||
      !Ok(st = f.ReceiverFree(*ref, *h.dst))) {
    return st;
  }
  return reuse ? st : f.SenderFree(*ref, *h.src);
}

// Incremental microseconds per page: the slope between 96- and 192-page
// transfers cancels the per-message costs, as the paper's Table 1 does.
double PerPageUs(ProbeHost& h, fbufs::TransferFacility& f, bool reuse) {
  constexpr int kIters = 10;
  auto run = [&](std::uint64_t pages) -> fbufs::SimTime {
    fbufs::BufferRef ref;
    const std::uint64_t bytes = pages * fbufs::kPageSize;
    if (reuse && !fbufs::Ok(f.Alloc(*h.src, bytes, &ref))) {
      std::abort();
    }
    for (int i = 0; i < 3; ++i) {
      Cycle(h, f, bytes, reuse, &ref);
    }
    const fbufs::SimTime before = h.machine.clock().Now();
    for (int i = 0; i < kIters; ++i) {
      if (!fbufs::Ok(Cycle(h, f, bytes, reuse, &ref))) {
        std::abort();
      }
    }
    const fbufs::SimTime elapsed = h.machine.clock().Now() - before;
    if (reuse) {
      f.SenderFree(ref, *h.src);
    }
    return elapsed;
  };
  const fbufs::SimTime small = run(96);
  const fbufs::SimTime large = run(192);
  return static_cast<double>(large - small) / 1000.0 / (kIters * 96);
}

}  // namespace

double Table1MaxErrPct() {
  fbufs::FbufConfig fcfg;
  fcfg.clear_new_pages = false;  // Table 1 reports clearing separately
  struct Row {
    bool cached, is_volatile;
    double paper_us;
  };
  double worst = 0;
  for (const Row& row : {Row{true, true, 3.0}, Row{false, true, 21.0},
                         Row{true, false, 29.0}, Row{false, false, 47.0}}) {
    ProbeHost h(fcfg);
    fbufs::FbufTransferAdapter f(&h.fsys, row.cached ? h.path : fbufs::kNoPath,
                                 row.cached, row.is_volatile);
    worst = std::max(worst, std::fabs(PerPageUs(h, f, false) - row.paper_us) / row.paper_us);
  }
  {
    ProbeHost h(fcfg);
    fbufs::CowTransfer f(&h.machine);
    worst = std::max(worst, std::fabs(PerPageUs(h, f, true) - 159.0) / 159.0);
  }
  {
    ProbeHost h(fcfg);
    fbufs::CopyTransfer f(&h.machine);
    worst = std::max(worst, std::fabs(PerPageUs(h, f, true) - 204.0) / 204.0);
  }
  return worst * 100.0;
}

// --- Sampler -------------------------------------------------------------------

namespace {

constexpr std::size_t kMaxSampled = 64;
constexpr std::size_t kDomains = static_cast<std::size_t>(fbufs::CostDomain::kCount);

std::atomic<const fbufs::Attribution*> g_sampled[kMaxSampled];
std::atomic<std::size_t> g_sampled_count{0};
std::atomic<std::uint64_t> g_samples[kDomains];

// Runs on the interrupted simulator thread. It reads each machine's layer
// stack without synchronizing with the code it interrupted, as a sampling
// profiler does: a sample taken mid-push may name the enclosing layer.
void OnProfTick(int) {
  const std::size_t n = g_sampled_count.load(std::memory_order_relaxed);
  fbufs::CostDomain layer = fbufs::CostDomain::kOther;
  for (std::size_t i = 0; i < n && layer == fbufs::CostDomain::kOther; ++i) {
    layer = g_sampled[i].load(std::memory_order_relaxed)->CurrentLayer();
  }
  g_samples[static_cast<std::size_t>(layer)].fetch_add(1, std::memory_order_relaxed);
}

void SetTimer(long usec) {
  itimerval t{};
  t.it_interval.tv_usec = usec;
  t.it_value.tv_usec = usec;
  setitimer(ITIMER_PROF, &t, nullptr);
}

}  // namespace

LayerSampler::LayerSampler(const std::vector<fbufs::Machine*>& machines) {
  const std::size_t n = std::min(machines.size(), kMaxSampled);
  for (std::size_t i = 0; i < n; ++i) {
    g_sampled[i].store(&machines[i]->attribution(), std::memory_order_relaxed);
  }
  g_sampled_count.store(n, std::memory_order_relaxed);
  for (auto& s : g_samples) {
    s.store(0, std::memory_order_relaxed);
  }
  struct sigaction sa {};
  sa.sa_handler = OnProfTick;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGPROF, &sa, nullptr);
  SetTimer(1000);  // 1 kHz of process CPU time
}

LayerSampler::~LayerSampler() {
  SetTimer(0);
  signal(SIGPROF, SIG_IGN);
  g_sampled_count.store(0, std::memory_order_relaxed);
}

std::vector<std::uint64_t> LayerSampler::Counts() const {
  std::vector<std::uint64_t> out;
  for (const auto& s : g_samples) {
    out.push_back(s.load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace perfbench
