// Extension bench: SWP goodput vs frame-loss rate.
//
// Reliable transport built on fbufs retransmits from retained references —
// zero copies regardless of loss. This bench reports goodput degradation
// and the retransmission amplification as the channel worsens.
//
// Retransmission is driven by the discrete-event engine: every transmit
// arms a real 2 ms retransmission timeout on the EventLoop, and a producer
// event keeps the window full. Quiescence of the loop is the end of the
// experiment. The world (machine, paths, SWP pair, lossy channels) is
// SwpWorld's; the producer here retries after a constant RTO rather than
// SwpWorld's capped-exponential backoff.
#include <cstdio>
#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "src/fault/swp_world.h"

namespace fbufs {
namespace bench {
namespace {

constexpr SimTime kRto = 2 * kMillisecond;

struct RunResult {
  double goodput_mbps;
  double retx_per_msg;
  std::uint64_t timer_fires;
  std::uint64_t bytes_copied;
};

RunResult Run(std::uint32_t drop_percent, std::string* attr_json = nullptr,
              std::string* metrics_json = nullptr) {
  SwpWorld w(SwpWorldConfig{.rto = kRto, .fwd_loss = drop_percent, .rev_loss = drop_percent});
  Machine& machine = w.machine;
  FbufSystem& fsys = w.fsys;
  Domain* sd = w.sender_domain;
  EventLoop& loop = w.loop;
  MetricsRegistry metrics;
  machine.AttachMetrics(&metrics);

  constexpr int kMessages = 64;
  constexpr std::uint64_t kBytes = 32 * 1024;
  const SimTime t0 = machine.clock().Now();
  int accepted = 0;

  // The producer keeps the window full: push until kExhausted, then retry
  // one RTO later (by which time the retransmission timer has fired and any
  // surviving acks have opened the window).
  std::function<void()> produce = [&] {
    while (accepted < kMessages) {
      Fbuf* fb = nullptr;
      if (!Ok(fsys.Allocate(*sd, w.data, kBytes, true, &fb))) {
        return;
      }
      sd->TouchRange(fb->base, kBytes, Access::kWrite);
      const Status st = w.sender.Push(Message::Whole(fb));
      fsys.Free(fb, *sd);
      if (st == Status::kOk) {
        accepted++;
      } else {
        loop.Schedule(std::max(loop.Now(), machine.clock().Now() + kRto),
                      "swp-produce", produce);
        return;
      }
    }
  };
  loop.Schedule(loop.Now(), "swp-produce", produce);
  // Quiescence: producer done, every frame acknowledged, timer gone quiet.
  loop.Run();

  const double seconds = (machine.clock().Now() - t0) / 1e9;
  if (attr_json != nullptr) {
    *attr_json = TimeAttributionJson(machine);
  }
  if (metrics_json != nullptr) {
    *metrics_json = metrics.ToJson();
  }
  machine.AttachMetrics(nullptr);
  return RunResult{w.sink.bytes_received() * 8.0 / seconds / 1e6,
                   static_cast<double>(w.sender.retransmissions()) / kMessages,
                   w.sender.timer_fires(), machine.stats().bytes_copied};
}

int Main() {
  std::printf("\n=== SWP (sliding window) goodput vs loss — fbuf retention extension ===\n");
  std::printf("(64 x 32 KB messages, window 8, 2 ms event-driven retransmission timeout)\n\n");
  std::printf("%8s %14s %14s %14s %14s\n", "loss-%", "goodput-Mbps", "retx/msg",
              "timer-fires", "bytes-copied");
  JsonReport report("swp_goodput");
  std::string attr_json;
  std::string metrics_json;
  for (const std::uint32_t loss : {0u, 5u, 10u, 20u, 40u, 60u}) {
    // The last sweep point's attribution (60% loss: retransmission-heavy)
    // lands in the report; every point is conservation-checked.
    const RunResult r = Run(loss, &attr_json, &metrics_json);
    std::printf("%8u %14.1f %14.2f %14llu %14llu\n", loss, r.goodput_mbps, r.retx_per_msg,
                static_cast<unsigned long long>(r.timer_fires),
                static_cast<unsigned long long>(r.bytes_copied));
    report.BeginRow()
        .Field("loss_percent", static_cast<double>(loss))
        .Field("goodput_mbps", r.goodput_mbps)
        .Field("retx_per_msg", r.retx_per_msg)
        .Field("timer_fires", static_cast<double>(r.timer_fires))
        .Field("bytes_copied", static_cast<double>(r.bytes_copied));
  }
  report.RawSection("time_attribution", attr_json);
  report.RawSection("metrics", metrics_json);
  report.Write();
  std::printf(
      "\nreading: retransmissions grow with loss, yet bytes-copied stays zero — the\n"
      "sender retransmits from retained immutable fbufs (copy semantics, §2.1.3).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main() { return fbufs::bench::Main(); }
