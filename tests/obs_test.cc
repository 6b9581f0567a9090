// Tests for the observability layer: time attribution (and its conservation
// invariant), the metrics registry, and the Chrome-trace exporter.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/attribution.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_export.h"
#include "src/topo/topo_config.h"
#include "tests/test_util.h"

namespace fbufs {
namespace {

using testing_util::World;
using testing_util::ZeroCostConfig;

// Sum of every (layer, actor, path) cell — what conservation compares
// against the host clock.
SimTime CellSum(const Attribution& a) {
  SimTime n = 0;
  for (const auto& [key, ns] : a.cells()) {
    n += ns;
  }
  return n;
}

void ExpectConserved(Machine& m) {
  const Attribution& a = m.attribution();
  EXPECT_EQ(a.total(), m.clock().Now());
  EXPECT_EQ(CellSum(a), a.total());
}

// --- Conservation ------------------------------------------------------------

TEST(Attribution, ConservationHoldsOnCachedEndToEndRun) {
  // Figure-5 configuration: cached/volatile fbufs, user-user placement.
  TopologyConfig cfg;
  cfg.host.placement = StackPlacement::kUserKernel;
  cfg.host.pdu_size = 16 * 1024;
  cfg.host.cached = true;
  cfg.host.volatile_fbufs = true;
  BuiltTopology b = BuildTopology(cfg);
  ASSERT_FALSE(b.runner->RunFlows({{16, 64 * 1024, /*warmup=*/2}}).failed);
  Machine& tx = b.topo->host(b.sender_nodes[0])->machine;
  ExpectConserved(tx);
  ExpectConserved(b.topo->host(b.receiver_node)->machine);
  // An end-to-end run exercises every major layer on the sender.
  const Attribution& a = tx.attribution();
  EXPECT_GT(a.ByLayer(CostDomain::kProto), 0u);
  EXPECT_GT(a.ByLayer(CostDomain::kFbuf), 0u);
  EXPECT_GT(a.ByLayer(CostDomain::kVm), 0u);
  EXPECT_GT(a.ByLayer(CostDomain::kNet), 0u);
  // Every charge site is scoped: nothing fell through to kOther.
  EXPECT_EQ(a.ByLayer(CostDomain::kOther), 0u);
}

TEST(Attribution, ConservationHoldsOnUncachedEndToEndRun) {
  // Figure-6 configuration: uncached, non-volatile fbufs.
  TopologyConfig cfg;
  cfg.host.placement = StackPlacement::kUserKernel;
  cfg.host.pdu_size = 16 * 1024;
  cfg.host.cached = false;
  cfg.host.volatile_fbufs = false;
  BuiltTopology b = BuildTopology(cfg);
  ASSERT_FALSE(b.runner->RunFlows({{16, 64 * 1024, /*warmup=*/2}}).failed);
  for (NodeId n : {b.sender_nodes[0], b.receiver_node}) {
    Machine& m = b.topo->host(n)->machine;
    ExpectConserved(m);
    EXPECT_EQ(m.attribution().ByLayer(CostDomain::kOther), 0u);
  }
}

TEST(Attribution, ZeroCostWorldAttributesExactlyZero) {
  // With every cost parameter zeroed the clock never moves, so attribution
  // must account exactly zero — not "roughly nothing".
  World w(ZeroCostConfig());
  Domain* a = w.AddDomain("a");
  Domain* b = w.AddDomain("b");
  const PathId p = w.fsys.paths().Register({a->id(), b->id()});
  Fbuf* fb = nullptr;
  ASSERT_EQ(w.fsys.Allocate(*a, p, 4 * kPageSize, true, &fb), Status::kOk);
  ASSERT_EQ(a->TouchRange(fb->base, 4 * kPageSize, Access::kWrite), Status::kOk);
  ASSERT_EQ(w.fsys.Transfer(fb, *a, *b), Status::kOk);
  ASSERT_EQ(b->TouchRange(fb->base, 4 * kPageSize, Access::kRead), Status::kOk);
  ASSERT_EQ(w.fsys.Free(fb, *b), Status::kOk);
  ASSERT_EQ(w.fsys.Free(fb, *a), Status::kOk);
  EXPECT_EQ(w.machine.clock().Now(), 0u);
  EXPECT_EQ(w.machine.attribution().total(), 0u);
  EXPECT_EQ(CellSum(w.machine.attribution()), 0u);
}

TEST(Attribution, SnapshotSinceWindowsTheMeasurement) {
  World w{MachineConfig{}};  // real DecStation costs
  Domain* a = w.AddDomain("a");
  Domain* b = w.AddDomain("b");
  const PathId p = w.fsys.paths().Register({a->id(), b->id()});
  Fbuf* warm = nullptr;
  ASSERT_EQ(w.fsys.Allocate(*a, p, kPageSize, true, &warm), Status::kOk);
  ASSERT_EQ(w.fsys.Free(warm, *a), Status::kOk);

  const Attribution::Snapshot before = w.machine.attribution().Take();
  const SimTime t0 = w.machine.clock().Now();
  Fbuf* fb = nullptr;
  ASSERT_EQ(w.fsys.Allocate(*a, p, kPageSize, true, &fb), Status::kOk);
  ASSERT_EQ(w.fsys.Transfer(fb, *a, *b), Status::kOk);
  ASSERT_EQ(w.fsys.Free(fb, *b), Status::kOk);
  ASSERT_EQ(w.fsys.Free(fb, *a), Status::kOk);
  const Attribution::Snapshot delta =
      w.machine.attribution().Take().Since(before);

  // The windowed view conserves over the window.
  EXPECT_EQ(delta.total, w.machine.clock().Now() - t0);
  SimTime sum = 0;
  for (const auto& [key, ns] : delta.cells) {
    sum += ns;
  }
  EXPECT_EQ(sum, delta.total);
}

// --- Scoping semantics -------------------------------------------------------

TEST(Attribution, InnermostLayerScopeWins) {
  SimClock clock;
  Attribution attr;
  clock.SetChargeHook(&Attribution::ClockHook, &attr);
  {
    LayerScope outer(attr, CostDomain::kFbuf);
    clock.Advance(10);
    {
      LayerScope inner(attr, CostDomain::kVm);
      clock.Advance(7);
    }
    clock.Advance(5);
  }
  clock.Advance(3);  // unscoped -> kOther
  EXPECT_EQ(attr.ByLayer(CostDomain::kFbuf), 15u);
  EXPECT_EQ(attr.ByLayer(CostDomain::kVm), 7u);
  EXPECT_EQ(attr.ByLayer(CostDomain::kOther), 3u);
  EXPECT_EQ(attr.total(), clock.Now());
}

TEST(Attribution, WaitTimeLandsInWaitLayer) {
  SimClock clock;
  Attribution attr;
  clock.SetChargeHook(&Attribution::ClockHook, &attr);
  {
    LayerScope work(attr, CostDomain::kProto);
    clock.Advance(4);
  }
  clock.AdvanceTo(20);  // event delivery: the host was idle
  EXPECT_EQ(attr.ByLayer(CostDomain::kProto), 4u);
  EXPECT_EQ(attr.ByLayer(CostDomain::kWait), 16u);
  EXPECT_EQ(attr.total(), 20u);
}

TEST(Attribution, ActorAndPathScopesTagCells) {
  SimClock clock;
  Attribution attr;
  clock.SetChargeHook(&Attribution::ClockHook, &attr);
  {
    ActorScope actor(attr, 3);
    PathScope path(attr, 7);
    LayerScope layer(attr, CostDomain::kFbuf);
    clock.Advance(11);
  }
  EXPECT_EQ(attr.ByDomain(3), 11u);
  EXPECT_EQ(attr.ByPath(7), 11u);
  // Scopes restored: further charges land elsewhere.
  clock.Advance(2);
  EXPECT_EQ(attr.ByDomain(3), 11u);
  EXPECT_EQ(attr.ByPath(7), 11u);
}

// --- Metrics -----------------------------------------------------------------

TEST(Metrics, HistogramBucketsAndQuantiles) {
  Histogram h;
  for (std::uint64_t v : {1u, 2u, 3u, 100u, 1000u, 100000u}) {
    h.Observe(v);
  }
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 101106u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100000u);
  // Half the observations are <= 3, so the p50 bound covers bucket 1.
  EXPECT_LE(h.ApproxQuantile(0.5), 3u);
  EXPECT_GE(h.ApproxQuantile(1.0), 100000u);
}

TEST(Metrics, EmptyHistogramQuantilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.ApproxQuantile(0.0), 0u);
  EXPECT_EQ(h.ApproxQuantile(0.5), 0u);
  EXPECT_EQ(h.ApproxQuantile(1.0), 0u);
}

TEST(Metrics, ApproxQuantileInterpolatesWithinABucket) {
  // All eight observations land in bucket 4 ([16, 31]), so the quantile is
  // pure within-bucket interpolation: q<=0 pins to min, q>=1 pins to max,
  // and q=0.5 sits at target=4 of 8 -> frac 0.5 -> 16 + floor(0.5 * 15).
  Histogram h;
  for (std::uint64_t v : {16u, 18u, 20u, 22u, 24u, 26u, 28u, 31u}) {
    h.Observe(v);
  }
  EXPECT_EQ(h.ApproxQuantile(0.0), 16u);
  EXPECT_EQ(h.ApproxQuantile(0.5), 23u);
  EXPECT_EQ(h.ApproxQuantile(1.0), 31u);
  // The estimate is clamped to the observed range even at the bucket edges.
  EXPECT_GE(h.ApproxQuantile(0.01), h.min());
  EXPECT_LE(h.ApproxQuantile(0.999), h.max());
  // The multi-bucket set from above: p50 interpolates to the top of
  // bucket 1 exactly (target 3 of the 2 values in [2,3] -> frac 1).
  Histogram multi;
  for (std::uint64_t v : {1u, 2u, 3u, 100u, 1000u, 100000u}) {
    multi.Observe(v);
  }
  EXPECT_EQ(multi.ApproxQuantile(0.5), 3u);
}

TEST(Metrics, RegistryPointersAreStableAndJsonDeterministic) {
  auto fill = [](MetricsRegistry& r) {
    Counter* c = r.GetCounter("b.count");
    c->Add(2);
    EXPECT_EQ(c, r.GetCounter("b.count"));
    r.GetGauge("a.depth")->Set(-4);
    r.GetGauge("a.depth")->Set(9);
    r.GetHistogram("c.lat")->Observe(500);
  };
  MetricsRegistry r1;
  MetricsRegistry r2;
  fill(r1);
  fill(r2);
  const std::string j = r1.ToJson();
  EXPECT_EQ(j, r2.ToJson());
  EXPECT_NE(j.find("\"b.count\""), std::string::npos);
  EXPECT_NE(j.find("\"a.depth\""), std::string::npos);
  EXPECT_NE(j.find("\"c.lat\""), std::string::npos);
}

TEST(Metrics, FbufAllocLatencyRecordedWhenAttached) {
  World w{MachineConfig{}};
  MetricsRegistry metrics;
  w.machine.AttachMetrics(&metrics);
  Domain* a = w.AddDomain("a");
  const PathId p = w.fsys.paths().Register({a->id()});
  Fbuf* fb = nullptr;
  ASSERT_EQ(w.fsys.Allocate(*a, p, kPageSize, true, &fb), Status::kOk);
  ASSERT_EQ(w.fsys.Free(fb, *a), Status::kOk);
  EXPECT_EQ(metrics.GetHistogram("fbuf.alloc_latency_ns")->count(), 1u);
}

// --- Trace export ------------------------------------------------------------

// One transfer with tracing on: the fbuf-transfer span must contain the VM
// map-frame spans it drives (emission order brackets properly).
TEST(TraceExport, SpansNestAndExportIsDeterministic) {
  auto run = [](std::string* json) {
    World w{MachineConfig{}};
    w.machine.trace().EnableAll();
    Domain* a = w.AddDomain("a");
    Domain* b = w.AddDomain("b");
    const PathId p = w.fsys.paths().Register({a->id(), b->id()});
    Fbuf* fb = nullptr;
    ASSERT_EQ(w.fsys.Allocate(*a, p, kPageSize, true, &fb), Status::kOk);
    ASSERT_EQ(w.fsys.Transfer(fb, *a, *b), Status::kOk);
    ASSERT_EQ(w.fsys.Free(fb, *b), Status::kOk);
    ASSERT_EQ(w.fsys.Free(fb, *a), Status::kOk);

    // Nesting: transfer Begin ... map-frame Begin/End ... transfer End.
    const std::vector<TraceEvent> events = w.machine.trace().Snapshot();
    int transfer_begin = -1, transfer_end = -1, map_begin = -1, map_end = -1;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const TraceEvent& e = events[i];
      const std::string what = e.what;
      if (what == "fbuf-transfer" && e.phase == TracePhase::kBegin) {
        transfer_begin = static_cast<int>(i);
      } else if (what == "fbuf-transfer" && e.phase == TracePhase::kEnd) {
        transfer_end = static_cast<int>(i);
      } else if (what == "map-frame" && e.phase == TracePhase::kBegin &&
                 map_begin < 0 && transfer_begin >= 0) {
        map_begin = static_cast<int>(i);
      } else if (what == "map-frame" && e.phase == TracePhase::kEnd &&
                 map_end < 0 && map_begin >= 0) {
        map_end = static_cast<int>(i);
      }
    }
    ASSERT_GE(transfer_begin, 0);
    ASSERT_GE(map_begin, 0);
    ASSERT_GE(map_end, 0);
    ASSERT_GE(transfer_end, 0);
    EXPECT_LT(transfer_begin, map_begin);
    EXPECT_LT(map_begin, map_end);
    EXPECT_LT(map_end, transfer_end);

    TraceExporter ex;
    ex.AddHost("host", 1, w.machine.trace());
    *json = ex.ToJson();
  };
  std::string j1;
  std::string j2;
  run(&j1);
  run(&j2);
  EXPECT_FALSE(j1.empty());
  EXPECT_EQ(j1, j2);  // same world, byte-identical export
  EXPECT_NE(j1.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j1.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(j1.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(j1.find("fbuf-transfer"), std::string::npos);
}

TEST(TraceExport, PhaseMarkersBecomeInstants) {
  SimClock clock;
  Trace t(&clock);
  t.EnableAll();
  clock.Advance(1500);
  t.Marker(t.Intern("fault/burst"));
  TraceExporter ex;
  ex.AddHost("host", 1, t);
  const std::string j = ex.ToJson();
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("fault/burst"), std::string::npos);
  EXPECT_NE(j.find("\"ts\":1.500"), std::string::npos);  // ns -> us, integer math
}

TEST(TraceExport, ResourceBusyIntervalsBecomeCompleteEvents) {
  Resource r("wire/test");
  r.set_record_intervals(true);
  r.Acquire(/*now=*/100, /*duration=*/50);
  r.Acquire(/*now=*/200, /*duration=*/25);
  TraceExporter ex;
  ex.AddResource(r);
  const std::string j = ex.ToJson();
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("wire/test"), std::string::npos);
  EXPECT_EQ(r.intervals().size(), 2u);
}

TEST(TraceExport, RecordingOffKeepsNoIntervals) {
  Resource r("wire/test");
  r.Acquire(/*now=*/100, /*duration=*/50);
  EXPECT_TRUE(r.intervals().empty());
}

}  // namespace
}  // namespace fbufs
