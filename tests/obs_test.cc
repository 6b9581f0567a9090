// Tests for the observability layer: time attribution (and its conservation
// invariant), the metrics registry, and the Chrome-trace exporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <random>
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

std::size_t ZeroCells(const Attribution& a) {
  const std::map<Attribution::Key, SimTime> cells = a.cells();
  return static_cast<std::size_t>(std::count_if(
      cells.begin(), cells.end(), [](const auto& cell) { return cell.second == 0; }));
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
  // Every context a scope enters creates its cell, charged or not. These
  // cells, zero-valued ones included, feed the benches' by_path report and
  // perfbench's sim_digest, so a call-site change that stops creating one
  // moves both outputs.
  EXPECT_EQ(a.cells().size(), 28u);
  EXPECT_EQ(ZeroCells(a), 16u);
  const Attribution& rx = b.topo->host(b.receiver_node)->machine.attribution();
  EXPECT_EQ(rx.cells().size(), 19u);
  EXPECT_EQ(ZeroCells(rx), 9u);
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

// Resolution as a plain map lookup of both cells on every context change,
// with no skipped no-op changes and no memo: the reference the fast path in
// Attribution must match cell for cell.
class NaiveAttribution {
 public:
  NaiveAttribution() { Revalidate(); }

  void Record(SimTime ns) {
    *work_cell_ += ns;
    total_ += ns;
  }
  void RecordWait(SimTime ns) {
    *wait_cell_ += ns;
    total_ += ns;
  }
  void PushLayer(CostDomain d) {
    stack_.push_back(d);
    Revalidate();
  }
  void PopLayer() {
    stack_.pop_back();
    Revalidate();
  }
  void SetActor(DomainId d) {
    actor_ = d;
    Revalidate();
  }
  void SetPath(AttrPathId p) {
    path_ = p;
    Revalidate();
  }
  void SetCpu(std::uint32_t c) {
    cpu_ = c;
    Revalidate();
  }

  const std::map<Attribution::Key, SimTime>& cells() const { return cells_; }
  SimTime total() const { return total_; }
  DomainId actor() const { return actor_; }
  AttrPathId path() const { return path_; }

 private:
  // Attribution keeps only the outermost 16 layers; deeper pushes leave the
  // 16th in charge until they are popped.
  static constexpr std::size_t kMaxDepth = 16;

  void Revalidate() {
    const CostDomain layer =
        stack_.empty() ? CostDomain::kOther : stack_[std::min(stack_.size(), kMaxDepth) - 1];
    work_cell_ = &cells_[Attribution::Key{layer, actor_, path_, cpu_}];
    wait_cell_ = &cells_[Attribution::Key{CostDomain::kWait, actor_, path_, cpu_}];
  }

  std::map<Attribution::Key, SimTime> cells_;
  SimTime total_ = 0;
  SimTime* work_cell_ = nullptr;
  SimTime* wait_cell_ = nullptr;
  std::vector<CostDomain> stack_;
  DomainId actor_ = kInvalidDomainId;
  AttrPathId path_ = kAttrNoPath;
  std::uint32_t cpu_ = 0;
};

TEST(Attribution, FastPathMatchesNaiveResolution) {
  // 13 layers x 6 actors x 4 paths x 4 cpus: far more keys than memo slots,
  // so slots collide and evict.
  const DomainId actors[] = {kInvalidDomainId, kKernelDomainId, 1, 2, 7, 42};
  const AttrPathId paths[] = {kAttrNoPath, 0, 3, 9};
  constexpr std::uint32_t kCpus = 4;
  constexpr std::size_t kDepthLimit = 24;  // past Attribution's 16-deep clamp

  std::mt19937 rng(16);
  Attribution fast;
  NaiveAttribution ref;
  std::vector<CostDomain> stack;
  DomainId actor = kInvalidDomainId;
  AttrPathId path = kAttrNoPath;
  std::uint32_t cpu = 0;
  std::size_t max_depth = 0;
  std::size_t noop_sets = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint32_t op = rng() % 100;
    // A quarter of the context sets re-set the current value.
    const bool noop = rng() % 4 == 0;
    if (op < 58) {
      const bool push = stack.empty() || (op < 30 && stack.size() < kDepthLimit);
      if (push) {
        const auto d = static_cast<CostDomain>(rng() % static_cast<std::uint32_t>(CostDomain::kCount));
        stack.push_back(d);
        fast.PushLayer(d);
        ref.PushLayer(d);
        max_depth = std::max(max_depth, stack.size());
      } else {
        stack.pop_back();
        fast.PopLayer();
        ref.PopLayer();
      }
    } else if (op < 64) {
      actor = noop ? actor : actors[rng() % std::size(actors)];
      fast.SetActor(actor);
      ref.SetActor(actor);
    } else if (op < 70) {
      path = noop ? path : paths[rng() % std::size(paths)];
      fast.SetPath(path);
      ref.SetPath(path);
    } else if (op < 76) {
      cpu = noop ? cpu : rng() % kCpus;
      fast.SetCpu(cpu);
      ref.SetCpu(cpu);
    } else if (op < 94) {
      const SimTime ns = rng() % 100;  // zero charges included
      fast.Record(ns);
      ref.Record(ns);
    } else {
      const SimTime ns = rng() % 100;
      fast.RecordWait(ns);
      ref.RecordWait(ns);
    }
    noop_sets += noop && op >= 58 && op < 76;
    if (i % 1000 == 999) {
      ASSERT_EQ(fast.cells(), ref.cells()) << "after op " << i;
      ASSERT_EQ(fast.total(), ref.total()) << "after op " << i;
    }
  }
  EXPECT_EQ(fast.cells(), ref.cells());
  EXPECT_EQ(fast.total(), ref.total());
  // The sequence reached what it was built to reach.
  EXPECT_GT(max_depth, 16u);
  EXPECT_GT(noop_sets, 0u);
  EXPECT_GT(ref.cells().size(), 64u);
  EXPECT_GT(ZeroCells(fast), 0u);
}

// Randomly nested LayerScope/ActorScope/PathScope objects, with lane
// changes while scopes are open, against the reference whose scopes set the
// previous value back on exit. The scopes under test restore the context
// they saved on entry unless the lane moved meanwhile.
class ScopeDriver {
 public:
  void Run(std::size_t depth) {
    max_depth_ = std::max(max_depth_, depth);
    while (ops_ < kOps && !testing::Test::HasFatalFailure()) {
      if (++ops_ % 1000 == 0) {
        ASSERT_EQ(fast_.cells(), ref_.cells()) << "before op " << ops_;
        ASSERT_EQ(fast_.total(), ref_.total()) << "before op " << ops_;
      }
      const std::uint32_t op = rng_() % 100;
      if (op < 12 && depth > 0) {
        return;  // close the innermost scope
      }
      if (op < 36 && depth < kDepthLimit) {
        OpenScope(op, depth);
      } else if (op < 50) {
        const std::uint32_t cpu = rng_() % kCpus;
        lane_moves_in_scope_ += depth > 0 && cpu != fast_.cpu();
        fast_.SetCpu(cpu);
        ref_.SetCpu(cpu);
      } else if (op < 88) {
        const SimTime ns = rng_() % 100;  // zero charges included
        fast_.Record(ns);
        ref_.Record(ns);
      } else {
        const SimTime ns = rng_() % 100;
        fast_.RecordWait(ns);
        ref_.RecordWait(ns);
      }
    }
  }

  const Attribution& fast() const { return fast_; }
  const NaiveAttribution& ref() const { return ref_; }
  std::size_t max_depth() const { return max_depth_; }
  std::size_t lane_moves_in_scope() const { return lane_moves_in_scope_; }

 private:
  static constexpr int kOps = 20000;
  static constexpr std::size_t kDepthLimit = 24;  // past the 16-deep layer clamp
  static constexpr std::uint32_t kCpus = 3;

  void OpenScope(std::uint32_t op, std::size_t depth) {
    const DomainId actors[] = {kInvalidDomainId, kKernelDomainId, 1, 2, 7};
    const AttrPathId paths[] = {kAttrNoPath, 0, 3, 9};
    if (op < 20) {
      const auto d = static_cast<CostDomain>(rng_() % static_cast<std::uint32_t>(CostDomain::kCount));
      LayerScope scope(fast_, d);
      ref_.PushLayer(d);
      Run(depth + 1);
      ref_.PopLayer();
    } else if (op < 28) {
      const DomainId prev = ref_.actor();
      const DomainId d = actors[rng_() % std::size(actors)];
      ActorScope scope(fast_, d);
      ref_.SetActor(d);
      Run(depth + 1);
      ref_.SetActor(prev);
    } else {
      const AttrPathId prev = ref_.path();
      const AttrPathId p = paths[rng_() % std::size(paths)];
      PathScope scope(fast_, p);
      ref_.SetPath(p);
      Run(depth + 1);
      ref_.SetPath(prev);
    }
  }

  std::mt19937 rng_{19};
  Attribution fast_;
  NaiveAttribution ref_;
  int ops_ = 0;
  std::size_t max_depth_ = 0;
  std::size_t lane_moves_in_scope_ = 0;
};

TEST(Attribution, ScopeRestoreMatchesNaiveResolution) {
  ScopeDriver driver;
  driver.Run(0);
  ASSERT_FALSE(testing::Test::HasFatalFailure());
  EXPECT_EQ(driver.fast().cells(), driver.ref().cells());
  EXPECT_EQ(driver.fast().total(), driver.ref().total());
  // The sequence reached what it was built to reach.
  EXPECT_GT(driver.max_depth(), 16u);
  EXPECT_GT(driver.lane_moves_in_scope(), 100u);
  EXPECT_GT(ZeroCells(driver.fast()), 0u);
}

#if GTEST_HAS_DEATH_TEST
TEST(AttributionDeathTest, PopLayerWithoutPushLayerAsserts) {
  Attribution attr;
  EXPECT_DEBUG_DEATH(attr.PopLayer(), "PopLayer without PushLayer");
}

TEST(AttributionDeathTest, ScopeExitOutOfOrderAsserts) {
  EXPECT_DEBUG_DEATH(
      {
        Attribution attr;
        std::optional<ActorScope> outer;
        outer.emplace(attr, 1);
        PathScope inner(attr, 2);
        outer.reset();
      },
      "out of LIFO order");
}
#endif

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

std::size_t Occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    n++;
  }
  return n;
}

// A ring that wraps mid-span keeps 'E' events whose 'B' was overwritten;
// the export leaves them out so every lane it writes is balanced.
TEST(TraceExport, WrappedRingDropsEndsWhoseBeginWasOverwritten) {
  auto emit = [](Trace& t) {
    t.EnableAll();
    t.Begin(TraceCategory::kIpc, "outer");
    t.Begin(TraceCategory::kIpc, "inner");
    t.Begin(TraceCategory::kVm, "map");
    t.End(TraceCategory::kIpc, "inner");
    t.End(TraceCategory::kIpc, "outer");
    t.End(TraceCategory::kVm, "map");
    t.Begin(TraceCategory::kIpc, "next");
    t.End(TraceCategory::kIpc, "next");
  };
  SimClock clock;
  Trace small(&clock, /*capacity=*/5);
  emit(small);
  ASSERT_TRUE(small.wrapped());
  ASSERT_EQ(small.Snapshot().front().phase, TracePhase::kEnd);
  TraceExporter ex;
  ex.AddHost("host", 1, small);
  const std::string j = ex.ToJson();
  EXPECT_EQ(Occurrences(j, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(Occurrences(j, "\"ph\":\"E\""), 1u);
  EXPECT_EQ(Occurrences(j, "\"name\":\"next\""), 2u);
  EXPECT_EQ(Occurrences(j, "\"name\":\"outer\""), 0u);

  // An unwrapped ring exports every span as emitted.
  Trace big(&clock, /*capacity=*/16);
  emit(big);
  ASSERT_FALSE(big.wrapped());
  TraceExporter full;
  full.AddHost("host", 1, big);
  EXPECT_EQ(Occurrences(full.ToJson(), "\"ph\":\"E\""), 4u);
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
