// Unit tests for the sim substrate: clock, cost model, physical memory, rng.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/phys_mem.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"

namespace fbufs {
namespace {

TEST(SimClock, StartsAtZeroAndAdvances) {
  SimClock clock;
  EXPECT_EQ(clock.Now(), 0u);
  clock.Advance(5);
  clock.Advance(10);
  EXPECT_EQ(clock.Now(), 15u);
}

TEST(SimClock, AdvanceToMovesForward) {
  SimClock clock;
  clock.Advance(100);
  clock.AdvanceTo(250);
  EXPECT_EQ(clock.Now(), 250u);
}

TEST(SimClock, AdvanceToAtLeastIsANoOpWhenAlreadyPast) {
  SimClock clock;
  clock.Advance(100);
  clock.AdvanceToAtLeast(50);
  EXPECT_EQ(clock.Now(), 100u);
  clock.AdvanceToAtLeast(250);
  EXPECT_EQ(clock.Now(), 250u);
}

#if !defined(NDEBUG) && GTEST_HAS_DEATH_TEST
TEST(SimClockDeathTest, AdvanceToBackwardsAsserts) {
  SimClock clock;
  clock.Advance(100);
  EXPECT_DEATH(clock.AdvanceTo(50), "backwards delivery time");
}
#endif

TEST(SimClock, ResetReturnsToZero) {
  SimClock clock;
  clock.Advance(42);
  clock.Reset();
  EXPECT_EQ(clock.Now(), 0u);
}

TEST(CostParams, ZeroPresetChargesNothing) {
  const CostParams z = CostParams::Zero();
  EXPECT_EQ(z.pt_update_ns, 0u);
  EXPECT_EQ(z.page_fault_ns, 0u);
  EXPECT_EQ(z.CopyCost(123456), 0u);
  EXPECT_EQ(z.ChecksumCost(123456), 0u);
}

TEST(CostParams, CopyCostProRatesByPage) {
  const CostParams c = CostParams::DecStation5000();
  EXPECT_EQ(c.CopyCost(kPageSize), c.copy_page_ns);
  EXPECT_EQ(c.CopyCost(kPageSize / 2), c.copy_page_ns / 2);
}

TEST(CostParams, WireTimeMatchesLinkRate) {
  const CostParams c = CostParams::DecStation5000();
  // 516 Mbps: one megabit should take ~1938 microseconds per megabyte...
  // check a full second's worth: link_net_mbps megabits in 1e9 ns.
  const std::uint64_t bytes_per_second = c.link_net_mbps * 1000 * 1000 / 8;
  const SimTime t = c.WireTime(bytes_per_second);
  EXPECT_NEAR(static_cast<double>(t), 1e9, 1e7);
}

TEST(CostParams, DmaTimeExceedsWireOnlyModestly) {
  const CostParams c = CostParams::DecStation5000();
  // The per-cell DMA model must produce the paper's ~285 Mbps ceiling:
  // time for 1 MB should correspond to 260..310 Mbps.
  const std::uint64_t bytes = 1 << 20;
  const double mbps = bytes * 8.0 * 1000.0 / static_cast<double>(c.DmaTime(bytes));
  EXPECT_GT(mbps, 260.0);
  EXPECT_LT(mbps, 310.0);
}

TEST(PhysMem, AllocateAndFreeRoundTrip) {
  SimClock clock;
  CostParams costs = CostParams::Zero();
  SimStats stats;
  PhysMem pm(8, &clock, &costs, &stats);
  EXPECT_EQ(pm.free_frames(), 8u);
  auto f = pm.Allocate(false);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(pm.free_frames(), 7u);
  EXPECT_EQ(pm.RefCount(*f), 1u);
  pm.Unref(*f);
  EXPECT_EQ(pm.free_frames(), 8u);
}

TEST(PhysMem, ExhaustionReturnsNullopt) {
  SimClock clock;
  CostParams costs = CostParams::Zero();
  SimStats stats;
  PhysMem pm(2, &clock, &costs, &stats);
  EXPECT_TRUE(pm.Allocate(false).has_value());
  EXPECT_TRUE(pm.Allocate(false).has_value());
  EXPECT_FALSE(pm.Allocate(false).has_value());
}

TEST(PhysMem, ClearChargesAndZeroes) {
  SimClock clock;
  CostParams costs = CostParams::DecStation5000();
  SimStats stats;
  PhysMem pm(4, &clock, &costs, &stats);
  auto f = pm.Allocate(true);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(clock.Now(), costs.page_clear_ns);
  EXPECT_EQ(stats.pages_cleared, 1u);
  const std::uint8_t* data = pm.Data(*f);
  for (std::uint64_t i = 0; i < kPageSize; i += 997) {
    EXPECT_EQ(data[i], 0);
  }
}

TEST(PhysMem, RefCountSharing) {
  SimClock clock;
  CostParams costs = CostParams::Zero();
  SimStats stats;
  PhysMem pm(4, &clock, &costs, &stats);
  auto f = pm.Allocate(false);
  ASSERT_TRUE(f.has_value());
  pm.Ref(*f);
  pm.Ref(*f);
  EXPECT_EQ(pm.RefCount(*f), 3u);
  pm.Unref(*f);
  pm.Unref(*f);
  EXPECT_EQ(pm.free_frames(), 3u);  // still held
  pm.Unref(*f);
  EXPECT_EQ(pm.free_frames(), 4u);
}

TEST(PhysMem, DataIsPersistentAcrossFrames) {
  SimClock clock;
  CostParams costs = CostParams::Zero();
  SimStats stats;
  PhysMem pm(4, &clock, &costs, &stats);
  auto a = pm.Allocate(false);
  auto b = pm.Allocate(false);
  ASSERT_TRUE(a && b);
  pm.Data(*a)[0] = 0xaa;
  pm.Data(*b)[0] = 0xbb;
  EXPECT_EQ(pm.Data(*a)[0], 0xaa);
  EXPECT_EQ(pm.Data(*b)[0], 0xbb);
}

// The arena is reserved up front but costs host memory only where frames
// are touched; untouched frames still read as zero.
TEST(PhysMem, ArenaIsResidentOnlyWhereTouched) {
  SimClock clock;
  CostParams costs = CostParams::Zero();
  SimStats stats;
  constexpr std::uint32_t kFrames = 16384;  // the default 64 MB machine
  PhysMem pm(kFrames, &clock, &costs, &stats);
  for (int n = 0; n < 4; ++n) {
    auto f = pm.Allocate(false);
    ASSERT_TRUE(f.has_value());
    const std::uint8_t* data = pm.Data(*f);
    for (std::uint64_t i = 0; i < kPageSize; ++i) {
      ASSERT_EQ(data[i], 0) << "frame " << *f << " byte " << i;
    }
  }
  const auto host_page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(pm.Data(0)) & ~(host_page - 1);
  const std::uintptr_t end =
      reinterpret_cast<std::uintptr_t>(pm.Data(0)) + std::uintptr_t{kFrames} * kPageSize;
  const std::size_t pages = (end - begin + host_page - 1) / host_page;
  std::vector<unsigned char> residency(pages);
  ASSERT_EQ(mincore(reinterpret_cast<void*>(begin), end - begin, residency.data()), 0);
  std::size_t resident = 0;
  for (unsigned char r : residency) {
    resident += r & 1;
  }
  // Room for one transparent huge page (512 x 4 KB) around the touched frames.
  EXPECT_LT(resident, 1024u);
}

// Host pages of |pm|'s arena that are resident right now.
std::size_t ResidentArenaPages(const PhysMem& pm) {
  const auto host_page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto first = reinterpret_cast<std::uintptr_t>(pm.Data(0));
  const std::uintptr_t begin = first & ~(host_page - 1);
  const std::uintptr_t end = first + std::uintptr_t{pm.total_frames()} * kPageSize;
  std::vector<unsigned char> residency((end - begin + host_page - 1) / host_page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(begin), end - begin, residency.data()), 0);
  std::size_t resident = 0;
  for (unsigned char r : residency) {
    resident += r & 1;
  }
  return resident;
}

bool ReadsZero(const PhysMem& pm, FrameId frame) {
  const std::uint8_t* data = pm.Data(frame);
  for (std::uint64_t i = 0; i < kPageSize; ++i) {
    if (data[i] != 0) {
      return false;
    }
  }
  return true;
}

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// The same allocation sequence on any PhysMem of 24 frames: first hand-outs
// with and without a clear, a free and re-allocation, and writes in between.
void RunRecycleScript(PhysMem& pm) {
  for (FrameId expect = 0; expect < 8; ++expect) {
    auto f = pm.Allocate(false);
    ASSERT_TRUE(f.has_value());
    ASSERT_EQ(*f, expect);
    EXPECT_TRUE(ReadsZero(pm, *f)) << "frame " << *f;
    std::memset(pm.Data(*f), 0x5a, kPageSize);
  }
  pm.Unref(3);
  auto again = pm.Allocate(false);
  ASSERT_TRUE(again.has_value());
  ASSERT_EQ(*again, 3u);
  EXPECT_EQ(pm.Data(3)[0], 0x5a);  // re-allocated within one PhysMem: bytes kept
  EXPECT_EQ(pm.Data(3)[kPageSize - 1], 0x5a);
  auto cleared = pm.Allocate(true);
  ASSERT_TRUE(cleared.has_value());
  ASSERT_EQ(*cleared, 8u);
  EXPECT_TRUE(ReadsZero(pm, 8));
  for (FrameId expect = 9; expect < 24; ++expect) {
    auto f = pm.Allocate(false);
    ASSERT_TRUE(f.has_value());
    ASSERT_EQ(*f, expect);
    EXPECT_TRUE(ReadsZero(pm, *f)) << "frame " << *f;
  }
}

// A destroyed PhysMem's arena goes to the next PhysMem of the same size,
// which still sees every frame as zero on its first hand-out and pays the
// same simulated time as on a fresh arena.
TEST(PhysMem, RecycledArenaReadsZero) {
  constexpr std::uint32_t kFrames = 24;  // no other test uses this size
  CostParams costs = CostParams::DecStation5000();
  const std::uint8_t* a_arena = nullptr;
  {
    SimClock clock;
    SimStats stats;
    PhysMem a(kFrames, &clock, &costs, &stats);
    a_arena = a.Data(0);
    while (auto f = a.Allocate(false)) {
      std::memset(a.Data(*f), 0xa5, kPageSize);
    }
  }
  SimClock b_clock;
  SimStats b_stats;
  PhysMem b(kFrames, &b_clock, &costs, &b_stats);
  EXPECT_EQ(b.Data(0), a_arena);  // the pool path ran
  RunRecycleScript(b);

  // B holds the only pooled arena of this size, so C's is fresh.
  SimClock c_clock;
  SimStats c_stats;
  PhysMem c(kFrames, &c_clock, &costs, &c_stats);
  EXPECT_NE(c.Data(0), a_arena);
  RunRecycleScript(c);

  EXPECT_EQ(b_clock.Now(), c_clock.Now());
  EXPECT_EQ(b_stats.pages_cleared, c_stats.pages_cleared);
  EXPECT_EQ(b_stats.pages_allocated, c_stats.pages_allocated);
  EXPECT_EQ(b_stats.pages_freed, c_stats.pages_freed);
  EXPECT_EQ(b_stats.pages_cleared, 1u);
}

// An owner that hands out fewer frames than the arena's last owner dirtied
// passes the whole dirty prefix on, not just its own.
TEST(PhysMem, DirtyPrefixOutlivesAShortOwner) {
  constexpr std::uint32_t kFrames = 25;  // no other test uses this size
  CostParams costs = CostParams::Zero();
  SimClock clock;
  SimStats stats;
  {
    PhysMem a(kFrames, &clock, &costs, &stats);
    while (auto f = a.Allocate(false)) {
      std::memset(a.Data(*f), 0xa5, kPageSize);
    }
  }
  {
    PhysMem b(kFrames, &clock, &costs, &stats);
    ASSERT_TRUE(b.Allocate(false).has_value());
  }
  PhysMem c(kFrames, &clock, &costs, &stats);
  while (auto f = c.Allocate(false)) {
    EXPECT_TRUE(ReadsZero(c, *f)) << "frame " << *f;
  }
}

#if defined(__SANITIZE_ADDRESS__)
// A parked arena is poisoned, so a pointer that outlives its machine is
// still caught, as it was when the arena went back to the heap.
TEST(PhysMemDeathTest, ParkedArenaIsPoisoned) {
  auto read_after_destroy = [] {
    CostParams costs = CostParams::Zero();
    SimClock clock;
    SimStats stats;
    volatile std::uint8_t* data = nullptr;
    {
      PhysMem pm(26, &clock, &costs, &stats);  // no other test uses this size
      data = pm.Data(*pm.Allocate(false));
    }
    return data[0];
  };
  EXPECT_DEATH(read_after_destroy(), "use-after-poison");
}
#endif

// A machine rebuilt on a recycled arena finds the frames its predecessor
// touched already resident: no kernel zero-fill fault per frame.
TEST(PhysMem, RecycledArenaSkipsFirstTouchFaults) {
  constexpr std::uint32_t kFrames = 2000;  // no other test uses this size
  CostParams costs = CostParams::Zero();
  auto touch_all = [&] {
    SimClock clock;
    SimStats stats;
    PhysMem pm(kFrames, &clock, &costs, &stats);
    while (auto f = pm.Allocate(false)) {
      pm.Data(*f)[0] = 1;
    }
  };
  touch_all();
  const long before = MinorFaults();
  touch_all();
  const long faults = MinorFaults() - before;
  EXPECT_LT(faults, 200) << "a fresh arena takes about one fault per frame";
}

// Live machines never share an arena, and the pool neither grows past its
// cap nor lets rebuilt machines pile up resident memory.
TEST(PhysMem, ArenaPoolStaysBounded) {
  CostParams costs = CostParams::Zero();
  SimClock clock;
  SimStats stats;
  {
    constexpr std::uint32_t kFrames = 3;  // no other test uses this size
    std::vector<std::unique_ptr<PhysMem>> live;
    std::set<const std::uint8_t*> arenas;
    for (std::size_t i = 0; i < PhysMem::kArenaPoolCap + 2; ++i) {
      live.push_back(std::make_unique<PhysMem>(kFrames, &clock, &costs, &stats));
      ASSERT_TRUE(live.back()->Allocate(false).has_value());
      arenas.insert(live.back()->Data(0));
    }
    EXPECT_EQ(arenas.size(), live.size());
    live.clear();
    EXPECT_EQ(PhysMem::PooledArenas(), PhysMem::kArenaPoolCap);
    // Two live machines built from the pool get two different arenas.
    PhysMem x(kFrames, &clock, &costs, &stats);
    PhysMem y(kFrames, &clock, &costs, &stats);
    EXPECT_NE(x.Data(0), y.Data(0));
  }
  EXPECT_LE(PhysMem::PooledArenas(), PhysMem::kArenaPoolCap);

  constexpr std::uint32_t kFrames = 8192;  // no other test uses this size
  std::size_t first_resident = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    PhysMem pm(kFrames, &clock, &costs, &stats);
    for (int n = 0; n < 256; ++n) {
      auto f = pm.Allocate(false);
      ASSERT_TRUE(f.has_value());
      pm.Data(*f)[0] = 1;
    }
    const std::size_t resident = ResidentArenaPages(pm);
    if (cycle == 0) {
      first_resident = resident;
    }
    EXPECT_LE(resident, first_resident + 512) << "cycle " << cycle;
    EXPECT_LE(PhysMem::PooledArenas(), PhysMem::kArenaPoolCap);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, BelowStaysInBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = r.Range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(SimStats, SinceComputesDeltas) {
  SimStats a;
  a.pt_updates = 10;
  a.tlb_misses = 5;
  SimStats b = a;
  b.pt_updates = 13;
  b.tlb_misses = 9;
  b.bytes_copied = 100;
  const SimStats d = b.Since(a);
  EXPECT_EQ(d.pt_updates, 3u);
  EXPECT_EQ(d.tlb_misses, 4u);
  EXPECT_EQ(d.bytes_copied, 100u);
}

TEST(SimStats, ToStringMentionsCounters) {
  SimStats s;
  s.pt_updates = 7;
  const std::string str = s.ToString();
  EXPECT_NE(str.find("pt_updates=7"), std::string::npos);
}

}  // namespace
}  // namespace fbufs
