// Pressure-subsystem tests: backoff policy and stall watchdog, quota-aware
// reclamation sweeps (free lists, file-cache blocks, idle paths), the
// emergency sweep-and-retry inside Allocate, the degradation state machine,
// and the allocation failure paths' cleanup (nothing may leak when the pool
// runs dry mid-operation).
#include <gtest/gtest.h>

#include "src/baseline/copy_transfer.h"
#include "src/cache/file_cache.h"
#include "src/pressure/backoff.h"
#include "src/pressure/degradable.h"
#include "src/pressure/pressure.h"
#include "src/sim/event_loop.h"
#include "tests/test_util.h"

namespace fbufs {
namespace {

using testing_util::World;
using testing_util::ZeroCostConfig;

MachineConfig SmallPool(std::uint32_t frames) {
  MachineConfig cfg = ZeroCostConfig();
  cfg.phys_frames = frames;
  return cfg;
}

// Allocates uncached one-off fbufs in |d| until only |leave| frames remain
// free; returns the hoard for later release.
std::vector<Fbuf*> HoardAllButN(World& w, Domain& d, std::uint64_t leave) {
  std::vector<Fbuf*> hoard;
  while (w.machine.pmem().free_frames() > leave) {
    const std::uint64_t take = std::min<std::uint64_t>(
        w.machine.pmem().free_frames() - leave, w.fsys.config().chunk_pages);
    Fbuf* fb = nullptr;
    if (!Ok(w.fsys.Allocate(d, kNoPath, take * kPageSize, false, &fb))) {
      break;
    }
    hoard.push_back(fb);
  }
  return hoard;
}

// --- Backoff policy ----------------------------------------------------------

TEST(Backoff, DelayRampsExponentiallyToTheCap) {
  BackoffPolicy p;
  p.initial = kMillisecond;
  p.cap = 8 * kMillisecond;
  EXPECT_EQ(p.Delay(0), kMillisecond);
  EXPECT_EQ(p.Delay(1), 2 * kMillisecond);
  EXPECT_EQ(p.Delay(2), 4 * kMillisecond);
  EXPECT_EQ(p.Delay(3), 8 * kMillisecond);
  EXPECT_EQ(p.Delay(4), 8 * kMillisecond);  // capped
  // Huge attempt counts must not overflow their way below the cap.
  EXPECT_EQ(p.Delay(63), 8 * kMillisecond);
  EXPECT_EQ(p.Delay(200), 8 * kMillisecond);
}

TEST(Backoff, ParkRampsAndProgressResets) {
  FlowBackoff b;
  b.policy.initial = kMillisecond;
  b.policy.cap = 4 * kMillisecond;
  b.stall_horizon = 100 * kMillisecond;

  EXPECT_EQ(b.Park(0).value(), kMillisecond);
  EXPECT_EQ(b.Park(1 * kMillisecond).value(), 2 * kMillisecond);
  EXPECT_EQ(b.Park(3 * kMillisecond).value(), 4 * kMillisecond);
  EXPECT_EQ(b.Park(7 * kMillisecond).value(), 4 * kMillisecond);  // capped
  b.Progress(8 * kMillisecond);
  // The ramp restarts after progress.
  EXPECT_EQ(b.Park(9 * kMillisecond).value(), kMillisecond);
  EXPECT_FALSE(b.stalled);
}

TEST(Backoff, WatchdogStallsAfterTheNoProgressHorizon) {
  FlowBackoff b;
  b.stall_horizon = 10 * kMillisecond;
  b.Progress(0);
  EXPECT_TRUE(b.Park(9 * kMillisecond).has_value());
  EXPECT_FALSE(b.stalled);
  EXPECT_FALSE(b.Park(10 * kMillisecond).has_value());
  EXPECT_TRUE(b.stalled);
}

TEST(Backoff, BackpressureStatusesAreRetryableHardErrorsAreNot) {
  EXPECT_TRUE(IsBackpressure(Status::kExhausted));
  EXPECT_TRUE(IsBackpressure(Status::kNoMemory));
  EXPECT_TRUE(IsBackpressure(Status::kQuotaExceeded));
  EXPECT_TRUE(IsBackpressure(Status::kNoVirtualSpace));
  EXPECT_FALSE(IsBackpressure(Status::kInvalidArgument));
  EXPECT_FALSE(IsBackpressure(Status::kProtection));
  EXPECT_FALSE(IsBackpressure(Status::kNotOwner));
  EXPECT_FALSE(IsBackpressure(Status::kOk));
}

// --- Reclamation sweeps ------------------------------------------------------

TEST(PressureSweep, EmergencySweepDrainsFreeListsAndRescuesTheAllocation) {
  World w(SmallPool(32));
  PressureConfig pc;
  pc.low_free_frames = 2;
  pc.high_free_frames = 4;
  PressureManager pm(&w.fsys, pc);
  Domain* src = w.AddDomain("src");
  Domain* dst = w.AddDomain("dst");
  const PathId path = w.fsys.paths().Register({src->id(), dst->id()});

  // 7 cached fbufs x 4 pages = 28 frames, all freed onto the path's free
  // list (frames stay attached for reuse). Free pool: 4 frames. Hold them
  // all first — freeing inside the loop would just recycle one fbuf.
  std::vector<Fbuf*> batch;
  for (int i = 0; i < 7; ++i) {
    Fbuf* fb = nullptr;
    ASSERT_TRUE(Ok(w.fsys.Allocate(*src, path, 4 * kPageSize, true, &fb)));
    batch.push_back(fb);
  }
  for (Fbuf* fb : batch) {
    ASSERT_TRUE(Ok(w.fsys.Free(fb, *src)));
  }
  ASSERT_EQ(w.machine.pmem().free_frames(), 4u);
  ASSERT_EQ(w.fsys.FreeListSize(src->id(), path), 7u);

  // An 8-page demand from another domain exceeds the free pool; the
  // emergency sweep must discard free-listed frames and retry.
  Fbuf* big = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*dst, kNoPath, 8 * kPageSize, false, &big)));
  EXPECT_GE(pm.sweeps(), 1u);
  EXPECT_GT(pm.pages_reclaimed(), 0u);
  // The free-listed fbufs survive (only their frames were discarded).
  EXPECT_EQ(w.fsys.FreeListSize(src->id(), path), 7u);
  const FbufSystem::AuditCounts audit = w.fsys.Audit();
  EXPECT_EQ(audit.free_list_errors, 0u);
  EXPECT_EQ(audit.dangling_mappings, 0u);
}

TEST(PressureSweep, WatermarkCrossingSchedulesAnEventedSweep) {
  World w(SmallPool(16));
  PressureConfig pc;
  pc.low_free_frames = 8;
  pc.high_free_frames = 12;
  PressureManager pm(&w.fsys, pc);
  EventLoop loop;
  w.fsys.AttachEventLoop(&loop);
  pm.AttachEventLoop(&loop);
  Domain* src = w.AddDomain("src");
  Domain* dst = w.AddDomain("dst");
  const PathId path = w.fsys.paths().Register({src->id(), dst->id()});

  // Pin 12 frames, free 8 of them onto the free list: the pool is under
  // pressure (4 free < low watermark) but nothing has failed yet.
  std::vector<Fbuf*> held;
  for (int i = 0; i < 3; ++i) {
    Fbuf* fb = nullptr;
    ASSERT_TRUE(Ok(w.fsys.Allocate(*src, path, 4 * kPageSize, true, &fb)));
    held.push_back(fb);
  }
  ASSERT_TRUE(Ok(w.fsys.Free(held[0], *src)));
  ASSERT_TRUE(Ok(w.fsys.Free(held[1], *src)));
  ASSERT_EQ(w.machine.pmem().free_frames(), 4u);
  EXPECT_TRUE(pm.UnderPressure());

  // The next allocation crosses the watermark check and schedules a sweep
  // on the loop — it does not run synchronously.
  Fbuf* small = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*dst, kNoPath, kPageSize, false, &small)));
  EXPECT_EQ(pm.sweeps(), 0u);
  loop.Run();
  EXPECT_EQ(pm.sweeps(), 1u);
  // The sweep discarded the free-listed frames; the pool recovered.
  EXPECT_EQ(pm.pages_reclaimed(), 8u);
  EXPECT_EQ(w.machine.pmem().free_frames(), 11u);
}

TEST(PressureSweep, SweepEvictsCleanFileCacheBlocksDownToTheFloor) {
  World w(SmallPool(32));
  PressureConfig pc;
  pc.low_free_frames = 2;
  pc.high_free_frames = 4;
  pc.cache_floor_blocks = 2;
  PressureManager pm(&w.fsys, pc);
  FileCacheConfig cc;
  cc.block_bytes = 8192;
  cc.capacity_blocks = 8;
  FileCache cache(&w.fsys, cc);
  pm.AttachFileCache(&cache);
  Domain* app = w.AddDomain("app");

  // Six resident clean blocks: 12 of 32 frames.
  for (std::uint64_t b = 0; b < 6; ++b) {
    Message m;
    ASSERT_EQ(cache.Read(1, b, *app, &m), Status::kOk);
    ASSERT_EQ(cache.Release(m, *app), Status::kOk);
  }
  ASSERT_EQ(cache.resident_blocks(), 6u);

  // A 24-page demand cannot be met without shrinking the cache.
  Fbuf* big = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*app, kNoPath, 24 * kPageSize, false, &big)));
  EXPECT_GT(cache.pressure_evictions(), 0u);
  EXPECT_GE(cache.resident_blocks(), pc.cache_floor_blocks);
  EXPECT_GE(pm.sweeps(), 1u);
}

TEST(PressureSweep, IdlePathsLoseTheirFreeListsAndGiveBackRegionSpace) {
  World w(SmallPool(64));
  Domain* src = w.AddDomain("src");
  Domain* dst = w.AddDomain("dst");
  const PathId path = w.fsys.paths().Register({src->id(), dst->id()});
  Fbuf* fb = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*src, path, 4 * kPageSize, true, &fb)));
  ASSERT_TRUE(Ok(w.fsys.Free(fb, *src)));
  ASSERT_EQ(w.fsys.FreeListSize(src->id(), path), 1u);
  const std::uint64_t region_free = w.fsys.RegionFreePages();

  // Not yet idle: nothing to shrink.
  EXPECT_EQ(w.fsys.ShrinkIdlePaths(10 * kMillisecond), 0u);

  w.machine.clock().Advance(20 * kMillisecond);
  EXPECT_EQ(w.fsys.ShrinkIdlePaths(10 * kMillisecond), 4u);
  EXPECT_EQ(w.fsys.FreeListSize(src->id(), path), 0u);
  // The whole chunk came back to the region.
  EXPECT_GT(w.fsys.RegionFreePages(), region_free);
  EXPECT_EQ(w.fsys.Audit().free_list_errors, 0u);
}

// --- Degradation state machine -----------------------------------------------

TEST(Degradation, ConsecutiveFailuresDegradeAndRecoveryRestores) {
  World w(SmallPool(64));
  PressureConfig pc;
  pc.low_free_frames = 8;
  pc.high_free_frames = 48;
  pc.degrade_after_failures = 2;
  PressureManager pm(&w.fsys, pc);
  Domain* src = w.AddDomain("src");
  Domain* dst = w.AddDomain("dst");
  const PathId path = w.fsys.paths().Register({src->id(), dst->id()});

  // Pin half the pool so free frames sit below the high watermark.
  Fbuf* pin = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*src, kNoPath, 32 * kPageSize, false, &pin)));
  ASSERT_LT(w.machine.pmem().free_frames(), pc.high_free_frames);

  EXPECT_EQ(pm.ModeFor(path), PathMode::kZeroCopy);
  EXPECT_EQ(pm.RecordAllocFailure(path), PathMode::kZeroCopy);
  EXPECT_EQ(pm.RecordAllocFailure(path), PathMode::kDegraded);
  EXPECT_EQ(pm.degradations(), 1u);
  EXPECT_EQ(pm.ModeFor(path), PathMode::kDegraded);

  // A success mid-pressure resets the streak but not the mode.
  pm.RecordAllocSuccess(path);
  EXPECT_EQ(pm.ModeFor(path), PathMode::kDegraded);

  // Once free frames recover past the high watermark the path auto-restores.
  ASSERT_TRUE(Ok(w.fsys.Free(pin, *src)));
  EXPECT_EQ(pm.ModeFor(path), PathMode::kZeroCopy);
  EXPECT_EQ(pm.restorations(), 1u);
}

TEST(Degradation, DegradedPathCarriesPdusThroughTheCopyFacility) {
  World w(SmallPool(32));
  PressureConfig pc;
  pc.low_free_frames = 2;
  pc.high_free_frames = 24;
  pc.degrade_after_failures = 1;
  PressureManager pm(&w.fsys, pc);
  CopyTransfer copy(&w.machine);
  Domain* src = w.AddDomain("src");
  Domain* dst = w.AddDomain("dst");
  Domain* hog = w.AddDomain("hog");
  const PathId path = w.fsys.paths().Register({src->id(), dst->id()});
  DegradablePath dp(&w.fsys, &copy, &pm, src, dst, path);

  // Keep free frames below the high watermark so the degraded mode sticks.
  const std::vector<Fbuf*> hoard = HoardAllButN(w, *hog, 16);
  ASSERT_LT(w.machine.pmem().free_frames(), pc.high_free_frames);
  ASSERT_EQ(pm.RecordAllocFailure(path), PathMode::kDegraded);

  Fbuf* retained = reinterpret_cast<Fbuf*>(0x1);
  ASSERT_TRUE(Ok(dp.SendPdu(2 * kPageSize, &retained)));
  EXPECT_EQ(retained, nullptr);  // nothing pinned by a degraded PDU
  EXPECT_EQ(dp.degraded_pdus(), 1u);
  EXPECT_EQ(dp.zero_copy_pdus(), 0u);
  EXPECT_EQ(w.machine.stats().degraded_pdus, 1u);
  EXPECT_GE(w.machine.stats().bytes_copied, 2 * kPageSize);

  // Repeat PDUs reuse the staging buffer: the copy path's footprint is
  // bounded no matter how long pressure lasts.
  const std::uint32_t free_before = w.machine.pmem().free_frames();
  ASSERT_TRUE(Ok(dp.SendPdu(2 * kPageSize, nullptr)));
  ASSERT_TRUE(Ok(dp.SendPdu(2 * kPageSize, nullptr)));
  EXPECT_EQ(w.machine.pmem().free_frames(), free_before);
}

TEST(Degradation, ZeroCopyModeHandsTheRetentionReferenceToTheCaller) {
  World w;
  PressureManager pm(&w.fsys);
  CopyTransfer copy(&w.machine);
  Domain* src = w.AddDomain("src");
  Domain* dst = w.AddDomain("dst");
  const PathId path = w.fsys.paths().Register({src->id(), dst->id()});
  DegradablePath dp(&w.fsys, &copy, &pm, src, dst, path);

  Fbuf* retained = nullptr;
  ASSERT_TRUE(Ok(dp.SendPdu(2 * kPageSize, &retained)));
  ASSERT_NE(retained, nullptr);
  EXPECT_TRUE(retained->IsHeldBy(src->id()));
  EXPECT_EQ(dp.zero_copy_pdus(), 1u);
  EXPECT_EQ(w.machine.stats().bytes_copied, 0u);

  // Releasing the retention reference free-lists the fbuf for reuse.
  ASSERT_TRUE(Ok(w.fsys.Free(retained, *src)));
  EXPECT_EQ(w.fsys.FreeListSize(src->id(), path), 1u);
  const FbufSystem::AuditCounts audit = w.fsys.Audit();
  EXPECT_EQ(audit.free_list_errors, 0u);
  EXPECT_EQ(audit.dangling_mappings, 0u);
}

// --- Allocation-failure cleanup ----------------------------------------------

// --- Pressure-aware admission (PathRegistry gate) ----------------------------

TEST(Admission, RegistrationRefusedWhileAnyPathIsDegraded) {
  World w(SmallPool(64));
  PressureConfig pc;
  pc.low_free_frames = 8;
  pc.high_free_frames = 48;
  pc.degrade_after_failures = 1;
  PressureManager pm(&w.fsys, pc);
  Domain* src = w.AddDomain("src");
  Domain* dst = w.AddDomain("dst");
  const PathId path = w.fsys.paths().Register({src->id(), dst->id()});

  // Pin half the pool (free stays under the high watermark) and degrade.
  Fbuf* pin = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*src, kNoPath, 32 * kPageSize, false, &pin)));
  ASSERT_LT(w.machine.pmem().free_frames(), pc.high_free_frames);
  ASSERT_EQ(pm.RecordAllocFailure(path), PathMode::kDegraded);
  EXPECT_TRUE(pm.AnyPathDegraded());

  // A host shedding pressure refuses new I/O paths — without consuming an
  // id or touching the registry.
  const std::size_t paths_before = w.fsys.paths().size();
  PathId refused = 0;
  EXPECT_EQ(w.fsys.paths().Register({src->id(), dst->id()}, &refused),
            Status::kBackpressure);
  EXPECT_EQ(refused, kNoPath);
  EXPECT_EQ(w.fsys.paths().size(), paths_before);
  EXPECT_EQ(w.fsys.paths().refused(), 1u);
  EXPECT_EQ(pm.admissions_refused(), 1u);
  // The legacy single-result Register signals the same refusal as kNoPath.
  EXPECT_EQ(w.fsys.paths().Register({src->id(), dst->id()}), kNoPath);
  EXPECT_EQ(pm.admissions_refused(), 2u);

  // Releasing the pin recovers the pool past the high watermark; the gate
  // rechecks ModeFor, so auto-restore reopens admission.
  ASSERT_TRUE(Ok(w.fsys.Free(pin, *src)));
  EXPECT_FALSE(pm.AnyPathDegraded());
  PathId ok_id = kNoPath;
  EXPECT_EQ(w.fsys.paths().Register({src->id(), dst->id()}, &ok_id),
            Status::kOk);
  EXPECT_NE(ok_id, kNoPath);
}

TEST(Admission, GateIsRemovedWithItsManager) {
  World w(SmallPool(64));
  Domain* src = w.AddDomain("src");
  {
    PressureConfig pc;
    PressureManager pm(&w.fsys, pc);
  }
  // The dtor cleared the gate: registration proceeds unconditionally.
  PathId id = kNoPath;
  EXPECT_EQ(w.fsys.paths().Register({src->id()}, &id), Status::kOk);
  EXPECT_NE(id, kNoPath);
}

TEST(AllocFailure, CacheHitReuseRollsBackWhenRematerializationFails) {
  World w(SmallPool(16));
  Domain* src = w.AddDomain("src");
  Domain* dst = w.AddDomain("dst");
  const PathId path = w.fsys.paths().Register({src->id(), dst->id()});

  // A free-listed fbuf whose frames were reclaimed by the pageout daemon.
  Fbuf* fb = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*src, path, 4 * kPageSize, true, &fb)));
  ASSERT_TRUE(Ok(w.fsys.Free(fb, *src)));
  ASSERT_EQ(w.fsys.ReclaimFreeMemory(), 4u);

  // Exhaust the pool so EnsureMaterialized cannot get frames back.
  std::vector<Fbuf*> hoard = HoardAllButN(w, *dst, 0);
  ASSERT_EQ(w.machine.pmem().free_frames(), 0u);

  Fbuf* reuse = nullptr;
  EXPECT_EQ(w.fsys.Allocate(*src, path, 4 * kPageSize, true, &reuse),
            Status::kNoMemory);
  // The failed reuse rolled back: the fbuf is back on its free list, held
  // by nobody, and the audit stays clean.
  EXPECT_EQ(w.fsys.FreeListSize(src->id(), path), 1u);
  EXPECT_FALSE(fb->IsHeldBy(src->id()));
  EXPECT_TRUE(fb->free_listed);
  const FbufSystem::AuditCounts audit = w.fsys.Audit();
  EXPECT_EQ(audit.free_list_errors, 0u);
  EXPECT_EQ(audit.dangling_mappings, 0u);

  // With frames back, the same reuse succeeds.
  for (Fbuf* h : hoard) {
    ASSERT_TRUE(Ok(w.fsys.Free(h, *dst)));
  }
  ASSERT_TRUE(Ok(w.fsys.Allocate(*src, path, 4 * kPageSize, true, &reuse)));
  EXPECT_EQ(reuse, fb);
}

TEST(AllocFailure, PartialEagerMappingRollsBackItsFrames) {
  World w(SmallPool(8));
  Domain* src = w.AddDomain("src");
  Domain* dst = w.AddDomain("dst");

  // 6 of 8 frames pinned; an 4-page carve materializes 2 pages and then
  // runs out. The partial mapping must be rolled back, or those frames
  // would be pinned with no fbuf ever created.
  Fbuf* pin = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*src, kNoPath, 6 * kPageSize, false, &pin)));
  ASSERT_EQ(w.machine.pmem().free_frames(), 2u);

  Fbuf* fb = nullptr;
  EXPECT_EQ(w.fsys.Allocate(*dst, kNoPath, 4 * kPageSize, false, &fb),
            Status::kNoMemory);
  EXPECT_EQ(w.machine.pmem().free_frames(), 2u);
  const FbufSystem::AuditCounts audit = w.fsys.Audit();
  EXPECT_EQ(audit.dangling_mappings, 0u);

  // The rolled-back frames are genuinely reusable.
  Fbuf* small = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*dst, kNoPath, 2 * kPageSize, false, &small)));
}

TEST(AllocFailure, CopyTransferAllocFailsCleanlyWhenThePoolIsDry) {
  World w(SmallPool(8));
  CopyTransfer copy(&w.machine);
  Domain* src = w.AddDomain("src");
  std::vector<Fbuf*> hoard = HoardAllButN(w, *src, 2);
  ASSERT_EQ(w.machine.pmem().free_frames(), 2u);

  BufferRef ref;
  EXPECT_FALSE(Ok(copy.Alloc(*src, 4 * kPageSize, &ref)));
  // No frames leaked by the failed eager mapping.
  EXPECT_EQ(w.machine.pmem().free_frames(), 2u);

  // After pressure clears, the same allocation succeeds.
  for (Fbuf* h : hoard) {
    ASSERT_TRUE(Ok(w.fsys.Free(h, *src)));
  }
  EXPECT_TRUE(Ok(copy.Alloc(*src, 4 * kPageSize, &ref)));
}

}  // namespace
}  // namespace fbufs
