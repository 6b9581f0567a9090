#include "src/pressure/pressure.h"

#include <algorithm>

namespace fbufs {

PressureManager::PressureManager(FbufSystem* fsys, const PressureConfig& config)
    : fsys_(fsys), config_(config) {
  fsys_->SetPressureHooks(this);
  // Pressure-aware admission: while any path on the host is degraded, new
  // path registrations are refused with kBackpressure — a host that cannot
  // serve its existing paths zero-copy should not accept more.
  fsys_->paths().SetAdmissionGate([this] {
    return AnyPathDegraded() ? Status::kBackpressure : Status::kOk;
  });
}

PressureManager::~PressureManager() {
  fsys_->paths().ClearAdmissionGate();
  fsys_->SetPressureHooks(nullptr);
}

std::uint64_t PressureManager::FreeFrames() const {
  return fsys_->machine().pmem().free_frames();
}

bool PressureManager::UnderPressure() const {
  return FreeFrames() < config_.low_free_frames;
}

void PressureManager::OnAllocate() {
  if (in_sweep_ || !UnderPressure()) {
    return;
  }
  if (loop_ == nullptr) {
    Sweep(config_.high_free_frames);
    return;
  }
  if (sweep_scheduled_) {
    return;
  }
  sweep_scheduled_ = true;
  // Clamp the key, never the value: the machine clock may be ahead of the
  // loop's dispatch floor.
  const SimTime key = std::max(loop_->Now(), fsys_->machine().clock().Now());
  loop_->Schedule(key, "pressure-sweep", [this] {
    sweep_scheduled_ = false;
    if (UnderPressure()) {
      Sweep(config_.high_free_frames);
    }
  });
}

std::uint64_t PressureManager::OnAllocationFailure(std::uint64_t pages_needed) {
  // Emergency path: the allocation is about to fail, so sweep synchronously
  // and far enough to cover the request even if the watermark is tiny.
  return Sweep(std::max(config_.high_free_frames, pages_needed));
}

std::uint64_t PressureManager::Sweep(std::uint64_t target_free) {
  if (in_sweep_) {
    return 0;  // FileCache eviction re-enters via Free; never recurse
  }
  in_sweep_ = true;
  SimStats& stats = fsys_->machine().stats();
  stats.pressure_sweeps++;
  sweeps_++;
  const std::uint64_t before = FreeFrames();

  // Stage 1 — discard frames of free-listed fbufs (cheapest: contents are
  // dead by definition, §3.3).
  if (FreeFrames() < target_free) {
    fsys_->ReclaimFreeMemory(target_free - FreeFrames());
  }

  // Stage 2 — evict clean file-cache blocks toward the floor, LRU first.
  // Re-reading them costs disk time, not correctness.
  while (cache_ != nullptr && FreeFrames() < target_free &&
         cache_->resident_blocks() > config_.cache_floor_blocks) {
    if (cache_->Shrink(cache_->resident_blocks() - 1) == 0) {
      break;
    }
    // The evicted block's fbuf lands on the kernel path's free list with
    // its frames still attached; discard them so the progress is visible
    // in FreeFrames() and the loop stops as soon as the target is met.
    fsys_->ReclaimFreeMemory(target_free - FreeFrames());
  }

  // Stage 3 — page out cold retransmit-pinned fbufs to backing store.
  // Their contents must survive for the retransmission (copy semantics:
  // the transport's reference is a promise the data stays intact), so they
  // are paged, never discarded; the eventual retransmit faults them back in.
  if (FreeFrames() < target_free && !ledgers_.empty()) {
    PageOutColdPinned(target_free);
  }

  // Stage 4 — destroy the free lists of idle cached paths, releasing region
  // space and chunk quota (the most expensive: those paths restart cold). A
  // path that has not served an allocation for 10 ms counts as idle.
  if (FreeFrames() < target_free) {
    fsys_->ShrinkIdlePaths(10 * kMillisecond);
  }

  in_sweep_ = false;
  const std::uint64_t after = FreeFrames();
  const std::uint64_t freed = after > before ? after - before : 0;
  stats.pressure_pages_reclaimed += freed;
  pages_reclaimed_ += freed;
  return freed;
}

void PressureManager::PageOutColdPinned(std::uint64_t target_free) {
  const SimTime now = fsys_->machine().clock().Now();
  for (const RetransmitLedger* ledger : ledgers_) {
    if (FreeFrames() >= target_free) {
      return;
    }
    ledger->ForEachCold(now, config_.pageout_min_age_ns, [&](Fbuf* fb) {
      if (FreeFrames() >= target_free) {
        return;  // target met; later entries stay resident
      }
      pages_paged_out_ += fsys_->PageOutFbuf(fb);
    });
  }
}

bool PressureManager::AnyPathDegraded() {
  for (const auto& [path, state] : path_states_) {
    if (state.mode == PathMode::kDegraded && ModeFor(path) == PathMode::kDegraded) {
      return true;
    }
  }
  return false;
}

PathMode PressureManager::ModeFor(PathId path) {
  auto it = path_states_.find(path);
  if (it == path_states_.end()) {
    return PathMode::kZeroCopy;
  }
  PathState& s = it->second;
  if (s.mode == PathMode::kDegraded && FreeFrames() >= config_.high_free_frames) {
    // Pressure cleared: restore zero-copy.
    s.mode = PathMode::kZeroCopy;
    s.consecutive_failures = 0;
    restorations_++;
  }
  return s.mode;
}

PathMode PressureManager::RecordAllocFailure(PathId path) {
  PathState& s = path_states_[path];
  if (s.mode == PathMode::kDegraded) {
    return s.mode;
  }
  if (++s.consecutive_failures >= config_.degrade_after_failures) {
    s.mode = PathMode::kDegraded;
    degradations_++;
  }
  return s.mode;
}

std::uint32_t PressureManager::CreditFor(std::uint64_t pdu_pages,
                                         std::uint32_t flows,
                                         std::uint32_t max_credit) const {
  if (pdu_pages == 0) {
    pdu_pages = 1;
  }
  if (flows == 0) {
    flows = 1;
  }
  const std::uint64_t free = FreeFrames();
  const std::uint64_t reserve = config_.low_free_frames;
  const std::uint64_t headroom = free > reserve ? free - reserve : 0;
  // Integer throughout: same free-frame count, same grant, every run.
  std::uint64_t grant = headroom / (pdu_pages * flows);
  if (grant < 1) {
    grant = 1;  // the no-deadlock floor: a granted PDU is how acks flow back
  }
  if (grant > max_credit) {
    grant = max_credit;
  }
  return static_cast<std::uint32_t>(grant);
}

void PressureManager::RecordAllocSuccess(PathId path) {
  auto it = path_states_.find(path);
  if (it != path_states_.end()) {
    it->second.consecutive_failures = 0;
  }
}

}  // namespace fbufs
