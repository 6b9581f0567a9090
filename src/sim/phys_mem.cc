#include "src/sim/phys_mem.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>

// Under AddressSanitizer the dirty prefix of a parked arena is poisoned, so a
// pointer that outlives its machine still faults as it did when the arena was
// freed; elsewhere poisoning does nothing.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace fbufs {

namespace {

// Arenas of destroyed PhysMems, oldest first. Reached through a never-deleted
// pointer, so a PhysMem destroyed during static destruction still finds it
// and the parked arenas stay reachable (not leaked) at exit.
struct ArenaPool {
  struct Entry {
    std::uint8_t* arena;
    std::uint32_t frames;
    std::uint32_t dirty;
  };
  std::mutex mu;
  std::size_t size = 0;
  Entry entries[PhysMem::kArenaPoolCap];
};

ArenaPool& Pool() {
  static ArenaPool* const pool = new ArenaPool;
  return *pool;
}

// The most recently parked arena of |frames| frames, or nullptr.
std::uint8_t* TakeArena(std::uint32_t frames, std::uint32_t* dirty) {
  ArenaPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mu);
  for (std::size_t i = pool.size; i > 0; --i) {
    const ArenaPool::Entry e = pool.entries[i - 1];
    if (e.frames == frames) {
      std::copy(pool.entries + i, pool.entries + pool.size, pool.entries + i - 1);
      pool.size--;
      *dirty = e.dirty;
      ASAN_UNPOISON_MEMORY_REGION(e.arena, std::size_t{e.dirty} * kPageSize);
      return e.arena;
    }
  }
  return nullptr;
}

// Parks |arena|; returns the arena the pool dropped to make room, or nullptr.
std::uint8_t* ParkArena(std::uint8_t* arena, std::uint32_t frames, std::uint32_t dirty) {
  ASAN_POISON_MEMORY_REGION(arena, std::size_t{dirty} * kPageSize);
  ArenaPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mu);
  std::uint8_t* dropped = nullptr;
  if (pool.size == PhysMem::kArenaPoolCap) {
    dropped = pool.entries[0].arena;
    std::copy(pool.entries + 1, pool.entries + pool.size, pool.entries);
    pool.size--;
  }
  pool.entries[pool.size++] = {arena, frames, dirty};
  return dropped;
}

}  // namespace

PhysMem::PhysMem(std::uint32_t frames, SimClock* clock, const CostParams* costs,
                 SimStats* stats)
    : total_frames_(frames),
      clock_(clock),
      costs_(costs),
      stats_(stats),
      refcount_(frames, 0) {
  free_list_.reserve(frames);
  // Hand frames out in ascending order: push in reverse so pop_back yields 0 first.
  for (std::uint32_t i = frames; i > 0; --i) {
    free_list_.push_back(i - 1);
  }
  // Taken last, so a throwing allocation above cannot strand a pooled arena.
  arena_ = TakeArena(frames, &inherited_dirty_);
  if (arena_ == nullptr) {
    arena_ = static_cast<std::uint8_t*>(std::calloc(static_cast<std::size_t>(frames), kPageSize));
  }
  // Out of host memory is fatal in every build, not only where asserts are live.
  if (arena_ == nullptr && frames != 0) {
    throw std::bad_alloc();
  }
}

PhysMem::~PhysMem() {
  if (arena_ != nullptr) {
    std::free(ParkArena(arena_, total_frames_, std::max(inherited_dirty_, handed_)));
  }
}

std::size_t PhysMem::PooledArenas() {
  ArenaPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mu);
  return pool.size;
}

std::optional<FrameId> PhysMem::Allocate(bool clear) {
  if (free_list_.empty()) {
    return std::nullopt;
  }
  const FrameId frame = free_list_.back();
  free_list_.pop_back();
  refcount_[frame] = 1;
  stats_->pages_allocated++;
  if (frame >= handed_) {
    // First hand-out: a recycled arena may still hold its last owner's bytes
    // here. Zeroing them is host work, not simulated work.
    handed_ = frame + 1;
    if (frame < inherited_dirty_ && !clear) {
      std::memset(Data(frame), 0, kPageSize);
    }
  }
  if (clear) {
    std::memset(Data(frame), 0, kPageSize);
    clock_->Advance(costs_->page_clear_ns);
    stats_->pages_cleared++;
  }
  return frame;
}

void PhysMem::Ref(FrameId frame) {
  assert(frame < total_frames_ && refcount_[frame] > 0);
  refcount_[frame]++;
}

void PhysMem::Unref(FrameId frame) {
  assert(frame < total_frames_ && refcount_[frame] > 0);
  if (--refcount_[frame] == 0) {
    free_list_.push_back(frame);
    stats_->pages_freed++;
  }
}

std::uint32_t PhysMem::RefCount(FrameId frame) const {
  assert(frame < total_frames_);
  return refcount_[frame];
}

std::uint8_t* PhysMem::Data(FrameId frame) {
  assert(frame < total_frames_);
  return arena_ + static_cast<std::size_t>(frame) * kPageSize;
}

const std::uint8_t* PhysMem::Data(FrameId frame) const {
  assert(frame < total_frames_);
  return arena_ + static_cast<std::size_t>(frame) * kPageSize;
}

}  // namespace fbufs
