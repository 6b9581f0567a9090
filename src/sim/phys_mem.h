// Physical memory: a real byte arena divided into page frames.
//
// Data in the simulator genuinely lives here. Zero-copy transfer is
// observable as two domains translating to the same frame; a copying
// facility performs an actual memcpy between frames. Frames are reference
// counted so copy-on-write and shared fbuf mappings can share them.
//
// The arena is reserved up front but becomes resident only as frames are
// touched: a fresh arena comes from calloc, which the host serves from fresh
// mmap'd pages that the kernel zeroes on first touch, so a machine's host
// memory tracks the frames the simulation actually writes, not its
// configured size.
//
// A destroyed PhysMem does not give its arena back to the host. It parks it
// in a small process-wide pool (at most kArenaPoolCap arenas, guarded by a
// mutex and touched only at construction and destruction), together with its
// dirty prefix: the count of leading frames that may hold non-zero bytes. A
// later PhysMem with the same frame count takes the arena from the pool
// instead of calloc, so the pages it touches are already resident and cost
// no kernel fault. The free list hands fresh frames out in ascending order,
// so the frames a PhysMem has ever handed out are exactly the prefix
// [0, handed); the first hand-out of a frame below the inherited dirty prefix
// zeroes it on the host, charging no simulated time. Every frame therefore
// reads as zero before its first use, as with a fresh calloc, and simulated
// time and counters do not depend on where the arena came from. A frame freed
// and re-allocated within one PhysMem keeps its bytes unless the allocation
// asks for a (charged) clear.
#ifndef SRC_SIM_PHYS_MEM_H_
#define SRC_SIM_PHYS_MEM_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/stats.h"

namespace fbufs {

// Index of a physical page frame.
using FrameId = std::uint32_t;
constexpr FrameId kInvalidFrame = static_cast<FrameId>(-1);

class PhysMem {
 public:
  // |frames| page frames of backing store: ~64 MB of address space at the
  // default 16384 frames, of which only touched frames cost host memory.
  PhysMem(std::uint32_t frames, SimClock* clock, const CostParams* costs, SimStats* stats);
  // Parks the arena in the pool (or frees it when the pool is full).
  ~PhysMem();

  // Most arenas the pool keeps; a full pool drops its oldest arena.
  static constexpr std::size_t kArenaPoolCap = 4;
  // Arenas parked in the pool right now, of any frame count.
  static std::size_t PooledArenas();

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  // Re-points the clock charges land on. A multicore Machine switches this
  // to the active CPU lane's clock (frame clearing runs on the lane that
  // asked for the frame).
  void set_clock(SimClock* clock) { clock_ = clock; }

  // Allocates one frame with reference count 1. If |clear| is true the frame
  // is filled with zeros and the page-clear cost is charged (security
  // clearing of memory recycled across protection domains).
  // Returns nullopt when physical memory is exhausted.
  std::optional<FrameId> Allocate(bool clear);

  // Increments the reference count (a new mapping shares the frame).
  void Ref(FrameId frame);

  // Drops one reference; frees the frame when the count reaches zero.
  void Unref(FrameId frame);

  std::uint32_t RefCount(FrameId frame) const;

  // Direct access to the frame's bytes (kPageSize of them). Only the VM
  // layer and devices (DMA) should touch frames directly; domain code goes
  // through Domain accessors so permissions and TLB behaviour apply.
  std::uint8_t* Data(FrameId frame);
  const std::uint8_t* Data(FrameId frame) const;

  std::uint32_t total_frames() const { return total_frames_; }
  std::uint32_t free_frames() const { return static_cast<std::uint32_t>(free_list_.size()); }

 private:
  std::uint32_t total_frames_;
  SimClock* clock_;
  const CostParams* costs_;
  SimStats* stats_;
  std::vector<std::uint32_t> refcount_;
  std::vector<FrameId> free_list_;
  std::uint8_t* arena_ = nullptr;
  // Frames [0, inherited_dirty_) may hold bytes of the arena's last owner.
  std::uint32_t inherited_dirty_ = 0;
  // Frames [0, handed_) have been handed out at least once.
  std::uint32_t handed_ = 0;
};

}  // namespace fbufs

#endif  // SRC_SIM_PHYS_MEM_H_
