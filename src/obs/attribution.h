// Time-attribution profiler: where every simulated nanosecond went.
//
// The paper's whole argument is a cost decomposition (Tables 1/2 charge each
// transfer facility per page for clearing, copying, mapping and TLB/cache
// consistency). SimStats counts *operations*; this profiler accounts *time*,
// broken down three ways at once:
//
//   * layer  (CostDomain) — which subsystem charged the clock (vm, fbuf,
//     ipc, baseline, proto, net, cache, msg, app, wait);
//   * actor  — the protection domain on whose behalf the charge was made;
//   * path   — the I/O data path the work belonged to.
//
// The accumulator hangs off the host's SimClock via its charge hook, so
// every clock movement — explicit Advance charges and event-delivery waits
// alike — lands in exactly one (layer, actor, path) cell. That makes the
// conservation invariant structural rather than aspirational:
//
//     sum over all cells == host clock elapsed, always.
//
// Charge sites tag themselves with cheap RAII scopes (LayerScope,
// ActorScope, PathScope); the innermost layer wins, so VM work performed on
// behalf of an fbuf transfer is attributed to the VM layer while the fbuf
// bookkeeping around it stays with the fbuf layer. Untagged charges fall
// into kOther — visible, never lost. Event-delivery waits (AdvanceTo) are
// attributed to kWait. Attribution charges zero simulated time itself, so
// enabling it cannot perturb any bench number.
#ifndef SRC_OBS_ATTRIBUTION_H_
#define SRC_OBS_ATTRIBUTION_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <tuple>

#include "src/sim/clock.h"
#include "src/vm/types.h"

namespace fbufs {

// Mirrors src/fbuf/fbuf.h (not included here: obs sits below fbuf).
using AttrPathId = std::uint32_t;
inline constexpr AttrPathId kAttrNoPath = static_cast<AttrPathId>(-1);

// The layer a clock charge belongs to. One value per subsystem that charges
// simulated time, plus kWait (event-delivery idle time) and kOther (charges
// no scope claimed).
enum class CostDomain : std::uint8_t {
  kVm = 0,    // page tables, TLB/cache consistency, faults, protection
  kFbuf,      // fbuf allocation, transfer, caching, region bookkeeping
  kIpc,       // cross-domain RPC crossings
  kBaseline,  // copy / COW / remap comparison facilities
  kProto,     // protocol processing (UDP/IP/SWP/test protocols)
  kNet,       // device driver and adapter work
  kCache,     // file cache disk access
  kMsg,       // message-layer data touching (checksums, HBIO copies, fills)
  kApp,       // application data touching (TouchRange word reads/writes)
  kDispatch,  // evented dispatch overhead (enqueue/run scheduling cost)
  kRing,      // shared-memory transfer rings (descriptor writes, doorbells)
  kWait,      // clock moved to an event delivery time (host was idle)
  kOther,     // charge with no enclosing scope
  kCount,
};

const char* CostDomainName(CostDomain d);

class Attribution {
  struct Row;

 public:
  // One accumulation cell: (layer, acting domain, path, cpu). Ordered so
  // serialization is deterministic. The cpu dimension is 0 for the whole
  // life of a single-CPU machine, so single-CPU cell sets are unchanged.
  struct Key {
    CostDomain layer = CostDomain::kOther;
    DomainId domain = kInvalidDomainId;
    AttrPathId path = kAttrNoPath;
    std::uint32_t cpu = 0;

    bool operator<(const Key& o) const {
      if (layer != o.layer) {
        return layer < o.layer;
      }
      if (domain != o.domain) {
        return domain < o.domain;
      }
      if (path != o.path) {
        return path < o.path;
      }
      return cpu < o.cpu;
    }
    bool operator==(const Key& o) const {
      return layer == o.layer && domain == o.domain && path == o.path && cpu == o.cpu;
    }
  };

  Attribution() { Enter(kInvalidDomainId, kAttrNoPath, 0); }

  Attribution(const Attribution&) = delete;
  Attribution& operator=(const Attribution&) = delete;

  // --- Recording (called from the SimClock charge hook) ----------------------
  void Record(SimTime ns) {
    *work_cell_ += ns;
    total_ += ns;
  }
  void RecordWait(SimTime ns) {
    row_->cell[kWaitIndex] += ns;
    total_ += ns;
  }

  // The SimClock::ChargeHook thunk: |ctx| is the Attribution*.
  static void ClockHook(void* ctx, SimTime ns, bool wait) {
    auto* a = static_cast<Attribution*>(ctx);
    if (wait) {
      a->RecordWait(ns);
    } else {
      a->Record(ns);
    }
  }

  // --- Context (scopes below maintain these) ---------------------------------
  void PushLayer(CostDomain d) {
    if (depth_ < kMaxDepth) {
      stack_[depth_] = d;
    }
    depth_++;
    EnterLayer();
  }
  void PopLayer() {
    assert(depth_ > 0 && "PopLayer without PushLayer");
    depth_--;
    EnterLayer();
  }
  CostDomain CurrentLayer() const {
    if (depth_ == 0) {
      return CostDomain::kOther;
    }
    const std::size_t top = depth_ <= kMaxDepth ? depth_ - 1 : kMaxDepth - 1;
    return stack_[top];
  }

  DomainId actor() const { return row_->actor; }
  void SetActor(DomainId d) {
    if (d != row_->actor) {
      Enter(d, row_->path, row_->cpu);
    }
  }
  AttrPathId path() const { return row_->path; }
  void SetPath(AttrPathId p) {
    if (p != row_->path) {
      Enter(row_->actor, p, row_->cpu);
    }
  }
  std::uint32_t cpu() const { return row_->cpu; }
  // The CPU lane charges land on. Maintained by Machine::SetActiveCpu, not
  // by a scope here: the active lane is machine state, not call-site state.
  void SetCpu(std::uint32_t c) {
    if (c != row_->cpu) {
      Enter(row_->actor, row_->path, c);
    }
  }

  // Scope bookkeeping. Scopes nest strictly (LIFO): each takes the next
  // nesting level on entry and must hand the same level back on exit.
  std::size_t EnterScope() { return ++scopes_; }
  void ExitScope([[maybe_unused]] std::size_t level) {
    assert(scopes_ == level && "attribution scope exited out of LIFO order");
    scopes_--;
  }

  // The context an actor or path scope found on entry. By LIFO nesting the
  // layer on exit is the one on entry, so restoring the row also restores
  // the work cell, unless the CPU lane moved meanwhile: then the saved
  // actor and path are entered on the new lane. (A bare SetActor or SetPath
  // inside an open scope is undone with it.)
  struct Mark {
    Row* row;
    SimTime* work_cell;
    std::size_t level;
  };
  Mark Save() { return Mark{row_, work_cell_, EnterScope()}; }
  void Restore(const Mark& m) {
    ExitScope(m.level);
    if (m.row->cpu == row_->cpu) {
      row_ = m.row;
      work_cell_ = m.work_cell;
    } else {
      Enter(m.row->actor, m.row->path, row_->cpu);
    }
  }

  // --- Inspection -------------------------------------------------------------
  // Total attributed time. The conservation invariant: equals the host
  // clock's Now() whenever the accumulator was attached at clock birth.
  SimTime total() const { return total_; }

  SimTime ByLayer(CostDomain d) const;
  SimTime ByDomain(DomainId d) const;
  SimTime ByPath(AttrPathId p) const;
  // Per-lane total: on a multicore machine this equals that lane's clock
  // (per-lane conservation); summed over lanes it equals total().
  SimTime ByCpu(std::uint32_t c) const;
  // Every cell any entered context created, zero-valued ones included,
  // rebuilt from the rows on each call (a report-side path).
  std::map<Key, SimTime> cells() const;

  // A value-semantics copy for windowed measurement (bench warmup).
  struct Snapshot {
    std::map<Key, SimTime> cells;
    SimTime total = 0;

    SimTime ByLayer(CostDomain d) const;
    // Cell-wise difference against an earlier snapshot of the same
    // accumulator (assumes monotonic growth).
    Snapshot Since(const Snapshot& base) const;
  };
  Snapshot Take() const { return Snapshot{cells(), total_}; }

  // Deterministic single-line summary (nonzero layers only), for debugging.
  std::string DebugString() const;

 private:
  static constexpr std::size_t kMaxDepth = 16;
  static constexpr std::size_t kLayers = static_cast<std::size_t>(CostDomain::kCount);
  static constexpr std::size_t kWaitIndex = static_cast<std::size_t>(CostDomain::kWait);
  static_assert(kLayers <= 16, "Row::entered holds one bit per layer");

  // Every cell of one (actor, path, cpu) context. |entered| has bit i set
  // once the context was entered with layer i current, and the kWait bit
  // from birth: those are the cells that exist. Every entered context
  // creates its cells even if nothing is ever charged there, because
  // zero-valued cells are output (per-path reports and digests list them).
  struct Row {
    DomainId actor;
    AttrPathId path;
    std::uint32_t cpu;
    std::uint16_t entered;
    SimTime cell[kLayers];
  };

  // Makes (actor, path, cpu) the current row, and its cell for the current
  // layer the work cell. Cells are created here, on entry, never on the
  // first charge: Record and RecordWait stay two additions each.
  void Enter(DomainId actor, AttrPathId path, std::uint32_t cpu) {
    row_ = FindRow(actor, path, cpu);
    EnterLayer();
  }
  void EnterLayer() {
    const auto layer = static_cast<std::size_t>(CurrentLayer());
    work_cell_ = &row_->cell[layer];
    row_->entered = static_cast<std::uint16_t>(row_->entered | 1u << layer);
  }

  // A direct-mapped memo of row pointers in front of the ordered index; a
  // miss looks the row up there or creates it. Rows live in a deque, never
  // move and are never erased, so a cached pointer stays valid for the
  // object's life.
  Row* FindRow(DomainId actor, AttrPathId path, std::uint32_t cpu) {
    std::uint64_t h = actor;
    h = h * 31 + path;
    h = h * 31 + cpu;
    Row*& slot = memo_[static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ull) >> (64 - kMemoBits))];
    if (slot == nullptr || slot->actor != actor || slot->path != path || slot->cpu != cpu) {
      slot = IndexRow(actor, path, cpu);
    }
    return slot;
  }
  Row* IndexRow(DomainId actor, AttrPathId path, std::uint32_t cpu);

  static constexpr int kMemoBits = 8;

  std::deque<Row> rows_;
  std::map<std::tuple<DomainId, AttrPathId, std::uint32_t>, Row*> index_;
  SimTime total_ = 0;
  Row* row_ = nullptr;
  SimTime* work_cell_ = nullptr;
  CostDomain stack_[kMaxDepth] = {};
  std::size_t depth_ = 0;
  std::size_t scopes_ = 0;
  Row* memo_[std::size_t{1} << kMemoBits] = {};
};

// --- Tagging scopes (RAII; nestable; innermost wins; strictly LIFO) ------------

class LayerScope {
 public:
  LayerScope(Attribution& a, CostDomain d) : a_(&a), level_(a.EnterScope()) { a_->PushLayer(d); }
  ~LayerScope() {
    a_->PopLayer();
    a_->ExitScope(level_);
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  Attribution* a_;
  std::size_t level_;
};

class ActorScope {
 public:
  ActorScope(Attribution& a, DomainId d) : a_(&a), mark_(a.Save()) { a_->SetActor(d); }
  ~ActorScope() { a_->Restore(mark_); }
  ActorScope(const ActorScope&) = delete;
  ActorScope& operator=(const ActorScope&) = delete;

 private:
  Attribution* a_;
  Attribution::Mark mark_;
};

class PathScope {
 public:
  PathScope(Attribution& a, AttrPathId p) : a_(&a), mark_(a.Save()) { a_->SetPath(p); }
  ~PathScope() { a_->Restore(mark_); }
  PathScope(const PathScope&) = delete;
  PathScope& operator=(const PathScope&) = delete;

 private:
  Attribution* a_;
  Attribution::Mark mark_;
};

}  // namespace fbufs

#endif  // SRC_OBS_ATTRIBUTION_H_
