// Discrete-event simulation core.
//
// The engine that coordinates every timeline in the simulator: a
// deterministic event queue keyed by (SimTime, sequence number) plus
// Resource objects modelling serially-reusable things (a host CPU, a
// TurboChannel DMA engine, the wire). Layers above schedule work as events;
// per-host SimClocks are views over the loop's time in the sense that they
// only move while the loop dispatches events on that host, and resources
// account their own busy time so utilization (CPU load, bus occupancy) falls
// out of the schedule instead of being hand-computed.
//
// Determinism: two runs that schedule the same events in the same order
// dispatch them identically — ties in time break by schedule order (seq).
// The loop keeps a running FNV-1a hash of every dispatched event and can
// record the full trace, so tests can assert byte-identical replays.
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cassert>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/clock.h"

namespace fbufs {

// An event's label, kept in a form that costs no heap allocation on the
// per-event paths; its text is built only when a trace is recorded. The
// four forms read as:
//   EventLabel("pump")             -> "pump"
//   EventLabel("send/", 3, 17)     -> "send/3/17"   (one or two integers)
//   EventLabel("dispatch/", name)  -> "dispatch/" + name; |name| must outlive
//                                     the event's dispatch
//   EventLabel(std::string)        -> the string, owned
// Literal forms take string literals only (their storage is static).
class EventLabel {
 public:
  EventLabel() : EventLabel("") {}
  template <std::size_t N>
  EventLabel(const char (&lit)[N])  // NOLINT: implicit, like a string
      : lit_(lit), lit_len_(N - 1) {}
  template <std::size_t N>
  EventLabel(const char (&lit)[N], std::uint64_t a)
      : lit_(lit), lit_len_(N - 1), kind_(Kind::kInts), ints_(1), a_(a) {}
  template <std::size_t N>
  EventLabel(const char (&lit)[N], std::uint64_t a, std::uint64_t b)
      : lit_(lit), lit_len_(N - 1), kind_(Kind::kInts), ints_(2), a_(a), b_(b) {}
  template <std::size_t N>
  EventLabel(const char (&lit)[N], const std::string& name)
      : lit_(lit), lit_len_(N - 1), kind_(Kind::kName), name_(&name) {}
  EventLabel(std::string text)  // NOLINT: implicit, Schedule takes strings
      : kind_(Kind::kOwned), owned_(std::move(text)) {}

  // Calls |sink(const char*, std::size_t)| on consecutive pieces of the text.
  template <typename Sink>
  void ForEachPiece(Sink&& sink) const {
    switch (kind_) {
      case Kind::kOwned:
        sink(owned_.data(), owned_.size());
        return;
      case Kind::kName:
        sink(lit_, lit_len_);
        sink(name_->data(), name_->size());
        return;
      case Kind::kInts: {
        sink(lit_, lit_len_);
        char buf[20];
        sink(buf, static_cast<std::size_t>(std::to_chars(buf, buf + sizeof(buf), a_).ptr - buf));
        if (ints_ == 2) {
          sink("/", 1);
          sink(buf, static_cast<std::size_t>(std::to_chars(buf, buf + sizeof(buf), b_).ptr - buf));
        }
        return;
      }
      case Kind::kLiteral:
        sink(lit_, lit_len_);
        return;
    }
  }

  std::string Text() const {
    std::string out;
    ForEachPiece([&out](const char* p, std::size_t n) { out.append(p, n); });
    return out;
  }

 private:
  enum class Kind : std::uint8_t { kLiteral, kInts, kName, kOwned };

  const char* lit_ = "";
  std::uint32_t lit_len_ = 0;
  Kind kind_ = Kind::kLiteral;
  std::uint8_t ints_ = 0;
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
  const std::string* name_ = nullptr;
  std::string owned_;
};

class EventLoop {
 public:
  using Handler = std::function<void()>;
  // Encodes the event's slot (low kSlotBits) and its sequence number (the
  // bits above), so an id whose event has finished never matches the
  // slot's next occupant.
  using EventId = std::uint64_t;
  static constexpr unsigned kSlotBits = 24;

  struct TraceEntry {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::string label;

    bool operator==(const TraceEntry& o) const {
      return time == o.time && seq == o.seq && label == o.label;
    }
  };

  // Dispatch floor: the key of the most recently dispatched event. Event
  // keys order the schedule; handlers read their own host clocks for a
  // host's notion of time (host timelines are only partially ordered).
  SimTime Now() const { return now_; }

  // Schedules |fn| to run at |t|. The queue is monotonic: scheduling behind
  // the dispatch floor is a bug in the caller's timeline arithmetic.
  EventId Schedule(SimTime t, EventLabel label, Handler fn);
  EventId ScheduleIn(SimTime delay, EventLabel label, Handler fn) {
    return Schedule(now_ + delay, std::move(label), std::move(fn));
  }

  // Cancels a pending event. Returns true when the event existed and had not
  // yet been dispatched; a cancelled event never dispatches, never enters the
  // trace (or the trace hash), and does not count as dispatched. Re-armed
  // timers (SWP's RTO) and drained queues cancel instead of letting stale
  // events fire as no-ops. The handler is destroyed once the cancelled
  // event reaches the head of the queue.
  bool Cancel(EventId id);

  // Dispatches the earliest pending event. Returns false when the queue is
  // empty (quiescence).
  bool RunOne();

  // Runs to quiescence; returns the number of events dispatched.
  std::uint64_t Run();

  // Dispatches every event with key <= |t| (bounded run for open-ended
  // schedules such as retransmission timers that re-arm themselves).
  std::uint64_t RunUntil(SimTime t);

  bool empty() const { return pending() == 0; }
  // Cancelled events still sitting in the queue do not count as pending.
  std::size_t pending() const { return queue_.size() - cancelled_pending_; }
  std::uint64_t events_dispatched() const { return dispatched_; }
  std::uint64_t events_cancelled() const { return cancelled_total_; }

  // Process-wide dispatch counter across every EventLoop instance: the
  // simulator's own throughput signal (events/sec of host wall-clock in the
  // benches' sim_throughput sections). Monotonic over the process lifetime.
  static std::uint64_t TotalDispatched();

  // FNV-1a over (time, seq, label text) of every dispatched event.
  std::uint64_t trace_hash() const { return trace_hash_; }

  void set_record_trace(bool on) { record_trace_ = on; }
  const std::vector<TraceEntry>& trace() const { return trace_; }

 private:
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kFreeSeq = ~0ull;

  // The heap holds plain keys; everything else about a pending event sits in
  // its slot. A slot is owned by exactly one key from Schedule until that
  // key leaves the heap, then goes back on the free list.
  struct Key {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  struct Slot {
    EventLabel label;
    Handler fn;
    std::uint64_t seq = kFreeSeq;  // kFreeSeq while on the free list
    bool cancelled = false;
  };

  void HashDispatch(const Key& k, const EventLabel& label);
  void ReleaseSlot(std::uint32_t slot);
  // Discards cancelled events from the queue head so callers see live state.
  void PurgeCancelledTop();

  // A binary heap under Later (std::push_heap/pop_heap): the earliest event
  // sits at front(), and pop_heap parks it at back().
  std::vector<Key> queue_;
  std::vector<Slot> slots_;  // grows to the peak number of queued events
  std::vector<std::uint32_t> free_slots_;
  std::size_t cancelled_pending_ = 0;  // cancelled, still in the queue
  std::uint64_t cancelled_total_ = 0;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t trace_hash_ = 14695981039346656037ull;  // FNV offset basis
  bool record_trace_ = false;
  std::vector<TraceEntry> trace_;
};

// A serially-reusable resource: at most one piece of work occupies it at a
// time, and work that finds it busy queues behind the current occupant
// (busy-until algebra). Tracks total occupied time inside an accounting
// window so per-resource utilization is a byproduct of the schedule.
class Resource {
 public:
  explicit Resource(std::string name) : name_(std::move(name)) {}

  // Work that becomes ready at |ready| and occupies the resource for
  // |duration| completes at the returned time.
  SimTime Acquire(SimTime ready, SimTime duration) {
    const SimTime start = ready > busy_until_ ? ready : busy_until_;
    busy_until_ = start + duration;
    acquisitions_++;
    RecordBusy(start, busy_until_);
    return busy_until_;
  }

  // Accounts externally-timed occupancy (a CPU whose work is charged to a
  // SimClock by the code that runs on it). Intervals must not overlap.
  void RecordBusy(SimTime start, SimTime end) {
    if (end <= start) {
      return;
    }
    if (record_intervals_) {
      intervals_.push_back({start, end});
    }
    if (start < window_start_) {
      start = end > window_start_ ? window_start_ : end;
    }
    busy_ns_ += end - start;
  }

  // Busy-interval recording, for the trace exporter's per-resource lanes.
  // Off by default (zero cost beyond one branch per RecordBusy).
  struct BusyInterval {
    SimTime start = 0;
    SimTime end = 0;
  };
  void set_record_intervals(bool on) { record_intervals_ = on; }
  const std::vector<BusyInterval>& intervals() const { return intervals_; }

  // Restarts utilization accounting at |at|; busy time before it no longer
  // counts (measurement begins after warmup).
  void ResetAccounting(SimTime at) {
    window_start_ = at;
    busy_ns_ = 0;
  }

  SimTime busy_until() const { return busy_until_; }
  SimTime busy_ns() const { return busy_ns_; }
  SimTime window_start() const { return window_start_; }
  std::uint64_t acquisitions() const { return acquisitions_; }
  const std::string& name() const { return name_; }

  // Fraction of [window_start, until] the resource was occupied. Acquire
  // records a whole occupancy up front, so on a saturated resource busy time
  // can outrun the window; a fraction above 1.0 is an accounting artifact,
  // not a physical possibility — clamp it.
  double Utilization(SimTime until) const {
    if (until <= window_start_) {
      return 0.0;
    }
    const double u =
        static_cast<double>(busy_ns_) / static_cast<double>(until - window_start_);
    return u > 1.0 ? 1.0 : u;
  }

  // Like Utilization, but busy_until()-aware: work still in flight when the
  // window closes at |until| is trimmed to the window, so a saturated
  // resource reports ~1.0 instead of counting occupancy that lies in the
  // future. (Intervals are non-overlapping and ordered on a serial resource,
  // so everything past |until| belongs to the in-flight tail.)
  double UtilizationInWindow(SimTime until) const {
    if (until <= window_start_) {
      return 0.0;
    }
    SimTime busy = busy_ns_;
    if (busy_until_ > until) {
      const SimTime overhang = busy_until_ - until;
      busy = overhang >= busy ? 0 : busy - overhang;
    }
    const double u = static_cast<double>(busy) / static_cast<double>(until - window_start_);
    return u > 1.0 ? 1.0 : u;
  }

  void Reset() {
    busy_until_ = 0;
    busy_ns_ = 0;
    window_start_ = 0;
    acquisitions_ = 0;
    intervals_.clear();
  }

 private:
  std::string name_;
  SimTime busy_until_ = 0;
  SimTime busy_ns_ = 0;
  SimTime window_start_ = 0;
  std::uint64_t acquisitions_ = 0;
  bool record_intervals_ = false;
  std::vector<BusyInterval> intervals_;
};

}  // namespace fbufs

#endif  // SRC_SIM_EVENT_LOOP_H_
