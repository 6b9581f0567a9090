#include "src/sim/event_loop.h"

#include <algorithm>
#include <stdexcept>

namespace fbufs {

namespace {
// Single-threaded simulator: a plain counter is enough.
std::uint64_t g_total_dispatched = 0;
}  // namespace

std::uint64_t EventLoop::TotalDispatched() { return g_total_dispatched; }

EventLoop::EventId EventLoop::Schedule(SimTime t, EventLabel label, Handler fn) {
  assert(t >= now_ && "EventLoop::Schedule: event behind the dispatch floor");
  // An EventId has room for 2^40 sequence numbers and 2^24 slots; the
  // schedule's size comes from the caller's workload, so check in every build.
  if (next_seq_ >= (1ull << (64 - kSlotBits))) {
    throw std::length_error("EventLoop: event sequence space exhausted");
  }
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    if (slots_.size() > kSlotMask) {
      throw std::length_error("EventLoop: more than 2^24 pending events");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.label = std::move(label);
  s.fn = std::move(fn);
  s.seq = seq;
  queue_.push_back(Key{t, seq, slot});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  return (seq << kSlotBits) | slot;
}

bool EventLoop::Cancel(EventId id) {
  const std::uint64_t slot = id & kSlotMask;
  if (slot >= slots_.size()) {
    return false;  // never scheduled
  }
  Slot& s = slots_[slot];
  if (s.seq != (id >> kSlotBits) || s.cancelled) {
    return false;  // already dispatched (the slot may be reused), or cancelled
  }
  s.cancelled = true;
  cancelled_pending_++;
  cancelled_total_++;
  return true;
}

void EventLoop::ReleaseSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const Handler dead = std::move(s.fn);
  s.seq = kFreeSeq;
  s.cancelled = false;
  free_slots_.push_back(slot);
}  // a cancelled handler dies here, with the table already consistent

void EventLoop::PurgeCancelledTop() {
  while (!queue_.empty() && slots_[queue_.front().slot].cancelled) {
    const std::uint32_t slot = queue_.front().slot;
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
    ReleaseSlot(slot);
    cancelled_pending_--;
  }
}

bool EventLoop::RunOne() {
  PurgeCancelledTop();
  if (queue_.empty()) {
    return false;
  }
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  const Key k = queue_.back();
  queue_.pop_back();
  now_ = k.time;
  HashDispatch(k, slots_[k.slot].label);
  dispatched_++;
  g_total_dispatched++;
  // The handler moves out before it runs: it may schedule into (and so
  // reuse or reallocate) the slot table.
  Handler fn = std::move(slots_[k.slot].fn);
  ReleaseSlot(k.slot);
  fn();
  return true;
}

std::uint64_t EventLoop::Run() {
  std::uint64_t n = 0;
  while (RunOne()) {
    n++;
  }
  return n;
}

std::uint64_t EventLoop::RunUntil(SimTime t) {
  std::uint64_t n = 0;
  for (;;) {
    PurgeCancelledTop();
    if (queue_.empty() || queue_.front().time > t || !RunOne()) {
      break;
    }
    n++;
  }
  return n;
}

void EventLoop::HashDispatch(const Key& k, const EventLabel& label) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  auto mix = [this](const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      trace_hash_ ^= p[i];
      trace_hash_ *= kPrime;
    }
  };
  mix(&k.time, sizeof(k.time));
  mix(&k.seq, sizeof(k.seq));
  // The label's pieces in order: the same bytes as its text.
  label.ForEachPiece(mix);
  if (record_trace_) {
    trace_.push_back(TraceEntry{k.time, k.seq, label.Text()});
  }
}

}  // namespace fbufs
