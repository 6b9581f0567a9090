// Shared retry/backoff policy for senders hitting memory pressure.
//
// The fbuf pool is a shared resource: when an allocation (or a send window)
// comes back exhausted, the productive reaction is to park the flow on the
// event loop and try again later — not to fail it, and not to spin. Every
// parked sender in the tree (the SWP, incast and serve producers, the
// pressure bench) uses this one policy so "capped exponential backoff"
// means the same thing everywhere, and the same stall watchdog bounds how
// long a flow may go without progress before it is failed for good.
//
// Everything here is deterministic (no jitter): backoff delays are a pure
// function of the attempt count, which keeps same-seed runs byte-identical.
#ifndef SRC_PRESSURE_BACKOFF_H_
#define SRC_PRESSURE_BACKOFF_H_

#include <cstdint>
#include <optional>

#include "src/sim/clock.h"
#include "src/vm/types.h"

namespace fbufs {

// Statuses that mean "the resource may free up — parking is productive", as
// opposed to hard errors (dead domain, protection violation) where retrying
// can never succeed. Congestion and spent credits are backpressure too: the
// window reopens on the next ack and credits on the next grant, so a parked
// producer will make progress without any operator intervention.
inline bool IsBackpressure(Status st) {
  return st == Status::kExhausted || st == Status::kNoMemory ||
         st == Status::kQuotaExceeded || st == Status::kNoVirtualSpace ||
         st == Status::kCongestion || st == Status::kCreditExhausted;
}

// Capped exponential backoff: attempt 0 waits |initial|, each further
// attempt multiplies by |multiplier| until |cap|.
struct BackoffPolicy {
  SimTime initial = kMillisecond / 2;
  std::uint32_t multiplier = 2;
  SimTime cap = 8 * kMillisecond;

  SimTime Delay(std::uint32_t attempt) const {
    SimTime d = initial;
    for (std::uint32_t i = 0; i < attempt; ++i) {
      if (d >= cap || d > cap / multiplier) {
        return cap;
      }
      d *= multiplier;
    }
    return d < cap ? d : cap;
  }
};

// Per-flow backoff state plus the stall watchdog: a flow that makes no
// progress for |stall_horizon| is declared stalled and must be failed (the
// §3.3 cleanup invariants are then audited over whatever it left behind).
struct FlowBackoff {
  BackoffPolicy policy;
  SimTime stall_horizon = 250 * kMillisecond;

  std::uint32_t attempt = 0;
  SimTime last_progress = 0;
  bool stalled = false;

  // Call whenever the flow moves forward; resets the exponential ramp and
  // the watchdog clock.
  void Progress(SimTime now) {
    attempt = 0;
    last_progress = now;
  }

  // Call on a backpressure failure at |now|. Returns the delay to park for,
  // or nullopt once the no-progress horizon is exhausted (the flow is then
  // marked stalled and must not be retried).
  std::optional<SimTime> Park(SimTime now) {
    if (now >= last_progress && now - last_progress >= stall_horizon) {
      stalled = true;
      return std::nullopt;
    }
    return policy.Delay(attempt++);
  }
};

}  // namespace fbufs

#endif  // SRC_PRESSURE_BACKOFF_H_
