#include "src/fault/swp_world.h"

#include <algorithm>

namespace fbufs {

namespace {
MachineConfig MachineFor(const SwpWorldConfig& cfg) {
  MachineConfig m;
  m.phys_frames = cfg.phys_frames;
  return m;
}
}  // namespace

SwpWorld::SwpWorld(const SwpWorldConfig& cfg)
    : machine(MachineFor(cfg)),
      fsys(&machine),
      rpc(&machine),
      stack(&machine, &fsys, &rpc),
      sender_domain(machine.CreateDomain("sender")),
      receiver_domain(machine.CreateDomain("receiver")),
      tx_hdr(fsys.paths().Register({sender_domain->id(), receiver_domain->id()})),
      rx_hdr(fsys.paths().Register({receiver_domain->id(), sender_domain->id()})),
      data(fsys.paths().Register({sender_domain->id(), receiver_domain->id()})),
      sender(sender_domain, &stack, tx_hdr, cfg.window),
      receiver(receiver_domain, &stack, rx_hdr, cfg.window),
      fwd(sender_domain, &stack, cfg.fwd_seed, cfg.fwd_loss),
      rev(receiver_domain, &stack, cfg.rev_seed, cfg.rev_loss),
      sink(receiver_domain, &stack),
      rto_(cfg.rto) {
  fsys.AttachRpc(&rpc);
  stack.set_domain_count(2);
  sender.set_below(&fwd);
  fwd.set_peer_above(&receiver);
  receiver.set_below(&rev);
  rev.set_peer_above(&sender);
  receiver.set_above(&sink);
  sender.AttachTimer(&loop, cfg.rto);
  fsys.AttachEventLoop(&loop);
  // The shared backoff, parameterized by the protocol's own timescale: the
  // first retry lands one RTO out (matching the retransmission timer), and
  // the ramp caps early enough that the producer probes a recovering pool
  // promptly.
  backoff_.policy.initial = cfg.rto;
  backoff_.policy.cap = 8 * cfg.rto;
  backoff_.stall_horizon = cfg.stall_horizon;
}

void SwpWorld::StartProducer(int messages, std::uint64_t bytes) {
  target_ = messages;
  bytes_ = bytes;
  produce_ = [this] {
    while (accepted_ < target_) {
      Fbuf* fb = nullptr;
      Status st = fsys.Allocate(*sender_domain, data, bytes_, true, &fb);
      if (Ok(st)) {
        st = sender_domain->TouchRange(fb->base, bytes_, Access::kWrite);
        if (Ok(st)) {
          st = sender.Push(Message::Whole(fb));
        }
        // The producer's reference always drops, push or no push.
        const Status free_st = fsys.Free(fb, *sender_domain);
        if (Ok(st) && !Ok(free_st)) {
          st = free_st;
        }
      }
      if (Ok(st)) {
        accepted_++;
        backoff_.Progress(loop.Now());
        continue;
      }
      if (!IsBackpressure(st)) {
        // Hard error (dead domain, protection): retrying cannot help.
        producer_failed_ = true;
        return;
      }
      const auto delay = backoff_.Park(loop.Now());
      if (!delay.has_value()) {
        return;  // watchdog: no progress inside the horizon — give up
      }
      parks_++;
      loop.Schedule(std::max(loop.Now(), machine.clock().Now()) + *delay,
                    "swp-produce", produce_);
      return;
    }
  };
  loop.Schedule(loop.Now(), "swp-produce", produce_);
}

}  // namespace fbufs
