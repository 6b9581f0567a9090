#include "src/baseline/remap_transfer.h"

namespace fbufs {

Status RemapTransfer::Alloc(Domain& originator, std::uint64_t bytes, BufferRef* ref) {
  LayerScope layer(machine_->attribution(), CostDomain::kBaseline);
  ActorScope actor(machine_->attribution(), originator.id());
  const std::uint64_t pages = PagesFor(bytes);
  auto va = shared_va_.Allocate(pages);
  if (!va.has_value()) {
    return Status::kNoVirtualSpace;
  }
  machine_->clock().Advance(machine_->costs().va_alloc_ns);
  machine_->stats().va_allocs++;
  // Pages enter cleared per the configured fraction (kRealistic models the
  // security clearing of memory recycled between protection domains).
  const bool clear = mode_ == Mode::kRealistic && clear_percent_ > 0;
  const Status st = machine_->vm().MapAnonymous(originator, *va, pages, Prot::kReadWrite,
                                                /*eager=*/true, /*clear=*/false,
                                                ChargeMode::kGeneral);
  if (!Ok(st)) {
    return st;
  }
  if (clear) {
    // Pro-rate the clear cost by the fraction of each page actually cleared.
    const SimTime per_page = machine_->costs().page_clear_ns * clear_percent_ / 100;
    machine_->clock().Advance(per_page * pages);
    machine_->stats().pages_cleared += pages;
  }
  ref->sender_addr = *va;
  ref->receiver_addr = *va;  // same address everywhere (shared range)
  ref->bytes = bytes;
  ref->pages = pages;
  return Status::kOk;
}

Status RemapTransfer::Send(BufferRef& ref, Domain& from, Domain& to) {
  LayerScope layer(machine_->attribution(), CostDomain::kBaseline);
  ActorScope actor(machine_->attribution(), from.id());
  return machine_->vm().Remap(from, ref.sender_addr, to, ref.sender_addr, ref.pages);
}

Status RemapTransfer::SendBack(BufferRef& ref, Domain& from, Domain& to) {
  LayerScope layer(machine_->attribution(), CostDomain::kBaseline);
  ActorScope actor(machine_->attribution(), from.id());
  return machine_->vm().Remap(from, ref.sender_addr, to, ref.sender_addr, ref.pages);
}

Status RemapTransfer::ReceiverFree(BufferRef& ref, Domain& receiver) {
  LayerScope layer(machine_->attribution(), CostDomain::kBaseline);
  ActorScope actor(machine_->attribution(), receiver.id());
  if (mode_ == Mode::kPingPong) {
    return Status::kOk;  // the buffer bounces back instead
  }
  machine_->clock().Advance(machine_->costs().va_free_ns);
  const Status st =
      machine_->vm().Unmap(receiver, ref.receiver_addr, ref.pages, ChargeMode::kStreamlined);
  if (!Ok(st)) {
    return st;
  }
  shared_va_.Free(ref.receiver_addr, ref.pages);
  return Status::kOk;
}

Status RemapTransfer::SenderFree(BufferRef& ref, Domain& sender) {
  LayerScope layer(machine_->attribution(), CostDomain::kBaseline);
  ActorScope actor(machine_->attribution(), sender.id());
  // Move semantics: after Send the sender no longer owns the pages, and the
  // receiver's ReceiverFree returns the shared range. Only a buffer that was
  // never sent (or bounced back in ping-pong) is released here.
  if (sender.FindEntry(PageOf(ref.sender_addr)) == nullptr) {
    return Status::kOk;
  }
  machine_->clock().Advance(machine_->costs().va_free_ns);
  const Status st =
      machine_->vm().Unmap(sender, ref.sender_addr, ref.pages, ChargeMode::kStreamlined);
  if (!Ok(st)) {
    return st;
  }
  shared_va_.Free(ref.sender_addr, ref.pages);
  return Status::kOk;
}

}  // namespace fbufs
