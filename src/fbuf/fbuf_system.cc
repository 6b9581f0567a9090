#include "src/fbuf/fbuf_system.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <sstream>

#include "src/obs/lifecycle.h"

namespace fbufs {

FbufSystem::FbufSystem(Machine* machine, const FbufConfig& config)
    : machine_(machine), config_(config) {
  region_va_.Extend(kFbufRegionBase, kFbufRegionPages);
  machine_->vm().set_fbuf_fault_hook(
      [this](Domain& d, Vpn vpn, Access access) { return RegionFault(d, vpn, access); });
  machine_->AddTerminationHook([this](Domain& d) { OnDomainTerminated(d); });
}

void FbufSystem::AttachRpc(Rpc* rpc) {
  rpc_ = rpc;
  rpc->AddPiggybackHook(
      [this](Domain& from, Domain& to) { DeliverNotices(from.id(), to.id()); });
}

FbufSystem::Allocator& FbufSystem::GetAllocator(DomainId domain, PathId path, bool cached) {
  const std::uint64_t key = AllocatorKey(domain, path);
  auto it = allocators_.find(key);
  if (it == allocators_.end()) {
    Allocator a;
    a.domain = domain;
    a.path = path;
    a.cached = cached;
    it = allocators_.emplace(key, std::move(a)).first;
  }
  return it->second;
}

std::map<std::uint64_t, std::vector<FbufId>>& FbufSystem::CpuFreeLists(Allocator& a) {
  if (a.cpu_free_lists.size() < machine_->num_cpus()) {
    a.cpu_free_lists.resize(machine_->num_cpus());
  }
  return a.cpu_free_lists[machine_->active_cpu()];
}

std::vector<std::map<std::uint64_t, std::vector<FbufId>>*> FbufSystem::AllFreeListMaps(
    Allocator& a) {
  std::vector<std::map<std::uint64_t, std::vector<FbufId>>*> maps;
  maps.reserve(1 + a.cpu_free_lists.size());
  maps.push_back(&a.free_lists);
  for (auto& m : a.cpu_free_lists) {
    maps.push_back(&m);
  }
  return maps;
}

std::vector<const std::map<std::uint64_t, std::vector<FbufId>>*> FbufSystem::AllFreeListMaps(
    const Allocator& a) {
  std::vector<const std::map<std::uint64_t, std::vector<FbufId>>*> maps;
  maps.reserve(1 + a.cpu_free_lists.size());
  maps.push_back(&a.free_lists);
  for (const auto& m : a.cpu_free_lists) {
    maps.push_back(&m);
  }
  return maps;
}

Status FbufSystem::GrowAllocator(Allocator& a, std::uint64_t pages) {
  // Round the request up to whole chunks; grab them contiguously so a single
  // fbuf can span them.
  const std::uint64_t chunks_needed =
      (pages + config_.chunk_pages - 1) / config_.chunk_pages;
  if (a.chunks + chunks_needed > config_.chunk_quota) {
    return Status::kQuotaExceeded;
  }
  const std::uint64_t grant_pages = chunks_needed * config_.chunk_pages;
  auto base = region_va_.Allocate(grant_pages);
  if (!base.has_value()) {
    return Status::kNoVirtualSpace;
  }
  // Requesting chunks from the kernel is the (rare) kernel involvement of
  // the two-level scheme.
  machine_->clock().Advance(machine_->costs().va_alloc_ns);
  machine_->stats().va_allocs++;
  a.chunks += static_cast<std::uint32_t>(chunks_needed);
  a.chunk_ranges.emplace_back(*base, grant_pages);
  a.va.Extend(*base, grant_pages);
  return Status::kOk;
}

Status FbufSystem::Allocate(Domain& originator, PathId path, std::uint64_t bytes,
                            bool want_volatile, Fbuf** out, std::optional<bool> clear) {
  const bool clear_pages = clear.value_or(config_.clear_new_pages);
  *out = nullptr;
  if (bytes == 0) {
    return Status::kInvalidArgument;
  }
  // A terminated domain cannot originate: its paths are dead and its
  // allocators defunct, and the default-allocator fallback must not quietly
  // resurrect allocation into a tombstone (the frames could never be
  // reclaimed — DestroyDomain already ran its entry teardown).
  if (!originator.alive()) {
    return Status::kInvalidArgument;
  }
  LayerScope layer(machine_->attribution(), CostDomain::kFbuf);
  ActorScope actor(machine_->attribution(), originator.id());
  PathScope pscope(machine_->attribution(), path);
  TraceSpan span(machine_->trace(), TraceCategory::kFbuf, "fbuf-alloc", originator.id(), bytes);
  const SimTime alloc_start = machine_->clock().Now();
  machine_->stats().fbuf_allocs++;
  // The watermark check: crossing the pool's high-pressure mark schedules an
  // evented reclamation sweep, so free lists and clean cache blocks drain
  // before allocations start failing.
  if (pressure_ != nullptr) {
    pressure_->OnAllocate();
  }
  Status st = AllocateInternal(originator, path, bytes, want_volatile, out, clear_pages);
  if ((st == Status::kNoMemory || st == Status::kNoVirtualSpace) && pressure_ != nullptr &&
      pressure_->OnAllocationFailure(PagesFor(bytes)) > 0) {
    // The emergency sweep found something to give back: one retry.
    st = AllocateInternal(originator, path, bytes, want_volatile, out, clear_pages);
  }
  if (Ok(st) && machine_->metrics() != nullptr) {
    machine_->metrics()->GetHistogram("fbuf.alloc_latency_ns")
        ->Observe(machine_->clock().Now() - alloc_start);
  }
  return st;
}

Status FbufSystem::AllocateInternal(Domain& originator, PathId path, std::uint64_t bytes,
                                    bool want_volatile, Fbuf** out, bool clear_pages) {
  const std::uint64_t pages = PagesFor(bytes);

  // Resolve the data path: unknown/dead paths, or paths this domain does not
  // originate, fall back to the default (uncached) allocator.
  const IoPath* io_path = paths_.Get(path);
  const bool cached = io_path != nullptr && io_path->originator() == originator.id();
  Allocator& a = GetAllocator(originator.id(), cached ? path : kNoPath, cached);
  if (a.defunct) {
    return Status::kInvalidArgument;
  }

  // Fast path: reuse a cached fbuf of the right size. LIFO order keeps the
  // warmest (most likely memory-resident) fbuf on top; the FIFO ablation
  // takes from the cold end instead. On a multicore machine the allocating
  // lane's own cache is tried first (warm for this CPU), falling back to the
  // shared lists before carving.
  if (cached) {
    std::map<std::uint64_t, std::vector<FbufId>>* lists = &a.free_lists;
    if (machine_->num_cpus() > 1) {
      auto& mine = CpuFreeLists(a);
      auto cit = mine.find(pages);
      if (cit != mine.end() && !cit->second.empty()) {
        lists = &mine;
      }
    }
    auto it = lists->find(pages);
    if (it != lists->end() && !it->second.empty()) {
      FbufId reuse_id;
      if (config_.lifo_free_lists) {
        reuse_id = it->second.back();
        it->second.pop_back();
      } else {
        reuse_id = it->second.front();
        it->second.erase(it->second.begin());
      }
      Fbuf* fb = fbufs_[reuse_id].get();
      machine_->stats().fbuf_cache_hits++;
      machine_->trace().Emit(TraceCategory::kFbuf, "alloc-cache-hit", fb->id, fb->base);
      fb->free_listed = false;
      fb->is_volatile = want_volatile;
      fb->bytes = bytes;
      fb->holders.push_back(originator.id());
      const Status st = EnsureMaterialized(fb);
      if (!Ok(st)) {
        // Roll the reuse back: the fbuf returns to its free-list slot (any
        // pages materialized before the failure keep their frames — a
        // free-listed fbuf may be partially resident). Without this the
        // fbuf would be neither free-listed nor handed out: a leak.
        fb->holders.pop_back();
        fb->free_listed = true;
        if (config_.lifo_free_lists) {
          it->second.push_back(reuse_id);
        } else {
          it->second.insert(it->second.begin(), reuse_id);
        }
        return st;
      }
      a.last_alloc = machine_->clock().Now();
      if (machine_->lifecycle() != nullptr) {
        machine_->lifecycle()->OnAlloc(fb->id, originator.id(), bytes,
                                       /*cache_hit=*/true);
      }
      *out = fb;
      return Status::kOk;
    }
  }

  // Carving grows the domain's footprint: charge the quota (shrinking the
  // domain's own free lists first if that is what stands in the way).
  const Status quota_st = ChargeQuota(originator, pages);
  if (!Ok(quota_st)) {
    return quota_st;
  }

  // Carve a new fbuf out of the allocator's chunks.
  auto va = a.va.Allocate(pages);
  if (!va.has_value()) {
    const Status st = GrowAllocator(a, pages);
    if (!Ok(st)) {
      return st;
    }
    va = a.va.Allocate(pages);
    if (!va.has_value()) {
      return Status::kNoVirtualSpace;
    }
  }

  auto fb = std::make_unique<Fbuf>();
  fb->id = static_cast<FbufId>(fbufs_.size());
  fb->base = *va;
  fb->pages = pages;
  fb->bytes = bytes;
  fb->originator = originator.id();
  fb->path = cached ? path : kNoPath;
  fb->cached = cached;
  fb->is_volatile = want_volatile;
  fb->holders.push_back(originator.id());
  a.outstanding++;

  // Map read/write into the originator, eagerly materialized: the paper's
  // streamlined region path (no general-purpose allocation bookkeeping).
  const Status st = machine_->vm().MapAnonymous(originator, fb->base, pages, Prot::kReadWrite,
                                                /*eager=*/true, clear_pages,
                                                ChargeMode::kStreamlined);
  if (!Ok(st)) {
    a.va.Free(fb->base, pages);
    a.outstanding--;
    return st;
  }
  machine_->trace().Emit(TraceCategory::kFbuf, "alloc-carve", fb->id, fb->base);
  a.last_alloc = machine_->clock().Now();
  owned_pages_[originator.id()] += pages;
  if (machine_->lifecycle() != nullptr) {
    machine_->lifecycle()->OnAlloc(fb->id, originator.id(), bytes,
                                   /*cache_hit=*/false);
  }
  *out = fb.get();
  fbufs_.push_back(std::move(fb));
  return Status::kOk;
}

void FbufSystem::SetDomainQuota(DomainId d, std::uint64_t pages) {
  if (pages == 0) {
    domain_quotas_.erase(d);
  } else {
    domain_quotas_[d] = pages;
  }
}

std::uint64_t FbufSystem::DomainQuotaFor(DomainId d) const {
  const auto it = domain_quotas_.find(d);
  return it != domain_quotas_.end() ? it->second : 0;
}

std::uint64_t FbufSystem::DomainPagesInUse(DomainId d) const {
  const auto it = owned_pages_.find(d);
  return it != owned_pages_.end() ? it->second : 0;
}

Status FbufSystem::ChargeQuota(Domain& d, std::uint64_t pages) {
  const std::uint64_t quota = DomainQuotaFor(d.id());
  if (quota == 0) {
    return Status::kOk;
  }
  std::uint64_t in_use = DomainPagesInUse(d.id());
  if (in_use + pages <= quota) {
    return Status::kOk;
  }
  // The domain's own cached-but-idle fbufs count against it; give those back
  // before refusing the allocation.
  ShrinkDomainFreeLists(d.id(), in_use + pages - quota);
  in_use = DomainPagesInUse(d.id());
  return in_use + pages <= quota ? Status::kOk : Status::kQuotaExceeded;
}

std::uint64_t FbufSystem::ShrinkDomainFreeLists(DomainId d, std::uint64_t pages_needed) {
  std::uint64_t released = 0;
  for (auto& [key, a] : allocators_) {
    if (a.domain != d) {
      continue;
    }
    for (auto* lists : AllFreeListMaps(a)) {
      for (auto& [pages, list] : *lists) {
        // Coldest first: the front of each list is the least recently freed.
        while (!list.empty() && released < pages_needed) {
          const FbufId id = list.front();
          list.erase(list.begin());
          Fbuf* fb = fbufs_[id].get();
          if (fb->dead || !fb->free_listed) {
            continue;
          }
          fb->free_listed = false;
          released += fb->pages;
          DestroyFbuf(fb);
        }
        if (released >= pages_needed) {
          break;
        }
      }
      if (released >= pages_needed) {
        break;
      }
    }
    if (released >= pages_needed) {
      break;
    }
  }
  return released;
}

std::uint64_t FbufSystem::ShrinkIdlePaths(SimTime idle_ns) {
  const SimTime now = machine_->clock().Now();
  std::uint64_t released = 0;
  for (auto& [key, a] : allocators_) {
    if (!a.cached || a.defunct || now - a.last_alloc < idle_ns) {
      continue;
    }
    for (auto* lists : AllFreeListMaps(a)) {
      for (auto& [pages, list] : *lists) {
        while (!list.empty()) {
          const FbufId id = list.front();
          list.erase(list.begin());
          Fbuf* fb = fbufs_[id].get();
          if (fb->dead || !fb->free_listed) {
            continue;
          }
          fb->free_listed = false;
          released += fb->pages;
          DestroyFbuf(fb);
        }
      }
    }
    // Fully drained: give the chunks back to the region. The allocator stays
    // live (unlike a defunct one) — the path restarts cold, growing fresh
    // chunks on its next allocation.
    if (a.outstanding == 0 && !a.chunk_ranges.empty()) {
      for (const auto& [base, pages] : a.chunk_ranges) {
        region_va_.Free(base, pages);
      }
      a.chunk_ranges.clear();
      a.chunks = 0;
      a.va = AddressSpace(AddressSpace::Empty{});
    }
  }
  return released;
}

Status FbufSystem::EnsureMaterialized(Fbuf* fb) {
  Domain* orig = machine_->domain(fb->originator);
  assert(orig != nullptr);
  for (std::uint64_t i = 0; i < fb->pages; ++i) {
    const Vpn vpn = PageOf(fb->base) + i;
    VmEntry* oe = orig->FindEntry(vpn);
    assert(oe != nullptr);
    if (oe->frame != kInvalidFrame) {
      continue;
    }
    // The frame was reclaimed while the fbuf sat on its free list. A fresh
    // frame may carry another domain's old data, so it is always cleared.
    auto frame = machine_->pmem().Allocate(/*clear=*/true);
    if (!frame.has_value()) {
      return Status::kNoMemory;
    }
    oe->frame = *frame;
    orig->pmap().Set(vpn, *frame, oe->prot);
    oe->pmap_valid = true;
    machine_->clock().Advance(machine_->costs().pt_update_ns);
    // Receivers keep their (retained) mappings; their low-level entries are
    // refreshed lazily on next touch.
    for (DomainId rid : fb->mapped) {
      Domain* r = machine_->domain(rid);
      if (r == nullptr || !r->alive()) {
        continue;
      }
      VmEntry* re = r->FindEntry(vpn);
      if (re != nullptr) {
        machine_->pmem().Ref(*frame);
        re->frame = *frame;
        re->pmap_valid = false;
        r->pmap().Remove(vpn);
        r->tlb().InvalidatePage(vpn);
      }
    }
  }
  return Status::kOk;
}

Status FbufSystem::Transfer(Fbuf* fb, Domain& from, Domain& to, bool lazy) {
  if (fb == nullptr || fb->dead) {
    return Status::kInvalidArgument;
  }
  // Transfers into a terminated domain fail cleanly: the kernel would only
  // have to relinquish the reference again, and mapping work against torn-
  // down page tables is a use-after-free waiting to happen.
  if (!to.alive()) {
    return Status::kInvalidArgument;
  }
  if (!fb->IsHeldBy(from.id())) {
    return Status::kNotOwner;
  }
  LayerScope layer(machine_->attribution(), CostDomain::kFbuf);
  ActorScope actor(machine_->attribution(), from.id());
  PathScope pscope(machine_->attribution(), fb->path);
  machine_->stats().fbuf_transfers++;
  TraceSpan span(machine_->trace(), TraceCategory::kFbuf, "fbuf-transfer", fb->id,
                 (static_cast<std::uint64_t>(from.id()) << 32) | to.id());

  // Eager immutability for non-volatile fbufs leaving an untrusted
  // originator.
  Domain* orig = machine_->domain(fb->originator);
  if (!fb->is_volatile && !fb->secured && orig != nullptr && !orig->trusted()) {
    const Status st = SecureInternal(fb);
    if (!Ok(st)) {
      return st;
    }
  }

  fb->holders.push_back(to.id());
  if (machine_->lifecycle() != nullptr) {
    machine_->lifecycle()->Hop(
        fb->id, HopKind::kTransfer, to.id(), "ipc",
        (static_cast<std::uint64_t>(from.id()) << 32) | to.id());
  }
  if (lazy) {
    // Reference only; pages map on first touch via the region fault path.
    return Status::kOk;
  }
  if (to.id() != fb->originator && !fb->IsMappedIn(to.id())) {
    // Same virtual addresses in every domain: only the receiver's page-table
    // entries are created; no address allocation, no data movement.
    Domain* od = machine_->domain(fb->originator);
    for (std::uint64_t i = 0; i < fb->pages; ++i) {
      const Vpn vpn = PageOf(fb->base) + i;
      const VmEntry* oe = od != nullptr ? od->FindEntry(vpn) : nullptr;
      if (oe == nullptr || oe->frame == kInvalidFrame) {
        continue;  // untouched page; receiver read would see absent data
      }
      const Status st = machine_->vm().MapFrame(to, vpn, oe->frame, Prot::kRead,
                                                ChargeMode::kStreamlined);
      if (!Ok(st)) {
        return st;
      }
    }
    fb->mapped.push_back(to.id());
    if (machine_->lifecycle() != nullptr) {
      machine_->lifecycle()->Hop(fb->id, HopKind::kMaterialize, to.id(), "fbuf",
                                 fb->pages);
    }
  }
  return Status::kOk;
}

Status FbufSystem::SecureInternal(Fbuf* fb) {
  machine_->trace().Emit(TraceCategory::kFbuf, "secure", fb->id, fb->base);
  Domain* orig = machine_->domain(fb->originator);
  if (orig == nullptr || !orig->alive()) {
    fb->secured = true;
    return Status::kOk;
  }
  const Status st = machine_->vm().Protect(*orig, fb->base, fb->pages, Prot::kRead,
                                           /*trap_inclusive=*/true);
  if (!Ok(st)) {
    return st;
  }
  fb->secured = true;
  return Status::kOk;
}

Status FbufSystem::Secure(Fbuf* fb, Domain& requester) {
  if (fb == nullptr || fb->dead) {
    return Status::kInvalidArgument;
  }
  if (!fb->IsHeldBy(requester.id())) {
    return Status::kNotOwner;
  }
  Domain* orig = machine_->domain(fb->originator);
  if (fb->secured || (orig != nullptr && orig->trusted())) {
    return Status::kOk;  // no-op: already immutable or trusted originator
  }
  LayerScope layer(machine_->attribution(), CostDomain::kFbuf);
  ActorScope actor(machine_->attribution(), requester.id());
  PathScope pscope(machine_->attribution(), fb->path);
  return SecureInternal(fb);
}

Status FbufSystem::AddRef(Fbuf* fb, Domain& d) {
  if (fb == nullptr || fb->dead || fb->free_listed) {
    return Status::kInvalidArgument;
  }
  if (!fb->IsHeldBy(d.id())) {
    return Status::kNotOwner;
  }
  fb->holders.push_back(d.id());
  return Status::kOk;
}

void FbufSystem::RestoreOriginatorWrite(Fbuf* fb) {
  if (!fb->secured) {
    return;
  }
  Domain* orig = machine_->domain(fb->originator);
  if (orig != nullptr && orig->alive()) {
    machine_->vm().Protect(*orig, fb->base, fb->pages, Prot::kReadWrite,
                           /*trap_inclusive=*/true);
  }
  fb->secured = false;
}

Status FbufSystem::Free(Fbuf* fb, Domain& d) {
  if (fb == nullptr || fb->dead || fb->free_listed) {
    return Status::kInvalidArgument;
  }
  LayerScope layer(machine_->attribution(), CostDomain::kFbuf);
  ActorScope actor(machine_->attribution(), d.id());
  PathScope pscope(machine_->attribution(), fb->path);
  auto it = std::find(fb->holders.begin(), fb->holders.end(), d.id());
  if (it == fb->holders.end()) {
    return Status::kNotOwner;
  }
  fb->holders.erase(it);

  // An uncached fbuf's receiver unmaps its pages as it releases them (the
  // mapping has no future value); cached mappings are retained for reuse.
  if (!fb->cached && d.id() != fb->originator && !fb->IsHeldBy(d.id())) {
    auto mit = std::find(fb->mapped.begin(), fb->mapped.end(), d.id());
    if (mit != fb->mapped.end()) {
      machine_->vm().Unmap(d, fb->base, fb->pages, ChargeMode::kStreamlined);
      fb->mapped.erase(mit);
    }
  }

  if (!fb->holders.empty()) {
    return Status::kOk;
  }

  Domain* orig = machine_->domain(fb->originator);
  if (d.id() == fb->originator || orig == nullptr || !orig->alive()) {
    // Local release, or the owner is gone (the kernel reclaims on its
    // behalf): no cross-domain notification needed.
    ReturnToOwner(fb);
    return Status::kOk;
  }

  // Final release by a receiver: the notice travels by ring when a transport
  // accepts it, otherwise it queues for piggybacking on RPC traffic.
  if (notice_transport_ != nullptr &&
      notice_transport_->SubmitDeallocNotice(d.id(), fb->originator, fb->id)) {
    return Status::kOk;
  }
  auto& pending = pending_notices_[{d.id(), fb->originator}];
  pending.push_back(fb->id);
  if (pending.size() >= config_.notice_threshold) {
    ScheduleFlush(d.id(), fb->originator);
  }
  return Status::kOk;
}

void FbufSystem::ScheduleFlush(DomainId holder, DomainId owner) {
  if (loop_ == nullptr) {
    FlushNotices(holder, owner);
    return;
  }
  if (!flush_scheduled_.insert({holder, owner}).second) {
    return;  // a flush event for this pair is already in flight
  }
  const SimTime key = std::max(loop_->Now(), machine_->clock().Now());
  loop_->Schedule(key, "fbuf-dealloc-flush", [this, holder, owner] {
    flush_scheduled_.erase({holder, owner});
    FlushNotices(holder, owner);
  });
}

void FbufSystem::FlushNotices(DomainId holder, DomainId owner) {
  auto it = pending_notices_.find({holder, owner});
  if (it == pending_notices_.end() || it->second.empty()) {
    return;
  }
  LayerScope layer(machine_->attribution(), CostDomain::kFbuf);
  ActorScope actor(machine_->attribution(), holder);
  // An explicit message: pay a crossing.
  Domain* h = machine_->domain(holder);
  Domain* o = machine_->domain(owner);
  if (rpc_ != nullptr && h != nullptr && o != nullptr && h->alive() && o->alive()) {
    rpc_->ChargeCrossing(*h, *o);
  }
  machine_->stats().dealloc_messages++;
  DeliverNotices(holder, owner);
}

void FbufSystem::DeliverNotices(DomainId from, DomainId to) {
  auto it = pending_notices_.find({from, to});
  if (it == pending_notices_.end() || it->second.empty()) {
    return;
  }
  std::vector<FbufId> ids;
  ids.swap(it->second);
  machine_->trace().Emit(TraceCategory::kIpc, "dealloc-notices", from, ids.size());
  machine_->stats().dealloc_notices += ids.size();
  for (FbufId id : ids) {
    Fbuf* fb = fbufs_[id].get();
    if (!fb->dead) {
      if (machine_->lifecycle() != nullptr) {
        machine_->lifecycle()->Hop(fb->id, HopKind::kNotice, to, "ipc", from);
      }
      ReturnToOwner(fb);
    }
  }
}

void FbufSystem::ApplyRingNotice(DomainId holder, DomainId owner, FbufId id) {
  if (id >= fbufs_.size()) {
    return;
  }
  Fbuf* fb = fbufs_[id].get();
  // The notice may have been overtaken: domain termination already drained
  // it, or the fbuf died with its path. Never return a held or listed fbuf.
  if (fb == nullptr || fb->dead || fb->free_listed || !fb->holders.empty()) {
    return;
  }
  machine_->trace().Emit(TraceCategory::kIpc, "dealloc-notices", holder, 1);
  machine_->stats().dealloc_notices++;
  LayerScope layer(machine_->attribution(), CostDomain::kFbuf);
  ActorScope actor(machine_->attribution(), owner);
  PathScope pscope(machine_->attribution(), fb->path);
  if (machine_->lifecycle() != nullptr) {
    machine_->lifecycle()->Hop(fb->id, HopKind::kNotice, owner, "ring", holder);
  }
  ReturnToOwner(fb);
}

void FbufSystem::ReturnToOwner(Fbuf* fb) {
  assert(fb->holders.empty());
  machine_->trace().Emit(TraceCategory::kFbuf, "return-to-owner", fb->id, fb->base);
  if (machine_->lifecycle() != nullptr) {
    // A drain into a terminated originator is the tail of the §3.3 sweep
    // (survivors held references past the axe): the journey was cut short
    // by the termination, so it ends in an abort hop, not a normal free.
    Domain* owner = machine_->domain(fb->originator);
    if (owner == nullptr || !owner->alive()) {
      machine_->lifecycle()->OnAbort(fb->id, fb->originator, "fbuf");
    } else {
      machine_->lifecycle()->OnFree(fb->id, fb->originator, "fbuf");
    }
  }
  // A freed fbuf's contents are dead: any paged-out copies go with them.
  DropSwap(fb->id);
  RestoreOriginatorWrite(fb);
  Allocator& a = GetAllocator(fb->originator, fb->path, fb->cached);
  const IoPath* path = fb->path == kNoPath ? nullptr : paths_.Get(fb->path);
  const bool path_alive = fb->path == kNoPath || (path != nullptr && path->alive);
  if (fb->cached && !a.defunct && path_alive) {
    fb->free_listed = true;
    if (machine_->num_cpus() > 1) {
      // The freeing lane keeps the fbuf in its own cache (it is warm there).
      CpuFreeLists(a)[fb->pages].push_back(fb->id);
    } else {
      a.free_lists[fb->pages].push_back(fb->id);
    }
    return;
  }
  DestroyFbuf(fb);
}

void FbufSystem::DestroyFbuf(Fbuf* fb) {
  assert(!fb->dead);
  // Remove receiver mappings, then the originator's.
  for (DomainId rid : fb->mapped) {
    Domain* r = machine_->domain(rid);
    if (r != nullptr && r->alive()) {
      machine_->vm().Unmap(*r, fb->base, fb->pages, ChargeMode::kStreamlined);
    }
  }
  fb->mapped.clear();
  Domain* orig = machine_->domain(fb->originator);
  if (orig != nullptr && orig->alive()) {
    machine_->vm().Unmap(*orig, fb->base, fb->pages, ChargeMode::kStreamlined);
  }
  fb->dead = true;
  fb->free_listed = false;
  DropSwap(fb->id);
  auto owned = owned_pages_.find(fb->originator);
  if (owned != owned_pages_.end()) {
    owned->second -= fb->pages <= owned->second ? fb->pages : owned->second;
  }
  Allocator& a = GetAllocator(fb->originator, fb->path, fb->cached);
  if (!a.defunct) {
    a.va.Free(fb->base, fb->pages);
  }
  assert(a.outstanding > 0);
  a.outstanding--;
  ReleaseAllocatorIfDrained(a);
}

void FbufSystem::ReleaseAllocatorIfDrained(Allocator& a) {
  if (!a.defunct || a.outstanding != 0) {
    return;
  }
  for (const auto& [base, pages] : a.chunk_ranges) {
    region_va_.Free(base, pages);
  }
  a.chunk_ranges.clear();
  a.chunks = 0;
}

std::uint64_t FbufSystem::ReclaimFreeMemory(std::uint64_t max_pages) {
  std::uint64_t reclaimed = 0;
  // Coldest first: free lists push_back on release, so the front of each
  // list is the least recently freed fbuf.
  std::vector<Fbuf*> victims;
  for (auto& [key, a] : allocators_) {
    for (auto* lists : AllFreeListMaps(a)) {
      for (auto& [pages, list] : *lists) {
        for (FbufId id : list) {
          victims.push_back(fbufs_[id].get());
        }
      }
    }
  }
  // Uncached fbufs are destroyed at free time and never free-listed, so the
  // victim list covers everything reclaimable.
  for (Fbuf* fb : victims) {
    if (reclaimed >= max_pages) {
      break;
    }
    if (!fb->free_listed || fb->dead) {
      continue;
    }
    Domain* orig = machine_->domain(fb->originator);
    if (orig == nullptr || !orig->alive()) {
      continue;
    }
    for (std::uint64_t i = 0; i < fb->pages; ++i) {
      const Vpn vpn = PageOf(fb->base) + i;
      VmEntry* oe = orig->FindEntry(vpn);
      if (oe == nullptr || oe->frame == kInvalidFrame) {
        continue;
      }
      // Contents are discarded, never paged out (§3.3). Background daemon
      // work: operation counts but no foreground time charged.
      for (DomainId rid : fb->mapped) {
        Domain* r = machine_->domain(rid);
        if (r == nullptr || !r->alive()) {
          continue;
        }
        VmEntry* re = r->FindEntry(vpn);
        if (re != nullptr && re->frame != kInvalidFrame) {
          machine_->pmem().Unref(re->frame);
          re->frame = kInvalidFrame;
          re->pmap_valid = false;
          r->pmap().Remove(vpn);
          r->tlb().InvalidatePage(vpn);
        }
      }
      machine_->pmem().Unref(oe->frame);
      oe->frame = kInvalidFrame;
      oe->pmap_valid = false;
      orig->pmap().Remove(vpn);
      orig->tlb().InvalidatePage(vpn);
      reclaimed++;
    }
  }
  return reclaimed;
}

void FbufSystem::DestroyPath(PathId path) {
  paths_.MarkDead(path);
  for (auto& fbp : fbufs_) {
    Fbuf* fb = fbp.get();
    if (fb->path != path || fb->dead) {
      continue;
    }
    if (fb->free_listed) {
      fb->free_listed = false;
      DestroyFbuf(fb);
    }
    // In-flight fbufs are destroyed when their last reference drains
    // (ReturnToOwner sees the dead path).
  }
  // The path's allocators can never serve again (allocation falls back to
  // the default allocator): mark them defunct so their chunks return to the
  // region once the last fbuf drains.
  for (auto& [key, a] : allocators_) {
    if (a.path == path) {
      a.free_lists.clear();
      a.cpu_free_lists.clear();
      a.defunct = true;
      ReleaseAllocatorIfDrained(a);
    }
  }
}

void FbufSystem::OnDomainTerminated(Domain& d) {
  // 1. The domain's endpoints die with it: destroy every path it is on.
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const IoPath* p = paths_.Get(static_cast<PathId>(i));
    if (p != nullptr && p->Contains(d.id())) {
      DestroyPath(static_cast<PathId>(i));
    }
  }
  // 2. Its allocators are defunct: the kernel retains their chunks until all
  //    external references drain, then reclaims the region space.
  for (auto& [key, a] : allocators_) {
    if (a.domain == d.id()) {
      a.defunct = true;
      // Free-listed fbufs of defunct allocators are destroyed now.
      for (auto* lists : AllFreeListMaps(a)) {
        for (auto& [pages, list] : *lists) {
          for (FbufId id : list) {
            Fbuf* fb = fbufs_[id].get();
            if (!fb->dead && fb->free_listed) {
              fb->free_listed = false;
              DestroyFbuf(fb);
            }
          }
        }
      }
      a.free_lists.clear();
      a.cpu_free_lists.clear();
      ReleaseAllocatorIfDrained(a);
    }
  }
  // 3. References the dying domain holds on other domains' fbufs are
  //    relinquished by the kernel on its behalf (abnormal termination may
  //    have skipped the frees).
  for (auto& fbp : fbufs_) {
    Fbuf* fb = fbp.get();
    if (fb->dead) {
      continue;
    }
    bool released = false;
    for (auto it = fb->holders.begin(); it != fb->holders.end();) {
      if (*it == d.id()) {
        it = fb->holders.erase(it);
        released = true;
      } else {
        ++it;
      }
    }
    auto mit = std::find(fb->mapped.begin(), fb->mapped.end(), d.id());
    if (mit != fb->mapped.end()) {
      fb->mapped.erase(mit);
    }
    if (released && fb->holders.empty()) {
      // The kernel released the dying domain's last hold: the journey ends in
      // an abort hop, not a normal free (Reconcile exempts aborted journeys
      // from pin balance — their releases can never be recorded).
      if (machine_->lifecycle() != nullptr) {
        machine_->lifecycle()->OnAbort(fb->id, d.id(), "fbuf");
      }
      ReturnToOwner(fb);
    }
  }
  // 4. Settle pending notices involving the dead domain: deliver those it
  //    owed to (live) owners, and drain those owed to it — a notice-parked
  //    fbuf has zero holders and is not free-listed, so nothing else will
  //    ever return it; dropping the list would strand its pages forever.
  //    The drain destroys them (the dead owner's allocators are defunct)
  //    and the provenance record shows the abort.
  for (auto& [pair, list] : pending_notices_) {
    if ((pair.first == d.id() || pair.second == d.id()) && !list.empty()) {
      std::vector<FbufId> ids;
      ids.swap(list);
      for (FbufId id : ids) {
        Fbuf* fb = fbufs_[id].get();
        if (!fb->dead && fb->holders.empty()) {
          // MarkDead runs after these hooks, so ReturnToOwner would still
          // see the dying owner as alive — record the abort explicitly.
          if (pair.second == d.id() && machine_->lifecycle() != nullptr) {
            machine_->lifecycle()->OnAbort(fb->id, d.id(), "fbuf");
          }
          ReturnToOwner(fb);
        }
      }
    }
  }
}

std::uint64_t FbufSystem::PageOutFbuf(Fbuf* fb, std::uint64_t max_pages) {
  if (fb == nullptr || fb->dead || fb->free_listed) {
    return 0;  // free-listed memory is discarded, not paged (§3.3)
  }
  Domain* orig = machine_->domain(fb->originator);
  if (orig == nullptr || !orig->alive()) {
    return 0;
  }
  std::uint64_t swapped = 0;
  for (std::uint64_t i = 0; i < fb->pages && swapped < max_pages; ++i) {
    const Vpn vpn = PageOf(fb->base) + i;
    VmEntry* oe = orig->FindEntry(vpn);
    if (oe == nullptr || oe->frame == kInvalidFrame) {
      continue;
    }
    // Write the contents to the backing store (asynchronous write-behind:
    // no foreground time), then break every mapping of the frame.
    const std::uint8_t* data = machine_->pmem().Data(oe->frame);
    swap_[{fb->id, i}].assign(data, data + kPageSize);
    for (DomainId rid : fb->mapped) {
      Domain* r = machine_->domain(rid);
      if (r == nullptr || !r->alive()) {
        continue;
      }
      VmEntry* re = r->FindEntry(vpn);
      if (re != nullptr && re->frame != kInvalidFrame) {
        machine_->pmem().Unref(re->frame);
        re->frame = kInvalidFrame;
        re->pmap_valid = false;
        r->pmap().Remove(vpn);
        r->tlb().InvalidatePage(vpn);
      }
    }
    machine_->pmem().Unref(oe->frame);
    oe->frame = kInvalidFrame;
    oe->pmap_valid = false;
    orig->pmap().Remove(vpn);
    orig->tlb().InvalidatePage(vpn);
    machine_->stats().pages_swapped_out++;
    swapped++;
  }
  if (swapped > 0 && machine_->lifecycle() != nullptr) {
    machine_->lifecycle()->Hop(fb->id, HopKind::kPageOut, fb->originator,
                               "pressure", swapped);
  }
  return swapped;
}

std::uint64_t FbufSystem::PageOutInUse(std::uint64_t max_pages) {
  std::uint64_t swapped = 0;
  for (auto& fbp : fbufs_) {
    if (swapped >= max_pages) {
      break;
    }
    swapped += PageOutFbuf(fbp.get(), max_pages - swapped);
  }
  return swapped;
}

Status FbufSystem::PageIn(Domain& d, Vpn vpn, Fbuf* fb) {
  Machine& m = *machine_;
  m.trace().Emit(TraceCategory::kFbuf, "page-in", fb->id, AddrOf(vpn));
  m.clock().Advance(m.costs().page_fault_ns);
  m.stats().page_faults++;
  if (m.lifecycle() != nullptr) {
    m.lifecycle()->Hop(fb->id, HopKind::kPageIn, d.id(), "pressure",
                       AddrOf(vpn));
  }

  const std::uint64_t index = vpn - PageOf(fb->base);
  Domain* orig = m.domain(fb->originator);
  VmEntry* oe = orig != nullptr && orig->alive() ? orig->FindEntry(vpn) : nullptr;

  // Locate or rebuild the frame.
  FrameId frame = kInvalidFrame;
  if (oe != nullptr && oe->frame != kInvalidFrame) {
    frame = oe->frame;  // another holder faulted it in already
  } else {
    auto it = swap_.find({fb->id, index});
    const bool from_swap = it != swap_.end();
    auto fresh = m.pmem().Allocate(/*clear=*/!from_swap);
    if (!fresh.has_value()) {
      return Status::kNoMemory;
    }
    frame = *fresh;
    if (from_swap) {
      std::memcpy(m.pmem().Data(frame), it->second.data(), kPageSize);
      swap_.erase(it);
      m.clock().Advance(m.costs().page_in_ns);
      m.stats().pages_swapped_in++;
    }
    if (oe != nullptr) {
      oe->frame = frame;
      oe->pmap_valid = false;
    } else {
      // Originator gone: the faulting domain's entry owns the reference.
      VmEntry* de = d.FindEntry(vpn);
      if (de == nullptr) {
        return Status::kNotMapped;
      }
      de->frame = frame;
    }
    // Refresh the other mappers' machine-independent entries lazily.
    for (DomainId rid : fb->mapped) {
      Domain* r = m.domain(rid);
      if (r == nullptr || !r->alive()) {
        continue;
      }
      VmEntry* re = r->FindEntry(vpn);
      if (re != nullptr && re->frame == kInvalidFrame) {
        m.pmem().Ref(frame);
        re->frame = frame;
        re->pmap_valid = false;
      }
    }
  }

  // Install the low-level mapping for the faulting domain.
  VmEntry* de = d.FindEntry(vpn);
  if (de == nullptr) {
    return Status::kNotMapped;
  }
  if (de->frame == kInvalidFrame) {
    // (Covers the case where d is neither originator nor in mapped; the
    //  loops above normally already set this.)
    m.pmem().Ref(frame);
    de->frame = frame;
  }
  d.pmap().Set(vpn, de->frame, de->prot);
  de->pmap_valid = true;
  m.clock().Advance(m.costs().pt_update_ns);
  return Status::kOk;
}

void FbufSystem::DropSwap(FbufId id) {
  auto it = swap_.lower_bound({id, 0});
  while (it != swap_.end() && it->first.first == id) {
    it = swap_.erase(it);
  }
}

Status FbufSystem::RegionFault(Domain& d, Vpn vpn, Access access) {
  LayerScope layer(machine_->attribution(), CostDomain::kFbuf);
  ActorScope actor(machine_->attribution(), d.id());
  VmEntry* e = d.FindEntry(vpn);
  if (e != nullptr) {
    if (!Allows(e->prot, access)) {
      // Mapped but insufficient rights: receiver writing an immutable fbuf,
      // or a secured originator writing — a genuine protection violation.
      machine_->stats().prot_faults++;
      return Status::kProtection;
    }
    // Permitted access to a page without a frame: page it (back) in.
    Fbuf* fb = FindByAddr(AddrOf(vpn));
    if (fb != nullptr && !fb->dead) {
      return PageIn(d, vpn, fb);
    }
    // No live fbuf behind the entry (e.g. a stale absent-data page whose
    // frame was never dropped — should not happen): fail closed.
    machine_->stats().prot_faults++;
    return Status::kNotMapped;
  }
  if (access == Access::kWrite || !config_.absent_leaf_reads) {
    machine_->stats().prot_faults++;
    return access == Access::kWrite ? Status::kProtection : Status::kNotMapped;
  }
  // On-demand mapping: a domain holding a reference (lazy transfer) gets the
  // real frame, read-only, one page at a time.
  Fbuf* fb = FindByAddr(AddrOf(vpn));
  if (fb != nullptr && fb->IsHeldBy(d.id())) {
    Domain* orig = machine_->domain(fb->originator);
    const VmEntry* oe = orig != nullptr ? orig->FindEntry(vpn) : nullptr;
    if (oe != nullptr && oe->frame != kInvalidFrame) {
      machine_->clock().Advance(machine_->costs().page_fault_ns);
      machine_->stats().page_faults++;
      machine_->pmem().Ref(oe->frame);
      VmEntry e;
      e.prot = Prot::kRead;
      e.frame = oe->frame;
      e.zero_fill = false;
      e.pmap_valid = true;
      d.InsertEntry(vpn, e);
      d.pmap().Set(vpn, oe->frame, Prot::kRead);
      machine_->clock().Advance(machine_->costs().pt_update_ns);
      if (!fb->IsMappedIn(d.id())) {
        fb->mapped.push_back(d.id());
      }
      return Status::kOk;
    }
  }
  // §3.2.4: a read of a region page the domain has no permission for maps an
  // all-zero page (the encoding of a leaf node with no data) and completes.
  machine_->trace().Emit(TraceCategory::kFbuf, "absent-leaf", d.id(), AddrOf(vpn));
  machine_->clock().Advance(machine_->costs().page_fault_ns);
  machine_->stats().page_faults++;
  auto frame = machine_->pmem().Allocate(/*clear=*/true);
  if (!frame.has_value()) {
    return Status::kNoMemory;
  }
  VmEntry leaf;
  leaf.prot = Prot::kRead;
  leaf.frame = *frame;
  leaf.zero_fill = false;
  leaf.pmap_valid = true;
  d.InsertEntry(vpn, leaf);
  d.pmap().Set(vpn, *frame, Prot::kRead);
  machine_->clock().Advance(machine_->costs().pt_update_ns);
  return Status::kOk;
}

Fbuf* FbufSystem::Get(FbufId id) {
  return id < fbufs_.size() ? fbufs_[id].get() : nullptr;
}

Fbuf* FbufSystem::FindByAddr(VirtAddr addr) {
  if (!InFbufRegion(addr)) {
    return nullptr;
  }
  for (auto& fbp : fbufs_) {
    Fbuf* fb = fbp.get();
    if (!fb->dead && addr >= fb->base && addr < fb->end()) {
      return fb;
    }
  }
  return nullptr;
}

std::size_t FbufSystem::PendingNotices(DomainId holder, DomainId owner) const {
  auto it = pending_notices_.find({holder, owner});
  return it == pending_notices_.end() ? 0 : it->second.size();
}

std::uint32_t FbufSystem::AllocatorChunks(DomainId domain, PathId path) const {
  auto it = allocators_.find(AllocatorKey(domain, path));
  return it == allocators_.end() ? 0 : it->second.chunks;
}

FbufSystem::AuditCounts FbufSystem::Audit() const {
  AuditCounts c;
  // Interval set of current (non-dead) fbufs, for the dangling-mapping scan.
  std::map<VirtAddr, VirtAddr> extents;  // base -> end
  for (const auto& fbp : fbufs_) {
    const Fbuf* fb = fbp.get();
    if (fb->dead) {
      c.dead_fbufs++;
      continue;
    }
    extents[fb->base] = fb->end();
    Domain* orig = machine_->domain(fb->originator);
    const bool orphaned = orig == nullptr || !orig->alive();
    if (fb->free_listed) {
      c.free_listed_fbufs++;
      if (orphaned) {
        // §3.3: a dead originator's fbufs drain to destruction; caching one
        // for reuse would cache memory nobody can ever hand out again.
        c.free_list_errors++;
      }
    } else {
      c.live_fbufs++;
      if (orphaned) {
        c.orphaned_live_fbufs++;
      }
    }
  }
  for (const auto& [key, a] : allocators_) {
    for (const auto* lists : AllFreeListMaps(a)) {
      for (const auto& [pages, list] : *lists) {
        for (FbufId id : list) {
          c.free_list_entries++;
          const Fbuf* fb = fbufs_[id].get();
          if (fb->dead || !fb->free_listed || fb->pages != pages || a.defunct) {
            c.free_list_errors++;
          }
        }
      }
    }
  }
  for (std::size_t i = 0; i < machine_->domain_count(); ++i) {
    Domain* dom = machine_->domain(static_cast<DomainId>(i));
    if (dom == nullptr || !dom->alive()) {
      continue;
    }
    for (const auto& [vpn, entry] : dom->entries()) {
      const VirtAddr addr = AddrOf(vpn);
      if (!InFbufRegion(addr) || entry.zero_fill) {
        continue;  // private mapping, or an absent-data leaf (§3.2.4)
      }
      auto it = extents.upper_bound(addr);
      if (it == extents.begin() || std::prev(it)->second <= addr) {
        c.dangling_mappings++;
      }
    }
  }
  return c;
}

std::uint64_t FbufSystem::LiveFbufCount() const {
  std::uint64_t n = 0;
  for (const auto& fbp : fbufs_) {
    if (!fbp->dead && !fbp->free_listed) {
      n++;
    }
  }
  return n;
}

std::uint64_t FbufSystem::FreeListedFbufCount() const {
  std::uint64_t n = 0;
  for (const auto& fbp : fbufs_) {
    if (!fbp->dead && fbp->free_listed) {
      n++;
    }
  }
  return n;
}

std::uint64_t FbufSystem::PagesOwnedBy(DomainId d) const {
  std::uint64_t pages = 0;
  for (const auto& fbp : fbufs_) {
    if (!fbp->dead && fbp->originator == d) {
      pages += fbp->pages;
    }
  }
  return pages;
}

std::size_t FbufSystem::FreeListSize(DomainId domain, PathId path) const {
  const auto it = allocators_.find(AllocatorKey(domain, path));
  if (it == allocators_.end()) {
    return 0;
  }
  std::size_t n = 0;
  for (const auto* lists : AllFreeListMaps(it->second)) {
    for (const auto& [pages, list] : *lists) {
      n += list.size();
    }
  }
  return n;
}

std::string FbufSystem::DebugDump() const {
  std::ostringstream os;
  os << "fbuf region: " << RegionFreePages() << "/" << kFbufRegionPages << " pages free, "
     << swap_.size() << " pages in swap\n";
  for (const auto& [key, a] : allocators_) {
    std::size_t free_count = 0;
    for (const auto* lists : AllFreeListMaps(a)) {
      for (const auto& [pages, list] : *lists) {
        free_count += list.size();
      }
    }
    os << "  allocator dom=" << a.domain << " path=";
    if (a.path == kNoPath) {
      os << "default";
    } else {
      os << a.path;
    }
    os << (a.cached ? " cached" : " uncached") << (a.defunct ? " DEFUNCT" : "")
       << " chunks=" << a.chunks << " outstanding=" << a.outstanding
       << " free-listed=" << free_count << "\n";
  }
  std::size_t live = 0, listed = 0, dead = 0;
  for (const auto& fbp : fbufs_) {
    if (fbp->dead) {
      dead++;
    } else if (fbp->free_listed) {
      listed++;
    } else {
      live++;
      os << "  fbuf " << fbp->id << " @0x" << std::hex << fbp->base << std::dec << " "
         << fbp->pages << "p orig=" << fbp->originator
         << (fbp->is_volatile ? " volatile" : " secured-mode")
         << (fbp->secured ? " SECURED" : "") << " holders=" << fbp->holders.size()
         << " mapped-in=" << fbp->mapped.size() << "\n";
    }
  }
  os << "  totals: " << live << " in flight, " << listed << " free-listed, " << dead
     << " destroyed\n";
  return os.str();
}

}  // namespace fbufs
