// Integration tests: whole-system scenarios that cross every module —
// concurrent paths, memory pressure during traffic, domain crashes mid
// stream, integrated transfer through the protocol stack, and the testbed
// exercised with adversarial configurations.
#include <gtest/gtest.h>

#include "src/fbuf/endpoint.h"
#include "src/msg/hbio.h"
#include "src/msg/stored_message.h"
#include "src/topo/topo_config.h"
#include "src/proto/loopback_stack.h"
#include "src/proto/swp.h"
#include "tests/test_util.h"

namespace fbufs {
namespace {

using testing_util::World;
using testing_util::ZeroCostConfig;

TEST(Integration, ManyConcurrentPathsShareTheRegion) {
  // 8 producer/consumer pairs with interleaved traffic: every path gets its
  // own allocator and cache; none interferes with the others.
  World w(ZeroCostConfig());
  struct Pair {
    Domain* prod;
    Domain* cons;
    PathId path;
  };
  std::vector<Pair> pairs;
  for (int i = 0; i < 8; ++i) {
    Domain* p = w.AddDomain("p" + std::to_string(i));
    Domain* c = w.AddDomain("c" + std::to_string(i));
    pairs.push_back({p, c, w.fsys.paths().Register({p->id(), c->id()})});
  }
  for (int round = 0; round < 5; ++round) {
    std::vector<Fbuf*> in_flight;
    for (const Pair& pr : pairs) {
      Fbuf* fb = nullptr;
      ASSERT_EQ(w.fsys.Allocate(*pr.prod, pr.path, 2 * kPageSize, true, &fb), Status::kOk);
      ASSERT_EQ(pr.prod->WriteWord(fb->base, 0xF00D0000u + pr.path), Status::kOk);
      ASSERT_EQ(w.fsys.Transfer(fb, *pr.prod, *pr.cons), Status::kOk);
      in_flight.push_back(fb);
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      std::uint32_t got = 0;
      ASSERT_EQ(pairs[i].cons->ReadWord(in_flight[i]->base, &got), Status::kOk);
      EXPECT_EQ(got, 0xF00D0000u + pairs[i].path);
      ASSERT_EQ(w.fsys.Free(in_flight[i], *pairs[i].cons), Status::kOk);
      ASSERT_EQ(w.fsys.Free(in_flight[i], *pairs[i].prod), Status::kOk);
    }
  }
  // Second round onward reused everything: exactly 8 allocations per round
  // after warmup were cache hits.
  EXPECT_GE(w.machine.stats().fbuf_cache_hits, 8u * 4);
}

TEST(Integration, MemoryPressureDuringTraffic) {
  // The pageout daemon reclaims between messages; traffic keeps flowing and
  // data stays correct (reclaimed buffers re-materialize cleanly).
  World w(ZeroCostConfig());
  Domain* p = w.AddDomain("prod");
  Domain* c = w.AddDomain("cons");
  const PathId path = w.fsys.paths().Register({p->id(), c->id()});
  for (int i = 0; i < 20; ++i) {
    Fbuf* fb = nullptr;
    ASSERT_EQ(w.fsys.Allocate(*p, path, 3 * kPageSize, true, &fb), Status::kOk);
    const std::uint32_t token = 0xBEEF0000u + static_cast<std::uint32_t>(i);
    ASSERT_EQ(p->WriteWord(fb->base + kPageSize, token), Status::kOk);
    ASSERT_EQ(w.fsys.Transfer(fb, *p, *c), Status::kOk);
    std::uint32_t got = 0;
    ASSERT_EQ(c->ReadWord(fb->base + kPageSize, &got), Status::kOk);
    EXPECT_EQ(got, token);
    ASSERT_EQ(w.fsys.Free(fb, *c), Status::kOk);
    ASSERT_EQ(w.fsys.Free(fb, *p), Status::kOk);
    if (i % 3 == 2) {
      w.fsys.ReclaimFreeMemory();  // discard everything reclaimable
    }
  }
}

TEST(Integration, ReceiverCrashMidStreamDoesNotStrandBuffers) {
  World w(ZeroCostConfig());
  Domain* p = w.AddDomain("prod");
  Domain* c = w.AddDomain("cons");
  const PathId path = w.fsys.paths().Register({p->id(), c->id()});
  std::vector<Fbuf*> held;
  for (int i = 0; i < 5; ++i) {
    Fbuf* fb = nullptr;
    ASSERT_EQ(w.fsys.Allocate(*p, path, kPageSize, true, &fb), Status::kOk);
    ASSERT_EQ(w.fsys.Transfer(fb, *p, *c), Status::kOk);
    ASSERT_EQ(w.fsys.Free(fb, *p), Status::kOk);
    held.push_back(fb);  // the consumer never frees: it is about to crash
  }
  const std::uint32_t frames_trapped = w.machine.pmem().free_frames();
  w.machine.DestroyDomain(c->id());
  // The kernel relinquished the crashed domain's references; the path died
  // with its endpoint, so the buffers were destroyed outright.
  for (Fbuf* fb : held) {
    EXPECT_TRUE(fb->dead);
  }
  EXPECT_GT(w.machine.pmem().free_frames(), frames_trapped);
}

TEST(Integration, StoredMessageThroughLoopbackDomains) {
  // Integrated transfer used explicitly across the loopback stack's
  // domains: store in the originator, pass the root by reference twice,
  // load and verify in the receiver.
  World w(ZeroCostConfig());
  IntegratedTransfer xfer(&w.fsys);
  Domain* a = w.AddDomain("a");
  Domain* b = w.AddDomain("b");
  Domain* c = w.AddDomain("c");
  const PathId path = w.fsys.paths().Register({a->id(), b->id(), c->id()});

  Message m;
  std::vector<std::uint8_t> all;
  for (int i = 0; i < 5; ++i) {
    Fbuf* fb = nullptr;
    ASSERT_EQ(w.fsys.Allocate(*a, path, 700, true, &fb), Status::kOk);
    std::vector<std::uint8_t> part(700, static_cast<std::uint8_t>(0x30 + i));
    ASSERT_EQ(a->WriteBytes(fb->base, part.data(), part.size()), Status::kOk);
    all.insert(all.end(), part.begin(), part.end());
    m = Message::Concat(m, Message::Whole(fb));
  }
  StoredMessage sm;
  ASSERT_EQ(xfer.Store(*a, path, m, true, &sm), Status::kOk);
  ASSERT_EQ(xfer.Send(sm, *a, *b), Status::kOk);
  ASSERT_EQ(xfer.Send(sm, *b, *c), Status::kOk);
  ASSERT_EQ(xfer.FreeAll(sm, *b), Status::kOk);

  Message got;
  WalkReport rep;
  ASSERT_EQ(xfer.Load(*c, sm.root, &got, &rep), Status::kOk);
  EXPECT_EQ(rep.bad_pointers, 0u);
  std::vector<std::uint8_t> out(got.length());
  ASSERT_EQ(got.CopyOut(*c, 0, out.data(), out.size()), Status::kOk);
  EXPECT_EQ(out, all);
  ASSERT_EQ(xfer.FreeAll(sm, *c), Status::kOk);
  ASSERT_EQ(xfer.FreeAll(sm, *a), Status::kOk);
}

TEST(Integration, SwpOverHbioStyleDomains) {
  // Reliable transport between user domains while an unrelated loopback
  // stack runs on the same machine: the fbuf region is shared
  // infrastructure, not per-subsystem memory.
  World w(ZeroCostConfig());
  LoopbackStackConfig lcfg;
  lcfg.three_domains = true;
  LoopbackStack ls(&w.machine, &w.fsys, &w.rpc, lcfg);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(ls.SendMessage(30000), Status::kOk);
  }
  EXPECT_EQ(ls.sink().received(), 4u);
  // Meanwhile other domains use endpoints/HBIO over the same region.
  EndpointManager eps(&w.fsys);
  Domain* p = w.AddDomain("hbio-p");
  Domain* c = w.AddDomain("hbio-c");
  HbioChannel chan(&w.fsys, &w.rpc, &eps, p, c);
  Fbuf* fb = nullptr;
  ASSERT_EQ(chan.GetBuffer(5000, &fb), Status::kOk);
  ASSERT_EQ(p->TouchRange(fb->base, 5000, Access::kWrite), Status::kOk);
  ASSERT_EQ(chan.Put(Message::Whole(fb)), Status::kOk);
  auto got = chan.Get();
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(chan.Done(*got), Status::kOk);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(ls.SendMessage(30000), Status::kOk);
  }
  EXPECT_EQ(ls.sink().received(), 8u);
}

TEST(Integration, TestbedSurvivesTinyWindowAndOddSizes) {
  TopologyConfig cfg;
  cfg.host.placement = StackPlacement::kUserNetserverKernel;
  cfg.window = 1;
  cfg.host.pdu_size = 3000;  // deliberately unaligned PDU
  BuiltTopology b = BuildTopology(cfg);
  const MultiResult r = b.runner->RunFlows({{5, 10001}});
  EXPECT_GT(r.flows[0].throughput_mbps, 0.0);
  SinkProtocol& sink = *b.topo->host(b.receiver_node)->sink;
  EXPECT_EQ(sink.received(), 5u);
  EXPECT_EQ(sink.bytes_received(), 5u * 10001);
}

TEST(Integration, QuotaExhaustionRecoversAfterCrash) {
  // A hoarder exhausts its path's quota, then crashes; the kernel reclaims
  // the chunks and fresh paths can use the region space again.
  FbufConfig fcfg;
  fcfg.chunk_pages = 2;
  fcfg.chunk_quota = 8;
  World w(ZeroCostConfig(), fcfg);
  Domain* p = w.AddDomain("prod");
  Domain* hoarder = w.AddDomain("hoarder");
  const PathId path = w.fsys.paths().Register({p->id(), hoarder->id()});
  while (true) {
    Fbuf* fb = nullptr;
    const Status st = w.fsys.Allocate(*p, path, 2 * kPageSize, true, &fb);
    if (!Ok(st)) {
      EXPECT_EQ(st, Status::kQuotaExceeded);
      break;
    }
    ASSERT_EQ(w.fsys.Transfer(fb, *p, *hoarder), Status::kOk);
    ASSERT_EQ(w.fsys.Free(fb, *p), Status::kOk);
  }
  const std::uint64_t region_free = w.fsys.RegionFreePages();
  w.machine.DestroyDomain(hoarder->id());
  EXPECT_GT(w.fsys.RegionFreePages(), region_free);
  // A new consumer and path work normally.
  Domain* c2 = w.AddDomain("cons2");
  const PathId path2 = w.fsys.paths().Register({p->id(), c2->id()});
  Fbuf* fb = nullptr;
  ASSERT_EQ(w.fsys.Allocate(*p, path2, 2 * kPageSize, true, &fb), Status::kOk);
  ASSERT_EQ(w.fsys.Free(fb, *p), Status::kOk);
}

TEST(Integration, VolatileScribbleVisibleButSecuredStops) {
  // End-to-end demonstration of §2.1.3: a malicious producer can corrupt a
  // volatile message mid-flight, but once any receiver Secures it the
  // producer's writes fault and the content is frozen.
  World w(ZeroCostConfig());
  Domain* p = w.AddDomain("malicious");
  Domain* c = w.AddDomain("victim");
  const PathId path = w.fsys.paths().Register({p->id(), c->id()});
  Fbuf* fb = nullptr;
  ASSERT_EQ(w.fsys.Allocate(*p, path, kPageSize, true, &fb), Status::kOk);
  ASSERT_EQ(p->WriteWord(fb->base, 0x600D), Status::kOk);
  ASSERT_EQ(w.fsys.Transfer(fb, *p, *c), Status::kOk);
  // Scribble after transfer: the receiver sees the change (volatile!).
  ASSERT_EQ(p->WriteWord(fb->base, 0x0BAD), Status::kOk);
  std::uint32_t got = 0;
  ASSERT_EQ(c->ReadWord(fb->base, &got), Status::kOk);
  EXPECT_EQ(got, 0x0BADu);
  // The receiver decides to interpret the data: secure first.
  ASSERT_EQ(w.fsys.Secure(fb, *c), Status::kOk);
  EXPECT_EQ(p->WriteWord(fb->base, 0xDEAD), Status::kProtection);
  ASSERT_EQ(c->ReadWord(fb->base, &got), Status::kOk);
  EXPECT_EQ(got, 0x0BADu);  // frozen at secure time
}

}  // namespace
}  // namespace fbufs
