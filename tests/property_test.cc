// Property-based tests: randomized operation sequences checked against
// simple reference models, parameterized over seeds (TEST_P sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/msg/message.h"
#include "src/msg/stored_message.h"
#include "src/proto/loopback_stack.h"
#include "src/sim/rng.h"
#include "tests/test_util.h"

namespace fbufs {
namespace {

using testing_util::World;
using testing_util::ZeroCostConfig;

// ---------------------------------------------------------------------------
// Property 1: message algebra. Any sequence of Concat/Slice/Split over
// pattern-filled buffers yields exactly the bytes a flat byte-vector model
// predicts.
// ---------------------------------------------------------------------------

class MessageAlgebraTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MessageAlgebraTest, MatchesReferenceModel) {
  World w(ZeroCostConfig());
  Domain* d = w.AddDomain("app");
  const PathId path = w.fsys.paths().Register({d->id()});
  Rng rng(GetParam());

  // Pool of filled fbufs with shadow copies.
  struct Backed {
    Fbuf* fb;
    std::vector<std::uint8_t> shadow;
  };
  std::vector<Backed> pool;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t bytes = rng.Range(1, 3 * kPageSize);
    Fbuf* fb = nullptr;
    ASSERT_EQ(w.fsys.Allocate(*d, path, bytes, true, &fb), Status::kOk);
    std::vector<std::uint8_t> data(bytes);
    for (auto& b : data) {
      b = static_cast<std::uint8_t>(rng.Next());
    }
    ASSERT_EQ(d->WriteBytes(fb->base, data.data(), bytes), Status::kOk);
    pool.push_back({fb, std::move(data)});
  }

  // Working set of (message, model) pairs, evolved by random operations.
  struct Pair {
    Message msg;
    std::vector<std::uint8_t> model;
  };
  std::vector<Pair> set;
  for (const Backed& b : pool) {
    set.push_back({Message::Whole(b.fb), b.shadow});
  }

  for (int step = 0; step < 60; ++step) {
    const std::uint64_t op = rng.Below(3);
    if (op == 0 && set.size() >= 2) {
      // Concat two random entries.
      const std::size_t i = rng.Below(set.size());
      const std::size_t j = rng.Below(set.size());
      Pair joined;
      joined.msg = Message::Concat(set[i].msg, set[j].msg);
      joined.model = set[i].model;
      joined.model.insert(joined.model.end(), set[j].model.begin(), set[j].model.end());
      set.push_back(std::move(joined));
    } else if (op == 1) {
      // Slice a random window out of a random entry.
      const std::size_t i = rng.Below(set.size());
      if (set[i].model.empty()) {
        continue;
      }
      const std::uint64_t off = rng.Below(set[i].model.size());
      const std::uint64_t len = rng.Range(1, set[i].model.size() - off);
      Pair sliced;
      sliced.msg = set[i].msg.Slice(off, len);
      sliced.model.assign(set[i].model.begin() + static_cast<long>(off),
                          set[i].model.begin() + static_cast<long>(off + len));
      set.push_back(std::move(sliced));
    } else if (set[rng.Below(set.size())].model.size() > 1) {
      // Split a random entry and keep both halves.
      const std::size_t i = rng.Below(set.size());
      if (set[i].model.size() <= 1) {
        continue;
      }
      const std::uint64_t at = rng.Range(1, set[i].model.size() - 1);
      auto [head, tail] = set[i].msg.Split(at);
      Pair h{head, {set[i].model.begin(), set[i].model.begin() + static_cast<long>(at)}};
      Pair t{tail, {set[i].model.begin() + static_cast<long>(at), set[i].model.end()}};
      set.push_back(std::move(h));
      set.push_back(std::move(t));
    }
    if (set.size() > 40) {
      set.erase(set.begin(), set.begin() + 20);
    }
  }

  for (const Pair& p : set) {
    ASSERT_EQ(p.msg.length(), p.model.size());
    std::vector<std::uint8_t> got(p.model.size());
    if (!p.model.empty()) {
      ASSERT_EQ(p.msg.CopyOut(*d, 0, got.data(), got.size()), Status::kOk);
    }
    EXPECT_EQ(got, p.model);
    // The distinct-fbuf walk matches a reference built from the extents:
    // first-appearance order, absent leaves skipped.
    std::vector<Fbuf*> want;
    for (const Extent& e : p.msg.Extents()) {
      if (e.fb != nullptr && std::find(want.begin(), want.end(), e.fb) == want.end()) {
        want.push_back(e.fb);
      }
    }
    EXPECT_EQ(p.msg.Fbufs(), want);
    std::vector<Fbuf*> walked;
    p.msg.ForEachFbuf([&walked](Fbuf* fb) { walked.push_back(fb); });
    EXPECT_EQ(walked, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageAlgebraTest, ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Property 2: fbuf lifecycle. Under random alloc/transfer/free/secure/
// reclaim sequences across three domains, the system never leaks physical
// frames, never leaves a free-listed fbuf with holders, and immutability is
// never violated.
// ---------------------------------------------------------------------------

class FbufLifecycleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FbufLifecycleTest, InvariantsHoldUnderRandomOps) {
  World w(ZeroCostConfig());
  Domain* a = w.AddDomain("a");
  Domain* b = w.AddDomain("b");
  Domain* c = w.AddDomain("c");
  const PathId path = w.fsys.paths().Register({a->id(), b->id(), c->id()});
  Rng rng(GetParam());

  const std::uint32_t base_frames = w.machine.pmem().free_frames();
  std::vector<Fbuf*> live;

  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = rng.Below(10);
    if (op < 3) {
      // Allocate (cached or uncached, volatile or not).
      Fbuf* fb = nullptr;
      const PathId p = rng.Chance(1, 2) ? path : kNoPath;
      const Status st =
          w.fsys.Allocate(*a, p, rng.Range(1, 4 * kPageSize), rng.Chance(1, 2), &fb);
      if (Ok(st)) {
        ASSERT_EQ(a->TouchRange(fb->base, fb->bytes, Access::kWrite), Status::kOk);
        live.push_back(fb);
      }
    } else if (op < 6 && !live.empty()) {
      // Transfer along the path from a random current holder.
      Fbuf* fb = live[rng.Below(live.size())];
      Domain* domains[3] = {a, b, c};
      Domain* from = domains[rng.Below(3)];
      Domain* to = domains[rng.Below(3)];
      if (from->id() != to->id() && fb->IsHeldBy(from->id())) {
        ASSERT_EQ(w.fsys.Transfer(fb, *from, *to), Status::kOk);
      }
    } else if (op < 8 && !live.empty()) {
      // Free one reference from a random holder.
      const std::size_t idx = rng.Below(live.size());
      Fbuf* fb = live[idx];
      Domain* domains[3] = {a, b, c};
      Domain* d = domains[rng.Below(3)];
      if (fb->IsHeldBy(d->id())) {
        ASSERT_EQ(w.fsys.Free(fb, *d), Status::kOk);
      }
      if (fb->holders.empty()) {
        live.erase(live.begin() + static_cast<long>(idx));
      }
    } else if (op == 8 && !live.empty()) {
      // A receiver secures; the originator's write must then fail.
      Fbuf* fb = live[rng.Below(live.size())];
      if (fb->IsHeldBy(b->id())) {
        ASSERT_EQ(w.fsys.Secure(fb, *b), Status::kOk);
        EXPECT_EQ(a->WriteWord(fb->base, 1), Status::kProtection);
      }
    } else {
      // Deliver pending notices and occasionally run the pageout daemon.
      w.fsys.FlushNotices(b->id(), a->id());
      w.fsys.FlushNotices(c->id(), a->id());
      if (rng.Chance(1, 4)) {
        w.fsys.ReclaimFreeMemory(rng.Range(1, 64));
      }
    }

    // Invariants checked continuously.
    for (FbufId id = 0;; ++id) {
      Fbuf* fb = w.fsys.Get(id);
      if (fb == nullptr) {
        break;
      }
      if (fb->free_listed) {
        EXPECT_TRUE(fb->holders.empty()) << "free-listed fbuf " << id << " has holders";
        EXPECT_FALSE(fb->dead);
      }
      if (fb->dead) {
        EXPECT_TRUE(fb->holders.empty());
        EXPECT_FALSE(fb->free_listed);
      }
    }
  }

  // Drain: free everything, flush notices, reclaim; all frames must return.
  for (Fbuf* fb : live) {
    for (Domain* d : {a, b, c}) {
      while (fb->IsHeldBy(d->id())) {
        ASSERT_EQ(w.fsys.Free(fb, *d), Status::kOk);
      }
    }
  }
  w.fsys.FlushNotices(b->id(), a->id());
  w.fsys.FlushNotices(c->id(), a->id());
  w.fsys.DestroyPath(path);
  w.fsys.ReclaimFreeMemory();
  // Absent-leaf pages created by stray reads are the only tolerated
  // residual; none should exist in this workload.
  EXPECT_EQ(w.machine.pmem().free_frames(), base_frames);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FbufLifecycleTest, ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Property 3: walker robustness. Arbitrary corruption of a stored DAG never
// crashes the receiver's traversal and never grants access to bytes outside
// the fbuf region.
// ---------------------------------------------------------------------------

class WalkerFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WalkerFuzzTest, CorruptedDagNeverBreaksReceiver) {
  World w(ZeroCostConfig());
  IntegratedTransfer xfer(&w.fsys);
  Domain* src = w.AddDomain("src");
  Domain* dst = w.AddDomain("dst");
  const PathId path = w.fsys.paths().Register({src->id(), dst->id()});
  Rng rng(GetParam());

  // A legitimate 4-fragment message, stored and sent.
  Message m;
  for (int i = 0; i < 4; ++i) {
    Fbuf* fb = nullptr;
    ASSERT_EQ(w.fsys.Allocate(*src, path, 256, true, &fb), Status::kOk);
    ASSERT_EQ(src->TouchRange(fb->base, 256, Access::kWrite), Status::kOk);
    m = Message::Concat(m, Message::Whole(fb));
  }
  StoredMessage sm;
  ASSERT_EQ(xfer.Store(*src, path, m, true, &sm), Status::kOk);
  ASSERT_EQ(xfer.Send(sm, *src, *dst), Status::kOk);

  // The malicious (volatile!) originator scribbles over the node fbuf.
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t off =
        rng.Below(sm.node_fbuf->bytes > 8 ? sm.node_fbuf->bytes - 8 : 1);
    std::uint64_t garbage = rng.Next();
    ASSERT_EQ(src->WriteBytes(sm.root + off, &garbage, sizeof(garbage)), Status::kOk);

    Message got;
    WalkReport rep;
    const Status st = xfer.Load(*dst, sm.root, &got, &rep);
    ASSERT_EQ(st, Status::kOk);  // non-strict mode always completes
    // Whatever survived must be readable by the receiver without any
    // protection violation, and only zeros or legitimate fbuf content.
    if (got.length() > 0 && got.length() < (1u << 22)) {
      std::vector<std::uint8_t> buf(std::min<std::uint64_t>(got.length(), 4096));
      const Status rd = got.CopyOut(*dst, 0, buf.data(), buf.size());
      EXPECT_TRUE(rd == Status::kOk || rd == Status::kTruncated) << StatusName(rd);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalkerFuzzTest, ::testing::Range<std::uint64_t>(100, 110));

// ---------------------------------------------------------------------------
// Property 4: the protocol stack round-trips arbitrary message sizes at
// arbitrary PDU sizes without loss or reordering artifacts.
// ---------------------------------------------------------------------------

struct StackParam {
  std::uint64_t pdu;
  std::uint64_t seed;
};

class StackRoundTripTest : public ::testing::TestWithParam<StackParam> {};

TEST_P(StackRoundTripTest, RandomSizesSurvive) {
  World w(ZeroCostConfig());
  LoopbackStackConfig cfg;
  cfg.pdu_size = GetParam().pdu;
  LoopbackStack ls(&w.machine, &w.fsys, &w.rpc, cfg);
  Rng rng(GetParam().seed);
  std::uint64_t expect_bytes = 0;
  for (int i = 0; i < 25; ++i) {
    const std::uint64_t size = rng.Range(1, 200 * 1024);
    ASSERT_EQ(ls.SendMessage(size), Status::kOk) << size;
    expect_bytes += size;
  }
  EXPECT_EQ(ls.sink().received(), 25u);
  EXPECT_EQ(ls.sink().bytes_received(), expect_bytes);
  EXPECT_EQ(ls.ip().reassembly_backlog(), 0u);
}

INSTANTIATE_TEST_SUITE_P(PduAndSeed, StackRoundTripTest,
                         ::testing::Values(StackParam{1024, 1}, StackParam{4096, 2},
                                           StackParam{4096, 3}, StackParam{16384, 4},
                                           StackParam{65536, 5}, StackParam{3000, 6}));

// ---------------------------------------------------------------------------
// Property 5: TLB size never changes semantics, only timing.
// ---------------------------------------------------------------------------

class TlbSizeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TlbSizeTest, SemanticsIndependentOfTlbSize) {
  MachineConfig cfg = ZeroCostConfig();
  cfg.tlb_entries = GetParam();
  World w(cfg);
  Domain* src = w.AddDomain("src");
  Domain* dst = w.AddDomain("dst");
  const PathId path = w.fsys.paths().Register({src->id(), dst->id()});
  Fbuf* fb = nullptr;
  ASSERT_EQ(w.fsys.Allocate(*src, path, 32 * kPageSize, true, &fb), Status::kOk);
  std::vector<std::uint8_t> pattern(32 * kPageSize);
  Rng rng(7);
  for (auto& byte : pattern) {
    byte = static_cast<std::uint8_t>(rng.Next());
  }
  ASSERT_EQ(src->WriteBytes(fb->base, pattern.data(), pattern.size()), Status::kOk);
  ASSERT_EQ(w.fsys.Transfer(fb, *src, *dst), Status::kOk);
  std::vector<std::uint8_t> got(pattern.size());
  ASSERT_EQ(dst->ReadBytes(fb->base, got.data(), got.size()), Status::kOk);
  EXPECT_EQ(got, pattern);
  EXPECT_EQ(dst->WriteWord(fb->base, 1), Status::kProtection);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlbSizeTest, ::testing::Values(2u, 4u, 8u, 64u, 256u));

}  // namespace
}  // namespace fbufs
