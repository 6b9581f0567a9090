// Heap-allocation budgets of the per-PDU hot paths: walking a message
// allocates nothing, a Slice allocates exactly its DAG nodes, and a warmed-up
// event loop schedules and dispatches small handlers without the heap.
//
// A separate executable because it replaces the global operator new with a
// counting one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/msg/message.h"
#include "src/sim/event_loop.h"
#include "tests/test_util.h"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  g_allocations++;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace fbufs {
namespace {

using testing_util::World;
using testing_util::ZeroCostConfig;

class AllocBudgetTest : public ::testing::Test {
 protected:
  AllocBudgetTest() : world_(ZeroCostConfig()) {
    d_ = world_.AddDomain("app");
    path_ = world_.fsys.paths().Register({d_->id()});
  }

  Fbuf* Alloc(std::uint64_t bytes) {
    Fbuf* fb = nullptr;
    EXPECT_EQ(world_.fsys.Allocate(*d_, path_, bytes, true, &fb), Status::kOk);
    return fb;
  }

  World world_;
  Domain* d_;
  PathId path_;
};

TEST_F(AllocBudgetTest, MessageWalksAllocateNothing) {
  Fbuf* a = Alloc(300);
  Fbuf* b = Alloc(300);
  // A header, a body and a trailer: three extents over two fbufs.
  const Message m = Message::Concat(
      Message::Leaf(a, 0, 20),
      Message::Concat(Message::Whole(b), Message::Leaf(a, 100, 50)));
  std::uint64_t bytes = 0;
  std::size_t fbufs = 0;
  const std::uint64_t before = g_allocations;
  m.ForEachExtent([&bytes](const Extent& e) { bytes += e.len; });
  m.ForEachFbuf([&fbufs](Fbuf*) { fbufs++; });
  const std::uint64_t allocated = g_allocations - before;
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(bytes, 370u);
  EXPECT_EQ(fbufs, 2u);
}

TEST_F(AllocBudgetTest, SliceAllocatesOnlyItsNodes) {
  Fbuf* fb = Alloc(4096);
  for (std::size_t k = 1; k <= Message::kInlineSliceExtents; ++k) {
    Message m;
    for (std::size_t i = 0; i < k; ++i) {
      m = Message::Concat(m, Message::Leaf(fb, i * 10, 10));
    }
    const std::uint64_t before = g_allocations;
    const Message s = m.Slice(0, m.length());
    const std::uint64_t allocated = g_allocations - before;
    // k leaves plus k-1 joins, one allocation each.
    EXPECT_EQ(allocated, 2 * k - 1) << "k=" << k;
    EXPECT_EQ(s.NodeCount(), 2 * k - 1) << "k=" << k;
  }
}

TEST(AllocBudget, WarmEventLoopSchedulesWithoutTheHeap) {
  EventLoop loop;
  std::uint64_t sum = 0;
  std::uint64_t* sink = &sum;
  auto cycle = [&loop, sink](std::uint64_t i) {
    // Two pointers of capture: std::function keeps it inline.
    loop.ScheduleIn(1, EventLabel("x/", i, i + 1), [sink, i] { *sink += i; });
    loop.ScheduleIn(2, "tick", [sink] { *sink += 1; });
    loop.RunOne();
    loop.RunOne();
  };
  for (std::uint64_t i = 0; i < 64; ++i) {
    cycle(i);  // grows the heap, slot table and free list to steady state
  }
  const std::uint64_t before = g_allocations;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    cycle(i);
  }
  const std::uint64_t allocated = g_allocations - before;
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(loop.events_dispatched(), 2 * 1064u);
}

}  // namespace
}  // namespace fbufs
