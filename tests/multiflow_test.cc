// Multi-flow receive path: several virtual circuits demultiplexed through
// one protocol stack — the adapter picks a per-VCI buffer path, UDP picks
// the client by port, and each flow's fbufs come from its own allocator.
#include <gtest/gtest.h>

#include <cstring>

#include "src/topo/topo_config.h"

namespace fbufs {
namespace {

template <typename Header>
void Checksum(Header* h) {
  h->checksum = 0;
  const auto* w16 = reinterpret_cast<const std::uint16_t*>(h);
  std::uint32_t s = 0;
  for (std::size_t i = 0; i < sizeof(Header) / 2; ++i) {
    s += w16[i];
  }
  while (s >> 16) {
    s = (s & 0xffff) + (s >> 16);
  }
  h->checksum = static_cast<std::uint16_t>(~s);
}

// Builds a complete single-fragment IP+UDP PDU carrying |body| bytes of
// |fill| to |dst_port|.
std::vector<std::uint8_t> MakePdu(std::uint16_t dst_port, std::uint32_t id,
                                  std::uint32_t body, std::uint8_t fill) {
  std::vector<std::uint8_t> pdu(IpProtocol::kHeaderBytes + UdpProtocol::kHeaderBytes + body,
                                fill);
  IpHeader ih;
  ih.total_length = static_cast<std::uint32_t>(pdu.size());
  ih.id = id;
  ih.frag_offset = 0;
  ih.adu_length = static_cast<std::uint32_t>(pdu.size() - IpProtocol::kHeaderBytes);
  Checksum(&ih);
  std::memcpy(pdu.data(), &ih, sizeof(ih));
  UdpHeader uh;
  uh.src_port = 9;
  uh.dst_port = dst_port;
  uh.length = static_cast<std::uint32_t>(UdpProtocol::kHeaderBytes + body);
  Checksum(&uh);
  std::memcpy(pdu.data() + IpProtocol::kHeaderBytes, &uh, sizeof(uh));
  return pdu;
}

class MultiFlowTest : public ::testing::Test {
 protected:
  MultiFlowTest() {
    TopologyConfig cfg;
    cfg.host.placement = StackPlacement::kUserKernel;
    cfg.host.machine.costs = CostParams::Zero();
    vci_ = cfg.base_vci;
    b_ = BuildTopology(cfg);
    rx_ = b_.topo->host(b_.receiver_node);
    // A second application with its own port, path and VCI.
    app2_ = rx_->machine.CreateDomain("app2");
    sink2_ = std::make_unique<SinkProtocol>(app2_, rx_->stack.get());
    rx_->udp->Bind(2001, sink2_.get());
    path2_ = rx_->fsys.paths().Register({kKernelDomainId, app2_->id()});
    rx_->adapter.RegisterVci(77, path2_);
  }

  BuiltTopology b_;
  std::uint32_t vci_ = 0;  // the testbed flow's own VCI
  SimHost* rx_ = nullptr;
  Domain* app2_ = nullptr;
  std::unique_ptr<SinkProtocol> sink2_;
  PathId path2_ = kNoPath;
};

TEST_F(MultiFlowTest, TwoVcisDemuxToTwoSinks) {
  // Flow 1: the testbed's own VCI/port; flow 2: ours.
  ASSERT_EQ(rx_->driver->DeliverPdu(MakePdu(2000, 1, 1000, 0xAA), vci_, true),
            Status::kOk);
  ASSERT_EQ(rx_->driver->DeliverPdu(MakePdu(2001, 2, 2000, 0xBB), 77, true), Status::kOk);
  EXPECT_EQ(rx_->sink->received(), 1u);
  EXPECT_EQ(rx_->sink->bytes_received(), 1000u);
  EXPECT_EQ(sink2_->received(), 1u);
  EXPECT_EQ(sink2_->bytes_received(), 2000u);
}

TEST_F(MultiFlowTest, FlowsUseTheirOwnPathAllocators) {
  ASSERT_EQ(rx_->driver->DeliverPdu(MakePdu(2000, 1, 500, 1), vci_, true),
            Status::kOk);
  ASSERT_EQ(rx_->driver->DeliverPdu(MakePdu(2001, 2, 500, 2), 77, true), Status::kOk);
  // Find the two reassembly fbufs: their path ids must differ and match the
  // registered paths.
  std::vector<PathId> seen;
  for (FbufId id = 0;; ++id) {
    Fbuf* fb = rx_->fsys.Get(id);
    if (fb == nullptr) {
      break;
    }
    if (fb->cached && fb->originator == kKernelDomainId && fb->free_listed) {
      seen.push_back(fb->path);
    }
  }
  EXPECT_NE(std::find(seen.begin(), seen.end(), path2_), seen.end());
  // At least two distinct paths among the driver's buffers.
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  EXPECT_GE(seen.size(), 2u);
}

TEST_F(MultiFlowTest, UnknownVciFallsBackToUncachedAndStillDelivers) {
  const std::uint64_t fallbacks_before = rx_->adapter.uncached_fallbacks();
  ASSERT_EQ(rx_->driver->DeliverPdu(MakePdu(2001, 3, 800, 3), /*vci=*/999, true), Status::kOk);
  EXPECT_EQ(rx_->adapter.uncached_fallbacks(), fallbacks_before + 1);
  EXPECT_EQ(sink2_->received(), 1u);
  // The reassembly buffer was uncached and is destroyed after use.
  bool saw_uncached_dead = false;
  for (FbufId id = 0;; ++id) {
    Fbuf* fb = rx_->fsys.Get(id);
    if (fb == nullptr) {
      break;
    }
    if (!fb->cached && fb->dead) {
      saw_uncached_dead = true;
    }
  }
  EXPECT_TRUE(saw_uncached_dead);
}

TEST_F(MultiFlowTest, InterleavedFlowsKeepReassemblyApart) {
  // Two 2-fragment datagrams, interleaved across flows: ids keep them apart.
  const std::uint32_t body = 600;
  auto frag = [&](std::uint16_t port, std::uint32_t id, std::uint32_t off, bool first,
                  std::uint8_t fill) {
    const std::uint32_t adu = UdpProtocol::kHeaderBytes + 2 * body;
    const std::uint32_t flen = first ? UdpProtocol::kHeaderBytes + body : body;
    std::vector<std::uint8_t> pdu(IpProtocol::kHeaderBytes + flen, fill);
    IpHeader ih;
    ih.total_length = static_cast<std::uint32_t>(pdu.size());
    ih.id = id;
    ih.frag_offset = off;
    ih.adu_length = adu;
    Checksum(&ih);
    std::memcpy(pdu.data(), &ih, sizeof(ih));
    if (first) {
      UdpHeader uh;
      uh.src_port = 9;
      uh.dst_port = port;
      uh.length = adu;
      Checksum(&uh);
      std::memcpy(pdu.data() + IpProtocol::kHeaderBytes, &uh, sizeof(uh));
    }
    return pdu;
  };
  const std::uint32_t first_len = UdpProtocol::kHeaderBytes + body;
  ASSERT_EQ(rx_->driver->DeliverPdu(frag(2000, 10, 0, true, 1), vci_, true),
            Status::kOk);
  ASSERT_EQ(rx_->driver->DeliverPdu(frag(2001, 11, 0, true, 2), 77, true), Status::kOk);
  EXPECT_EQ(rx_->ip->reassembly_backlog(), 2u);
  ASSERT_EQ(rx_->driver->DeliverPdu(frag(2001, 11, first_len, false, 2), 77, true),
            Status::kOk);
  ASSERT_EQ(rx_->driver->DeliverPdu(frag(2000, 10, first_len, false, 1), vci_, true),
            Status::kOk);
  EXPECT_EQ(rx_->ip->reassembly_backlog(), 0u);
  EXPECT_EQ(rx_->sink->bytes_received(), 2 * body);
  EXPECT_EQ(sink2_->bytes_received(), 2 * body);
}

}  // namespace
}  // namespace fbufs
