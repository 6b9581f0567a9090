#include "src/msg/message.h"

#include <algorithm>
#include <cassert>

#include "src/vm/machine.h"

namespace fbufs {

Message Message::Leaf(Fbuf* fb, std::uint64_t off, std::uint64_t len) {
  assert(fb != nullptr);
  assert(off + len <= fb->pages * kPageSize);
  auto n = std::make_shared<Node>();
  n->extent = Extent{fb, fb->base + off, len};
  n->len = len;
  return Message(std::move(n));
}

Message Message::Absent(std::uint64_t len) {
  auto n = std::make_shared<Node>();
  n->extent = Extent{nullptr, 0, len};
  n->len = len;
  return Message(std::move(n));
}

Message Message::Concat(const Message& left, const Message& right) {
  if (left.empty()) {
    return right;
  }
  if (right.empty()) {
    return left;
  }
  auto n = std::make_shared<Node>();
  n->left = left.root_;
  n->right = right.root_;
  n->len = left.length() + right.length();
  return Message(std::move(n));
}

std::vector<Extent> Message::Extents() const {
  std::vector<Extent> out;
  ForEachExtent([&out](const Extent& e) { out.push_back(e); });
  return out;
}

std::vector<Fbuf*> Message::Fbufs() const {
  std::vector<Fbuf*> out;
  ForEachFbuf([&out](Fbuf* fb) { out.push_back(fb); });
  return out;
}

Message Message::FromExtents(const Extent* extents, std::size_t count) {
  Message m;
  // Right-fold so extents stay in order.
  for (std::size_t i = count; i-- > 0;) {
    auto n = std::make_shared<Node>();
    n->extent = extents[i];
    n->len = extents[i].len;
    m = Concat(Message(std::move(n)), m);
  }
  return m;
}

Message Message::Slice(std::uint64_t off, std::uint64_t len) const {
  InlineVec<Extent, kInlineSliceExtents> kept;
  std::uint64_t pos = 0;
  const std::uint64_t end = off + len;
  ForEachExtent([&](const Extent& e) {
    const std::uint64_t e_end = pos + e.len;
    if (e_end > off && pos < end) {
      const std::uint64_t lo = std::max(pos, off);
      const std::uint64_t hi = std::min(e_end, end);
      Extent part = e;
      part.addr += lo - pos;
      part.len = hi - lo;
      kept.push_back(part);
    }
    pos += e.len;
    return pos < end;  // nothing past |end| is kept
  });
  return FromExtents(kept.data(), kept.size());
}

Status Message::CopyOut(Domain& d, std::uint64_t off, void* dst, std::uint64_t len) const {
  auto* out = static_cast<std::uint8_t*>(dst);
  std::uint64_t pos = 0;
  std::uint64_t copied = 0;
  Status status = Status::kOk;
  ForEachExtent([&](const Extent& e) {
    if (!Ok(status) || copied == len) {
      pos += e.len;
      return;
    }
    const std::uint64_t e_end = pos + e.len;
    const std::uint64_t want_end = off + len;
    if (e_end > off + copied && pos < want_end) {
      const std::uint64_t lo = std::max(pos, off + copied);
      const std::uint64_t hi = std::min(e_end, want_end);
      if (e.fb == nullptr) {
        // Absent data reads as zeros.
        std::fill(out + (lo - off), out + (hi - off), 0);
      } else {
        status = d.ReadBytes(e.addr + (lo - pos), out + (lo - off), hi - lo);
      }
      copied += hi - lo;
    }
    pos += e.len;
  });
  if (!Ok(status)) {
    return status;
  }
  return copied == len ? Status::kOk : Status::kTruncated;
}

Status Message::Touch(Domain& d, Access access) const {
  Status status = Status::kOk;
  ForEachExtent([&](const Extent& e) {
    if (!Ok(status) || e.fb == nullptr) {
      return;
    }
    const Status st = d.TouchRange(e.addr, e.len, access);
    if (!Ok(st)) {
      status = st;
    }
  });
  return status;
}

Status Message::Checksum(Domain& d, std::uint16_t* out) const {
  std::uint32_t sum = 0;
  Status status = Status::kOk;
  std::uint8_t carry_byte = 0;
  bool have_carry = false;
  ForEachExtent([&](const Extent& e) {
    if (!Ok(status)) {
      return;
    }
    std::uint8_t buf[1024];
    std::uint64_t done = 0;
    while (done < e.len) {
      const std::uint64_t n = std::min<std::uint64_t>(sizeof(buf), e.len - done);
      if (e.fb == nullptr) {
        // zeros contribute nothing, but parity of the byte count matters
        if ((n % 2 != 0)) {
          have_carry = !have_carry;
        }
        done += n;
        continue;
      }
      const Status st = d.ReadBytes(e.addr + done, buf, n);
      if (!Ok(st)) {
        status = st;
        return;
      }
      for (std::uint64_t i = 0; i < n; ++i) {
        if (have_carry) {
          sum += (static_cast<std::uint32_t>(carry_byte) << 8) | buf[i];
          have_carry = false;
        } else {
          carry_byte = buf[i];
          have_carry = true;
        }
      }
      done += n;
    }
  });
  if (!Ok(status)) {
    return status;
  }
  if (have_carry) {
    sum += static_cast<std::uint32_t>(carry_byte) << 8;
  }
  {
    LayerScope layer(d.machine().attribution(), CostDomain::kMsg);
    ActorScope actor(d.machine().attribution(), d.id());
    d.machine().clock().Advance(d.machine().costs().ChecksumCost(length()));
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  *out = static_cast<std::uint16_t>(~sum);
  return Status::kOk;
}

std::size_t Message::NodeCount() const {
  if (!root_) {
    return 0;
  }
  std::size_t count = 0;
  InlineVec<const Node*, kInlineWalkDepth> stack;
  stack.push_back(root_.get());
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    count++;
    if (n->left) {
      stack.push_back(n->left.get());
      stack.push_back(n->right.get());
    }
  }
  return count;
}

}  // namespace fbufs
