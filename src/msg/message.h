// Aggregate object: the x-kernel-style immutable message DAG (§3.1, Fig. 2).
//
// A Message is a directed acyclic graph whose leaves reference byte extents
// inside fbufs. Messages are immutable: join/split/clip produce new views
// that share the underlying buffers — no data moves. This is the abstraction
// protocols use: headers are prepended by concatenation, fragmentation is
// slicing, reassembly is joining.
//
// This header is the private (per-domain, heap-allocated) representation;
// stored_message.h provides the integrated form where the DAG itself lives
// in fbufs and crosses domains by reference (§3.2.3).
#ifndef SRC_MSG_MESSAGE_H_
#define SRC_MSG_MESSAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/fbuf/fbuf.h"
#include "src/vm/domain.h"
#include "src/vm/types.h"

namespace fbufs {

// One contiguous run of message bytes.
struct Extent {
  Fbuf* fb = nullptr;  // nullptr for absent data (reads as zeros)
  VirtAddr addr = 0;
  std::uint64_t len = 0;
};

class Message {
 public:
  // The empty message.
  Message() = default;

  // A leaf over [off, off+len) of |fb|'s bytes.
  static Message Leaf(Fbuf* fb, std::uint64_t off, std::uint64_t len);

  // A leaf over the whole (requested) size of |fb|.
  static Message Whole(Fbuf* fb) { return Leaf(fb, 0, fb->bytes); }

  // An "absent data" leaf: |len| bytes that read as zeros and reference no
  // buffer. This is what a safe traversal substitutes for invalid DAG
  // references.
  static Message Absent(std::uint64_t len);

  // Join: logical concatenation, sharing both operands (the paper's buffer
  // aggregation; protocols use it to attach headers and reassemble ADUs).
  static Message Concat(const Message& left, const Message& right);

  // Clip: the sub-message [off, off+len); shares the underlying buffers.
  // Out-of-range requests are truncated to the available bytes.
  Message Slice(std::uint64_t off, std::uint64_t len) const;

  // Split at |at|: {head, tail} views.
  std::pair<Message, Message> Split(std::uint64_t at) const {
    return {Slice(0, at), Slice(at, length() - std::min(at, length()))};
  }

  std::uint64_t length() const { return root_ ? root_->len : 0; }
  bool empty() const { return length() == 0; }

  // Leaf-order walk of the extents. |fn| takes a const Extent&; if it
  // returns bool, false ends the walk. The walk stack lives inline and
  // spills to the heap only past kInlineWalkDepth pending nodes (deep
  // left-leaning chains), so a walk allocates nothing.
  template <typename Fn>
  void ForEachExtent(Fn&& fn) const;
  std::vector<Extent> Extents() const;

  // Visits the distinct fbufs this message references, in first-appearance
  // order (the order Fbufs() lists). Same early-stop rule and the same
  // heap-free walk; the seen-set spills past kInlineFbufs distinct fbufs.
  template <typename Fn>
  void ForEachFbuf(Fn&& fn) const;

  // The distinct fbufs as a vector (cold callers; hot paths use ForEachFbuf).
  std::vector<Fbuf*> Fbufs() const;

  // --- Data access through a domain (checked; absent data reads zeros) ------
  Status CopyOut(Domain& d, std::uint64_t off, void* dst, std::uint64_t len) const;
  // Touch one word per page of every extent (the paper's consumer pattern).
  Status Touch(Domain& d, Access access) const;
  // Full-content checksum-style read returning a 16-bit one's complement sum
  // (used by protocols; charges the per-byte checksum cost).
  Status Checksum(Domain& d, std::uint16_t* out) const;

  // Number of DAG nodes (for integrated storage sizing and tests).
  std::size_t NodeCount() const;

  // Slice keeps up to this many extents without touching the heap.
  static constexpr std::size_t kInlineSliceExtents = 16;

 private:
  static constexpr std::size_t kInlineWalkDepth = 32;
  static constexpr std::size_t kInlineFbufs = 16;

  struct Node {
    // Leaf when left == nullptr.
    std::shared_ptr<Node> left;
    std::shared_ptr<Node> right;
    Extent extent;  // valid for leaves
    std::uint64_t len = 0;
  };

  // A growable array of trivially copyable T whose first N elements live
  // inline; it moves to the heap only once it outgrows them. Pinned in place
  // (no copy or move): data() may point into the object itself.
  template <typename T, std::size_t N>
  class InlineVec {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);

   public:
    InlineVec() = default;
    InlineVec(const InlineVec&) = delete;
    InlineVec& operator=(const InlineVec&) = delete;

    void push_back(const T& v) {
      if (size_ == cap_) {
        Grow();
      }
      new (data_ + size_) T(v);
      size_++;
    }
    void pop_back() { size_--; }
    T& back() { return data_[size_ - 1]; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    const T* data() const { return data_; }
    const T* begin() const { return data_; }
    const T* end() const { return data_ + size_; }

   private:
    void Grow() {
      std::vector<T> bigger(cap_ * 2);
      std::copy(data_, data_ + size_, bigger.begin());
      heap_.swap(bigger);
      data_ = heap_.data();
      cap_ = heap_.size();
    }

    alignas(T) unsigned char inline_[N * sizeof(T)];
    std::vector<T> heap_;
    T* data_ = reinterpret_cast<T*>(inline_);
    std::size_t size_ = 0;
    std::size_t cap_ = N;
  };

  // Calls |fn| with |arg|; false only when |fn| returns bool false.
  template <typename Fn, typename Arg>
  static bool Visit(Fn& fn, Arg&& arg) {
    if constexpr (std::is_same_v<std::invoke_result_t<Fn&, Arg>, bool>) {
      return fn(std::forward<Arg>(arg));
    } else {
      fn(std::forward<Arg>(arg));
      return true;
    }
  }

  explicit Message(std::shared_ptr<Node> root) : root_(std::move(root)) {}

  // Right-folds |count| extents into a chain (2*count - 1 nodes), so the
  // DAG shape — and an integrated copy's NodeCount() — is fixed by count.
  static Message FromExtents(const Extent* extents, std::size_t count);

  std::shared_ptr<Node> root_;
};

template <typename Fn>
void Message::ForEachExtent(Fn&& fn) const {
  if (!root_) {
    return;
  }
  // Explicit stack: messages can be deep chains of concatenations.
  InlineVec<const Node*, kInlineWalkDepth> stack;
  stack.push_back(root_.get());
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->left) {
      stack.push_back(n->right.get());
      stack.push_back(n->left.get());
    } else if (n->extent.len > 0 && !Visit(fn, n->extent)) {
      return;
    }
  }
}

template <typename Fn>
void Message::ForEachFbuf(Fn&& fn) const {
  InlineVec<Fbuf*, kInlineFbufs> seen;
  ForEachExtent([&](const Extent& e) {
    if (e.fb == nullptr || std::find(seen.begin(), seen.end(), e.fb) != seen.end()) {
      return true;
    }
    seen.push_back(e.fb);
    return Visit(fn, e.fb);
  });
}

}  // namespace fbufs

#endif  // SRC_MSG_MESSAGE_H_
