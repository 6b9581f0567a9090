// Protocol framework: an x-kernel-style graph of protocol objects that may
// span multiple protection domains.
//
// Protocols exchange immutable Messages. Adjacent protocols in the same
// domain call each other directly; an edge between domains is a proxy that
// charges the IPC crossing, moves the message's fbuf references to the
// receiving domain (plus, for the non-integrated transfer, the per-fbuf
// list-marshalling cost the paper's §3.2.3 optimization removes), runs the
// callee, and releases the receiving domain's references when the
// synchronous delivery completes.
//
// Reference discipline:
//   * whoever allocates an fbuf frees its own reference when its use of the
//     message ends (source protocols after SendDown returns; header
//     allocators after the downstream call returns);
//   * a cross-domain delivery grants the receiving domain one reference per
//     distinct fbuf and the proxy releases them after the callee returns;
//   * a protocol that must retain data across calls (reassembly,
//     retransmission) takes its own references via FbufSystem::AddRef.
#ifndef SRC_PROTO_PROTOCOL_H_
#define SRC_PROTO_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fbuf/fbuf_system.h"
#include "src/ipc/rpc.h"
#include "src/msg/message.h"

namespace fbufs {

class ProtocolStack;
class RingHub;

class Protocol {
 public:
  Protocol(std::string name, Domain* domain, ProtocolStack* stack)
      : stack_(stack), name_(std::move(name)), domain_(domain) {}
  virtual ~Protocol() = default;

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  const std::string& name() const { return name_; }
  Domain* domain() const { return domain_; }

  // Downcall: the message heads toward the network.
  virtual Status Push(Message m) = 0;
  // Upcall: the message heads toward the application.
  virtual Status Pop(Message m) = 0;

  // Whether this protocol reads message bodies (as opposed to only its own
  // header). A proxy delivering into a protocol that never touches bodies
  // transfers references lazily, so body pages are never mapped into that
  // domain — the paper's netserver/UDP case.
  virtual bool touches_body() const { return true; }

  void set_below(Protocol* p) { below_ = p; }
  void set_above(Protocol* p) { above_ = p; }
  Protocol* below() const { return below_; }
  Protocol* above() const { return above_; }

 protected:
  Status SendDown(const Message& m);
  Status SendUp(const Message& m);
  // Demultiplexing layers deliver to a specific client instead of above_.
  Status SendUpTo(Protocol* client, const Message& m);

  ProtocolStack* stack_;

 private:
  std::string name_;
  Domain* domain_;
  Protocol* below_ = nullptr;
  Protocol* above_ = nullptr;
};

struct ProtocolStackConfig {
  // Integrated buffer management (§3.2.3): pass aggregates by reference;
  // no per-fbuf list marshal/rebuild at domain boundaries.
  bool integrated = true;
};

// Shared infrastructure for one protocol graph.
class ProtocolStack {
 public:
  using Config = ProtocolStackConfig;

  ProtocolStack(Machine* machine, FbufSystem* fsys, Rpc* rpc, Config config = Config())
      : machine_(machine), fsys_(fsys), rpc_(rpc), config_(config) {}

  Machine* machine() { return machine_; }
  FbufSystem* fsys() { return fsys_; }
  Rpc* rpc() { return rpc_; }
  const Config& config() const { return config_; }

  // Declared after wiring so crossings can charge the paper's cache/TLB
  // pressure penalty for paths spanning more than two domains.
  void set_domain_count(std::uint32_t n) { domain_count_ = n; }
  std::uint32_t domain_count() const { return domain_count_; }

  // Opt-in ring transport (src/ring): with a hub attached, a cross-domain
  // delivery whose (src, dst) pair has — or can lazily get — a ring submits
  // a handoff descriptor instead of a synchronous Rpc::Invoke; the callee
  // runs later, when the consumer drains its batch. nullptr (the default)
  // keeps every delivery on the synchronous path, byte-identical to the
  // pre-ring simulator.
  void EnableRings(RingHub* rings) { rings_ = rings; }
  RingHub* rings() { return rings_; }
  // Deliveries whose deferred callee failed (the submit-time status only
  // covers the descriptor write).
  std::uint64_t ring_errors() const { return ring_errors_; }

  // Delivers |m| from |from| into |to| (Push when |down|, Pop otherwise),
  // crossing a protection boundary if their domains differ.
  Status Deliver(const Message& m, Protocol* from, Protocol* to, bool down);

  // Releases |d|'s references on all distinct fbufs of |m|.
  Status FreeMessage(const Message& m, Domain& d);

  // Retains |m| in |d|: one extra reference per distinct fbuf.
  Status RetainMessage(const Message& m, Domain& d);

 private:
  Status DeliverRinged(const Message& m, Protocol* to, bool down, Domain& src,
                       Domain& dst, class TransferRing& ring);
  static std::size_t CountFbufs(const Message& m);
  // Transfers |src|'s reference on every distinct fbuf of |m| to |dst|,
  // stopping at the first failure.
  Status TransferMessage(const Message& m, Domain& src, Domain& dst, bool lazy);

  Machine* machine_;
  FbufSystem* fsys_;
  Rpc* rpc_;
  Config config_;
  std::uint32_t domain_count_ = 1;
  RingHub* rings_ = nullptr;
  std::uint64_t ring_errors_ = 0;
};

}  // namespace fbufs

#endif  // SRC_PROTO_PROTOCOL_H_
