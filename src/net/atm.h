// ATM cells and AAL5-style segmentation/reassembly.
//
// The Osiris board moves PDUs as streams of 53-byte ATM cells (48-byte
// payload). The simulated fabric carries only a PDU's cell-rounded byte
// count (AtmWireBytes): links drop whole PDUs and nothing corrupts a single
// cell, so per-cell copies would change no simulated time. This module also
// implements the AAL5 wire format itself: segmentation of a PDU into cells
// tagged with VCI and an end-of-PDU marker, and reassembly with length and
// CRC-32 verification, so cell loss and corruption are detectable exactly as
// AAL5 detects them (tests/atm_test.cc).
#ifndef SRC_NET_ATM_H_
#define SRC_NET_ATM_H_

#include <cstdint>
#include <vector>

#include "src/vm/types.h"

namespace fbufs {

struct AtmCell {
  static constexpr std::size_t kPayloadBytes = 48;

  std::uint32_t vci = 0;
  bool end_of_pdu = false;  // AAL5 uses the PTI bit of the last cell
  std::uint8_t payload[kPayloadBytes] = {};
};

// AAL5-style trailer carried in the last cell: payload length + CRC.
struct AalTrailer {
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
};
static_assert(sizeof(AalTrailer) == 8);

// Bytes a PDU of |payload_bytes| occupies on the wire: payload plus the
// trailer, rounded up to whole cell payloads.
constexpr std::uint64_t AtmWireBytes(std::uint64_t payload_bytes) {
  return (payload_bytes + sizeof(AalTrailer) + AtmCell::kPayloadBytes - 1) /
         AtmCell::kPayloadBytes * AtmCell::kPayloadBytes;
}

// CRC-32 (IEEE 802.3 polynomial, bitwise implementation — clarity over
// speed; it runs only where the AAL5 format itself is exercised).
std::uint32_t Crc32(const std::uint8_t* data, std::size_t len);

class AtmSegmenter {
 public:
  // Segments |pdu| into cells for |vci|: payload, zero padding, and the
  // 8-byte trailer aligned to the end of the final cell.
  static std::vector<AtmCell> Segment(const std::vector<std::uint8_t>& pdu,
                                      std::uint32_t vci);
};

class AtmReassembler {
 public:
  // Feeds one arriving cell. Returns kOk and fills |*pdu| when the cell
  // completes a PDU whose length and CRC verify; kTruncated when the
  // end-of-PDU cell arrives but verification fails (the PDU is discarded);
  // kExhausted while more cells are needed.
  Status Push(const AtmCell& cell, std::vector<std::uint8_t>* pdu);

  std::uint64_t pdus_ok() const { return pdus_ok_; }
  std::uint64_t pdus_bad() const { return pdus_bad_; }
  std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
  std::uint64_t pdus_ok_ = 0;
  std::uint64_t pdus_bad_ = 0;
};

}  // namespace fbufs

#endif  // SRC_NET_ATM_H_
