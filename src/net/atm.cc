#include "src/net/atm.h"

#include <algorithm>
#include <cstring>

namespace fbufs {

std::uint32_t Crc32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::vector<AtmCell> AtmSegmenter::Segment(const std::vector<std::uint8_t>& pdu,
                                           std::uint32_t vci) {
  // Total bytes on the wire: payload + padding + 8-byte trailer, a multiple
  // of the cell payload size, with the trailer in the last 8 bytes.
  const std::size_t total = AtmWireBytes(pdu.size());
  const std::size_t cells_needed = total / AtmCell::kPayloadBytes;

  std::vector<std::uint8_t> frame(total, 0);
  std::copy(pdu.begin(), pdu.end(), frame.begin());
  AalTrailer trailer;
  trailer.length = static_cast<std::uint32_t>(pdu.size());
  trailer.crc = Crc32(pdu.data(), pdu.size());
  std::memcpy(frame.data() + total - sizeof(trailer), &trailer, sizeof(trailer));

  std::vector<AtmCell> cells(cells_needed);
  for (std::size_t i = 0; i < cells_needed; ++i) {
    cells[i].vci = vci;
    cells[i].end_of_pdu = (i + 1 == cells_needed);
    std::memcpy(cells[i].payload, frame.data() + i * AtmCell::kPayloadBytes,
                AtmCell::kPayloadBytes);
  }
  return cells;
}

Status AtmReassembler::Push(const AtmCell& cell, std::vector<std::uint8_t>* pdu) {
  buffer_.insert(buffer_.end(), cell.payload, cell.payload + AtmCell::kPayloadBytes);
  if (!cell.end_of_pdu) {
    return Status::kExhausted;
  }
  // Last cell: the trailer occupies the final 8 bytes.
  Status result = Status::kTruncated;
  if (buffer_.size() >= sizeof(AalTrailer)) {
    AalTrailer trailer;
    std::memcpy(&trailer, buffer_.data() + buffer_.size() - sizeof(trailer),
                sizeof(trailer));
    if (trailer.length <= buffer_.size() - sizeof(trailer) &&
        Crc32(buffer_.data(), trailer.length) == trailer.crc) {
      pdu->assign(buffer_.begin(), buffer_.begin() + trailer.length);
      pdus_ok_++;
      result = Status::kOk;
    }
  }
  if (result != Status::kOk) {
    pdus_bad_++;
  }
  buffer_.clear();
  return result;
}

}  // namespace fbufs
