#include "src/obs/attribution.h"

#include <iterator>
#include <numeric>
#include <sstream>

namespace fbufs {

const char* CostDomainName(CostDomain d) {
  switch (d) {
    case CostDomain::kVm:
      return "vm";
    case CostDomain::kFbuf:
      return "fbuf";
    case CostDomain::kIpc:
      return "ipc";
    case CostDomain::kBaseline:
      return "baseline";
    case CostDomain::kProto:
      return "proto";
    case CostDomain::kNet:
      return "net";
    case CostDomain::kCache:
      return "cache";
    case CostDomain::kMsg:
      return "msg";
    case CostDomain::kApp:
      return "app";
    case CostDomain::kDispatch:
      return "dispatch";
    case CostDomain::kRing:
      return "ring";
    case CostDomain::kWait:
      return "wait";
    case CostDomain::kOther:
      return "other";
    case CostDomain::kCount:
      break;
  }
  return "?";
}

Attribution::Row* Attribution::IndexRow(DomainId actor, AttrPathId path, std::uint32_t cpu) {
  Row*& row = index_[std::make_tuple(actor, path, cpu)];
  if (row == nullptr) {
    row = &rows_.emplace_back(
        Row{actor, path, cpu, static_cast<std::uint16_t>(1u << kWaitIndex), {}});
  }
  return row;
}

SimTime Attribution::ByLayer(CostDomain d) const {
  SimTime sum = 0;
  for (const Row& row : rows_) {
    sum += row.cell[static_cast<std::size_t>(d)];
  }
  return sum;
}

SimTime Attribution::ByDomain(DomainId d) const {
  SimTime sum = 0;
  for (const Row& row : rows_) {
    if (row.actor == d) {
      sum += std::accumulate(std::begin(row.cell), std::end(row.cell), SimTime{0});
    }
  }
  return sum;
}

SimTime Attribution::ByPath(AttrPathId p) const {
  SimTime sum = 0;
  for (const Row& row : rows_) {
    if (row.path == p) {
      sum += std::accumulate(std::begin(row.cell), std::end(row.cell), SimTime{0});
    }
  }
  return sum;
}

SimTime Attribution::ByCpu(std::uint32_t c) const {
  SimTime sum = 0;
  for (const Row& row : rows_) {
    if (row.cpu == c) {
      sum += std::accumulate(std::begin(row.cell), std::end(row.cell), SimTime{0});
    }
  }
  return sum;
}

std::map<Attribution::Key, SimTime> Attribution::cells() const {
  std::map<Key, SimTime> out;
  for (const Row& row : rows_) {
    for (std::size_t i = 0; i < kLayers; ++i) {
      if ((row.entered >> i & 1u) != 0) {
        out.emplace(Key{static_cast<CostDomain>(i), row.actor, row.path, row.cpu}, row.cell[i]);
      }
    }
  }
  return out;
}

SimTime Attribution::Snapshot::ByLayer(CostDomain d) const {
  SimTime sum = 0;
  for (const auto& [key, ns] : cells) {
    if (key.layer == d) {
      sum += ns;
    }
  }
  return sum;
}

Attribution::Snapshot Attribution::Snapshot::Since(const Snapshot& base) const {
  Snapshot delta;
  delta.total = total - base.total;
  for (const auto& [key, ns] : cells) {
    auto it = base.cells.find(key);
    const SimTime before = it == base.cells.end() ? 0 : it->second;
    if (ns > before) {
      delta.cells[key] = ns - before;
    }
  }
  return delta;
}

std::string Attribution::DebugString() const {
  std::ostringstream os;
  os << "total=" << total_ << "ns";
  for (std::uint8_t i = 0; i < static_cast<std::uint8_t>(CostDomain::kCount); ++i) {
    const CostDomain d = static_cast<CostDomain>(i);
    const SimTime ns = ByLayer(d);
    if (ns > 0) {
      os << " " << CostDomainName(d) << "=" << ns;
    }
  }
  return os.str();
}

}  // namespace fbufs
