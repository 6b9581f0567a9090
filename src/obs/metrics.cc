#include "src/obs/metrics.h"

#include "src/obs/json.h"

namespace fbufs {

std::uint64_t Histogram::ApproxQuantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  if (q <= 0.0) {
    return min_;
  }
  if (q >= 1.0) {
    return max_;
  }
  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) {
      continue;
    }
    const std::uint64_t before = seen;
    seen += buckets_[b];
    if (static_cast<double>(seen) >= target) {
      // Interpolate linearly inside bucket b ([2^b, 2^(b+1)-1]; bucket 0
      // holds 0 and 1), then clamp to the observed range so the estimate
      // never leaves [min, max].
      const std::uint64_t lo = b == 0 ? 0 : (std::uint64_t{1} << b);
      const std::uint64_t hi =
          b >= 63 ? UINT64_MAX : (std::uint64_t{2} << b) - 1;
      const double frac = (target - static_cast<double>(before)) /
                          static_cast<double>(buckets_[b]);
      std::uint64_t v =
          lo + static_cast<std::uint64_t>(frac * static_cast<double>(hi - lo));
      if (v < min_) {
        v = min_;
      }
      if (v > max_) {
        v = max_;
      }
      return v;
    }
  }
  return max_;
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter w(JsonWriter::Style::kCompact);
  w.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, c] : counters_) {
    w.Key(name).Number(c.value());
  }
  w.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, g] : gauges_) {
    w.Key(name).BeginObject();
    w.Key("value").Number(g.value()).Key("min").Number(g.min());
    w.Key("max").Number(g.max()).Key("samples").Number(g.samples());
    w.EndObject();
  }
  w.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    w.Key(name).BeginObject();
    w.Key("count").Number(h.count()).Key("sum").Number(h.sum());
    w.Key("min").Number(h.min()).Key("max").Number(h.max());
    w.Key("p50").Number(h.ApproxQuantile(0.5));
    w.Key("p99").Number(h.ApproxQuantile(0.99));
    w.Key("buckets").BeginObject();
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (h.bucket(b) != 0) {
        w.Key(std::to_string(b)).Number(h.bucket(b));
      }
    }
    w.EndObject().EndObject();
  }
  return w.EndObject().EndObject().Take();
}

}  // namespace fbufs
