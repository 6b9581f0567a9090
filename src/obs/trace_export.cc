#include "src/obs/trace_export.h"

#include <map>

#include "src/obs/lifecycle.h"

namespace fbufs {

namespace {

// Lane (tid) per trace category inside a host process. Markers share the
// phase lane.
std::uint32_t TidFor(TraceCategory c) { return static_cast<std::uint32_t>(c); }

}  // namespace

void TraceExporter::BeginEvent(char ph, std::string_view name, std::uint32_t pid,
                               std::uint32_t tid, SimTime ts, SimTime dur,
                               std::uint64_t flow_id) {
  ++event_count_;
  out_.BeginObject().Key("name").String(name).Key("ph").String(std::string_view(&ph, 1));
  out_.Key("pid").Number(pid).Key("tid").Number(tid);
  if (ph != 'M') {
    // Simulated ns as microseconds with nanosecond precision.
    out_.Key("ts").Thousandths(ts);
  }
  if (ph == 'X') {
    out_.Key("dur").Thousandths(dur);
  }
  if (ph == 'i') {
    // Thread-scoped instants; markers read better process-wide but "t"
    // keeps them on their category lane.
    out_.Key("s").String("t");
  }
  if (ph == 's' || ph == 't' || ph == 'f') {
    out_.Key("id").Number(flow_id);
    if (ph == 'f') {
      // Bind the terminating arrow to the enclosing slice, matching the
      // 's'/'t' steps (Chrome's bp:"e" flow-end convention).
      out_.Key("bp").String("e");
    }
  }
}

void TraceExporter::AppendMeta(std::uint32_t pid, std::uint32_t tid, const char* what,
                               const std::string& name) {
  BeginEvent('M', what, pid, tid);
  out_.Key("args").BeginObject().Key("name").String(name).EndObject().EndObject();
}

void TraceExporter::AddHost(const std::string& name, std::uint32_t pid, const Trace& trace) {
  AppendMeta(pid, 0, "process_name", name);
  for (std::uint8_t c = 0; c < static_cast<std::uint8_t>(TraceCategory::kCount); ++c) {
    AppendMeta(pid, TidFor(static_cast<TraceCategory>(c)), "thread_name",
               TraceCategoryName(static_cast<TraceCategory>(c)));
  }
  // A wrapped ring starts mid-stream: an 'E' whose 'B' was overwritten
  // closes a span the export never opened, so it is dropped. Spans nest per
  // lane, so an 'E' on a lane with no open 'B' is exactly such an orphan.
  std::uint32_t open[static_cast<std::size_t>(TraceCategory::kCount)] = {};
  for (const TraceEvent& ev : trace.Snapshot()) {
    std::uint32_t& depth = open[static_cast<std::size_t>(ev.category)];
    if (ev.phase == TracePhase::kBegin) {
      depth++;
    } else if (ev.phase == TracePhase::kEnd) {
      if (depth > 0) {
        depth--;
      } else if (trace.wrapped()) {
        continue;
      }
    }
    // Markers and instants are both instants ('i').
    const char ph = ev.phase == TracePhase::kBegin ? 'B'
                    : ev.phase == TracePhase::kEnd ? 'E'
                                                   : 'i';
    BeginEvent(ph, ev.what, pid, TidFor(ev.category), ev.time);
    out_.Key("cat").String(TraceCategoryName(ev.category));
    if (ph != 'E') {
      out_.Key("args").BeginObject().Key("a").Number(ev.a).Key("b").Number(ev.b).EndObject();
    }
    out_.EndObject();
  }
}

void TraceExporter::AddResource(const Resource& resource) {
  const std::uint32_t tid = next_resource_tid_++;
  if (tid == 0) {
    AppendMeta(kResourcePid, 0, "process_name", "resources");
  }
  AppendMeta(kResourcePid, tid, "thread_name", resource.name());
  for (const Resource::BusyInterval& iv : resource.intervals()) {
    BeginEvent('X', "busy", kResourcePid, tid, iv.start, iv.end - iv.start);
    out_.Key("cat").String("resource").EndObject();
  }
}

void TraceExporter::AddCounterTracks(const std::string& name, std::uint32_t pid,
                                     const MetricsRegistry& metrics,
                                     SimTime final_ts) {
  AppendMeta(pid, 0, "process_name", name);
  // Opens one counter point's args; the caller writes them and closes both.
  auto counter = [&](const std::string& track, SimTime ts) -> JsonWriter& {
    BeginEvent('C', track, pid, 0, ts);
    return out_.Key("cat").String("metric").Key("args").BeginObject();
  };
  for (const auto& [track, series] : metrics.series()) {
    for (const auto& [when, value] : series) {
      counter(track, when).Key("value").Number(value).EndObject().EndObject();
    }
  }
  for (const auto& [track, gauge] : metrics.gauges()) {
    if (metrics.series().count(track) != 0) {
      continue;  // already a full track above
    }
    counter(track, final_ts).Key("value").Number(gauge.value()).EndObject().EndObject();
  }
  for (const auto& [track, hist] : metrics.histograms()) {
    counter(track, final_ts).Key("count").Number(hist.count());
    out_.Key("p50").Number(hist.ApproxQuantile(0.5));
    out_.Key("p99").Number(hist.ApproxQuantile(0.99)).EndObject().EndObject();
  }
}

void TraceExporter::AddLifecycleFlows(const std::string& name,
                                      std::uint32_t pid,
                                      const LifecycleTracker& tracker) {
  AppendMeta(pid, 0, "process_name", name);
  // One lane per domain, allocated in first-encounter order across the
  // deterministic journey sequence, so same-seed exports stay identical.
  std::map<DomainId, std::uint32_t> lanes;
  auto lane = [&](DomainId d) {
    auto it = lanes.find(d);
    if (it != lanes.end()) {
      return it->second;
    }
    const std::uint32_t tid = static_cast<std::uint32_t>(lanes.size());
    lanes.emplace(d, tid);
    AppendMeta(pid, tid, "thread_name", "domain" + std::to_string(d));
    return tid;
  };
  for (const Journey& j : tracker.journeys()) {
    const std::size_t n = j.hops.size();
    for (std::size_t i = 0; i < n; ++i) {
      const LifecycleHop& hop = j.hops[i];
      const std::uint32_t tid = lane(hop.domain);
      // The hop slice: a fixed-width marker the flow arrows can bind to
      // (Chrome flow events attach to the slice enclosing their timestamp).
      BeginEvent('X', HopKindName(hop.kind), pid, tid, hop.time, 1000);
      out_.Key("cat").String("lifecycle").Key("args").BeginObject();
      out_.Key("journey").Number(j.id).Key("fbuf").Number(j.fbuf);
      out_.Key("layer").String(hop.layer).Key("cpu").Number(hop.cpu);
      out_.Key("arg").Number(hop.arg).EndObject().EndObject();
      if (n < 2) {
        continue;  // a single-hop journey has no arrow to draw
      }
      const char ph = i == 0 ? 's' : (i + 1 == n ? 'f' : 't');
      BeginEvent(ph, "fbuf-journey", pid, tid, hop.time, 0, j.id);
      out_.Key("cat").String("lifecycle").EndObject();
    }
  }
}

void TraceExporter::AddLaneConservation(const std::string& lane_name,
                                        SimTime busy, SimTime elapsed) {
  const std::uint32_t tid = next_lane_tid_++;
  if (tid == 0) {
    AppendMeta(kConservationPid, 0, "process_name", "conservation");
  }
  AppendMeta(kConservationPid, tid, "thread_name", lane_name);
  const SimTime idle = elapsed >= busy ? elapsed - busy : 0;
  BeginEvent('i', "lane_conservation", kConservationPid, tid, elapsed);
  out_.Key("cat").String("conservation").Key("args").BeginObject();
  out_.Key("busy").Number(busy).Key("idle").Number(idle);
  out_.Key("elapsed").Number(elapsed).EndObject().EndObject();
}

std::string TraceExporter::ToJson() const {
  JsonWriter doc = out_;
  return doc.EndArray().Key("displayTimeUnit").String("ns").EndObject().Take();
}

}  // namespace fbufs
