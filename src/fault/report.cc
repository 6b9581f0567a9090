#include "src/fault/report.h"

#include <cstdio>

#include "src/obs/json.h"

namespace fbufs {

bool CampaignReport::audits_passed() const {
  if (audits_.empty()) {
    return false;  // a campaign that never audited proves nothing
  }
  for (const AuditEntry& a : audits_) {
    if (!a.passed) {
      return false;
    }
  }
  return true;
}

std::string CampaignReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Break(2).Key("campaign").String(name_);
  w.Break(2).Key("seed").Number(seed_);
  w.Break(2).Key("schedule").BeginArray();
  for (const ScheduledFault& f : schedule_) {
    w.Break(4).BeginObject().Key("label").String(f.label);
    w.Key("kind").String(f.kind).Key("at_ns").Number(f.at_ns);
    w.Key("duration_ns").Number(f.duration_ns).Key("percent").Number(f.percent);
    w.EndObject();
  }
  w.Break(2).EndArray();
  w.Break(2).Key("phases").BeginArray();
  for (const Phase& p : phases_) {
    w.Break(4).BeginObject().Key("label").String(p.label);
    w.Key("start_ns").Number(p.start_ns).Key("end_ns").Number(p.end_ns);
    w.Key("delivered_bytes").Number(p.delivered_bytes);
    w.Key("goodput_mbps").Number(p.goodput_mbps).Key("drops").Number(p.drops);
    w.Key("retransmissions").Number(p.retransmissions).EndObject();
  }
  w.Break(2).EndArray();
  if (!rows_.empty()) {
    w.Break(2).Key("rows").BeginArray();
    for (const Row& row : rows_) {
      w.Break(4).BeginObject();
      for (const auto& [key, value] : row) {
        w.Key(key).Number(value);
      }
      w.EndObject();
    }
    w.Break(2).EndArray();
  }
  w.Break(2).Key("audits").BeginArray();
  for (const AuditEntry& a : audits_) {
    w.Break(4).BeginObject().Key("label").String(a.label);
    w.Key("at_ns").Number(a.at_ns).Key("passed").Bool(a.passed);
    w.Break(5).Key("hosts").BeginArray();
    for (const HostAuditResult& hr : a.hosts) {
      w.Break(7).BeginObject().Key("host").String(hr.host);
      w.Key("leaked_frames").Number(hr.leaked_frames);
      w.Key("refcount_mismatches").Number(hr.refcount_mismatches);
      w.Key("dangling_mappings").Number(hr.dangling_mappings);
      w.Key("free_list_errors").Number(hr.free_list_errors);
      w.Key("orphaned_live_fbufs").Number(hr.orphaned_live_fbufs);
      w.Key("live_fbufs").Number(hr.live_fbufs);
      w.Key("free_listed_fbufs").Number(hr.free_listed_fbufs);
      w.Key("passed").Bool(hr.passed).EndObject();
    }
    w.Break(5).EndArray();
    if (a.has_swp) {
      w.Break(5).Key("swp").BeginObject();
      w.Key("window_wedged").Bool(a.swp.window_wedged);
      w.Key("unacked").Number(a.swp.unacked).Key("stashed").Number(a.swp.stashed);
      w.Key("bytes_copied").Number(a.swp.bytes_copied);
      w.Key("passed").Bool(a.swp.passed).EndObject();
    }
    if (!a.conversations.empty()) {
      w.Break(5).Key("conversations").BeginArray();
      for (const auto& [flow, cr] : a.conversations) {
        w.Break(7).BeginObject().Key("flow").String(flow);
        w.Key("window_wedged").Bool(cr.window_wedged);
        w.Key("unacked").Number(cr.unacked).Key("stashed").Number(cr.stashed);
        w.Key("bytes_copied").Number(cr.bytes_copied);
        w.Key("ledger_pinned").Number(cr.ledger_pinned);
        w.Key("ledger_mismatch").Number(cr.ledger_mismatch);
        w.Key("passed").Bool(cr.passed).EndObject();
      }
      w.Break(5).EndArray();
    }
    w.EndObject();
  }
  w.Break(2).EndArray();
  w.Break(2).Key("outcome_note").String(outcome_note_);
  w.Break(2).Key("passed").Bool(passed());
  return w.Break(0).EndObject().Take() + "\n";
}

bool CampaignReport::Write() const {
  const std::string path = "CAMPAIGN_" + name_ + ".json";
  if (!WriteTextFile(path, ToJson())) {
    return false;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

}  // namespace fbufs
