#include "obs/event_tracer.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace adattl::obs {

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kDecision: return "decision";
    case TraceKind::kAlarm: return "alarm";
    case TraceKind::kNormal: return "normal";
    case TraceKind::kNsRefresh: return "ns_refresh";
    case TraceKind::kServerPause: return "server_pause";
    case TraceKind::kServerResume: return "server_resume";
    case TraceKind::kEstimatorUpdate: return "estimator_update";
    case TraceKind::kServerCrash: return "server_crash";
    case TraceKind::kServerRecover: return "server_recover";
    case TraceKind::kCapacityScale: return "capacity_scale";
    case TraceKind::kDnsOutageStart: return "dns_outage_start";
    case TraceKind::kDnsOutageEnd: return "dns_outage_end";
    case TraceKind::kStaleServe: return "stale_serve";
    case TraceKind::kRequestFailed: return "request_failed";
    case TraceKind::kUtilization: return "utilization";
  }
  return "?";
}

namespace {

// Chrome-trace row (tid) per layer, so the timeline renders the DNS, the
// alarm feedback, the resolver caches and the servers as separate tracks.
int chrome_tid(TraceKind kind) {
  switch (kind) {
    case TraceKind::kDecision: return 0;
    case TraceKind::kAlarm:
    case TraceKind::kNormal: return 1;
    case TraceKind::kNsRefresh: return 2;
    case TraceKind::kServerPause:
    case TraceKind::kServerResume: return 3;
    case TraceKind::kEstimatorUpdate: return 4;
    case TraceKind::kServerCrash:
    case TraceKind::kServerRecover:
    case TraceKind::kCapacityScale:
    case TraceKind::kRequestFailed:
    case TraceKind::kUtilization: return 3;
    case TraceKind::kStaleServe: return 2;
    case TraceKind::kDnsOutageStart:
    case TraceKind::kDnsOutageEnd: return 5;
  }
  return 9;
}

const char* chrome_track_name(int tid) {
  switch (tid) {
    case 0: return "dns decisions";
    case 1: return "alarm feedback";
    case 2: return "name servers";
    case 3: return "web servers";
    case 4: return "estimator";
    case 5: return "faults";
  }
  return "other";
}

}  // namespace

EventTracer::EventTracer(std::size_t capacity) {
  if (capacity == 0) throw std::invalid_argument("EventTracer: capacity must be >= 1");
  ring_.resize(capacity);
}

EventTracer EventTracer::merged(const std::vector<const EventTracer*>& parts) {
  EventTracer out;
  out.slices_ = parts.size();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (TraceRecord r : parts[i]->records()) {
      r.slice = static_cast<std::uint16_t>(i);
      out.ring_.push_back(r);
    }
    out.total_ += parts[i]->total_recorded();
  }
  // Each part is in time order already; ties keep part order.
  std::stable_sort(out.ring_.begin(), out.ring_.end(),
                   [](const TraceRecord& x, const TraceRecord& y) { return x.time < y.time; });
  return out;
}

std::vector<TraceRecord> EventTracer::records() const {
  std::vector<TraceRecord> out;
  if (total_ == 0) return out;
  const std::size_t live = total_ < ring_.size() ? static_cast<std::size_t>(total_)
                                                 : ring_.size();
  out.reserve(live);
  // Oldest retained record: `next_` when the ring has wrapped, 0 otherwise.
  const std::size_t start = total_ < ring_.size() ? 0 : next_;
  for (std::size_t i = 0; i < live; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<TraceRecord> EventTracer::complete_records(const char* view) const {
  // Every ring of a run has the same capacity, and none recorded more than
  // the total, so a rerun at that capacity holds them all.
  if (dropped() != 0) {
    const std::string total = std::to_string(total_recorded());
    throw std::runtime_error(std::string("EventTracer: the ") + view + " view needs all " +
                             total + " records but " + std::to_string(dropped()) +
                             " were dropped; rerun with --trace-capacity=" + total);
  }
  return records();
}

std::string EventTracer::to_utilization_csv() const {
  std::vector<TraceRecord> util = complete_records("utilization");
  std::erase_if(util, [](const TraceRecord& r) { return r.kind != TraceKind::kUtilization; });
  // One row per monitor tick: its records are contiguous, one per server
  // in id order, and share the tick's time.
  std::size_t servers = 0;
  while (servers < util.size() && util[servers].time == util.front().time) ++servers;
  std::string out = "time";
  for (std::size_t i = 0; i < servers; ++i) out += ",s" + std::to_string(i);
  out += ",max\n";
  char buf[64];
  for (std::size_t i = 0; i < util.size();) {
    const sim::SimTime tick = util[i].time;
    std::snprintf(buf, sizeof(buf), "%.3f", tick);
    out += buf;
    double max = util[i].value;
    for (; i < util.size() && util[i].time == tick; ++i) {
      max = std::max(max, util[i].value);
      std::snprintf(buf, sizeof(buf), ",%.6f", util[i].value);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), ",%.6f\n", max);
    out += buf;
  }
  return out;
}

std::string EventTracer::to_decisions_csv() const {
  std::string out = "time,domain,server,ttl\n";
  char buf[96];
  for (const TraceRecord& r : complete_records("decisions")) {
    if (r.kind != TraceKind::kDecision) continue;
    std::snprintf(buf, sizeof(buf), "%.3f,%d,%d,%.3f\n", r.time, r.a, r.b, r.value);
    out += buf;
  }
  return out;
}

std::string EventTracer::to_chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  // Track-naming metadata events, one per layer of each slice.
  for (std::size_t pid = 0; pid < slices_; ++pid) {
    for (int tid = 0; tid <= 5; ++tid) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%zu,\"tid\":%d,"
                    "\"args\":{\"name\":\"%s\"}}",
                    first ? "" : ",", pid, tid, chrome_track_name(tid));
      out += buf;
      first = false;
    }
  }
  for (const TraceRecord& r : records()) {
    // Simulated seconds → trace microseconds.
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%s\",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\","
                  "\"ts\":%.3f,\"pid\":%d,\"tid\":%d,"
                  "\"args\":{\"a\":%d,\"b\":%d,\"value\":%.6g}}",
                  trace_kind_name(r.kind), r.time * 1e6, r.slice, chrome_tid(r.kind), r.a,
                  r.b, r.value);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void EventTracer::write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("EventTracer: cannot open '" + path + "' for writing");
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int rc = std::fclose(f);
  if (written != content.size() || rc != 0) {
    throw std::runtime_error("EventTracer: short write to '" + path + "'");
  }
}

}  // namespace adattl::obs
