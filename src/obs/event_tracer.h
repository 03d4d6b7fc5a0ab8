#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace adattl::obs {

/// Typed timeline records. The integer payloads `a`/`b` and the double
/// `value` are interpreted per kind (see the table in trace docs):
///
///   kDecision      a=domain  b=server  value=ttl_sec
///   kAlarm         a=server            value=utilization
///   kNormal        a=server            value=utilization
///   kNsRefresh     a=domain  b=server  value=effective_ttl_sec
///   kServerPause   a=server
///   kServerResume  a=server
///   kEstimatorUpdate a=windows_observed
///   kServerCrash   a=server  b=lost_pages  value=lost_hits
///   kServerRecover a=server
///   kCapacityScale a=server            value=factor
///   kDnsOutageStart                    value=duration_sec
///   kDnsOutageEnd
///   kStaleServe    a=domain  b=server
///   kRequestFailed a=domain  b=server
///   kUtilization   a=server            value=utilization over the last monitor window
enum class TraceKind : std::uint8_t {
  kDecision = 0,
  kAlarm,
  kNormal,
  kNsRefresh,
  kServerPause,
  kServerResume,
  kEstimatorUpdate,
  kServerCrash,
  kServerRecover,
  kCapacityScale,
  kDnsOutageStart,
  kDnsOutageEnd,
  kStaleServe,
  kRequestFailed,
  kUtilization,
};

/// Short stable name ("decision", "alarm", ...), used by the CSV and Chrome exports.
const char* trace_kind_name(TraceKind kind);

/// One fixed-size timeline record (POD — records never allocate).
struct TraceRecord {
  sim::SimTime time = 0.0;
  TraceKind kind = TraceKind::kDecision;
  /// The slice whose ring recorded it: 0 in a recording tracer, the part's
  /// index in a merged one (EventTracer::merged). It fills padding, so a
  /// record stays 32 bytes; two bytes, since a run has up to 512 slices.
  std::uint16_t slice = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  double value = 0.0;
};
static_assert(sizeof(TraceRecord) == 32, "a trace record is 32 bytes");

/// Bounded ring buffer of typed simulation events.
///
/// The ring is allocated once at construction; record() overwrites the
/// oldest entry when full, so steady-state tracing never allocates. The
/// tracer is wired into components as a nullable pointer — the disabled
/// cost at every instrumentation point is a single null check.
///
/// Exports: Chrome `trace_event` JSON (load chrome://tracing or
/// https://ui.perfetto.dev and drop the file), and two CSV views, per-tick
/// utilization and DNS decisions. A view is complete or not produced: it
/// throws if the ring dropped any record.
///
/// A run over several slices records into one ring per slice; merged()
/// joins them into one read-only view that the same exporters read.
class EventTracer {
 public:
  /// `capacity` > 0: maximum records retained (oldest evicted first).
  explicit EventTracer(std::size_t capacity);

  /// The retained records of every part, stable-sorted by time (ties in
  /// part order), each with its part's index as `slice`. Its totals and
  /// drops are the sums over the parts, and its exporters treat part i as
  /// slice i. A view to read, not to record into.
  static EventTracer merged(const std::vector<const EventTracer*>& parts);

  void record(sim::SimTime time, TraceKind kind, std::int32_t a = 0, std::int32_t b = 0,
              double value = 0.0) {
    TraceRecord& r = ring_[next_];
    r.time = time;
    r.kind = kind;
    r.a = a;
    r.b = b;
    r.value = value;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    ++total_;
  }

  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t total_recorded() const { return total_; }
  std::uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

  /// Retained records in chronological (recording) order.
  std::vector<TraceRecord> records() const;

  /// Chrome trace_event JSON: instant events, ts in microseconds, one pid
  /// per slice and in each one tid per layer (0 = DNS decisions,
  /// 1 = alarms, 2 = name servers, 3 = web servers, 4 = estimator,
  /// 5 = faults). Holds the newest records; dropped() tells how many older
  /// ones the rings lost.
  std::string to_chrome_json() const;

  /// Per-tick utilization: header "time,s0,...,sN-1,max", then one row per
  /// monitor tick from its kUtilization records ("%.3f" time, "%.6f"
  /// values). Throws std::runtime_error if a ring dropped any record; the
  /// message names total_recorded(), a --trace-capacity that holds every
  /// ring of the run.
  std::string to_utilization_csv() const;

  /// Every DNS decision, of every slice: header "time,domain,server,ttl",
  /// then one "%.3f,%d,%d,%.3f" row per kDecision record. Throws like
  /// to_utilization_csv() on a ring that dropped records.
  std::string to_decisions_csv() const;

  /// Writes `content` (from any exporter) to `path`; throws
  /// std::runtime_error on I/O failure.
  static void write_file(const std::string& path, const std::string& content);

 private:
  EventTracer() = default;  // merged()

  /// records(), or std::runtime_error naming `view` if any were dropped.
  std::vector<TraceRecord> complete_records(const char* view) const;

  std::vector<TraceRecord> ring_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
  std::size_t slices_ = 1;  // pids of the Chrome export
};

}  // namespace adattl::obs
