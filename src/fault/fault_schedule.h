#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace adattl::fault {

/// One scripted server crash: at `start_sec` the server drops its queue and
/// in-flight work and rejects submissions; `duration_sec` later it recovers
/// empty and idle. Unlike a pause, a crash is *visible*: the DNS marks the
/// server down (health checks fail) and excludes it from selection until
/// recovery, independently of the utilization alarm state.
struct CrashWindow {
  double start_sec = 0.0;
  double duration_sec = 0.0;
  int server = 0;
};

/// One capacity degradation: C_i is scaled by `factor` (0 < factor) for the
/// window, then restored. The DNS is *not* told — its policies keep using
/// the nominal capacities, which is exactly the blind spot the alarm
/// feedback has to cover.
struct DegradeWindow {
  double start_sec = 0.0;
  double duration_sec = 0.0;
  int server = 0;
  double factor = 1.0;
};

/// One silent stall (`pause`, or its older spelling `--outage`): the server
/// keeps accepting and queueing but serves nothing; queued work survives.
struct PauseWindow {
  double start_sec = 0.0;
  double duration_sec = 0.0;
  int server = 0;
};

/// One authoritative-DNS outage: during [start, start + duration) the
/// scheduler is unreachable, so name servers fall back to capped-backoff
/// retries and stale-serving (see dnscache::NameServer).
struct DnsOutageWindow {
  double start_sec = 0.0;
  double duration_sec = 0.0;
};

/// One elastic pool event (extension): at `start_sec` the server enters
/// (`scale-up`) or leaves (`scale-down`) the DNS pool. Leaving is a drain,
/// not a crash — the server finishes queued work and keeps serving pages
/// from cached mappings, it just stops receiving new mappings. Point
/// events, not windows: membership persists until the next event.
struct ScaleEvent {
  double start_sec = 0.0;
  int server = 0;
  bool up = true;
};

/// One open-ended capacity resize (extension): at `start_sec` server
/// capacity is scaled to `factor` × nominal and stays there until another
/// resize touches it. Unlike a degrade window, the change is permanent and
/// *intended* — it models replacing or re-provisioning a box, not a fault.
struct ResizeEvent {
  double start_sec = 0.0;
  int server = 0;
  double factor = 1.0;
};

/// A deterministic, scenario-driven fault plan: every fault is a timed
/// window fixed before the run starts, so replications stay reproducible
/// and a fault-free schedule is bit-identical to no schedule at all.
///
/// Text form (fault files and scenario keys) is the same "key = value"
/// line format as scenario files, with colon-packed values mirroring the
/// existing `--outage=START:DURATION:SERVER` convention:
///
///   crash      = START:DURATION:SERVER
///   degrade    = START:DURATION:SERVER:FACTOR
///   pause      = START:DURATION:SERVER
///   dns-outage = START:DURATION
///   scale-up   = START:SERVER
///   scale-down = START:SERVER
///   resize     = START:SERVER:FACTOR
struct FaultSchedule {
  std::vector<CrashWindow> crashes;
  std::vector<DegradeWindow> degradations;
  std::vector<PauseWindow> pauses;
  std::vector<DnsOutageWindow> dns_outages;
  std::vector<ScaleEvent> scale_events;
  std::vector<ResizeEvent> resizes;

  bool empty() const {
    return crashes.empty() && degradations.empty() && pauses.empty() && dns_outages.empty() &&
           scale_events.empty() && resizes.empty();
  }
  std::size_t size() const {
    return crashes.size() + degradations.size() + pauses.size() + dns_outages.size() +
           scale_events.size() + resizes.size();
  }

  /// Validates every window (start >= 0, duration > 0, server within
  /// [0, num_servers), factor finite and > 0); throws std::invalid_argument
  /// naming the field. NaN fails every check; an infinite start or
  /// duration passes (a window that never opens, or never closes).
  void validate(int num_servers) const;

  /// Appends `other`'s windows to this schedule (used to merge a fault
  /// file with inline --crash/--degrade/--dns-outage flags).
  void merge(const FaultSchedule& other);

  /// Parses one "key = value" directive into this schedule; returns false
  /// when the key is not a fault directive (caller decides whether that is
  /// an error). Malformed values throw std::invalid_argument.
  bool apply_directive(const std::string& key, const std::string& value);

  // Spec parsers for the colon-packed forms (also used by the CLI flags).
  static CrashWindow parse_crash(const std::string& spec);
  static DegradeWindow parse_degrade(const std::string& spec);
  static PauseWindow parse_pause(const std::string& spec);
  static DnsOutageWindow parse_dns_outage(const std::string& spec);
  static ScaleEvent parse_scale(const std::string& spec, bool up);
  static ResizeEvent parse_resize(const std::string& spec);
};

/// Parses a fault file's text ("#" comments, blank lines, key = value
/// directives). Unknown keys throw std::invalid_argument naming the line.
FaultSchedule parse_fault_text(const std::string& text);

/// Loads and parses a fault file; throws std::runtime_error when the file
/// cannot be read.
FaultSchedule load_fault_file(const std::string& path);

}  // namespace adattl::fault
