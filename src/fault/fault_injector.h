#pragma once

#include <cstdint>

#include "core/alarm_registry.h"
#include "fault/dns_outage.h"
#include "fault/fault_schedule.h"
#include "obs/event_tracer.h"
#include "sim/simulator.h"
#include "web/cluster.h"

namespace adattl::fault {

/// Wires a FaultSchedule into a live site: every window becomes a pair of
/// simulator events fixed at construction time, so a run's fault sequence
/// is part of its deterministic event plan (replications reproduce it
/// exactly, and an empty schedule schedules nothing at all — bit-identical
/// to a site without an injector).
///
/// Responsibilities per fault kind:
///   crash    -> WebServer::set_crashed (drop queue + in-flight, reject
///               submissions) and AlarmRegistry::set_down (the DNS's
///               health checks see a crash, unlike a silent pause, so the
///               server leaves the eligible set immediately and is
///               re-admitted on recovery);
///   degrade  -> WebServer::set_capacity_factor (the DNS is NOT told — its
///               policies keep the nominal C_i, so only the alarm feedback
///               can react);
///   pause    -> WebServer::set_paused (the silent stall);
///   dns-outage -> exposed as a DnsOutageCalendar for the name servers
///               (stale-serve + backoff) and traced at the boundaries;
///   scale-up/scale-down -> AlarmRegistry::set_in_pool (elastic DNS pool
///               membership; a scaled-down server drains, losing nothing);
///   resize   -> WebServer::set_capacity_factor, open-ended (re-provision
///               rather than fault; persists until another resize).
class FaultInjector {
 public:
  /// Validates `schedule` against the cluster size and schedules every
  /// window's start/end events, kind by kind in a fixed order (pauses
  /// first), so events at equal timestamps tie the same way in every run.
  FaultInjector(sim::Simulator& sim, web::Cluster& cluster, const FaultSchedule& schedule);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Attaches the DNS-side down marking. The registry is built after the
  /// injector in the Site wiring order, so it arrives late; crash events
  /// read it at fire time. Null (the default) means no DNS feedback —
  /// crashed servers stay in the selection set and simply reject.
  void set_alarm_registry(core::AlarmRegistry* alarms) { alarms_ = alarms; }

  const FaultSchedule& schedule() const { return schedule_; }
  const DnsOutageCalendar& dns_calendar() const { return dns_calendar_; }

  /// Fault events fired so far (window starts + ends of every kind).
  std::uint64_t events_fired() const { return events_fired_; }

  /// Wires dns-outage boundary trace records onto `tracer` (may be null).
  void bind_observability(obs::EventTracer* tracer) { tracer_ = tracer; }

 private:
  void schedule_events();

  sim::Simulator& sim_;
  web::Cluster& cluster_;
  core::AlarmRegistry* alarms_ = nullptr;
  FaultSchedule schedule_;
  DnsOutageCalendar dns_calendar_;
  std::uint64_t events_fired_ = 0;
  obs::EventTracer* tracer_ = nullptr;
};

}  // namespace adattl::fault
