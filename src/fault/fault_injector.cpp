#include "fault/fault_injector.h"

namespace adattl::fault {

FaultInjector::FaultInjector(sim::Simulator& sim, web::Cluster& cluster,
                             const FaultSchedule& schedule)
    : sim_(sim),
      cluster_(cluster),
      schedule_(schedule),
      dns_calendar_(schedule.dns_outages) {
  schedule_.validate(cluster_.size());
  schedule_events();
}

void FaultInjector::schedule_events() {
  // Kind by kind in a fixed order, pauses first: the insertion order
  // decides how ties at equal timestamps resolve (FIFO among equals).
  for (const PauseWindow& w : schedule_.pauses) {
    sim_.at(w.start_sec, [this, s = w.server] {
      ++events_fired_;
      cluster_.server(s).set_paused(true);
    });
    sim_.at(w.start_sec + w.duration_sec, [this, s = w.server] {
      ++events_fired_;
      cluster_.server(s).set_paused(false);
    });
  }
  for (const CrashWindow& w : schedule_.crashes) {
    sim_.at(w.start_sec, [this, s = w.server] {
      ++events_fired_;
      cluster_.server(s).set_crashed(true);
      if (alarms_) alarms_->set_down(s, true);
    });
    sim_.at(w.start_sec + w.duration_sec, [this, s = w.server] {
      ++events_fired_;
      cluster_.server(s).set_crashed(false);
      if (alarms_) alarms_->set_down(s, false);
    });
  }
  for (const DegradeWindow& w : schedule_.degradations) {
    sim_.at(w.start_sec, [this, s = w.server, f = w.factor] {
      ++events_fired_;
      cluster_.server(s).set_capacity_factor(f);
    });
    sim_.at(w.start_sec + w.duration_sec, [this, s = w.server] {
      ++events_fired_;
      cluster_.server(s).set_capacity_factor(1.0);
    });
  }
  // Elastic pool events (extension). Scheduled after the fault kinds so a
  // schedule without them keeps the historical event insertion order.
  // Scale events only flip DNS pool membership — the server itself keeps
  // draining, so no work is lost; resizes are open-ended capacity changes.
  for (const ScaleEvent& e : schedule_.scale_events) {
    sim_.at(e.start_sec, [this, s = e.server, up = e.up] {
      ++events_fired_;
      if (alarms_) alarms_->set_in_pool(s, up);
    });
  }
  for (const ResizeEvent& e : schedule_.resizes) {
    sim_.at(e.start_sec, [this, s = e.server, f = e.factor] {
      ++events_fired_;
      cluster_.server(s).set_capacity_factor(f);
    });
  }
  // Boundary markers for the (time-driven) DNS calendar: purely
  // observational, but scheduled unconditionally so fault runs count them
  // whether or not a tracer is attached later.
  for (const DnsOutageWindow& w : dns_calendar_.windows()) {
    sim_.at(w.start_sec, [this, d = w.duration_sec] {
      ++events_fired_;
      if (tracer_) {
        tracer_->record(sim_.now(), obs::TraceKind::kDnsOutageStart, 0, 0, d);
      }
    });
    sim_.at(w.start_sec + w.duration_sec, [this] {
      ++events_fired_;
      if (tracer_) tracer_->record(sim_.now(), obs::TraceKind::kDnsOutageEnd);
    });
  }
}

}  // namespace adattl::fault
