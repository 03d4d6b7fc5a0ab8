#include "dnscache/name_server.h"

#include <algorithm>
#include <stdexcept>

namespace adattl::dnscache {

void NsRetryPolicy::validate() const {
  if (initial_backoff_sec <= 0.0) {
    throw std::invalid_argument("NsRetryPolicy: initial backoff must be > 0");
  }
  if (max_backoff_sec < initial_backoff_sec) {
    throw std::invalid_argument("NsRetryPolicy: max backoff must be >= initial");
  }
  if (multiplier < 1.0) {
    throw std::invalid_argument("NsRetryPolicy: multiplier must be >= 1");
  }
}

NameServer::NameServer(sim::Simulator& sim, web::DomainId domain, core::DnsScheduler& dns,
                       NsTtlBehavior behavior)
    : sim_(sim), domain_(domain), dns_(dns), behavior_(behavior) {}

void NameServer::set_dns_outages(const fault::DnsOutageCalendar* calendar,
                                 NsRetryPolicy retry) {
  retry.validate();
  outages_ = calendar;
  retry_ = retry;
  next_attempt_at_ = 0.0;
  current_backoff_sec_ = 0.0;
}

bool NameServer::has_fresh_mapping() const {
  return cached_server_ >= 0 && sim_.now() < expires_at_;
}

web::ServerId NameServer::resolve() { return resolve_mapping().server; }

Mapping NameServer::serve_unreachable() {
  // One real attempt per backoff window; queries inside the window go
  // straight to the (stale) cache.
  if (sim_.now() >= next_attempt_at_) {
    ++failed_queries_;
    current_backoff_sec_ = current_backoff_sec_ == 0.0
                               ? retry_.initial_backoff_sec
                               : std::min(current_backoff_sec_ * retry_.multiplier,
                                          retry_.max_backoff_sec);
    next_attempt_at_ = sim_.now() + current_backoff_sec_;
  }
  if (cached_server_ >= 0) {
    // Stale-serve: better a possibly-dead server than no answer at all.
    // The mapping expires *now* so nothing downstream caches it as fresh.
    ++stale_serves_;
    if (tracer_) {
      tracer_->record(sim_.now(), obs::TraceKind::kStaleServe, domain_, cached_server_);
    }
    return Mapping{cached_server_, sim_.now()};
  }
  // Cold cache and no upstream: resolution fails outright.
  return Mapping{-1, sim_.now()};
}

Mapping NameServer::resolve_mapping() {
  if (has_fresh_mapping()) {
    ++cache_hits_;
    return Mapping{cached_server_, expires_at_};
  }
  if (outages_ && (sim_.now() < next_attempt_at_ || outages_->unreachable(sim_.now()))) {
    return serve_unreachable();
  }
  current_backoff_sec_ = 0.0;  // reachable again: reset the backoff ladder
  const core::Decision d = dns_.schedule(domain_);
  ++authoritative_queries_;
  const double effective = behavior_.effective_ttl(d.ttl_sec);
  if (effective_ttl_hist_) effective_ttl_hist_->add(effective);
  if (tracer_) tracer_->record(sim_.now(), obs::TraceKind::kNsRefresh, domain_, d.server, effective);
  cached_server_ = d.server;
  expires_at_ = sim_.now() + effective;
  return Mapping{cached_server_, expires_at_};
}

void NameServer::bind_observability(obs::EventTracer* tracer, sim::Histogram* effective_ttl) {
  tracer_ = tracer;
  effective_ttl_hist_ = effective_ttl;
}

}  // namespace adattl::dnscache
