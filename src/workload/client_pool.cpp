#include "workload/client_pool.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace adattl::workload {

void SessionProfile::validate() const {
  if (mean_pages_per_session < 1.0) {
    throw std::invalid_argument("SessionProfile: mean pages must be >= 1");
  }
  if (min_hits_per_page < 1 || max_hits_per_page < min_hits_per_page) {
    throw std::invalid_argument("SessionProfile: bad hits-per-page range");
  }
  if (pareto_shape <= 0.0) {
    throw std::invalid_argument("SessionProfile: Pareto shape must be > 0");
  }
}

int SessionProfile::sample_hits(sim::Rng& rng) const {
  switch (hits_distribution) {
    case HitsDistribution::kUniform:
      return static_cast<int>(rng.uniform_int(min_hits_per_page, max_hits_per_page));
    case HitsDistribution::kPareto: {
      // Bounded Pareto on [L, H] by inverse-CDF; heavy lower-tail mass with
      // occasional near-H bursts — the Arlitt/Williamson-style alternative.
      const double a = pareto_shape;
      const double l = static_cast<double>(min_hits_per_page);
      const double h = static_cast<double>(max_hits_per_page) + 1.0;  // include H after floor
      const double u = rng.next_double();
      const double la = std::pow(l, a);
      const double ha = std::pow(h, a);
      const double x = std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / a);
      const int hits = static_cast<int>(x);
      return std::min(std::max(hits, min_hits_per_page), max_hits_per_page);
    }
  }
  throw std::logic_error("SessionProfile: unknown hits distribution");
}

double SessionProfile::mean_hits_per_page() const {
  switch (hits_distribution) {
    case HitsDistribution::kUniform:
      return 0.5 * (min_hits_per_page + max_hits_per_page);
    case HitsDistribution::kPareto: {
      // Mean of the continuous bounded Pareto; close enough for load math.
      const double a = pareto_shape;
      const double l = static_cast<double>(min_hits_per_page);
      const double h = static_cast<double>(max_hits_per_page) + 1.0;
      if (a == 1.0) return l * h / (h - l) * std::log(h / l);
      const double la = std::pow(l, a);
      const double ha = std::pow(h, a);
      return la / (1.0 - la / ha) * (a / (a - 1.0)) *
             (1.0 / std::pow(l, a - 1.0) - 1.0 / std::pow(h, a - 1.0));
    }
  }
  throw std::logic_error("SessionProfile: unknown hits distribution");
}

ClientPool::ClientPool(sim::Simulator& sim, web::PageDispatcher& dispatcher,
                       const SessionProfile& profile, const ThinkTimeModel& think,
                       const geo::GeoModel* geo, double retry_delay_sec)
    : sim_(sim),
      dispatcher_(dispatcher),
      profile_(profile),
      think_(think),
      geo_(geo),
      retry_delay_sec_(retry_delay_sec) {
  profile_.validate();
  if (retry_delay_sec <= 0.0) {
    throw std::invalid_argument("Client: retry delay must be > 0");
  }
  domain_response_.reserve(static_cast<std::size_t>(think_.num_domains()));
  for (int d = 0; d < think_.num_domains(); ++d) {
    domain_response_.emplace_back(30.0, 600);
  }
  own_simulator();
}

void ClientPool::own_simulator() {
  sim_.set_owner({&ClientPool::fire, this, recs_.data(), sizeof(Rec)});
}

void ClientPool::reserve(std::size_t clients) {
  recs_.reserve(clients);
  if (geo_) network_time_.reserve(clients);
  own_simulator();
}

std::size_t ClientPool::add(dnscache::Resolver& resolver, const sim::Rng& rng) {
  if (resolver.domain() < 0 || resolver.domain() >= think_.num_domains()) {
    throw std::invalid_argument("Client: resolver domain outside think-time model");
  }
  if (geo_ && geo_->num_domains() <= resolver.domain()) {
    throw std::invalid_argument("Client: resolver domain outside geo model");
  }
  recs_.emplace_back(rng, &resolver);
  if (geo_) network_time_.push_back(0.0);
  own_simulator();  // the records may have moved
  return recs_.size() - 1;
}

void ClientPool::start(std::size_t i, double initial_delay) {
  if (i >= recs_.size()) {
    throw std::out_of_range("ClientPool::start: no client " + std::to_string(i) + " (pool has " +
                            std::to_string(recs_.size()) + ")");
  }
  if (recs_[i].state != State::kNotStarted) throw_not_idle(i, "was already started");
  wake(static_cast<std::uint32_t>(i), State::kBeginSession, initial_delay);
}

void ClientPool::throw_not_idle(std::size_t i, const char* what) {
  throw std::logic_error("ClientPool: client " + std::to_string(i) + " " + what);
}

void ClientPool::wake(std::uint32_t i, State next, double delay) {
  Rec& c = recs_[i];
  if (c.state > State::kAtServer) [[unlikely]] throw_not_idle(i, "already has a pending event");
  sim_.after_owned(delay, i);
  c.state = next;
}

void ClientPool::fire(void* pool, std::uint32_t i) {
  ClientPool& self = *static_cast<ClientPool*>(pool);
  Rec& c = self.recs_[i];
  const State pending = c.state;
  c.state = State::kAtServer;
  switch (pending) {
    case State::kBeginSession: return self.begin_session(i);
    case State::kArriveNext: ++self.totals_.pages; [[fallthrough]];
    case State::kArrive: return self.arrive(i);
    case State::kRetryPage: return self.retry_page(i);
    case State::kNotStarted:
    case State::kAtServer: break;
  }
  c.state = pending;
  throw_not_idle(i, "fired with no pending event");
}

ClientPool::Totals ClientPool::totals() const {
  Totals t = totals_;
  for (const double seconds : network_time_) t.network_time_sec += seconds;
  return t;
}

void ClientPool::begin_session(std::uint32_t i) {
  Rec& c = recs_[i];
  c.mapped_server = c.resolver->resolve();
  if (c.mapped_server < 0) {
    // DNS outage against a cold NS cache: nothing to stale-serve. The
    // session has not started — try again shortly.
    ++totals_.resolution_failures;
    wake(i, State::kBeginSession, retry_delay_sec_);
    return;
  }
  ++totals_.sessions;
  c.pages_left = c.rng.geometric_min1(profile_.mean_pages_per_session);
  ++totals_.pages;
  --c.pages_left;
  c.pending_hits = profile_.sample_hits(c.rng);
  dispatch_request(i);
}

void ClientPool::dispatch_request(std::uint32_t i) {
  const Rec& c = recs_[i];
  const double rtt = geo_ ? geo_->rtt(c.resolver->domain(), c.mapped_server) : 0.0;
  if (rtt > 0.0) {
    // Request leg only. The reply leg is charged when (if) the server
    // completes the page — a rejected or crashed attempt never took it.
    network_time_[i] += rtt / 2.0;
    wake(i, State::kArrive, rtt / 2.0);
  } else {
    arrive(i);
  }
}

void ClientPool::arrive(std::uint32_t i) {
  Rec& c = recs_[i];
  c.page_start = sim_.now();
  dispatcher_.dispatch(c.mapped_server,
                       web::PageRequest{c.resolver->domain(), c.pending_hits, this, i});
}

void ClientPool::page_done(std::uint32_t i) {
  Rec& c = recs_[i];
  const web::DomainId d = c.resolver->domain();
  // The mapping is held for the session, so this is the RTT the page's
  // request leg flew.
  const double rtt = geo_ ? geo_->rtt(d, c.mapped_server) : 0.0;
  if (rtt > 0.0) network_time_[i] += rtt / 2.0;  // the reply leg home
  // Client-perceived response: request flight + server time + reply
  // flight. page_start is the server-arrival instant, so both legs are
  // added back.
  domain_response_[static_cast<std::size_t>(d)].add((sim_.now() - c.page_start) + rtt);
  const double think = think_.sample(d, c.rng);
  if (c.pages_left > 0) {
    // Coalesce reply flight + think + next request flight into one event:
    // the mapping is held for the session, so nothing the client can
    // observe changes in between. The next page's size is drawn now —
    // same stream, same order, same value as drawing it at dispatch time —
    // but the page counts as requested when its arrival fires (= the
    // historical think-end instant); a retry arrives uncounted.
    --c.pages_left;
    c.pending_hits = profile_.sample_hits(c.rng);
    if (rtt > 0.0) {
      network_time_[i] += rtt / 2.0;  // next page's request leg
      wake(i, State::kArriveNext, rtt / 2.0 + think + rtt / 2.0);
    } else {
      wake(i, State::kArriveNext, think);
    }
  } else {
    // Session over: reply flight + think, then re-resolve (the next
    // session's mapping may differ, so it cannot coalesce further).
    if (rtt > 0.0) {
      wake(i, State::kBeginSession, rtt / 2.0 + think);
    } else {
      wake(i, State::kBeginSession, think);
    }
  }
}

void ClientPool::page_failed(std::uint32_t i) {
  // Called from inside the server's crash/reject path — never resubmit
  // synchronously; the retry is a fresh simulator event.
  ++totals_.pages_failed;
  wake(i, State::kRetryPage, retry_delay_sec_);
}

void ClientPool::retry_page(std::uint32_t i) {
  Rec& c = recs_[i];
  // The mapping that failed may point at a dead server; re-resolve first
  // (the NS or the DNS may know better by now), then re-issue the *same*
  // page. During a DNS outage with nothing cached this loops on the
  // resolution until either recovers.
  c.mapped_server = c.resolver->resolve();
  if (c.mapped_server < 0) {
    ++totals_.resolution_failures;
    wake(i, State::kRetryPage, retry_delay_sec_);
    return;
  }
  dispatch_request(i);
}

}  // namespace adattl::workload
