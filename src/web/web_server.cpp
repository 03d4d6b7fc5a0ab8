#include "web/web_server.h"

#include <stdexcept>
#include <vector>

namespace adattl::web {

WebServer::WebServer(sim::Simulator& sim, ServerId id, double capacity_hits_per_sec,
                     int num_domains, sim::RngStream rng)
    : sim_(sim),
      id_(id),
      capacity_(capacity_hits_per_sec),
      rng_(rng),
      window_hits_(static_cast<std::size_t>(num_domains), 0),
      lifetime_hits_(static_cast<std::size_t>(num_domains), 0) {
  if (capacity_hits_per_sec <= 0) throw std::invalid_argument("WebServer: capacity must be > 0");
  if (num_domains <= 0) throw std::invalid_argument("WebServer: num_domains must be >= 1");
}

void WebServer::submit_page(PageRequest req) {
  if (req.hits <= 0) throw std::invalid_argument("WebServer: page must carry >= 1 hit");
  const auto d = static_cast<std::size_t>(req.domain);
  if (d >= window_hits_.size()) throw std::out_of_range("WebServer: unknown domain");

  if (crashed_) {
    // A crashed server never sees the demand: no hit accounting, so the
    // estimator cannot attribute hidden load to a dead server.
    ++rejected_pages_;
    if (tracer_) tracer_->record(sim_.now(), obs::TraceKind::kRequestFailed, req.domain, id_);
    if (req.client) req.client->page_failed(req.token);
    return;
  }

  // Load is accounted at arrival: this is when the mapping decision made by
  // the DNS manifests as demand on this server.
  window_hits_[d] += static_cast<std::uint64_t>(req.hits);
  lifetime_hits_[d] += static_cast<std::uint64_t>(req.hits);

  queue_.push_back(Job{req, sim_.now()});
  if (!busy_ && !paused_) start_next();
}

void WebServer::set_paused(bool paused) {
  if (tracer_ && paused != paused_) {
    tracer_->record(sim_.now(), paused ? obs::TraceKind::kServerPause
                                       : obs::TraceKind::kServerResume,
                    id_);
  }
  paused_ = paused;
  if (!paused_ && !crashed_ && !busy_ && !queue_.empty()) start_next();
}

void WebServer::set_crashed(bool crashed) {
  if (crashed == crashed_) return;
  crashed_ = crashed;
  if (!crashed_) {
    // Recovery: the server comes back empty and idle; service restarts
    // when new pages arrive.
    if (tracer_) tracer_->record(sim_.now(), obs::TraceKind::kServerRecover, id_);
    return;
  }

  // Collect victims first so every client sees fully consistent state.
  std::vector<PageRequest> failed;
  std::uint64_t crash_pages = 0;
  std::uint64_t crash_hits = 0;
  if (busy_) {
    sim_.cancel(service_event_);
    // The seconds already burned on the dropped page were real work.
    closed_busy_time_ += sim_.now() - service_start_;
    busy_ = false;
    ++crash_pages;
    crash_hits += static_cast<std::uint64_t>(current_.req.hits);
    if (current_.req.client) failed.push_back(current_.req);
    current_ = Job{};
  }
  queue_.for_each([&](const Job& job) {
    ++crash_pages;
    crash_hits += static_cast<std::uint64_t>(job.req.hits);
    if (job.req.client) failed.push_back(job.req);
  });
  queue_.clear();

  lost_pages_ += crash_pages;
  lost_hits_ += crash_hits;
  if (tracer_) {
    tracer_->record(sim_.now(), obs::TraceKind::kServerCrash, id_,
                    static_cast<std::int32_t>(crash_pages),
                    static_cast<double>(crash_hits));
  }
  for (const PageRequest& victim : failed) victim.client->page_failed(victim.token);
}

void WebServer::set_capacity_factor(double factor) {
  if (factor <= 0.0) throw std::invalid_argument("WebServer: capacity factor must be > 0");
  capacity_factor_ = factor;
  if (tracer_) tracer_->record(sim_.now(), obs::TraceKind::kCapacityScale, id_, 0, factor);
}

void WebServer::start_next() {
  current_ = queue_.front();
  queue_.pop_front();
  busy_ = true;
  service_start_ = sim_.now();
  const int h = current_.req.hits;
  const double mean = static_cast<double>(h) / effective_capacity();
  const double service = log_ring_ ? log_ring_->erlang(h, mean) : rng_.erlang(h, mean);
  service_end_ = service_start_ + service;
  service_event_ = sim_.at(service_end_, [this] { finish_current(); });
}

void WebServer::finish_current() {
  closed_busy_time_ += sim_.now() - service_start_;
  busy_ = false;

  pages_served_++;
  hits_served_ += static_cast<std::uint64_t>(current_.req.hits);
  response_time_.add(sim_.now() - current_.arrival);
  response_hist_.add(sim_.now() - current_.arrival);

  // Copy the client out before dequeueing the next job so a client that
  // immediately submits another page sees consistent state.
  PageClient* const client = current_.req.client;
  const std::uint32_t token = current_.req.token;
  if (!queue_.empty() && !paused_) start_next();
  if (client) client->page_done(token);
}

double WebServer::cumulative_busy_time(sim::SimTime now) const {
  double busy = closed_busy_time_;
  if (busy_) busy += std::min(now, service_end_) - service_start_;
  return busy;
}

void WebServer::attach_log_ring(sim::LogRing& ring) {
  if (log_ring_) throw std::logic_error("WebServer: a log ring is already attached");
  ring.start(rng_);
  log_ring_ = &ring;
}

void WebServer::JobQueue::grow() {
  std::vector<Job> bigger(jobs_.empty() ? 16 : 2 * jobs_.size());
  for_each([&bigger, i = std::size_t{0}](const Job& job) mutable { bigger[i++] = job; });
  jobs_.swap(bigger);
  head_ = 0;
}

std::vector<std::uint64_t> WebServer::drain_domain_hits() {
  std::vector<std::uint64_t> out(window_hits_.size(), 0);
  out.swap(window_hits_);
  return out;
}

}  // namespace adattl::web
