#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/event_tracer.h"
#include "sim/log_ring.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "web/types.h"

namespace adattl::web {

/// One heterogeneous Web server: a FIFO queue serving hit bursts at
/// `capacity` hits per second.
///
/// A page of h hits is served as a single Erlang(h, h/capacity) interval —
/// statistically identical to h back-to-back exponential hit services but
/// one event instead of h. The server keeps the accounting the DNS
/// algorithms need: cumulative busy time (for interval utilization) and
/// per-domain hit counts (the raw material of hidden-load estimation).
///
/// Failure states (see fault::FaultInjector):
///   paused  — silent stall: accepts and queues, serves nothing; queued
///             work survives and drains on resume.
///   crashed — hard failure: the queue and the in-flight page are dropped
///             (lost-work accounting below) and submissions are rejected
///             until recovery; the server restarts empty and idle.
///   degraded — capacity scaled by a factor; affects services started
///             after the change (the in-flight interval keeps its rate).
/// Pause and crash are orthogonal flags; a server that crashes while
/// paused stays paused on recovery.
class WebServer {
 public:
  WebServer(sim::Simulator& sim, ServerId id, double capacity_hits_per_sec,
            int num_domains, sim::RngStream rng);

  WebServer(const WebServer&) = delete;
  WebServer& operator=(const WebServer&) = delete;

  ServerId id() const { return id_; }
  double capacity() const { return capacity_; }

  /// Enqueues a page; its client's page_done(token) fires when all hits
  /// are served. While crashed the page is rejected instead: the lost-work
  /// counters grow, its client's page_failed(token) fires (if it names a
  /// client), and nothing — not even the per-domain hit accounting —
  /// records the page as demand.
  void submit_page(PageRequest req);

  /// Pauses/resumes service (outage injection). A paused server keeps
  /// accepting and queueing pages — the failure is silent from the DNS's
  /// point of view — and the in-flight page finishes, but no new service
  /// starts until resume. Utilization collapses toward zero during an
  /// outage, which is exactly why utilization-only alarm feedback cannot
  /// detect it (see AlarmRegistry's queue threshold).
  void set_paused(bool paused);
  bool paused() const { return paused_; }

  /// Crashes/recovers the server. Crashing cancels the in-flight service
  /// (its partial busy time is kept — the work really was performed),
  /// drops the whole queue, and tells each victim's client page_failed
  /// after the server state is consistent: the page in service first, then
  /// the queue in order. Recovery restarts service only when new pages
  /// arrive. Idempotent in both directions.
  void set_crashed(bool crashed);
  bool crashed() const { return crashed_; }

  /// Scales capacity by `factor` (> 0; 1.0 restores nominal). Services
  /// started after the call run at capacity() * factor; the in-flight
  /// interval is not rescaled.
  void set_capacity_factor(double factor);
  double effective_capacity() const { return capacity_ * capacity_factor_; }

  /// Total busy seconds since construction, up to `now` (includes the
  /// in-progress service prorated to `now`).
  double cumulative_busy_time(sim::SimTime now) const;
  /// Busy seconds of the services already ended (completed, or cut short
  /// by a crash): cumulative_busy_time as of the last completion or crash.
  double closed_busy_time() const { return closed_busy_time_; }

  /// Pages waiting or in service. This is the queue-depth convention used
  /// everywhere (monitor reports, the "server.<id>.queue_depth" metric):
  /// the in-service page counts as queued work.
  std::size_t queue_length() const { return queue_.size() + (busy_ ? 1 : 0); }

  /// Per-domain hit counts accumulated since the last drain; drains them.
  /// Index = DomainId. This is the periodic report the DNS collects to
  /// estimate hidden load weights.
  std::vector<std::uint64_t> drain_domain_hits();

  /// Per-domain hit counts since construction (never reset).
  const std::vector<std::uint64_t>& lifetime_domain_hits() const { return lifetime_hits_; }

  std::uint64_t pages_served() const { return pages_served_; }
  std::uint64_t hits_served() const { return hits_served_; }

  /// Pages/hits dropped by crashes (queued or in flight when the server
  /// went down). Hits count the victims' full bursts even when the
  /// in-flight page was partially served.
  std::uint64_t lost_pages() const { return lost_pages_; }
  std::uint64_t lost_hits() const { return lost_hits_; }
  /// Submissions rejected while crashed.
  std::uint64_t rejected_pages() const { return rejected_pages_; }

  /// Page response time (queueing + service) statistics.
  const sim::RunningStat& response_time() const { return response_time_; }

  /// Response-time histogram (0–30 s range, 10 ms bins) for percentile
  /// queries; merge across servers for a site-wide view.
  const sim::Histogram& response_histogram() const { return response_hist_; }

  /// Wires pause/crash/failure trace records onto `tracer` (may be null).
  void bind_observability(obs::EventTracer* tracer) { tracer_ = tracer; }

  /// Hands the server's stream to `ring`, through which it draws every
  /// service time from now on: the same values, in the same order, so
  /// attaching changes no result. Call at most once; the ring must outlive
  /// the server's last service.
  void attach_log_ring(sim::LogRing& ring);

 private:
  struct Job {
    PageRequest req;
    sim::SimTime arrival;
  };
  static_assert(sizeof(Job) == 32, "a queued page is four words");

  /// The waiting pages, first come first served: a power-of-two ring that
  /// only grows, so a server that once held n pages queues n again
  /// without allocating.
  class JobQueue {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    const Job& front() const { return jobs_[head_]; }
    void pop_front() {
      head_ = (head_ + 1) & (jobs_.size() - 1);
      --size_;
    }
    void push_back(const Job& job) {
      if (size_ == jobs_.size()) grow();
      jobs_[(head_ + size_) & (jobs_.size() - 1)] = job;
      ++size_;
    }
    /// Calls f(job) on every waiting page, first to last.
    template <class F>
    void for_each(F&& f) const {
      for (std::size_t i = 0; i < size_; ++i) f(jobs_[(head_ + i) & (jobs_.size() - 1)]);
    }
    void clear() { head_ = size_ = 0; }

   private:
    void grow();

    std::vector<Job> jobs_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  void start_next();
  void finish_current();

  sim::Simulator& sim_;
  ServerId id_;
  double capacity_;
  sim::RngStream rng_;
  sim::LogRing* log_ring_ = nullptr;  // once set, owns the stream rng_ was

  JobQueue queue_;
  bool busy_ = false;
  bool paused_ = false;
  bool crashed_ = false;
  double capacity_factor_ = 1.0;
  Job current_{};
  sim::SimTime service_start_ = 0.0;
  sim::SimTime service_end_ = 0.0;
  sim::EventHandle service_event_;

  double closed_busy_time_ = 0.0;

  std::vector<std::uint64_t> window_hits_;    // drained by the estimator
  std::vector<std::uint64_t> lifetime_hits_;  // never reset
  std::uint64_t pages_served_ = 0;
  std::uint64_t hits_served_ = 0;
  std::uint64_t lost_pages_ = 0;
  std::uint64_t lost_hits_ = 0;
  std::uint64_t rejected_pages_ = 0;
  sim::RunningStat response_time_;
  sim::Histogram response_hist_{30.0, 3000};

  obs::EventTracer* tracer_ = nullptr;
};

}  // namespace adattl::web
