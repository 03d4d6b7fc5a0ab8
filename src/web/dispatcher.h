#pragma once

#include <cstdint>
#include <deque>
#include <utility>

#include "sim/simulator.h"
#include "web/cluster.h"

namespace adattl::web {

/// Where a client's page request enters the server side. The plain
/// dispatcher hands the page to the DNS-chosen server; the redirecting
/// dispatcher adds the second-level mechanism of the authors' follow-up
/// work (server-side request redirection): an overloaded server passes
/// the request on instead of queueing it.
class PageDispatcher {
 public:
  virtual ~PageDispatcher() = default;

  /// Delivers one page to `target` (or wherever redirection sends it).
  virtual void dispatch(ServerId target, PageRequest request) = 0;
};

/// Direct delivery — the paper's model: the DNS decision is final.
class DirectDispatcher : public PageDispatcher {
 public:
  explicit DirectDispatcher(Cluster& cluster) : cluster_(cluster) {}

  void dispatch(ServerId target, PageRequest request) override {
    cluster_.server(target).submit_page(request);
  }

 private:
  Cluster& cluster_;
};

/// Server-side redirection (extension; cf. the authors' ICDCS'99/TOIT
/// follow-ups on "request redirection"): if the target server's backlog
/// exceeds `max_wait_sec` of estimated work, the request is forwarded to
/// the server with the least normalized backlog. A request is redirected
/// at most once (no ping-pong), and each redirection costs
/// `redirect_delay_sec` of extra latency before the page is enqueued
/// (modeling the extra network hop; with a geo model this would be the
/// inter-server RTT — a flat cost keeps the knob independent).
///
/// Redirection acts on the *queue the DNS cannot see*, so it composes
/// with any DNS policy; the redirection ablation measures how much of the
/// adaptive-TTL gap this second-level mechanism closes.
///
/// A redirected page (24 bytes: domain, hits, client, token) waits in a
/// FIFO owned by the dispatcher, and the delivery event captures only
/// `this`. The FIFO order is exact: every redirect waits the same delay on
/// a monotone clock, and events at equal times fire in scheduling order.
class RedirectingDispatcher : public PageDispatcher {
 public:
  RedirectingDispatcher(sim::Simulator& sim, Cluster& cluster, double max_wait_sec,
                        double redirect_delay_sec, double mean_hits_per_page);

  void dispatch(ServerId target, PageRequest request) override;

  std::uint64_t redirects() const { return redirects_; }
  std::uint64_t direct_deliveries() const { return direct_; }

  /// Estimated seconds of work queued at a server (backlog hits / C_i).
  double backlog_sec(ServerId s) const;

 private:
  /// Least-backlog non-crashed server, or -1 when the whole site is down.
  ServerId least_loaded() const;
  /// Hands the oldest parked page to its server (one delivery event).
  void deliver_parked();

  sim::Simulator& sim_;
  Cluster& cluster_;
  double max_wait_sec_;
  double redirect_delay_sec_;
  double mean_hits_per_page_;
  std::uint64_t redirects_ = 0;
  std::uint64_t direct_ = 0;
  /// Redirected pages in flight, oldest first, with their destination.
  std::deque<std::pair<ServerId, PageRequest>> parked_;
};

}  // namespace adattl::web
