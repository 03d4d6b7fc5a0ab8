#include "web/dispatcher.h"

#include <stdexcept>

namespace adattl::web {

RedirectingDispatcher::RedirectingDispatcher(sim::Simulator& sim, Cluster& cluster,
                                             double max_wait_sec, double redirect_delay_sec,
                                             double mean_hits_per_page)
    : sim_(sim),
      cluster_(cluster),
      max_wait_sec_(max_wait_sec),
      redirect_delay_sec_(redirect_delay_sec),
      mean_hits_per_page_(mean_hits_per_page) {
  if (max_wait_sec <= 0) throw std::invalid_argument("redirection: max wait must be > 0");
  if (redirect_delay_sec < 0) throw std::invalid_argument("redirection: delay must be >= 0");
  if (mean_hits_per_page <= 0) throw std::invalid_argument("redirection: bad mean page size");
}

double RedirectingDispatcher::backlog_sec(ServerId s) const {
  // Queue length in pages x mean hits per page / capacity: the expected
  // wait a newly queued page faces. Uses the true instantaneous queue —
  // servers know their own backlog exactly (unlike the DNS).
  const WebServer& server = cluster_.server(s);
  return static_cast<double>(server.queue_length()) * mean_hits_per_page_ /
         server.capacity();
}

ServerId RedirectingDispatcher::least_loaded() const {
  // Crashed peers are skipped — a live server never forwards to one it
  // knows is dead (their empty queues would otherwise always win).
  ServerId best = -1;
  double best_backlog = 0.0;
  for (int s = 0; s < cluster_.size(); ++s) {
    if (cluster_.server(s).crashed()) continue;
    const double b = backlog_sec(s);
    if (best < 0 || b < best_backlog) {
      best = s;
      best_backlog = b;
    }
  }
  return best;
}

void RedirectingDispatcher::dispatch(ServerId target, PageRequest request) {
  if (backlog_sec(target) > max_wait_sec_) {
    const ServerId alternative = least_loaded();  // -1 when every server is down
    if (alternative >= 0 && alternative != target) {
      ++redirects_;
      // One extra hop; never redirected again (the alternative queues it
      // whatever its state — no ping-pong). The 24-byte page waits here
      // rather than in the event: [this, server, request] would be 40
      // bytes, past InlineCallback's 32-byte buffer.
      parked_.emplace_back(alternative, request);
      sim_.after(redirect_delay_sec_, [this] { deliver_parked(); });
      return;
    }
  }
  ++direct_;
  cluster_.server(target).submit_page(request);
}

void RedirectingDispatcher::deliver_parked() {
  // Every delivery event fires after the same delay, in scheduling order,
  // so the oldest parked page is this event's page.
  const auto [server, request] = parked_.front();
  parked_.pop_front();
  cluster_.server(server).submit_page(request);
}

}  // namespace adattl::web
