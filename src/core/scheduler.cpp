#include "core/scheduler.h"

#include <stdexcept>

#include "geo/geo_model.h"

namespace adattl::core {

DnsScheduler::DnsScheduler(std::string name, std::unique_ptr<SelectionPolicy> selection,
                           std::unique_ptr<TtlPolicy> ttl, const AlarmRegistry& alarms,
                           std::shared_ptr<const geo::GeoModel> geo)
    : name_(std::move(name)),
      selection_(std::move(selection)),
      ttl_(std::move(ttl)),
      alarms_(alarms),
      geo_(std::move(geo)),
      assignments_(alarms.eligible().size(), 0),
      per_server_assignment_rtt_sec_(alarms.eligible().size(), 0.0) {
  if (!selection_ || !ttl_) throw std::invalid_argument("DnsScheduler: missing policy");
}

Decision DnsScheduler::schedule(web::DomainId domain) {
  DecisionContext ctx;
  ctx.domain = domain;
  ctx.eligible = &alarms_.eligible();
  ctx.utilization = &alarms_.last_utilization();
  ctx.queue_depth = &alarms_.last_queue_depth();
  ctx.geo = geo_.get();
  ctx.pool_size = alarms_.pool_size();
  ctx.feedback_generation = alarms_.feedback_generation();

  const web::ServerId server = selection_->select(ctx);
  const double ttl = ttl_->ttl(domain, server);
  selection_->on_assign(domain, server, ttl);

  ++decisions_;
  assignments_.at(static_cast<std::size_t>(server))++;
  ttl_stat_.add(ttl);
  if (geo_) {
    const double rtt = geo_->rtt(domain, server);
    assignment_rtt_sum_sec_ += rtt;
    per_server_assignment_rtt_sec_[static_cast<std::size_t>(server)] += rtt;
  }
  const Decision decision{server, ttl};

  if (bound_) {
    if (ttl_hist_) ttl_hist_->add(ttl);
    if (eligible_hist_) {
      // Eligible-set size is only worth the O(N) count when someone listens.
      std::size_t eligible = 0;
      for (const bool e : alarms_.eligible()) eligible += e ? 1 : 0;
      eligible_hist_->add(static_cast<double>(eligible));
    }
    if (tracer_) {
      tracer_->record(clock_ ? clock_->now() : 0.0, obs::TraceKind::kDecision, domain, server,
                      ttl);
    }
  }

  if (hook_) hook_(domain, decision);
  return decision;
}

void DnsScheduler::bind_observability(obs::EventTracer* tracer, const sim::Simulator* clock,
                                      sim::Histogram* ttl, sim::Histogram* eligible) {
  tracer_ = tracer;
  clock_ = clock;
  ttl_hist_ = ttl;
  eligible_hist_ = eligible;
  bound_ = tracer != nullptr || ttl != nullptr || eligible != nullptr;
}

}  // namespace adattl::core
