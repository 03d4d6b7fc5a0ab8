#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/alarm_registry.h"
#include "core/selection_policy.h"
#include "core/ttl_policy.h"
#include "obs/event_tracer.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace adattl::core {

/// What the authoritative DNS returns for one address request: the chosen
/// server's address and the validity period of the mapping.
struct Decision {
  web::ServerId server = 0;
  double ttl_sec = 0.0;
};

/// The authoritative DNS scheduler: selection policy + TTL policy +
/// alarm-based exclusion, with bookkeeping of every decision it makes.
///
/// This is the paper's composite algorithm; e.g. DRR2-TTL/S_K is
/// RoundRobinPolicy(α ≡ 1, two tiers) + AdaptiveTtlPolicy(per-domain
/// classes, server term on). Its name() is the algorithm's canonical
/// spelling (PolicySpec::canonical_name), the one name a policy has.
class DnsScheduler {
 public:
  /// `geo` (optional) makes the scheduler latency-aware: it is handed to
  /// every policy via DecisionContext and used to accumulate RTT-weighted
  /// assignment accounting.
  DnsScheduler(std::string name, std::unique_ptr<SelectionPolicy> selection,
               std::unique_ptr<TtlPolicy> ttl, const AlarmRegistry& alarms,
               std::shared_ptr<const geo::GeoModel> geo = nullptr);

  /// Answers one address request from `domain`.
  Decision schedule(web::DomainId domain);

  /// Observation hook invoked after every decision (e.g. a benchmark that
  /// captures the decision stream for replay). The scheduler itself is
  /// clock-free; observers stamp times themselves.
  void set_decision_hook(std::function<void(web::DomainId, const Decision&)> hook) {
    hook_ = std::move(hook);
  }

  /// Wires the event tracer (`clock` stamps its records) and the
  /// histograms that receive every TTL handed out and the eligible-set
  /// size behind it. Every argument may be null.
  void bind_observability(obs::EventTracer* tracer, const sim::Simulator* clock,
                          sim::Histogram* ttl, sim::Histogram* eligible);

  const std::string& name() const { return name_; }
  const SelectionPolicy& selection() const { return *selection_; }
  const TtlPolicy& ttl_policy() const { return *ttl_; }

  std::uint64_t decisions() const { return decisions_; }
  /// Mappings handed to each server so far (index == ServerId).
  const std::vector<std::uint64_t>& assignments() const { return assignments_; }
  /// Distribution of TTL values handed out.
  const sim::RunningStat& ttl_stat() const { return ttl_stat_; }

  /// Sum of rtt(domain, server) over all decisions, and its per-server
  /// breakdown — the scheduler-side latency objective (zero without geo).
  double assignment_rtt_sum_sec() const { return assignment_rtt_sum_sec_; }
  const std::vector<double>& per_server_assignment_rtt_sec() const {
    return per_server_assignment_rtt_sec_;
  }

 private:
  std::string name_;
  std::unique_ptr<SelectionPolicy> selection_;
  std::unique_ptr<TtlPolicy> ttl_;
  const AlarmRegistry& alarms_;
  std::shared_ptr<const geo::GeoModel> geo_;

  std::uint64_t decisions_ = 0;
  std::vector<std::uint64_t> assignments_;
  sim::RunningStat ttl_stat_;
  double assignment_rtt_sum_sec_ = 0.0;
  std::vector<double> per_server_assignment_rtt_sec_;
  std::function<void(web::DomainId, const Decision&)> hook_;

  // Observability (all null unless bound — one predictable branch per
  // decision when off).
  sim::Histogram* ttl_hist_ = nullptr;
  sim::Histogram* eligible_hist_ = nullptr;
  obs::EventTracer* tracer_ = nullptr;
  const sim::Simulator* clock_ = nullptr;
  bool bound_ = false;
};

}  // namespace adattl::core
